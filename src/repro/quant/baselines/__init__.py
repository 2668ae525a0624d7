"""Baseline DNN quantization methods the paper compares against
(Tables III, IV and VI): DoReFa, PACT, DSQ, QIL, µL2Q, LQ-Nets, LSQ, EQM.

Every method implements the small :class:`~repro.quant.baselines.common.
BaselineMethod` interface (install STE hooks -> optional per-epoch state
update -> hard projection at the end) so the shared
:func:`~repro.quant.baselines.common.train_baseline` loop runs them all under
identical conditions — the same discipline the paper follows by starting all
methods from the same pre-trained model.

Each method registers itself in the :mod:`repro.api.registry` method
registry via ``@register_method``; the public way to look one up is
:func:`repro.api.get_method` (or ``PipelineConfig(method=...)`` which
trains it through :meth:`repro.api.Pipeline.fit`).
"""

from repro.api.registry import get_method, list_methods
from repro.quant.baselines.common import BaselineMethod, train_baseline
from repro.quant.baselines.dorefa import DoReFa
from repro.quant.baselines.pact import PACT
from repro.quant.baselines.dsq import DSQ
from repro.quant.baselines.qil import QIL
from repro.quant.baselines.ul2q import MuL2Q
from repro.quant.baselines.lqnets import LQNets
from repro.quant.baselines.lsq import LSQ
from repro.quant.baselines.eqm import EQM


def available_baselines() -> list:
    """Class names of every registered method (one entry per class)."""
    return sorted({get_method(key).cls.__name__ for key in list_methods()})


__all__ = [
    "BaselineMethod",
    "train_baseline",
    "available_baselines",
    "DoReFa",
    "PACT",
    "DSQ",
    "QIL",
    "MuL2Q",
    "LQNets",
    "LSQ",
    "EQM",
]
