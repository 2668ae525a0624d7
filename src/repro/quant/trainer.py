"""Quantization-aware training orchestration (Algorithms 1 and 2 end to end).

``run_qat`` (fronted by :meth:`repro.api.Pipeline.fit`) runs the paper's
full recipe on any model built from the :mod:`repro.nn` layers:

1. install n-bit fixed-point STE activation quantizers on every quantizable
   layer (signed for RNN cells, unsigned after ReLUs);
2. each epoch, update the ADMM ``Z``/``U`` variables (with per-epoch MSQ row
   repartitioning for mixed-scheme layers);
3. each batch, minimize ``task_loss + rho/2 * ||W - Z + U||^2`` with SGD and
   a step/cosine LR schedule;
4. finally project ``W`` onto the level sets and freeze activation ranges.

The task specifics (how a batch turns into a loss) are injected as a
callable, so CNN classification, detection and RNN tasks share this code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.api.registry import get_scheme
from repro.errors import ConfigurationError
from repro.nn import SGD, CosineAnnealingLR, StepLR
from repro.nn.module import Module
from repro.nn.rnn import _RNNCellBase
from repro.quant.admm import ADMMQuantizer, QUANTIZABLE_TYPES
from repro.quant.partition import PartitionRatio, sp2_row_fraction_of
from repro.quant.quantizers import AlphaSpec
from repro.quant.schemes import Scheme
from repro.quant.ste import ActivationQuantizer
from repro.tensor import Tensor

BatchLossFn = Callable[[Module, object], Tensor]
MakeBatchesFn = Callable[[int], Iterable[object]]


@dataclass
class QATConfig:
    """Hyper-parameters of one quantization-aware training run."""

    scheme: Union[Scheme, str] = Scheme.MSQ
    weight_bits: int = 4
    act_bits: int = 4
    ratio: Union[str, float, PartitionRatio] = "1:1"   # SP2:fixed (MSQ only)
    alpha: AlphaSpec = "fit"
    epochs: int = 8
    lr: float = 8e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_schedule: str = "cosine"        # "cosine" | "step" | "none"
    lr_step_size: int = 3
    rho: float = 1e-2
    quantize_activations: bool = True
    act_skip_first: bool = True        # keep the input layer's activations FP
    skip_modules: Sequence[str] = ()   # substring match on module names
    act_skip_modules: Sequence[str] = ()  # act-quant-only skip list
    # Inter-layer multi-precision (§I: MSQ is "perpendicular to, and can be
    # combined with, the existing inter-layer, multi-precision approaches"):
    # substring-matched per-layer bit-width overrides, e.g. {"fc": 8}.
    layer_bits: Optional[Dict[str, int]] = None

    def __post_init__(self):
        if isinstance(self.scheme, str):
            try:
                self.scheme = Scheme(self.scheme)
            except ValueError:
                # Not one of the built-in enum members: accept any scheme
                # registered via @register_scheme (raises on unknown names).
                get_scheme(self.scheme)
        if self.lr_schedule not in ("cosine", "step", "none"):
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")


@dataclass
class QATResult:
    """Everything produced by a quantization run."""

    model: Module
    layer_results: Dict[str, object]
    act_quantizers: Dict[str, ActivationQuantizer]
    history: List[Dict[str, float]] = field(default_factory=list)

    def sp2_row_fraction(self) -> float:
        """Achieved SP2 row share across MSQ layers (sanity vs. the target)."""
        return sp2_row_fraction_of(self.layer_results)


def projection_factory_from_config(config: QATConfig
                                   ) -> Callable[[str, np.ndarray], object]:
    """Build the per-layer projection chooser used by :class:`ADMMQuantizer`."""

    def bits_for(name: str) -> int:
        for pattern, bits in (config.layer_bits or {}).items():
            if pattern in name:
                return bits
        return config.weight_bits

    entry = get_scheme(config.scheme)

    def factory(name: str, weight: np.ndarray):
        return entry.make(bits_for(name), ratio=config.ratio,
                          alpha=config.alpha)

    return factory


def install_activation_quantizers(model: Module, bits: int,
                                  skip_first: bool = True,
                                  skip: Sequence[str] = ()
                                  ) -> Dict[str, ActivationQuantizer]:
    """Attach STE activation quantizers to quantizable layers.

    RNN cells get signed quantizers (tanh hidden states); feed-forward
    layers get unsigned ones (post-ReLU inputs).
    """
    installed: Dict[str, ActivationQuantizer] = {}
    first_pending = skip_first
    for name, module in model.named_modules():
        if not isinstance(module, QUANTIZABLE_TYPES):
            continue
        if any(pattern and pattern in name for pattern in skip):
            continue
        if first_pending:
            first_pending = False
            continue
        quantizer = ActivationQuantizer(
            bits, signed=isinstance(module, _RNNCellBase))
        module.act_quant = quantizer
        installed[name] = quantizer
    return installed


def run_qat(model: Module, make_batches: MakeBatchesFn,
            loss_fn: BatchLossFn, config: QATConfig,
            eval_fn: Optional[Callable[[Module], float]] = None
            ) -> QATResult:
    """Run ADMM+STE quantization-aware training (Alg. 1 / Alg. 2).

    This is the QAT engine behind :meth:`repro.api.Pipeline.fit` — prefer
    that front door; call this directly only when embedding the loop in a
    custom harness.
    """
    act_quantizers: Dict[str, ActivationQuantizer] = {}
    if config.quantize_activations:
        act_skip = tuple(config.skip_modules) + tuple(config.act_skip_modules)
        act_quantizers = install_activation_quantizers(
            model, config.act_bits, skip_first=config.act_skip_first,
            skip=act_skip)

    admm = ADMMQuantizer(model, projection_factory_from_config(config),
                         rho=config.rho, skip=config.skip_modules)
    optimizer = SGD(model.parameters(), lr=config.lr,
                    momentum=config.momentum, weight_decay=config.weight_decay)
    scheduler = None
    if config.lr_schedule == "cosine":
        scheduler = CosineAnnealingLR(optimizer, t_max=config.epochs)
    elif config.lr_schedule == "step":
        scheduler = StepLR(optimizer, step_size=config.lr_step_size)

    history: List[Dict[str, float]] = []
    model.train()
    for epoch in range(config.epochs):
        admm.epoch_update()
        epoch_loss = 0.0
        batches = 0
        for batch in make_batches(epoch):
            loss = loss_fn(model, batch) + admm.penalty_loss()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        record = {"epoch": epoch, "loss": epoch_loss / max(batches, 1),
                  "lr": optimizer.lr}
        if eval_fn is not None:
            record["eval"] = float(eval_fn(model))
        history.append(record)
        if scheduler is not None:
            scheduler.step()

    layer_results = admm.finalize()
    for quantizer in act_quantizers.values():
        quantizer.calibrating = False
    model.eval()
    return QATResult(model=model, layer_results=layer_results,
                     act_quantizers=act_quantizers, history=history)


def train_fp(model: Module, make_batches: MakeBatchesFn, loss_fn: BatchLossFn,
             epochs: int, lr: float, momentum: float = 0.9,
             weight_decay: float = 1e-4, schedule: str = "cosine",
             eval_fn: Optional[Callable[[Module], float]] = None
             ) -> List[Dict[str, float]]:
    """Plain full-precision training — produces the FP baselines of the
    accuracy tables."""
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                    weight_decay=weight_decay)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs) \
        if schedule == "cosine" else None
    history: List[Dict[str, float]] = []
    model.train()
    for epoch in range(epochs):
        epoch_loss = 0.0
        batches = 0
        for batch in make_batches(epoch):
            loss = loss_fn(model, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        record = {"epoch": epoch, "loss": epoch_loss / max(batches, 1)}
        if eval_fn is not None:
            record["eval"] = float(eval_fn(model))
        history.append(record)
        if scheduler is not None:
            scheduler.step()
    model.eval()
    return history
