"""The paper's contribution: SP2 quantization, mixed-scheme quantization
(MSQ), and the ADMM+STE quantization-aware training algorithms.

Module map against the paper's sections:

- :mod:`~repro.quant.schemes` / :mod:`~repro.quant.quantizers` — the three
  weight number systems and their projections (§II-A, §III-A, Eqs. 1-8);
- :mod:`~repro.quant.encoding` — the integer hardware words of Table I,
  including the ``pack_*`` export hooks the serving artifact
  (:mod:`repro.serve`) stores weights with;
- :mod:`~repro.quant.partition` — row-variance SP2/fixed partitioning
  (§IV-A/B, Alg. 2) plus array (de)serialization of partitions;
- :mod:`~repro.quant.msq` — intra-layer mixed-scheme quantization (§IV);
- :mod:`~repro.quant.ste` / :mod:`~repro.quant.admm` /
  :mod:`~repro.quant.trainer` — Alg. 1's ADMM+STE training loop;
- :mod:`~repro.quant.baselines` — the published methods of Tables III-VI.

Typical use — through the unified front door::

    from repro.api import Pipeline, PipelineConfig

    config = PipelineConfig(scheme="msq", weight_bits=4, act_bits=4,
                            ratio="2:1")      # SP2:fixed from FPGA charact.
    result = Pipeline(config, model=model).fit(make_batches, loss_fn)
    result.deploy(batch=16).predict(x)

The schemes and quantizers here register themselves into
:mod:`repro.api.registry`, which is how ``PipelineConfig(scheme=...)``
resolves them; :func:`repro.quant.trainer.run_qat` is the bare training
loop underneath :meth:`repro.api.Pipeline.fit`.
"""

from repro.quant.schemes import (
    Scheme,
    SchemeSpec,
    fixed_point_levels,
    power_of_2_levels,
    sp2_levels,
    sp2_magnitude_terms,
    default_sp2_split,
    levels_for,
)
from repro.quant.quantizers import (
    SchemeQuantizer,
    QuantResult,
    make_quantizer,
    project_to_levels,
    quantization_mse,
    verify_on_levels,
)
from repro.quant.encoding import (
    SP2Code,
    encode_fixed,
    decode_fixed,
    encode_p2,
    decode_p2,
    encode_sp2,
    decode_sp2,
    pack_fixed,
    unpack_fixed,
    pack_p2,
    unpack_p2,
    pack_sp2,
    unpack_sp2,
    storage_dtype,
)
from repro.quant.arithmetic import (
    OpCount,
    ops_fixed_point,
    ops_sp2,
    shift_add_multiply,
    fixed_multiply,
    sp2_frac_bits,
    table1_rows,
)
from repro.quant.partition import (
    PartitionRatio,
    RowPartition,
    partition_rows,
    partition_summary,
    partition_to_arrays,
    partition_from_arrays,
    row_variances,
    to_gemm_matrix,
    from_gemm_matrix,
)
from repro.quant.msq import MixedSchemeQuantizer, MSQResult
from repro.quant.ste import ActivationQuantizer, WeightSTEQuantizer, fake_quant_ste
from repro.quant.admm import ADMMQuantizer, collect_quantizable
from repro.quant.trainer import (
    QATConfig,
    QATResult,
    run_qat,
    train_fp,
    install_activation_quantizers,
)

__all__ = [
    "Scheme",
    "SchemeSpec",
    "fixed_point_levels",
    "power_of_2_levels",
    "sp2_levels",
    "sp2_magnitude_terms",
    "default_sp2_split",
    "levels_for",
    "SchemeQuantizer",
    "QuantResult",
    "make_quantizer",
    "project_to_levels",
    "quantization_mse",
    "verify_on_levels",
    "SP2Code",
    "encode_fixed",
    "decode_fixed",
    "encode_p2",
    "decode_p2",
    "encode_sp2",
    "decode_sp2",
    "pack_fixed",
    "unpack_fixed",
    "pack_p2",
    "unpack_p2",
    "pack_sp2",
    "unpack_sp2",
    "storage_dtype",
    "OpCount",
    "ops_fixed_point",
    "ops_sp2",
    "shift_add_multiply",
    "fixed_multiply",
    "sp2_frac_bits",
    "table1_rows",
    "PartitionRatio",
    "RowPartition",
    "partition_rows",
    "partition_summary",
    "partition_to_arrays",
    "partition_from_arrays",
    "row_variances",
    "to_gemm_matrix",
    "from_gemm_matrix",
    "MixedSchemeQuantizer",
    "MSQResult",
    "ActivationQuantizer",
    "WeightSTEQuantizer",
    "fake_quant_ste",
    "ADMMQuantizer",
    "collect_quantizable",
    "QATConfig",
    "QATResult",
    "run_qat",
    "train_fp",
    "install_activation_quantizers",
]
