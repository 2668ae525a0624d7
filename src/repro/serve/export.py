"""Export a quantized model into a frozen serving artifact.

``build_artifact`` freezes activation-quantizer ranges, compiles the module
tree into op specs (:mod:`repro.serve.compile`), lowers them to the graph
IR to record each layer's GEMM workload dimensions into the manifest (from
node shapes — no warm-up forward needed), and runs one verification pass:
the compiled reference-backend plan and the eager model must produce
**bit-identical** logits on a sample batch. Optimized backends are in turn
verified against the reference backend when they are compiled
(:func:`repro.serve.backends.compile_graph`), so the bit-exactness chain
eager == reference == every-backend holds end to end.

The usual caller is :meth:`repro.api.QuantizedModel.deploy`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ExportError
from repro.nn.module import Module
from repro.serve.artifact import FORMAT, ServeArtifact
from repro.serve.compile import compile_model, freeze_activation_quantizers
from repro.tensor import Tensor, no_grad


def eager_forward(model: Module, batch: np.ndarray) -> np.ndarray:
    """Run the eager model on a numpy batch (the serving baseline path)."""
    with no_grad():
        if np.issubdtype(np.asarray(batch).dtype, np.floating):
            return model(Tensor(np.asarray(batch))).data
        return model(np.asarray(batch)).data  # integer token ids


def build_artifact(model: Module, sample_input: np.ndarray,
                   layer_results: Optional[Dict[str, object]] = None,
                   name: str = "model", path=None,
                   verify: bool = True) -> ServeArtifact:
    """Freeze ``model`` into a :class:`ServeArtifact`.

    Parameters
    ----------
    model:
        An eval-ready model built from :mod:`repro.nn` layers. Its
        activation quantizers are frozen as a side effect.
    sample_input:
        A representative ``(N, ...)`` batch; fixes the per-request input
        shape, drives workload recording and the bit-exactness check.
    layer_results:
        Parameter-name → quantization-result mapping
        (``QATResult.layer_results`` or the output of
        :func:`repro.serve.ptq.post_training_quantize`). Layers without an
        entry are stored as raw float32.
    path:
        If given, the artifact is also saved there.
    verify:
        Assert plan output == eager output bitwise (raises
        :class:`~repro.errors.ExportError` otherwise).
    """
    from repro.serve.ir import lower_artifact, record_workloads
    from repro.serve.plan import ExecutionPlan  # avoid import cycle

    sample_input = np.asarray(sample_input)
    if sample_input.ndim < 1 or sample_input.shape[0] < 1:
        raise ExportError("sample_input must be a non-empty (N, ...) batch")
    if np.issubdtype(sample_input.dtype, np.floating):
        # Floating input is served as float32 (ExecutionPlan.coerce), so
        # that cast is what the plan records and is checked on.
        sample_input = sample_input.astype(np.float32, copy=False)
    model.eval()
    freeze_activation_quantizers(model)

    artifact = ServeArtifact(manifest={
        "format": FORMAT,
        "model": name,
        "input_shape": list(sample_input.shape[1:]),
        "input_dtype": str(sample_input.dtype),
        "ops": [],
    })
    artifact.manifest["ops"] = compile_model(
        model, layer_results or {}, artifact)

    # Lowering infers every node's shapes; the manifest keeps the derived
    # GemmWorkload dims so saved artifacts stay self-describing.
    record_workloads(lower_artifact(artifact))

    # Compile the reference backend and check bit-exactness against eager.
    plan = ExecutionPlan(artifact)
    served = plan.forward(sample_input)
    if verify:
        reference = eager_forward(model, sample_input)
        if not np.array_equal(served, reference):
            worst = float(np.max(np.abs(served - reference)))
            raise ExportError(
                f"exported plan deviates from eager model (max |error| "
                f"{worst:.3e}); the plan ops are out of sync with repro.nn")

    if path is not None:
        artifact.save(path)
    return artifact
