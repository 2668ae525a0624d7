"""Backend parity: every registered backend == reference == eager, bitwise.

The compile pipeline's whole contract is that backend choice is invisible
in the output bits: the reference backend is verified against eager
inference at export, and every other backend is verified against the
reference at compile time plus once per served batch size. This suite
drives all exported model families through every registered backend and
asserts exact equality, and covers the satellite numerics fixes
(activation fake-quant simplification, overflow-free sigmoid).
"""

import warnings

import numpy as np
import pytest

from repro.quant.ste import ActivationQuantizer
from repro.serve import (
    ExecutionPlan,
    InferenceEngine,
    list_backends,
    post_training_quantize,
)
from repro.serve.cli import build_model
from repro.serve.export import build_artifact, eager_forward
from repro.tensor import stable_sigmoid, stable_tanh

# One zoo model per exported family named in the paper's tables.
FAMILIES = {
    "resnet": "resnet_tiny",
    "mobilenet_v2": "mobilenet_v2",
    "lstm": "lstm_lm",
    "gru": "gru_speech",
    "yolo_head": "yolo_lite",
}

ALL_BACKENDS = ("reference", "fused", "compiled")
OPTIMIZED_BACKENDS = ("fused", "compiled")


def _require(backend: str) -> None:
    """Skip compiled-backend cases on machines without a C compiler
    (the backend itself would silently degrade to fused there, which is
    covered by its own fallback tests, not parity)."""
    if backend == "compiled":
        from repro.serve.codegen import compiler_probe

        compiler, note = compiler_probe()
        if compiler is None:
            pytest.skip(f"compiled backend needs a C compiler: {note}")


@pytest.fixture(scope="module")
def family_artifacts():
    built = {}
    for family, name in FAMILIES.items():
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(11)
        results = post_training_quantize(model, [sample(rng, 8)])
        artifact = build_artifact(model, sample(rng, 4),
                                  layer_results=results, name=name)
        built[family] = (model, artifact, sample)
    return built


class TestBackendParity:
    def test_registry_has_all_backends(self):
        assert set(ALL_BACKENDS) <= set(list_backends())

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("backend", sorted(ALL_BACKENDS))
    def test_backend_bit_identical_to_reference_and_eager(
            self, family, backend, family_artifacts):
        _require(backend)
        model, artifact, sample = family_artifacts[family]
        rng = np.random.default_rng(101)
        batch = sample(rng, 6)
        reference = ExecutionPlan(artifact)
        plan = ExecutionPlan(artifact, backend=backend)
        assert plan.backend == backend
        out = plan.forward(batch)
        assert np.array_equal(out, reference.forward(batch))
        assert np.array_equal(out, eager_forward(model, batch))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("backend", sorted(OPTIMIZED_BACKENDS))
    def test_optimized_matches_across_batch_sizes(self, family, backend,
                                                  family_artifacts):
        _require(backend)
        _, artifact, sample = family_artifacts[family]
        rng = np.random.default_rng(5)
        reference = ExecutionPlan(artifact)
        optimized = ExecutionPlan(artifact, backend=backend)
        for n in (1, 2, 7, 16):
            batch = sample(rng, n)
            assert np.array_equal(optimized.forward(batch),
                                  reference.forward(batch)), n

    def test_engine_load_accepts_backend(self, family_artifacts, tmp_path):
        _, artifact, sample = family_artifacts["resnet"]
        path = tmp_path / "rt.npz"
        artifact.save(path)
        engine = InferenceEngine.load(path, backend="fused")
        assert engine.backend == "fused"
        rng = np.random.default_rng(3)
        batch = sample(rng, 4)
        assert np.array_equal(engine.infer(batch),
                              ExecutionPlan(artifact).forward(batch))

    @pytest.mark.parametrize("backend", sorted(OPTIMIZED_BACKENDS))
    def test_optimized_outputs_are_stable_across_calls(
            self, backend, family_artifacts):
        # Optimized kernels reuse pooled scratch; returned results must not
        # be aliased into it (a second forward must not corrupt the first's
        # returned array).
        _require(backend)
        _, artifact, sample = family_artifacts["resnet"]
        plan = ExecutionPlan(artifact, backend=backend)
        rng = np.random.default_rng(9)
        a_in, b_in = sample(rng, 4), sample(rng, 4)
        a = plan.forward(a_in)
        a_copy = a.copy()
        plan.forward(b_in)
        assert np.array_equal(a, a_copy)

    @pytest.mark.parametrize("family", ["resnet", "mobilenet_v2", "lstm"])
    def test_compiled_reads_no_stale_scratch(self, family,
                                             family_artifacts):
        # The runtime oracle checks only the first batch of each size, so
        # a native run that skipped a write would serve the previous
        # batch's bits. Poison every pooled float32 buffer between two
        # batches of one size (except the zero-bordered padded arenas,
        # whose border is never written by design).
        _require("compiled")
        model, artifact, sample = family_artifacts[family]
        plan = ExecutionPlan(artifact, backend="compiled")
        rng = np.random.default_rng(29)
        first, second = sample(rng, 5), sample(rng, 5)
        assert np.array_equal(plan.forward(first),
                              eager_forward(model, first))
        poisoned = 0
        for (tag, _, dtype), buffer in plan.compiled.ctx._pool.items():
            if dtype == np.dtype(np.float32).str \
                    and not tag.startswith("conv.padded."):
                buffer.fill(np.nan)
                poisoned += 1
        assert poisoned
        assert np.array_equal(plan.forward(second),
                              eager_forward(model, second))


# ----------------------------------------------------------------------
# Satellite numerics
# ----------------------------------------------------------------------
class TestActQuantSimplification:
    @pytest.mark.parametrize("signed", [False, True])
    def test_quantized_equals_ste_identity(self, signed):
        # The old hot path computed clipped + (quantized - clipped); by
        # Sterbenz's lemma that is exactly `quantized` in float32 — fuzz it.
        rng = np.random.default_rng(0)
        quantizer = ActivationQuantizer(4, signed=signed, alpha=1.37)
        quantizer.calibrating = False
        x = (rng.normal(scale=2.0, size=50_000)).astype(np.float32)
        low = -quantizer.alpha if signed else 0.0
        clipped = np.clip(x, low, quantizer.alpha)
        quantized = np.asarray(quantizer.quantize_array(x),
                               dtype=np.float32)
        legacy = clipped + (quantized - clipped)
        assert np.array_equal(legacy, quantized)


class TestStableSigmoid:
    def test_no_overflow_warning_for_large_negatives(self):
        x = np.array([-200.0, -89.0, -5.0, 0.0, 5.0, 200.0],
                     dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stable_sigmoid(x)
        assert out.dtype == np.float32
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0] >= 0.0 and np.isfinite(out).all()

    def test_matches_naive_formula_where_safe(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=3.0, size=10_000).astype(np.float32)
        naive = (1.0 / (1.0 + np.exp(-x.astype(np.float64))))
        np.testing.assert_allclose(stable_sigmoid(x), naive,
                                   rtol=1e-6, atol=1e-7)

    def test_tanh_matches_float64_where_safe(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([
            rng.normal(scale=3.0, size=10_000),
            # Around 0, where 1 - exp(-2|x|) would cancel.
            rng.normal(scale=1e-3, size=1_000)]).astype(np.float32)
        np.testing.assert_allclose(stable_tanh(x),
                                   np.tanh(x.astype(np.float64)),
                                   rtol=1e-6, atol=1e-7)

    def test_rnn_plan_stays_bit_exact(self, family_artifacts):
        # Eager RNN cells and both serving backends share stable_sigmoid,
        # so the export bit-exactness contract holds for RNN plans.
        model, artifact, sample = family_artifacts["gru"]
        rng = np.random.default_rng(2)
        batch = sample(rng, 3)
        for backend in ("reference", "fused"):
            plan = ExecutionPlan(artifact, backend=backend)
            assert np.array_equal(plan.forward(batch),
                                  eager_forward(model, batch))
