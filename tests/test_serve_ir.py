"""Graph IR: lowering, shape inference, passes, static workload derivation."""

import numpy as np
import pytest

from repro.errors import ExportError
from repro.serve import ExecutionPlan, lower_artifact, post_training_quantize
from repro.serve.backends import compile_graph
from repro.serve.cli import build_model
from repro.serve.export import build_artifact
from repro.serve.ir import synthetic_batch
from repro.serve.passes import run_passes


def make_artifact(name, tmp_path=None, seed=0):
    model, sample = build_model(name, seed=seed)
    rng = np.random.default_rng(seed + 100)
    results = post_training_quantize(model, [sample(rng, 8)])
    return model, build_artifact(model, sample(rng, 4),
                                 layer_results=results, name=name)


# ----------------------------------------------------------------------
# Lowering + shape inference
# ----------------------------------------------------------------------
class TestLowering:
    def test_resnet_lowers_to_flat_dag(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        kinds = [node.kind for node in graph.nodes]
        # Residual blocks become explicit branch chains joined by add nodes.
        assert kinds.count("add") == 3
        assert "residual" not in kinds
        assert kinds[0] == "input"
        # Every node references only earlier nodes (topological order).
        seen = set()
        for node in graph.nodes:
            assert all(i in seen for i in node.inputs)
            seen.add(node.id)

    def test_shapes_inferred_per_request(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        by_name = {n.name: n for n in graph.nodes if n.name}
        assert by_name["conv1"].output_shape == (8, 16, 16)
        assert by_name["stages.1.0.conv1"].output_shape == (16, 8, 8)
        assert by_name["fc"].output_shape == (10,)
        assert graph.node(graph.output_id).output_shape == (10,)

    def test_rnn_graph_shapes_and_merge_flag(self):
        _, artifact = make_artifact("lstm_lm")
        graph = lower_artifact(artifact)
        kinds = [n.kind for n in graph.nodes]
        assert kinds == ["input", "embedding", "rnn", "merge_time", "linear"]
        embedding, rnn, merge, decoder = graph.nodes[1:]
        assert embedding.output_shape == (12, 16)
        assert rnn.output_shape == (12, 24)
        assert merge.merged_time
        assert decoder.output_shape == (12, 40)

    def test_token_bound_from_embedding(self):
        _, artifact = make_artifact("lstm_lm")
        graph = lower_artifact(artifact)
        assert graph.token_bound() == 40
        batch = synthetic_batch(graph, n=3)
        assert batch.shape == (3, 12)
        assert batch.dtype == np.int64
        assert batch.max() < 40


# ----------------------------------------------------------------------
# Workloads derived statically (no forward pass)
# ----------------------------------------------------------------------
class TestStaticWorkloads:
    def test_workloads_available_before_any_forward(self, tmp_path):
        _, artifact = make_artifact("resnet_tiny")
        path = tmp_path / "rt.npz"
        artifact.save(path)
        plan = ExecutionPlan.load(path)  # freshly loaded, never run
        workloads = plan.workloads()
        assert len(workloads) == 10
        assert all(w.macs > 0 for w in workloads)

    def test_simulate_on_fresh_plan_is_not_empty(self, tmp_path):
        _, artifact = make_artifact("resnet_tiny")
        path = tmp_path / "rt.npz"
        artifact.save(path)
        plan = ExecutionPlan.load(path)
        report = plan.simulate(batch=1)
        assert report.latency_ms > 0
        assert report.total_cycles > 0

    def test_static_workloads_match_recorded_manifest(self):
        # Export writes the same dims into the manifest as the IR derives.
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        derived = {w.name: w for w in graph.workloads()}
        for node in graph.nodes:
            if node.kind in ("conv", "linear"):
                recorded = node.spec["workload"]
                workload = derived[node.name]
                assert workload.rows == recorded["rows"]
                assert workload.reduction == recorded["reduction"]
                assert workload.columns == recorded["columns"]

    def test_rnn_recurrent_workloads_sequential(self):
        _, artifact = make_artifact("gru_speech")
        graph = lower_artifact(artifact)
        sequential = [w for w in graph.workloads() if w.sequential_columns]
        assert len(sequential) == 2  # one W_hh GEMM per GRU layer

    def test_columns_scale_with_batch(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        one = graph.workloads(batch=1)
        sixteen = graph.workloads(batch=16)
        assert all(b.columns == 16 * a.columns for a, b in zip(one, sixteen))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class TestPasses:
    def test_fold_batchnorm_attaches_epilogues(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        before = sum(1 for n in graph.nodes
                     if n.kind.startswith("batchnorm"))
        log = run_passes(graph, ["fold_batchnorm"])
        assert log == [f"fold_batchnorm: folded {before}"]
        assert not any(n.kind.startswith("batchnorm") for n in graph.nodes)
        convs = [n for n in graph.nodes if n.kind == "conv"]
        assert all(n.epilogues and n.epilogues[0]["op"] == "batchnorm2d"
                   for n in convs)

    def test_subsumed_relu_eliminated(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        run_passes(graph, ["fold_batchnorm", "fuse_activations",
                           "eliminate_subsumed_relu"])
        # A ReLU whose only consumer re-clips to [0, alpha] is dead work;
        # only activations feeding non-quantized ops survive.
        relu_epilogues = sum(1 for n in graph.nodes for e in n.epilogues
                             if e["op"] == "relu")
        standalone = sum(1 for n in graph.nodes if n.kind == "relu")
        assert relu_epilogues + standalone < 3

    def test_passes_preserve_bit_exactness(self):
        # The optimized fused graph must produce the exact reference bits
        # (compile_graph verifies this; run it explicitly here).
        for name in ("resnet_tiny", "mobilenet_v2"):
            _, artifact = make_artifact(name)
            fused = compile_graph(artifact, "fused")      # verifies
            reference = compile_graph(artifact, "reference")
            batch = synthetic_batch(fused.source_graph, n=3, seed=7)
            assert np.array_equal(fused.run(batch), reference.run(batch))

    def test_unknown_pass_rejected(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        with pytest.raises(ExportError):
            run_passes(graph, ["not_a_pass"])

    def test_scratch_planned_for_convs(self):
        _, artifact = make_artifact("resnet_tiny")
        graph = lower_artifact(artifact)
        run_passes(graph, ["plan_scratch"])
        conv = next(n for n in graph.nodes if n.kind == "conv")
        assert set(conv.scratch) == {"padded", "cols", "gemm_out"}


# ----------------------------------------------------------------------
# Compile-time verification
# ----------------------------------------------------------------------
class TestVerification:
    def test_broken_backend_is_rejected(self, monkeypatch):
        from repro.serve.backends import fused as fused_module

        _, artifact = make_artifact("resnet_tiny")

        class BrokenConv(fused_module.FusedConvKernel):
            def run(self, x):
                out = super().run(x)
                return out + np.float32(1e-3)  # subtly wrong kernel

        monkeypatch.setitem(fused_module._FUSED_KERNELS, "conv", BrokenConv)
        with pytest.raises(ExportError, match="deviates from the reference"):
            compile_graph(artifact, "fused")

    def test_runtime_guardrail_checks_new_batch_sizes(self):
        _, artifact = make_artifact("resnet_tiny")
        model = compile_graph(artifact, "fused")
        assert model.runtime_oracle_factory is not None
        rng = np.random.default_rng(0)
        before = set(model._verified_sizes)
        batch = rng.normal(size=(5, 3, 16, 16)).astype(np.float32)
        model.run(batch)
        assert 5 in model._verified_sizes
        assert model._verified_sizes >= before

    def test_runtime_guardrail_rejects_nan_where_reference_is_finite(self):
        # NaN matches NaN in the oracle, but a NaN the reference does not
        # produce is still a deviation.
        _, artifact = make_artifact("resnet_tiny")
        model = compile_graph(artifact, "fused")
        execute = model._execute

        def poisoned(batch):
            out = execute(batch).copy()
            out.flat[0] = np.nan
            return out

        model._execute = poisoned
        batch = np.ones((5, 3, 16, 16), dtype=np.float32)
        with pytest.raises(ExportError, match="deviates from the reference"):
            model.run(batch)

    def test_reference_backend_skips_verification(self):
        _, artifact = make_artifact("resnet_tiny")
        model = compile_graph(artifact, "reference")
        assert model.runtime_oracle_factory is None
