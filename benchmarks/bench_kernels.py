"""Micro-benchmarks of the framework's hot kernels (proper timing loops).

These quantify the library itself rather than a paper artifact: projection
throughput, MSQ partition+quantize cost, the bit-exact integer GEMM, a
training step of the substrate, and the serving backends' raw
``CompiledModel.run`` latency (reference vs fused vs compiled-to-C),
written to ``BENCH_kernels.json`` so CI tracks the kernel trajectory.
"""

import json
import os
import time

import numpy as np

from repro import nn
from repro.fpga.bitexact import gemm_sp2_shiftadd, mixed_gemm_bitexact
from repro.models import resnet_tiny
from repro.quant import (
    MixedSchemeQuantizer,
    Scheme,
    SchemeQuantizer,
    encode_sp2,
)
from repro.quant.ste import ActivationQuantizer
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


def test_fixed_projection_throughput(benchmark):
    quantizer = SchemeQuantizer(Scheme.FIXED, 4, alpha="max")
    weights = RNG.normal(0, 0.2, size=(256, 1152))
    result = benchmark(quantizer.quantize, weights)
    assert result.values.shape == weights.shape


def test_sp2_projection_throughput(benchmark):
    quantizer = SchemeQuantizer(Scheme.SP2, 4, alpha="max")
    weights = RNG.normal(0, 0.2, size=(256, 1152))
    result = benchmark(quantizer.quantize, weights)
    assert result.values.shape == weights.shape


def test_msq_partition_and_quantize(benchmark):
    quantizer = MixedSchemeQuantizer(bits=4, ratio="2:1", alpha="max")
    weights = RNG.normal(0, 0.2, size=(128, 576))
    result = benchmark(quantizer.quantize, weights)
    assert result.partition.num_sp2 == 85


def test_sp2_shiftadd_gemm(benchmark):
    quantizer = SchemeQuantizer(Scheme.SP2, 4, alpha="max")
    weights = quantizer.quantize(RNG.normal(0, 0.2, size=(256, 256)))
    code = encode_sp2(weights.unit_values, 2, 1)
    acts = RNG.integers(0, 16, size=(64, 256))
    out = benchmark(gemm_sp2_shiftadd, acts, code)
    assert out.shape == (64, 256)


def test_mixed_bitexact_gemm(benchmark):
    msq = MixedSchemeQuantizer(bits=4, ratio="2:1").quantize(
        RNG.normal(0, 0.2, size=(128, 256)))
    act_quant = ActivationQuantizer(bits=4)
    x = np.abs(RNG.normal(size=(32, 256)))
    act_quant.observe(x)
    out = benchmark(mixed_gemm_bitexact, x, msq, act_quant)
    assert out["output"].shape == (32, 128)


#: (model, batch) rows of the kernel-latency report. ResNet-tiny runs
#: at batch 8, where its conv prologues (not the GEMMs) dominate; the
#: batch-1 rows are where per-node Python glue weighs most; the RNN rows
#: time the recurrence, a Python loop per step on the numpy backends.
KERNEL_LATENCY_ROWS = (("mobilenet_v2", 16), ("resnet_tiny", 8),
                       ("resnet_tiny", 1), ("mobilenet_v2", 1),
                       ("lstm_lm", 8), ("gru_speech", 8))


def test_backend_kernel_latency_report(tmp_path):
    """Raw ``CompiledModel.run`` latency per backend (no batcher, no
    server): what the kernels themselves cost, one row per model.
    Written to ``BENCH_kernels.json``; the ``compiled`` column appears
    only when the machine has a C compiler, and then must not be slower
    than ``fused`` (deliberately no pytest-benchmark fixture, so the CI
    codegen job can run this file standalone)."""
    from repro.api import Pipeline, PipelineConfig
    from repro.serve.artifact import ServeArtifact
    from repro.serve.backends import compile_graph
    from repro.serve.cli import build_model
    from repro.serve.codegen import compiler_probe

    rounds = 7
    compiler, note = compiler_probe()
    backends = ["reference", "fused"] + (["compiled"] if compiler else [])
    report = {"compiler": note, "rows": []}
    rows = {}
    for model_name, batch in KERNEL_LATENCY_ROWS:
        model, sample = build_model(model_name, seed=0)
        rng = np.random.default_rng(1)
        path = tmp_path / f"{model_name}.npz"
        if not path.exists():
            pipeline = Pipeline(PipelineConfig(), model=model)
            pipeline.calibrate([sample(rng, 8)])
            pipeline.result.export(sample(rng, 4), path=path)
        artifact = ServeArtifact.load(path)
        x = sample(rng, batch)
        # A time-merged decoder (the RNN language and speech models)
        # returns one row per request per time step.
        graph = compile_graph(artifact, backend="reference").source_graph
        output = graph.node(graph.output_id)
        out_rows = batch * (output.output_shape[0] if output.merged_time
                            else 1)
        timings = rows[model_name, batch] = {}
        for name in backends:
            compiled = compile_graph(artifact, backend=name)
            compiled.run(x)  # warm scratch, build libraries, verify bits
            samples = []
            for _ in range(rounds):
                started = time.perf_counter()
                out = compiled.run(x)
                samples.append((time.perf_counter() - started) * 1e3)
            assert out.shape[0] == out_rows
            timings[name] = sorted(samples)[len(samples) // 2]
            print(f"\n{model_name:<13} b{batch:<3} {name:<9} "
                  f"{timings[name]:8.3f} ms/batch")
        report["rows"].append({
            "model": model_name, "batch": batch,
            "kernels_ms": {k: round(v, 3) for k, v in timings.items()}})
    out_path = os.environ.get("BENCH_KERNELS_OUT", "BENCH_kernels.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {out_path}")
    for row, timings in rows.items():
        assert timings["fused"] <= timings["reference"] * 1.2, row
        if compiler:
            assert timings["compiled"] <= timings["fused"], row


def test_resnet_training_step(benchmark):
    model = resnet_tiny(num_classes=10, rng=np.random.default_rng(7))
    optimizer = nn.SGD(model.parameters(), lr=1e-2, momentum=0.9)
    images = RNG.normal(size=(32, 3, 16, 16)).astype(np.float32)
    labels = RNG.integers(0, 10, size=32)

    def step():
        loss = nn.cross_entropy(model(Tensor(images)), labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)
