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


def test_backend_kernel_latency_report(tmp_path, monkeypatch):
    """Raw ``CompiledModel.run`` latency per backend (no batcher, no
    server): what the kernels themselves cost, one row per model.
    Written to ``BENCH_kernels.json``; the ``compiled`` column appears
    only when the machine has a C compiler, and then must not be slower
    than ``fused`` (deliberately no pytest-benchmark fixture, so the CI
    codegen job can run this file standalone). ``"compiler"`` names the
    compiler and its whole optimization tier.

    The codegen cache starts empty. ``library_build_s`` is the one build
    of the kernel library every compiled graph shares (built before any
    model, so no row pays it); a model's first ``compiled`` row reports
    ``build_s``: ``compile_graph`` (descriptor tables, plus the bitwise
    check against the reference backend) and its first run, against the
    warm library. Both are reported, not gated.

    The backends are timed in alternation: each round times every
    backend once (``calls`` runs each), so a slow spell of a shared host
    lands on both sides of a comparison. The gates take the median over
    rounds of each round's paired ratio."""
    from repro.api import Pipeline, PipelineConfig
    from repro.serve.artifact import ServeArtifact
    from repro.serve.backends import backend_availability, compile_graph
    from repro.serve.cli import build_model
    from repro.serve.codegen import compiler_probe, kernel_library

    rounds, calls = 9, 5
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    compiler, note = compiler_probe()
    if not backend_availability()["compiled"][0]:
        compiler = None
    backends = ["reference", "fused"] + (["compiled"] if compiler else [])
    report = {"compiler": note, "rows": []}
    if compiler:
        started = time.perf_counter()
        kernel_library()
        report["library_build_s"] = round(time.perf_counter() - started, 3)
        print(f"\nkernel library build {report['library_build_s']:.2f} s")
    ratios, built = {}, set()
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
        compiled, build_s = {}, None
        for name in backends:
            started = time.perf_counter()
            compiled[name] = compile_graph(artifact, backend=name)
            out = compiled[name].run(x)  # warm scratch, build, verify bits
            if name == "compiled" and model_name not in built:
                built.add(model_name)
                build_s = time.perf_counter() - started
            assert out.shape[0] == out_rows
        samples = {name: [] for name in backends}
        for index in range(rounds):
            # Rotate the order so no backend always runs first.
            for name in backends[index % len(backends):] \
                    + backends[:index % len(backends)]:
                started = time.perf_counter()
                for _ in range(calls):
                    compiled[name].run(x)
                samples[name].append(
                    (time.perf_counter() - started) * 1e3 / calls)
        timings = {name: float(np.median(times))
                   for name, times in samples.items()}
        pairs = {"fused/reference": ("fused", "reference")}
        if compiler:
            pairs["compiled/fused"] = ("compiled", "fused")
        row_ratios = ratios[model_name, batch] = {
            label: float(np.median(np.divide(samples[top],
                                             samples[bottom])))
            for label, (top, bottom) in pairs.items()}
        for name in backends:
            print(f"\n{model_name:<13} b{batch:<3} {name:<9} "
                  f"{timings[name]:8.3f} ms/batch")
        row = {"model": model_name, "batch": batch,
               "kernels_ms": {k: round(v, 3) for k, v in timings.items()},
               "paired_ratio_median": {k: round(v, 3)
                                       for k, v in row_ratios.items()}}
        if build_s is not None:
            print(f"{model_name:<13} build {build_s:.2f} s")
            row["build_s"] = round(build_s, 3)
        report["rows"].append(row)
    out_path = os.environ.get("BENCH_KERNELS_OUT", "BENCH_kernels.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {out_path}")
    for row, row_ratios in ratios.items():
        assert row_ratios["fused/reference"] <= 1.2, (row, row_ratios)
        if compiler:
            assert row_ratios["compiled/fused"] <= 1.0, (row, row_ratios)


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
