"""Cluster throughput scaling under a Poisson arrival stream.

The claim gated here is the one the distributed tier exists for: **a
multi-process cluster scales past one process**. The same open-loop
Poisson request stream (arrival rate ~2.5x the single-process service
capacity) is driven at a 1-worker and a 4-worker subprocess cluster
through the real ``ClusterRouter`` + socket transport path, and the
4-worker cluster must deliver at least **2.5x** the requests/sec of the
1-worker cluster.

The gate is CPU-aware: 4 workers cannot scale on fewer than ~5 cores
(router + 4 busy workers), so on smaller machines the run still executes
end to end — real subprocesses, real sockets, every request answered —
but the scaling assert relaxes to "no slower than 0.5x" (four processes
time-slicing one core pay real context-switch overhead) and the report
records ``"gate": "relaxed"``. CI's cluster job runs on enough cores for
the full gate.

Each scenario runs twice and the better pass is kept (the first pass
pays worker warmup; the standard interference-robust choice on shared
runners). Writes ``BENCH_cluster.json`` for per-PR tracking.
"""

import json
import os
import time

import numpy as np

from repro.api import Pipeline, PipelineConfig
from repro.serve import ClusterRouter
from repro.serve.cli import build_model

MODEL = "resnet_tiny"
BACKEND = "fused"
BATCH = 8
REQUESTS = 96
OVERLOAD = 2.5                  # arrival rate vs 1-worker capacity
FLEETS = (1, 4)
GATE = 2.5                      # 4-worker rps / 1-worker rps
RELAXED_GATE = 0.5              # when the machine can't host the fleet
MIN_CPUS_FOR_GATE = 5           # router + 4 busy workers
REPORT_PATH = os.environ.get("BENCH_SERVE_CLUSTER_OUT",
                             "BENCH_cluster.json")
# One BLAS thread per worker process: the scaling comes from the
# worker fan-out, and oversubscribed BLAS pools actively fight it.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def export_artifact(path):
    model, sample = build_model(MODEL, seed=0)
    rng = np.random.default_rng(1)
    pipeline = Pipeline(PipelineConfig(batch=BATCH), model=model)
    pipeline.calibrate([sample(rng, 8)])
    deployment = pipeline.deploy(backend=BACKEND)
    deployment.save(path)
    payloads = [sample(rng, 1)[0] for _ in range(REQUESTS)]
    return payloads


def run_cluster(path, payloads, offsets, workers):
    """Open-loop: submit on the Poisson schedule, wait for everything."""
    router = ClusterRouter.spawn({"m": str(path)}, workers=workers,
                                 max_batch=BATCH, backend=BACKEND,
                                 env=WORKER_ENV)
    try:
        # Warm every worker before the clock starts (compile + verify
        # on first batch), round-robin via the replicated policy order.
        warm = [router.submit("m", payloads[index % len(payloads)])
                for index in range(workers * 2)]
        for future in warm:
            future.result(timeout=120.0)

        futures = []
        started = time.perf_counter()
        for offset, payload in zip(offsets, payloads):
            remaining = offset - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            futures.append(router.submit("m", payload))
        for future in futures:
            future.result(timeout=120.0)
        duration = time.perf_counter() - started
        used = {future.request.worker for future in futures}
        latencies = sorted(future.request.latency_ms
                           for future in futures)
    finally:
        router.close()
    return {
        "workers": workers,
        "rps": len(payloads) / duration,
        "latency_ms_p50": latencies[len(latencies) // 2],
        "latency_ms_p95": latencies[int(len(latencies) * 0.95)],
        "workers_used": sorted(used),
    }


def test_cluster_scales_past_one_process(tmp_path):
    path = tmp_path / "cluster_bench.npz"
    payloads = export_artifact(path)
    cpus = os.cpu_count() or 1

    # Rate the stream off a quick 1-worker pass so both fleets face the
    # same (saturating) schedule.
    probe = run_cluster(path, payloads[:32], np.zeros(32), workers=1)
    rate = OVERLOAD * probe["rps"]
    offsets = np.cumsum(
        np.random.default_rng(7).exponential(1.0 / rate, REQUESTS))

    results = {}
    for _ in range(2):          # better of two passes per fleet size
        for workers in FLEETS:
            record = run_cluster(path, payloads, offsets, workers)
            if (workers not in results
                    or record["rps"] > results[workers]["rps"]):
                results[workers] = record

    single, fleet = results[FLEETS[0]], results[FLEETS[1]]
    scaling = fleet["rps"] / single["rps"]
    full_gate = cpus >= MIN_CPUS_FOR_GATE
    gate = GATE if full_gate else RELAXED_GATE

    report = {
        "model": MODEL, "backend": BACKEND, "requests": REQUESTS,
        "cpus": cpus,
        "arrival_rate_rps": round(rate, 1),
        "scenarios": [
            {**record, "rps": round(record["rps"], 1),
             "latency_ms_p50": round(record["latency_ms_p50"], 3),
             "latency_ms_p95": round(record["latency_ms_p95"], 3)}
            for record in (single, fleet)],
        "scaling": round(scaling, 2),
        "gate": ("full" if full_gate
                 else f"relaxed ({cpus} cpu(s) < {MIN_CPUS_FOR_GATE})"),
        "gate_threshold": gate,
    }
    with open(REPORT_PATH, "w") as handle:
        json.dump(report, handle, indent=2)

    print(f"\narrival {rate:.0f} req/s "
          f"({OVERLOAD:.1f}x 1-worker capacity) on {cpus} cpu(s)")
    for record in (single, fleet):
        print(f"  workers={record['workers']}: {record['rps']:7.0f} "
              f"req/s, p95 {record['latency_ms_p95']:7.2f} ms, "
              f"used {record['workers_used']}")
    print(f"scaling: {scaling:.2f}x (gate {gate}x, "
          f"{report['gate']}); wrote {REPORT_PATH}")

    assert len(fleet["workers_used"]) == FLEETS[1], (
        f"all {FLEETS[1]} workers must serve traffic, got "
        f"{fleet['workers_used']}")
    assert scaling >= gate, (
        f"a {FLEETS[1]}-worker cluster must be >= {gate}x a 1-worker "
        f"cluster under the same Poisson stream "
        f"({report['gate']} gate on {cpus} cpu(s)), got {scaling:.2f}x")
