"""Async server throughput under a Poisson arrival stream.

The claim gated here is the one the `ModelServer` redesign exists for:
**dynamic batching wins under load**. An open-loop Poisson request stream
(arrival rate ~2.5x the single-request service capacity, i.e. a saturated
server) is driven at a live threaded `ModelServer` on the fused backend,
and work-conserving batch-16 serving (a free model takes what is queued,
up to 16) must deliver at least **1.3x** the requests/sec of
``max_batch=1`` serving of the *same* stream. Under overload the backlog
that builds during one batch is the next batch, so the gap tracks the
batch-16 kernel speedup and the gate is far from the noise floor.

Both scenarios' rps, p50/p95 latency and mean batch size go to
``BENCH_serve_server.json`` (uploaded by the CI `server` job) so the
latency/throughput trade-off is tracked per PR. Each scenario runs
twice (per-batch-size bit-exactness verification compiles a throwaway
oracle the first time a size is seen; the engine is shared so the second
pass measures steady state) and the better pass is kept — the standard
interference-robust choice on shared runners.
"""

import json
import os
import time

import numpy as np

from repro.api import Pipeline, PipelineConfig
from repro.serve import ModelServer
from repro.serve.cli import build_model

MODEL = "resnet_tiny"
BACKEND = "fused"
BATCH = 16
REQUESTS = 192
OVERLOAD = 2.5                  # arrival rate vs single-request capacity
GATE = 1.3
REPORT_PATH = os.environ.get("BENCH_SERVE_SERVER_OUT",
                             "BENCH_serve_server.json")


def build_deployment():
    model, sample = build_model(MODEL, seed=0)
    rng = np.random.default_rng(1)
    pipeline = Pipeline(PipelineConfig(batch=BATCH), model=model)
    pipeline.calibrate([sample(rng, 8)])
    deployment = pipeline.deploy(backend=BACKEND)
    payloads = [sample(rng, 1)[0] for _ in range(REQUESTS)]
    return deployment, payloads


def single_request_capacity(engine, payloads):
    """Requests/sec of back-to-back max_batch=1 serving on the same
    two-worker server the scenarios run: 64 requests queued at once,
    timed until the last one resolves."""
    server = ModelServer(workers=2, max_batch=1)
    server.add_engine("m", engine, batch=1)
    started = time.perf_counter()
    for future in server.submit_many("m", payloads[:64]):
        future.result(timeout=120.0)
    elapsed = time.perf_counter() - started
    server.close()
    return 64 / elapsed


def run_scenario(engine, payloads, offsets, max_batch):
    """Open-loop: submit on the Poisson schedule, wait for every future."""
    server = ModelServer(workers=2, max_batch=max_batch)
    server.add_engine("m", engine, batch=max_batch)
    futures = []
    started = time.perf_counter()
    for offset, payload in zip(offsets, payloads):
        remaining = offset - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        futures.append(server.submit("m", payload))
    for future in futures:
        future.result(timeout=120.0)
    duration = time.perf_counter() - started
    server.close()
    latencies = sorted(future.request.latency_ms for future in futures)
    sizes = [future.request.batch_size for future in futures]
    return {
        "max_batch": max_batch,
        "rps": len(payloads) / duration,
        "latency_ms_p50": latencies[len(latencies) // 2],
        "latency_ms_p95": latencies[int(len(latencies) * 0.95)],
        "mean_batch_size": float(np.mean(sizes)),
    }


def test_dynamic_batching_beats_single_request_serving(tmp_path):
    deployment, payloads = build_deployment()
    engine = deployment.engine
    engine.warmup((1, BATCH))   # bind scratch, verify the corner sizes

    capacity = single_request_capacity(engine, payloads)
    rate = OVERLOAD * capacity
    offsets = np.cumsum(
        np.random.default_rng(7).exponential(1.0 / rate, REQUESTS))

    results = {}
    for _ in range(2):          # better of two passes per scenario
        for max_batch in (1, BATCH):
            record = run_scenario(engine, payloads, offsets, max_batch)
            if max_batch not in results \
                    or record["rps"] > results[max_batch]["rps"]:
                results[max_batch] = record

    baseline, batched = results[1], results[BATCH]
    speedup = batched["rps"] / baseline["rps"]

    report = {
        "model": MODEL, "backend": BACKEND, "requests": REQUESTS,
        "capacity_single_rps": round(capacity, 1),
        "arrival_rate_rps": round(rate, 1),
        "scenarios": [
            {**record, "rps": round(record["rps"], 1),
             "latency_ms_p50": round(record["latency_ms_p50"], 3),
             "latency_ms_p95": round(record["latency_ms_p95"], 3),
             "mean_batch_size": round(record["mean_batch_size"], 2)}
            for record in (baseline, batched)],
        "speedup": round(speedup, 2),
    }
    with open(REPORT_PATH, "w") as handle:
        json.dump(report, handle, indent=2)

    print(f"\narrival {rate:.0f} req/s ({OVERLOAD:.1f}x single capacity "
          f"{capacity:.0f} req/s)")
    for record in (baseline, batched):
        print(f"  max_batch={record['max_batch']:2d}: "
              f"{record['rps']:7.0f} req/s, "
              f"p50 {record['latency_ms_p50']:7.2f} ms, "
              f"p95 {record['latency_ms_p95']:7.2f} ms, "
              f"mean batch {record['mean_batch_size']:.1f}")
    print(f"dynamic-batching speedup: {speedup:.2f}x; wrote {REPORT_PATH}")

    assert speedup >= GATE, (
        f"dynamic batching (batch {BATCH}, work-conserving) must be >= "
        f"{GATE}x max_batch=1 serving under the same Poisson stream, got "
        f"{speedup:.2f}x")
