"""Serving-glue microbenchmark: the in-process request path minus its
kernels.

``ModelServer(workers=0, max_batch=16)`` serves fixed windows of 64
operations on the calling thread (submit the window, then ``drain``),
and the same round times the compiled graph alone at batch 16. Per row
of the report:

- ``served_us``: wall µs per served operation, submit to resolved future;
- ``kernel_us``: ``CompiledModel.run`` (``run_stateful`` for stream
  chunks) µs per row at batch 16;
- ``glue_us``: the paired difference, what validation, queueing,
  stacking, state hand-back and future resolution cost per operation.

Rows: lstm_lm requests (token ids), gru_speech stream chunks (16 open
sessions, one chunk of 4 steps per session per batch) and resnet_tiny
requests. Each round times the served window and the kernel back to
back, and the report takes the median over rounds of the per-round
difference, as ``bench_kernels.py`` does with its paired ratios. Written
to ``BENCH_glue.json`` (``BENCH_GLUE_OUT`` overrides the path).
Report-only: nothing is gated.
"""

import json
import os
import time

import numpy as np

MAX_BATCH = 16
WINDOW = 64            # operations submitted before each drain
WINDOWS = 8            # windows per round
ROUNDS = 15
CHUNK_STEPS = 4

#: (model, operation kind) rows of the report.
GLUE_ROWS = (("lstm_lm", "request"), ("gru_speech", "stream"),
             ("resnet_tiny", "request"))


def _artifact(name: str, directory) -> str:
    from repro.serve import build_artifact, post_training_quantize
    from repro.serve.cli import build_model

    model, sample = build_model(name, seed=0)
    rng = np.random.default_rng(11)
    results = post_training_quantize(model, [sample(rng, 8)])
    path = str(directory / f"{name}.npz")
    build_artifact(model, sample(rng, 4), layer_results=results,
                   name=name, path=path)
    return path


def _request_round(server, payloads):
    """µs per request over ``WINDOWS`` windows of ``WINDOW`` submits."""
    started = time.perf_counter()
    for window in range(WINDOWS):
        futures = [server.submit("m", payload) for payload in
                   payloads[window * WINDOW:(window + 1) * WINDOW]]
        server.drain()
        for future in futures:
            future.result(timeout=0)
    return (time.perf_counter() - started) * 1e6 / (WINDOWS * WINDOW)


def _stream_round(server, sids, chunks):
    """µs per chunk: each window sends every session WINDOW/len(sids)
    chunks in turn, so its batches hold one chunk per session."""
    per_session = WINDOW // len(sids)
    started = time.perf_counter()
    for window in range(WINDOWS):
        futures = [server.submit_stream("m", sid, chunks[
                       (window * per_session + step) * len(sids) + index])
                   for step in range(per_session)
                   for index, sid in enumerate(sids)]
        server.drain()
        for future in futures:
            future.result(timeout=0)
    return (time.perf_counter() - started) * 1e6 / (WINDOWS * WINDOW)


def _kernel_round(plan, kind, batch, state):
    """µs per row of the compiled graph at batch ``MAX_BATCH``."""
    calls = WINDOWS * WINDOW // MAX_BATCH
    started = time.perf_counter()
    for _ in range(calls):
        if kind == "stream":
            plan.compiled.run_stateful(batch, state)
        else:
            plan.compiled.run(batch)
    return (time.perf_counter() - started) * 1e6 / (calls * MAX_BATCH)


def _measure(path, name, kind, backend):
    from repro.serve import ModelServer
    from repro.serve.cli import synthetic_payloads
    from repro.serve.streaming import check_state

    server = ModelServer(workers=0, max_batch=MAX_BATCH)
    try:
        server.load("m", path, backend=backend, warmup=True)
        plan = server.plan("m")
        count = WINDOWS * WINDOW
        payloads = synthetic_payloads(plan, count, seed=3)
        if kind == "stream":
            payloads = [payload[:CHUNK_STEPS] for payload in payloads]
            sids = [server.open_session("m") for _ in range(MAX_BATCH)]
            state = check_state(plan.state_spec, {}, rows=MAX_BATCH)
            serve = lambda: _stream_round(server, sids, payloads)  # noqa: E731
        else:
            state = None
            serve = lambda: _request_round(server, payloads)  # noqa: E731
        batch = np.stack(payloads[:MAX_BATCH])
        serve()                                   # warm every batch size
        _kernel_round(plan, kind, batch, state)
        served, kernel = [], []
        for index in range(ROUNDS):
            # Alternate which side of the pair runs first.
            if index % 2:
                kernel.append(_kernel_round(plan, kind, batch, state))
                served.append(serve())
            else:
                served.append(serve())
                kernel.append(_kernel_round(plan, kind, batch, state))
    finally:
        server.close()
    glue = np.subtract(served, kernel)
    return {"model": name, "kind": kind,
            "served_us": round(float(np.median(served)), 2),
            "kernel_us": round(float(np.median(kernel)), 2),
            "glue_us": round(float(np.median(glue)), 2),
            "glue_us_quartiles": [round(float(q), 2) for q in
                                  np.percentile(glue, [25, 75])]}


def test_serving_glue_report(tmp_path):
    """µs per operation of the in-process serving path beyond its
    kernels, one row per model (see the module docstring)."""
    from repro.serve.backends import backend_availability

    backend = ("compiled" if backend_availability()["compiled"][0]
               else "fused")
    report = {"backend": backend, "max_batch": MAX_BATCH,
              "window": WINDOW, "windows": WINDOWS, "rounds": ROUNDS,
              "rows": []}
    for name, kind in GLUE_ROWS:
        row = _measure(_artifact(name, tmp_path), name, kind, backend)
        print(f"\n{name:<12} {kind:<8} served {row['served_us']:7.2f} "
              f"kernel {row['kernel_us']:7.2f} glue {row['glue_us']:7.2f}"
              " us/op")
        report["rows"].append(row)
    out_path = os.environ.get("BENCH_GLUE_OUT", "BENCH_glue.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {out_path}")
    assert [row["model"] for row in report["rows"]] == \
        [name for name, _ in GLUE_ROWS]
