"""One benchmark run of one workload in this (fresh) process.

Started by ``run.py``, which pins the BLAS/OpenMP pools, points
``REPRO_CODEGEN_CACHE`` at a fresh empty directory and passes its own
``perf_counter`` reading taken just before spawning this process, so
``setup_s`` covers interpreter start-up too (``perf_counter`` is the
system-wide monotonic clock on Linux).

Phases, each timed from outside the program with ``perf_counter``:

1. setup: build, calibrate, deploy, host, warm (``Workload.setup``);
2. burst: ``burst_rounds`` rounds of ``burst_size`` operations sent back
   to back; ``throughput_rps`` is the operations of the least-disturbed
   rounds over their time;
3. open loop: Poisson arrivals at the workload's fixed rate for
   ``OPEN_LOOP_SHARE * seconds``, with a 1 Hz ``stats()`` poll on the
   same schedule; latency runs from each operation's scheduled send
   time to its done-callback.

Around each timed phase the run counts the libraries in its codegen
cache: a warmed workload builds none. After the phases, outside all
timing, it checks every output bit for bit. Writes ``result.json``
(and, when traced, ``trace.json`` plus ``layers.json``) into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from servebench import harness  # noqa: E402
from servebench.layers import write_layer_table  # noqa: E402
from servebench.tracing import NullTracer, Tracer  # noqa: E402
from servebench.workloads import (  # noqa: E402
    OPEN_LOOP_SHARE,
    WORKLOADS,
    codegen_libraries,
)

#: A run whose generator sent its 90th-percentile operation later than
#: this is invalid: its latencies would mostly measure the generator
#: (two 5 ms interpreter switch intervals; the open-loop latencies of a
#: healthy run are a few ms).
MAX_GENERATOR_LAG_MS_P90 = 10.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child
    (cluster workers, the C compiler), in MiB (``ru_maxrss`` is KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) \
        / 1024.0


def guarded(run_phase, guard: dict):
    """Run one timed phase; record how many codegen libraries it built
    (the warm-up guard: a warmed workload builds none)."""
    libraries = codegen_libraries()
    phase = run_phase()
    guard[phase.name] = codegen_libraries() - libraries
    return phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.out, tracer)
    guard: dict = {}
    try:
        with tracer.span("harness.setup"):
            workload.setup()
            rounds = [range(start, start + workload.burst_size)
                      for start in range(0, workload.burst_rounds
                                         * workload.burst_size,
                                         workload.burst_size)]
            workload.make_ops("burst", workload.burst_rounds
                              * workload.burst_size)
            offsets = harness.poisson_offsets(
                np.random.default_rng(args.seed + 1), workload.rate,
                OPEN_LOOP_SHARE * args.seconds)
            workload.make_ops("open", len(offsets))
        libraries_after_setup = codegen_libraries()
        setup_s = time.perf_counter() - args.t0
        steal_before = harness.steal_ticks()

        burst = guarded(lambda: harness.run_burst(
            "burst", rounds, lambda index: workload.send("burst", index),
            tracer, window=workload.burst_window), guard)
        open_loop = guarded(lambda: harness.run_open_loop(
            "open", offsets, lambda index: workload.send("open", index),
            workload.poll, tracer), guard)
        steal_after = harness.steal_ticks()
        layers = workload.layer_metrics([burst, open_loop]) \
            if args.trace else {}
    finally:
        workload.close()
    # Read before verifying: the checks below run offline forwards whose
    # memory is the benchmark's, not the server's.
    peak_mb = peak_rss_mb()

    # Output checks, outside every timed phase.
    phases = {}
    failed = {}
    for phase in (burst, open_loop):
        failed[phase.name] = phase.failed | ~workload.verify(phase)
        phases[phase.name] = {
            "attempted": len(phase), "failed": int(failed[phase.name].sum()),
            "errors": int(phase.failed.sum()),
            "libraries_built": guard[phase.name]}
    open_failed = failed["open"]
    latency = open_loop.latency_ms()[~open_failed]
    lag = open_loop.lag_ms
    attempted = len(burst) + len(open_loop)
    failures = int(sum(flags.sum() for flags in failed.values()))
    guard_ok = all(built == 0 for built in guard.values())
    lag_p90 = harness.percentile(lag, 90)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": burst.throughput_rps,
        "latency_p50_ms": harness.windowed_percentile(
            open_loop, ~open_failed, 50),
        "latency_p90_ms": harness.windowed_percentile(
            open_loop, ~open_failed, 90),
        "success_rate": (attempted - failures) / attempted,
        "peak_rss_mb": peak_mb,
    }
    result = {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": attempted, "failed": failures,
        "valid": guard_ok and lag_p90 <= MAX_GENERATOR_LAG_MS_P90,
        "metrics": metrics,
        "diagnostics": {
            "latency_p50_ms_all": harness.percentile(latency, 50),
            "latency_p90_ms_all": harness.percentile(latency, 90),
            "latency_p99_ms_all": harness.percentile(latency, 99),
            "latency_samples": int(latency.size),
            "burst_round_rps": burst.round_rps,
            "open_loop_ops": len(open_loop),
            "open_loop_offered_rps": workload.rate,
            "generator_lag_ms_p90": lag_p90,
            "generator_lag_ms_max": float(np.max(lag)) if lag.size else 0.0,
            "codegen_libraries_after_setup": libraries_after_setup,
            "warmup_guard_held": guard_ok,
            "host_steal_share": harness.steal_share(steal_before,
                                                    steal_after),
            "burst_round_steal": burst.steal,
            "open_window_steal": open_loop.steal,
            "open_window_p50_ms": harness.window_percentiles(
                open_loop, ~open_failed, 50),
            "open_window_p90_ms": harness.window_percentiles(
                open_loop, ~open_failed, 90),
            "phases": phases,
            **workload.diagnostics,
        },
    }
    if args.trace:
        layers.update({
            "harness.generator_lag_ms_p90": lag_p90,
            "codegen.libraries_built": float(libraries_after_setup),
        })
        events = tracer.write_chrome(os.path.join(args.out, "trace.json"))
        result["layers"] = write_layer_table(tracer, layers, args.out)
        result["diagnostics"]["trace_events"] = events
    with open(os.path.join(args.out, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
