"""Serving benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 servebench/run.py --workload cnn_mix --seed 1 --seconds 15 \\
        --trace 0

Workloads: ``cnn_mix``, ``rnn_mix``, ``zipf_cluster`` (see
``BENCHMARK.json`` for why each exists).
The program under test is ``src/repro``; it receives only the inputs the
seed generates.

``--trace 0`` runs the workload once, untraced, and reports the
end-to-end metrics. ``--trace 1`` runs it untraced and then traced (same
seed, each in a fresh process), reports the per-layer ledger of the
traced run, prints the tracing overhead on every end-to-end metric, and
leaves ``trace.json`` (Chrome trace events; open in Perfetto) and
``layers.md`` under ``.bench_out/``.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits non-zero without a result when the
program is missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from servebench.layers import LAYERS, OVERHEAD_OF, format_table  # noqa: E402
from servebench.workloads import PIN_ENV, WORKLOADS  # noqa: E402

UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "success_rate": "ratio",
         "peak_rss_mb": "MiB"}

#: Wall-clock budget of one fresh-process run: a fixed allowance for
#: set-up (up to ~25 s), output checks and trace export, plus
#: :data:`BUDGET_PER_SECOND` times ``--seconds`` for the timed phases
#: (a traced run takes several times as long as the phases it times).
SETUP_ALLOWANCE_S = 60.0
BUDGET_PER_SECOND = 4.0


def run_child(args, trace: int, run_dir: str):
    """One fresh-process run; returns its ``result.json`` or None."""
    out = os.path.join(run_dir, "traced" if trace else "untraced")
    os.makedirs(out)
    codegen = os.path.join(out, "codegen")
    scratch = os.path.join(out, "tmp")       # the C compiler's temp files
    os.makedirs(scratch)
    env = dict(os.environ)
    env.update(PIN_ENV)
    env["REPRO_CODEGEN_CACHE"] = codegen
    env["TMPDIR"] = scratch
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", out]
    t0 = time.perf_counter()
    # Its own process group, so a run that overstays its budget is
    # stopped together with any cluster workers it spawned.
    process = subprocess.Popen(command + ["--t0", repr(t0)], env=env,
                               cwd=ROOT, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=SETUP_ALLOWANCE_S
                            + BUDGET_PER_SECOND * args.seconds)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"servebench: {args.workload} run exceeded its time budget",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(codegen, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    path = os.path.join(out, "result.json")
    if code != 0 or not os.path.exists(path):
        print(f"servebench: {args.workload} run failed (exit {code})",
              file=sys.stderr)
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"servebench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{time.time_ns()}")
    os.makedirs(run_dir)

    runs = [run_child(args, 0, run_dir)]
    if args.trace and runs[0] is not None:
        runs.append(run_child(args, 1, run_dir))
    if any(run is None for run in runs):
        return 1

    untraced = runs[0]
    for name, value in untraced["metrics"].items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    for name, value in untraced["diagnostics"].items():
        print(f"# {name} {json.dumps(value)}")
    print(f"# valid {json.dumps(untraced['valid'])}")
    if args.trace:
        traced = runs[1]
        layers = dict(traced["layers"])
        for name in OVERHEAD_OF:
            base = untraced["metrics"][name]
            overhead = ((traced["metrics"][name] - base) / base * 100.0
                        if base else 0.0)
            layers[f"trace.overhead.{name}"] = overhead
            print(f"# tracing overhead on {name}: {overhead:+.2f}% "
                  f"({base:.6g} -> {traced['metrics'][name]:.6g} "
                  f"{UNITS[name]})")
        table = format_table(args.workload, layers)
        with open(os.path.join(run_dir, "layers.md"), "w") as handle:
            handle.write(table)
        print(table, end="")
        metrics = {name: {"value": layers[name], "unit": LAYERS[name][0]}
                   for name in LAYERS}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in untraced["metrics"].items()}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0 and all(run["valid"] for run in runs),
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
