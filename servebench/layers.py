"""The per-layer ledger: which numbers the traced run reports, and where
each one should move.

Every row names the end-to-end metric a change to that layer should
move and the workload it shows on most (and least). A metric that does
not apply to a workload (no cache on the in-process servers, no engine
span inside a cluster worker process) reads 0 there; the cluster's
engine and batcher rows come from the workers' own ``stats()``
counters instead of spans, since the benchmark cannot wrap code inside
another process.
"""

from __future__ import annotations

import json
import os
from typing import Dict

#: name -> (unit, end-to-end metric it should move, mostly on, little on)
LAYERS = {
    "api.calibrate_s": ("s", "setup_s", "all", "-"),
    "api.deploy_s": ("s", "setup_s", "all", "-"),
    "backends.warmup_s": ("s", "setup_s", "cnn_mix", "zipf_cluster"),
    "codegen.libraries_built": ("count", "setup_s", "cnn_mix",
                                "zipf_cluster"),
    "cluster.spawn_s": ("s", "setup_s", "zipf_cluster", "-"),
    "server.submit_us_p50": ("us", "throughput_rps", "all", "-"),
    "batcher.batch_size_mean": ("rows", "throughput_rps, latency_p50_ms",
                                "cnn_mix", "zipf_cluster"),
    "batcher.queue_wait_ms_p50": ("ms", "throughput_rps, latency_p50_ms",
                                  "cnn_mix", "zipf_cluster"),
    "engine.infer_ms_p50": ("ms", "throughput_rps, latency_p50_ms",
                            "cnn_mix", "zipf_cluster"),
    "engine.infer_ms_per_row": ("ms", "throughput_rps, latency_p50_ms",
                                "cnn_mix", "zipf_cluster"),
    "engine.kernel_share": ("ratio", "throughput_rps, latency_p50_ms",
                            "cnn_mix", "zipf_cluster"),
    "engine.infer_stream_ms_p50": ("ms", "latency_p50_ms", "rnn_mix",
                                   "cnn_mix"),
    "streaming.chunks_per_batch_mean": ("rows", "throughput_rps",
                                        "rnn_mix", "cnn_mix"),
    "streaming.session_bytes": ("B", "peak_rss_mb", "rnn_mix", "cnn_mix"),
    "cache.hit_rate": ("ratio", "latency_p50_ms, throughput_rps",
                       "zipf_cluster", "cnn_mix, rnn_mix"),
    "cache.coalesced_share": ("ratio", "latency_p50_ms, throughput_rps",
                              "zipf_cluster", "cnn_mix, rnn_mix"),
    "cache.evictions": ("count", "latency_p50_ms, throughput_rps",
                        "zipf_cluster", "cnn_mix, rnn_mix"),
    "placement.affinity_share": ("ratio", "latency_p50_ms",
                                 "zipf_cluster", "cnn_mix, rnn_mix"),
    "cluster.hop_ms_p50": ("ms", "latency_p50_ms", "zipf_cluster", "-"),
    "server.stats_call_ms": ("ms", "latency_p90_ms", "rnn_mix",
                             "cnn_mix"),
    "cluster.stats_call_ms": ("ms", "latency_p90_ms", "zipf_cluster", "-"),
    "cluster.stats_bytes": ("B", "peak_rss_mb", "zipf_cluster", "-"),
    "fpga.sim_ms_per_request": ("ms", "none (report only)",
                                "cnn_mix, rnn_mix", "-"),
    "harness.generator_lag_ms_p90": ("ms", "validity of latency", "all",
                                     "-"),
}

#: End-to-end metrics whose traced-vs-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "throughput_rps", "latency_p50_ms",
               "latency_p90_ms", "success_rate", "peak_rss_mb")

for _metric in OVERHEAD_OF:
    LAYERS[f"trace.overhead.{_metric}"] = (
        "%", _metric, "all", "-")

#: Setup-time spans summed into their ledger row.
SPAN_TOTALS = {"api.calibrate_s": "api.calibrate",
               "api.deploy_s": "api.deploy",
               "backends.warmup_s": "backends.warmup",
               "cluster.spawn_s": "cluster.spawn"}


def write_layer_table(tracer, values: Dict[str, float],
                      out_dir: str) -> Dict[str, float]:
    """Complete ``values`` with the setup-span totals and a 0 for every
    row this workload does not exercise; write ``layers.json``."""
    layers = dict(values)
    for name, span in SPAN_TOTALS.items():
        layers[name] = sum(end - start for _, _, start, end, *_ in
                           tracer.select(span))
    for name in LAYERS:
        if not name.startswith("trace.overhead."):
            layers.setdefault(name, 0.0)
    with open(os.path.join(out_dir, "layers.json"), "w") as handle:
        json.dump(layers, handle, indent=1)
    return layers


def format_table(workload: str, layers: Dict[str, float]) -> str:
    """The ledger as a Markdown table."""
    lines = [f"# Per-layer ledger: {workload}", "",
             "| layer metric | value | unit | should move | mostly on |"
             " little on |",
             "| --- | ---: | --- | --- | --- | --- |"]
    for name, (unit, moves, mostly, little) in LAYERS.items():
        value = layers.get(name, 0.0)
        lines.append(f"| `{name}` | {value:.6g} | {unit} | {moves} | "
                     f"{mostly} | {little} |")
    return "\n".join(lines) + "\n"
