"""The command line: ``python -m repro <command>``, one argparse tree.

- ``quantize`` (alias ``export``) — the :mod:`repro.api` pipeline on the
  model zoo: configure -> calibrate (PTQ) -> deploy, writing a verified
  serving artifact;
- ``tune`` — hardware-aware design-space exploration
  (:mod:`repro.autotune`): quantization config + FPGA design for a model
  and device;
- ``serve`` — serving artifacts: ``backends | info | run | pipeline |
  up | cluster | stream | cache``, registered by :mod:`repro.serve.cli`;
- ``experiment`` — regenerate a paper table or figure
  (:mod:`repro.experiments.runner`);
- ``registry`` — list the registered schemes, methods, search strategies,
  serving backends, cluster placements, the device catalog and the
  Table VII reference designs.

Each command's flags are defined once, in the module that owns it, and
every command's :class:`~repro.errors.ReproError` or ``OSError`` is
reported the same way: ``error: ...`` on stderr, exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, ReproError

# Friendly aliases for the tune CLI (full zoo names also accepted).
_TUNE_MODEL_ALIASES = {
    "resnet": "resnet_tiny",
    "mobilenet": "mobilenet_v2",
    "lstm": "lstm_lm",
    "gru": "gru_speech",
    "yolo": "yolo_lite",
}


def run_quantize(model_name: str, out, scheme: str = "msq", bits: int = 4,
                 act_bits: int = 4, ratio: str = "2:1",
                 calibration_batches: int = 2, batch: int = 16,
                 backend: str = "reference", seed: int = 0) -> int:
    """The ``python -m repro quantize`` flow: build a zoo model,
    PTQ-calibrate it through the pipeline, deploy to a verified artifact
    and report the priced result."""
    from repro.api import Pipeline, PipelineConfig
    from repro.serve.cli import build_model

    model, sample = build_model(model_name, seed=seed)
    rng = np.random.default_rng(seed + 1)
    config = PipelineConfig(scheme=scheme, weight_bits=bits,
                            act_bits=act_bits, ratio=ratio, batch=batch)
    pipeline = Pipeline(config, model=model)
    pipeline.calibrate([sample(rng, 8) for _ in range(calibration_batches)])
    deployment = pipeline.deploy(name=model_name, path=out, backend=backend)
    print(config.describe())
    print(f"quantized + deployed {model_name} -> {out} "
          f"(backend: {deployment.backend})")
    print(deployment.artifact.summary())
    performance = deployment.simulate(batch=1)
    print(f"FPGA ({config.design}): {performance.latency_ms:.3f} ms/request, "
          f"{performance.throughput_gops:.1f} GOPS")
    return 0


def _add_quantize(commands) -> None:
    from repro.api import list_schemes
    from repro.serve import list_backends
    from repro.serve.cli import MODEL_ZOO

    parser = commands.add_parser(
        "quantize", aliases=["export"],
        help="configure -> calibrate -> deploy a zoo model via repro.api",
        description="PTQ a zoo model through the repro.api pipeline and "
                    "write a verified serving artifact.")
    parser.add_argument("--model", default="resnet_tiny",
                        choices=sorted(MODEL_ZOO))
    parser.add_argument("--out", required=True, help="output .npz path")
    parser.add_argument("--scheme", default="msq",
                        choices=sorted(list_schemes()))
    parser.add_argument("--bits", type=int, default=4)
    parser.add_argument("--act-bits", type=int, default=4)
    parser.add_argument("--ratio", default="2:1",
                        help="SP2:fixed row ratio (FPGA characterization)")
    parser.add_argument("--calibration-batches", type=int, default=2)
    parser.add_argument("--batch", type=int, default=16,
                        help="deployment micro-batch size")
    parser.add_argument("--backend", default="reference",
                        choices=list_backends(),
                        help="serving kernel backend for the deployment")
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=lambda args: run_quantize(
        args.model, args.out, scheme=args.scheme, bits=args.bits,
        act_bits=args.act_bits, ratio=args.ratio,
        calibration_batches=args.calibration_batches, batch=args.batch,
        backend=args.backend, seed=args.seed))


def run_tune(model_name: str, device: str, objective: str = "latency",
             strategy=None, budget: int = 50, seed: int = 0,
             accuracy=None, cache=None, out=None, top: int = 10,
             serve_batches=(1, 16), backends=None,
             weight_bits=(4,), pipeline_stages: int = 0,
             stage_devices=None) -> int:
    """The ``python -m repro tune`` flow: build a zoo model, run the
    autotuner for the device, print the Pareto frontier, write the JSON
    report. ``pipeline_stages >= 2`` adds the partition axis: every
    legal way to cut the model's IR into that many pipeline stages is
    co-searched against the single-device plan (the winning per-stage
    placement prints as its own table)."""
    import numpy as np

    from repro.autotune import tune
    from repro.serve.cli import build_model

    model, sample = build_model(_TUNE_MODEL_ALIASES.get(model_name,
                                                        model_name),
                                seed=seed)
    rng = np.random.default_rng(seed + 1)
    sample_input = sample(rng, 4)
    kwargs = {}
    if backends:
        kwargs["backends"] = tuple(backends)
    if accuracy == "calibration":
        # The calibration proxy scores candidates on real forward passes;
        # synthesize its batches from the model's own sampler.
        kwargs["calibration"] = [sample(rng, 8) for _ in range(2)]
    if pipeline_stages and pipeline_stages >= 2:
        from itertools import combinations

        from repro.serve.export import build_artifact
        from repro.serve.ir import lower_artifact
        from repro.serve.partition import legal_cut_points

        graph = lower_artifact(build_artifact(model, sample_input,
                                              verify=False))
        legal = [point.op_index for point in legal_cut_points(graph)]
        options = [tuple(combo) for combo
                   in combinations(legal, pipeline_stages - 1)]
        if not options:
            raise ConfigurationError(
                f"{model_name} has only {len(legal)} legal cut point(s); "
                f"cannot form {pipeline_stages} pipeline stages")
        # The single-device plan stays in the race — the tuner should
        # only pick a pipeline when it actually wins.
        kwargs["cuts"] = tuple([()] + options)
    if stage_devices:
        kwargs["stage_devices"] = tuple(stage_devices)
    result = tune(model, device=device, objective=objective,
                  strategy=strategy, budget=budget, seed=seed,
                  accuracy=accuracy, cache=cache,
                  sample_input=sample_input,
                  serve_batches=tuple(serve_batches),
                  weight_bits=tuple(weight_bits), **kwargs)
    print(result.format_table(limit=top))
    best = result.best
    print(f"\nchosen: {best.candidate.describe()} — "
          f"{best.latency_ms_per_request:.3f} ms/request, "
          f"{best.requests_per_second:.1f} req/s "
          f"(strategy: {result.strategy}, "
          f"{len(result.evaluations)} candidates, "
          f"cache hits {result.cache_stats.get('hits', 0)})")
    print(f"config: {result.config().describe()}")
    if result.layer_ratios:
        print(f"per-layer ratio refinements: {len(result.layer_ratios)} "
              f"layers")
    if out is not None:
        result.save_report(out)
        print(f"report written to {out}")
    return 0


def _add_tune(commands) -> None:
    from repro.autotune import OBJECTIVES, list_strategies
    from repro.serve import list_backends
    from repro.serve.cli import MODEL_ZOO

    parser = commands.add_parser(
        "tune",
        help="hardware-aware design-space exploration (repro.autotune): "
             "pick quantization config + FPGA design for a model + device",
        description="Hardware-aware design-space exploration: search "
                    "quantization config x FPGA design for a model and "
                    "device, print the Pareto frontier, write a JSON "
                    "report.")
    parser.add_argument("--model", default="resnet_tiny",
                        choices=sorted(set(MODEL_ZOO)
                                       | set(_TUNE_MODEL_ALIASES)))
    parser.add_argument("--device", required=True,
                        help="catalog device (e.g. zu3eg, XC7Z045; see "
                             "'python -m repro registry')")
    parser.add_argument("--objective", default="latency",
                        choices=OBJECTIVES)
    parser.add_argument("--strategy", default=None,
                        choices=sorted(list_strategies()),
                        help="default: grid for small spaces, else greedy")
    parser.add_argument("--budget", type=int, default=50,
                        help="max unique candidates to price")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--accuracy", default=None,
                        choices=("mse", "calibration", "gaussian"),
                        help="accuracy proxy (default: layerwise MSE)")
    parser.add_argument("--cache", default=None,
                        help="persistent evaluation-cache path "
                             "(re-tunes become incremental)")
    parser.add_argument("--out", default=None,
                        help="write the JSON tuning report here")
    parser.add_argument("--top", type=int, default=10,
                        help="ranked candidates to print")
    parser.add_argument("--serve-batches", type=int, nargs="+",
                        default=(1, 16),
                        help="serving micro-batch sizes to search")
    parser.add_argument("--bits", type=int, nargs="+", default=(4,),
                        help="weight bit-widths to search")
    parser.add_argument("--backends", nargs="+", default=None,
                        choices=list_backends(),
                        help="serving kernel backends to search")
    parser.add_argument("--pipeline-stages", type=int, default=0,
                        help="co-search multi-device pipeline partitions "
                             "with this many stages (every legal cut "
                             "combination + the uncut plan; the winning "
                             "per-stage table is printed)")
    parser.add_argument("--stage-devices", nargs="+", default=None,
                        metavar="DEVICE",
                        help="device per pipeline stage (cycled when "
                             "shorter than the stage count; default: "
                             "--device on every stage)")
    parser.set_defaults(func=lambda args: run_tune(
        args.model, args.device, objective=args.objective,
        strategy=args.strategy, budget=args.budget, seed=args.seed,
        accuracy=args.accuracy, cache=args.cache, out=args.out,
        top=args.top, serve_batches=args.serve_batches,
        backends=args.backends, weight_bits=args.bits,
        pipeline_stages=args.pipeline_stages,
        stage_devices=args.stage_devices))


def _registry(args) -> int:
    from repro.api import list_methods, list_schemes
    from repro.autotune import list_accuracy_proxies, list_strategies
    from repro.fpga.devices import get_device, list_devices
    from repro.fpga.resources import (
        design_resources,
        peak_throughput_gops,
        reference_designs,
    )
    from repro.serve.backends import list_backends
    from repro.serve.placement import list_placements

    print("schemes:")
    for name, description in list_schemes().items():
        print(f"  {name:10s} {description}")
    print("methods:")
    for name, display in list_methods().items():
        print(f"  {name:10s} {display}")
    print("search strategies (python -m repro tune --strategy):")
    for name, description in sorted(list_strategies().items()):
        print(f"  {name:10s} {description}")
    print("search axes (repro.autotune.SearchSpace; python -m repro tune):")
    for axis, description in (
            ("batches", "accelerator Bat lane counts"),
            ("block_ins", "GEMM Blk_in widths"),
            ("sp2_columns", "SP2:fixed PE column splits"),
            ("weight_bits", "weight bit-widths (--bits)"),
            ("serve_batches", "serving micro-batch sizes "
                              "(--serve-batches)"),
            ("backends", "serving kernel backends (--backends)"),
            ("cuts", "multi-device pipeline partition points — tuples "
                     "of IR op indices, () = single device "
                     "(--pipeline-stages / --stage-devices; "
                     "repro.serve.partition)"),
    ):
        print(f"  {axis:14s} {description}")
    print("accuracy proxies (python -m repro tune --accuracy):")
    for name, description in list_accuracy_proxies().items():
        print(f"  {name:12s} {description}")
    print("devices (python -m repro tune --device):")
    for name in list_devices():
        device = get_device(name)
        print(f"  {name:10s} LUT {device.lut:>8,}  FF {device.ff:>8,}  "
              f"BRAM36 {device.bram36:>5g}  DSP {device.dsp:>5,}")
    print("reference designs (Table VII):")
    for name, design in reference_designs().items():
        usage = design_resources(design)
        print(f"  {name:6s} {design.describe():44s} "
              f"peak {peak_throughput_gops(design):6.1f} GOPS  "
              f"LUT {usage.lut:>9,.0f}  DSP {usage.dsp:>5,.0f}")
    print("serving backends (python -m repro serve run --backend):")
    for name in list_backends():
        print(f"  {name}")
    print("cluster placements (python -m repro serve cluster "
          "--placement):")
    for name, description in list_placements().items():
        print(f"  {name:16s} {description}")
    return 0


def _experiment(args) -> int:
    # Imported only here: the registry loads every experiment harness.
    from repro.experiments.runner import _run

    return _run(args)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.serve.cli import _add_commands as add_serve

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quantize, tune, serve and reproduce the paper's "
                    "experiments. 'python -m repro <command> --help' "
                    "shows each command's flags.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="<command>")
    _add_quantize(commands)
    _add_tune(commands)
    add_serve(commands)
    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure",
        description="Regenerate the paper's tables and figures.")
    experiment.add_argument("experiment", nargs="?",
                            help="experiment key (e.g. table2), or 'all'")
    experiment.add_argument("--scale", default="ci", choices=("ci", "full"),
                            help="ci: seconds-scale; full: the "
                                 "EXPERIMENTS.md runs")
    experiment.set_defaults(func=_experiment)
    commands.add_parser(
        "registry", help="list schemes, methods, search strategies, "
                         "serving backends, cluster placements, the "
                         "device catalog and the Table VII reference "
                         "designs").set_defaults(func=_registry)
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:      # --help, or a usage error it printed
        return stop.code
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
