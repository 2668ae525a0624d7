"""Command-line runner: ``python -m repro.experiments.runner table2 --scale ci``.

Without arguments it lists the available experiments; ``all`` runs every
registered harness at the requested scale and prints each formatted result.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment


def _run(args) -> int:
    """``python -m repro experiment``: list or run the harnesses."""
    if not args.experiment:
        print("Available experiments:")
        for key, experiment in EXPERIMENTS.items():
            print(f"  {key:10s} {experiment.artifact:10s} "
                  f"{experiment.description}")
        return 0

    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for key in keys:
        experiment = get_experiment(key)
        started = time.time()
        result = experiment.run(scale=args.scale)
        elapsed = time.time() - started
        print(f"\n=== {experiment.artifact}: {experiment.description} "
              f"[{elapsed:.1f}s] ===")
        print(experiment.format(result))
    return 0


def main(argv=None) -> int:
    """The ``experiment`` command of ``python -m repro``, whose one
    command tree parses ``argv``."""
    from repro.api.cli import main as repro_main

    return repro_main(["experiment",
                       *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
