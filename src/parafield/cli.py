"""Command line entry point.

Usage: ``parafield <experiment> --config <path> [--seed S] [--out DIR]``.

Exit codes: 0 on success, 1 when an in-run assertion or the solver
fails, 2 on a config or usage error.  The PARAFIELD_THREADS environment
variable sizes the run pool of the pipelines that step independent runs
(``experiments.pool_size``; a bad value is a config error), and nothing
else.  BLAS takes its thread count from the usual variables
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``) when numpy is imported.
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="parafield",
        description="run a spectral-lab experiment from a config file")
    p.add_argument("experiment", help="experiment name (must match the "
                                      "[experiment] name in the config)")
    p.add_argument("--config", required=True, help="path to the config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    from .experiments import ConfigError, parse_config, run_experiment

    try:
        cfg = parse_config(args.config, seed=args.seed, out=args.out)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config is for {cfg.experiment!r}, not {args.experiment!r}")
        record = run_experiment(cfg)
    except ConfigError as e:
        print(f"parafield: config error: {e}", file=sys.stderr)
        return 2

    if "failure" in record:
        f = record["failure"]
        print(f"parafield: {f['type']}: {f['message']}", file=sys.stderr)
        return 1
    for a in record["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}")
    for m in record["metrics"]:
        se = f" +/- {m['stderr']:.3g}" if "stderr" in m else ""
        print(f"  {m['name']} = {m['value']:.6g}{se}")
    print(f"wrote {cfg.out}/summary.json ({record['wall_time']:.1f}s)")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
