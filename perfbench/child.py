"""One run of a generated config in a fresh interpreter.

Usage: child.py CONFIG OUT_DIR RESULT_JSON TRACE

Imports parafield, parses CONFIG, then times ``run_experiment``.  The
parent reads RESULT_JSON: the monotonic clock on entering
``run_experiment`` (the parent subtracts its spawn time to get the
set-up time), the seconds inside it, the peak RSS, the Picard iteration
count and, when TRACE is 1, the spans of the run.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv):
    config_path, out_dir, result_path, trace = argv
    import parafield.experiments as experiments

    if not os.path.abspath(experiments.__file__).startswith(SRC + os.sep):
        print(f"parafield imported from {experiments.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    cfg = experiments.parse_config(config_path, out=out_dir)
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.install()

    # the Picard iteration count sets the field-step count of a run; it is
    # read from the one solve_mean_field call a pipeline makes
    picard = []
    solve_mean_field = experiments.solve_mean_field

    def observed(*args, **kwargs):
        out = solve_mean_field(*args, **kwargs)
        picard.append(out[1])
        return out

    experiments.solve_mean_field = observed

    entered = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    record = experiments.run_experiment(cfg)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    result = {
        "entered": entered,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "ok": bool(record["ok"]),
        "picard_iterations": sum(picard),
        "spans": tracer.dump() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
