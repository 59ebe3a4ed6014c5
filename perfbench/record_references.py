"""Record this commit's outputs as the benchmark's correctness references.

    python3 perfbench/record_references.py SEED [SEED ...]

Runs every workload once per seed, untraced, and stores its summary
metrics, CSV digests and field-step count in ``references.json``
(entries for other seeds are kept).  A run that fails records nothing
and makes the script exit 1.
"""

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    refs = run.load_references()
    env = run.child_env(run.thread_count())
    status = 0
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            rundir, config_path = run.prepare(name, seed, "reference")
            child = run.run_child(wl, config_path, rundir, 0, False, env,
                                  run.RUN_LIMIT_S)
            shutil.rmtree(rundir, ignore_errors=True)
            if child["problems"]:
                print(f"{name} seed {seed}: {child['problems']}")
                status = 1
                continue
            refs.setdefault(name, {})[str(seed)] = {
                "metrics": child["summary"], "csv_sha256": child["csv"],
                "field_steps": child["field_steps"]}
            print(f"{name} seed {seed}: recorded")
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
