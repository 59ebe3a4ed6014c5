"""The parafield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; parafield is imported from its
``src/``.  One client runs a closed loop: each run is a fresh child
interpreter (``child.py``) that imports parafield, parses the generated
config and calls ``run_experiment``; the next child starts when the last
one has exited.  Children are started until the next one would end after
``--seconds`` (at least three, or four when tracing).

With ``--trace 0`` every child is untraced and the end-to-end metrics are
medians over the children.  With ``--trace 1`` untraced and traced
children alternate; the per-layer metrics come from the traced ones and
``trace.overhead_s`` is the difference of the two median wall times.

Every child is checked: it must exit 0, pass every pipeline assertion and
reproduce every summary metric of the reference recorded for the
(workload, seed) in ``references.json`` within RTOL/ATOL.  Seeds without
a recorded reference are checked against the first child of the run.
The last line of standard output is the JSON result.  Per-child records,
the environment and (when tracing) all spans are written under
``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import TIMED, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = BENCH / "references.json"

RTOL, ATOL = 1e-6, 1e-9  # summary metrics against the reference
RUN_LIMIT_S = 165.0  # a run returns within 180 s even if a child hangs
MIN_UNTRACED, MIN_TRACE_RUN = 3, 4
# counts that must repeat exactly across the traced children of a run
REPEATED = ("torus.fft.calls", "torus.fft.planes",
            "noise.enhance.resonant_calls", "heat.etd_step.calls")

THREAD_VARS = ("PARAFIELD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "field_steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}.{key}": unit for name in TIMED
       for key, unit in (("calls", "count"), ("self_s", "s"))},
    "torus.fft.planes": "count", "torus.fft.mflop_computed": "Mflop",
    "torus.write_pfld.bytes": "B", "heat.etd_step.field_steps": "count",
    "noise.enhance.resonant_calls": "count",
    "interactions.atom_evals": "count", "solver.self_s": "s",
    "solver.picard_iterations": "count", "experiments.write.calls": "count",
    "experiments.write.self_s": "s", "experiments.csv_identical": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# environment


def thread_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update((var, str(threads)) for var in THREAD_VARS)
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cpu_info() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(idx / 'level')} {_read(idx / 'type')} "
                      f"{_read(idx / 'size')}")
    return {"model": model or platform.processor(), "caches": caches}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "parafield").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int, threads: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(), "affinity_cpus": thread_count(),
        "cpu": cpu_info(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "child_threads": {var: str(threads) for var in THREAD_VARS},
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one child


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def summary_values(summary: dict) -> dict:
    """Every number of summary.json's metric list, by name."""
    out = {}
    for m in summary.get("metrics", []):
        out[m["name"]] = float(m["value"])
        if "stderr" in m:
            out[f"{m['name']}.stderr"] = float(m["stderr"])
    return out


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def prepare(name: str, seed: int, tag: str) -> tuple[Path, Path]:
    """A fresh run directory holding the generated config."""
    rundir = OUT / f"{name}-seed{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_path = rundir / "config.ini"
    config_path.write_text(WORKLOADS[name].config_text(seed))
    return rundir, config_path


def run_child(wl, config_path: Path, rundir: Path, index: int, traced: bool,
              env: dict, timeout: float) -> dict:
    """Run one child to completion; never raises for a failed run."""
    out_dir = rundir / f"child{index}"
    result_path = rundir / f"child{index}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(config_path),
           str(out_dir), str(result_path), "1" if traced else "0"]
    child = {"index": index, "traced": traced, "problems": []}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        child["problems"].append(f"timed out after {timeout:.0f} s")
        child["duration"] = time.monotonic() - spawned
        return child
    child["duration"] = time.monotonic() - spawned
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        child["problems"].append(f"exit code {proc.returncode}: "
                                 + " | ".join(tail))
        return child
    res = json.loads(result_path.read_text())
    result_path.unlink()
    child.update(setup_s=res["entered"] - spawned, wall_s=res["wall_s"],
                 cpu_s=res["cpu_s"],
                 peak_rss_mb=res["peak_rss_mb"],
                 picard_iterations=res["picard_iterations"],
                 field_steps=wl.field_steps(res["picard_iterations"]),
                 spans=res["spans"])
    if wl.picard_paths and not res["picard_iterations"]:
        child["problems"].append("no Picard iteration count was read")
    if not res["ok"]:
        child["problems"].append("a pipeline assertion failed")
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        child["summary"] = summary_values(summary)
        child["assertions"] = summary["assertions"]
    except (OSError, ValueError, KeyError) as e:
        child["problems"].append(f"unreadable summary.json: {e}")
    child["csv"] = csv_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return child


def check_against(child: dict, ref: dict | None) -> None:
    """Compare a child's summary metrics with the reference, if any."""
    values = child.get("summary")
    if values is None:
        return
    for name, v in values.items():
        if not math.isfinite(v):
            child["problems"].append(f"{name} = {v} is not finite")
    if ref is None:
        return
    if child["field_steps"] != ref["field_steps"]:
        child["problems"].append(f"{child['field_steps']} field steps, "
                                 f"reference {ref['field_steps']}")
    want = ref["metrics"]
    if set(values) != set(want):
        child["problems"].append(f"metric names {sorted(values)} differ from "
                                 f"the reference {sorted(want)}")
        return
    for name, v in values.items():
        if not math.isclose(v, want[name], rel_tol=RTOL, abs_tol=ATOL):
            child["problems"].append(
                f"{name} = {v!r}, reference {want[name]!r}")
    child["csv_identical"] = child["csv"] == ref["csv_sha256"]


# ---------------------------------------------------------------------------
# one run


def quartiles(values: list) -> dict:
    vals = sorted(values)
    if not vals:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    threads = thread_count()
    env = child_env(threads)
    rundir, config_path = prepare(name, seed, f"trace{int(trace)}")
    recorded = load_references().get(name, {}).get(str(seed))
    ref = recorded

    children = []
    start = time.monotonic()
    minimum = MIN_TRACE_RUN if trace else MIN_UNTRACED
    while True:
        traced = trace and len(children) % 2 == 1
        budget = RUN_LIMIT_S - (time.monotonic() - start)
        child = run_child(wl, config_path, rundir, len(children), traced, env,
                          budget)
        check_against(child, ref)
        if ref is None and "summary" in child and not child["problems"]:
            ref = {"metrics": child["summary"], "csv_sha256": child["csv"],
                   "field_steps": child["field_steps"]}
            child["csv_identical"] = True
        children.append(child)
        elapsed = time.monotonic() - start
        step = max(c["duration"] for c in children[-2:])
        if elapsed + step > RUN_LIMIT_S - 5:
            break
        if len(children) >= minimum and elapsed + step > seconds:
            break
    shutil.rmtree(rundir, ignore_errors=True)

    layers, span_log = [], []
    for child in children:
        if "wall_s" not in child:
            continue
        spans = child.pop("spans")
        if child["traced"]:
            span_log.append({"run": child["index"], **spans})
            layer = summarize(spans)
            if layer["heat.etd_step.field_steps"] != child["field_steps"]:
                child["problems"].append(
                    f"traced field steps {layer['heat.etd_step.field_steps']}"
                    f" != expected {child['field_steps']}")
            if layers:
                for key in REPEATED:
                    if layer[key] != layers[0][1][key]:
                        child["problems"].append(
                            f"{key} = {layer[key]} in child {child['index']},"
                            f" {layers[0][1][key]} in child "
                            f"{layers[0][0]['index']}")
            layers.append((child, layer))

    untraced = [c for c in children if not c["traced"] and "wall_s" in c]
    good = [c for c in untraced if not c["problems"]] or untraced
    stats = {
        "wall_s": quartiles([c["wall_s"] for c in good]),
        "field_steps_per_s": quartiles([c["field_steps"] / c["wall_s"]
                                        for c in good]),
        "setup_s": quartiles([c["setup_s"] for c in good]),
        "peak_rss_mb": quartiles([c["peak_rss_mb"] for c in good]),
    }
    failed = sum(1 for c in children if c["problems"])
    result = {
        "workload": name, "why": wl.why, "seed": seed, "trace": trace,
        "grid_n": wl.grid_n, "seconds": seconds,
        "attempted": len(children), "failed": failed,
        "error_rate": failed / len(children),
        "correct": failed == 0,
        "reference": "recorded" if recorded else "first child of this run",
        "environment": environment(seed, threads),
        "end_to_end": stats,
        "children": [{k: v for k, v in c.items() if k != "summary"}
                     for c in children],
    }
    if trace:
        per_layer = {}
        for key in PER_LAYER:
            vals = [layer[key] for _, layer in layers if key in layer]
            if vals:
                per_layer[key] = statistics.median(vals)
        traced_wall = [c["wall_s"] for c, _ in layers]
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_wall) - stats["wall_s"]["median"]
            if traced_wall and good else 0.0)
        per_layer["experiments.csv_identical"] = sum(
            1 for c in children if c.get("csv_identical"))
        for key in PER_LAYER:
            per_layer.setdefault(key, 0)
        result["per_layer"] = per_layer
        result["traced_children"] = len(layers)
    result["metrics"] = (
        {k: {"value": v, "unit": PER_LAYER[k]}
         for k, v in result["per_layer"].items()} if trace else
        {k: {"value": stats[k]["median"], "unit": u}
         for k, u in END_TO_END.items()})
    save(result, f"{name}-seed{seed}-trace{int(trace)}", span_log)
    return result


def save(result: dict, stem: str, span_log: list) -> None:
    """Write the run record and, for a traced run, every span once."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if span_log:
        with gzip.open(results / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(span_log, fh)


# ---------------------------------------------------------------------------
# reporting


def report(result: dict) -> None:
    print(f"== {result['workload']} (N={result['grid_n']}, seed "
          f"{result['seed']}, trace {int(result['trace'])}): "
          f"{result['attempted']} runs, {result['failed']} failed, "
          f"error_rate {result['error_rate']:.3g}")
    for key, unit in END_TO_END.items():
        s = result["end_to_end"][key]
        print(f"  {key} = {s['median']:.6g} {unit} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for key, val in result.get("per_layer", {}).items():
        print(f"  {key} = {val:.6g} {PER_LAYER[key]}")
    for c in result["children"]:
        for p in c["problems"]:
            print(f"  FAIL child {c['index']}: {p}")
    print(f"  correct: {result['correct']} (reference: "
          f"{result['reference']})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "parafield" / "__init__.py").is_file():
        print(f"perfbench: no parafield sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        report(result)
        print(json.dumps({k: result[k] for k in (
            "correct", "attempted", "failed", "metrics")}))
        return 0

    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            results.append(run_workload(name, args.seed, args.seconds, trace))
            report(results[-1])
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}": v for r in results
                    for k, v in r["metrics"].items()},
    }
    # one trajectory point: every metric of every workload, without the
    # per-child records
    keep = ("workload", "trace", "seed", "seconds", "attempted", "failed",
            "error_rate", "correct", "end_to_end", "per_layer")
    (OUT / "results" / f"all-seed{args.seed}.json").write_text(json.dumps(
        {"environment": results[0]["environment"],
         "runs": [{k: r[k] for k in keep if k in r} for r in results]},
        indent=1) + "\n")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
