"""The benchmark's traced gate on two workloads, run as the benchmark runs
it: a change that breaks the tracer's view of the program, the field-step
count or a summary metric fails here, not only in the benchmark.

The benchmark's own modules are loaded from ``perfbench/`` and used as
they are; nothing there is edited.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _benchmark_runner(monkeypatch):
    # run.py imports tracer and workloads from its own directory
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("name", ["paracontrolled_n64", "particle_singular"])
def test_traced_child_passes_the_reference_gate(name, tmp_path, monkeypatch):
    run = _benchmark_runner(monkeypatch)
    wl = run.WORKLOADS[name]
    config = tmp_path / "config.ini"
    config.write_text(wl.config_text(0))
    out, result = tmp_path / "out", tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(config), str(out),
         str(result), "1"],
        env=run.child_env(1), cwd=str(ROOT), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(result.read_text())
    assert res["ok"]
    field_steps = wl.field_steps(res["picard_iterations"])
    # the tracer counts field steps as the planes etd_step is handed
    assert run.summarize(res["spans"])["heat.etd_step.field_steps"] == \
        field_steps
    child = {"summary": run.summary_values(
        json.loads((out / "summary.json").read_text())),
        "field_steps": field_steps, "csv": run.csv_digests(out),
        "problems": []}
    run.check_against(child, run.load_references()[name]["0"])
    assert child["problems"] == []
