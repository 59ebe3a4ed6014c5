"""Config parsing, experiment pipeline outputs and CLI exit codes."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import parafield
from parafield import read_pfld
from parafield.cli import main
from parafield.experiments import ConfigError, parse_config, run_experiment


SOLVE_CFG = """\
[experiment]
name = solve
seed = 11

[grid]
n = 16
t = 0.1

[noise]
eps = 0.1

[f]
name = tanh_bilinear
scale = 0.5

[params]
snapshot_every = 2
"""

FAILING_CFG = """\
[experiment]
name = cross_variance
seed = 11

[grid]
n = 16

[params]
n_pairs = 8
"""


PICARD_CFG = """\
[experiment]
name = picard_trace
seed = 5

[grid]
n = 16
t = 0.05

[ensemble]
m = 4
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_basics(tmp_path):
    path = _write(tmp_path, SOLVE_CFG)
    cfg = parse_config(path)
    assert cfg.experiment == "solve" and cfg.seed == 11
    assert cfg.get("grid", "n", 64, int) == 16
    assert cfg.get("f", "scale", 1.0, float) == 0.5
    assert cfg.get("params", "missing", 3, int) == 3
    assert cfg.get_floats("params", "absent", [1.0, 2.0]) == [1.0, 2.0]


def test_parse_config_overrides_change_hash(tmp_path):
    path = _write(tmp_path, SOLVE_CFG)
    a = parse_config(path)
    b = parse_config(path, seed=99)
    c = parse_config(path, out="elsewhere")
    assert b.seed == 99 and c.out == "elsewhere"
    assert len({a.config_hash, b.config_hash, c.config_hash}) == 3


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        parse_config(text="[experiment]\nname = warp_drive\nseed = 1\n")
    with pytest.raises(ConfigError):
        parse_config(text="[experiment]\nname = solve\n")  # no seed
    with pytest.raises(ConfigError):
        parse_config(text="not a config at [all")
    cfg = parse_config(text="[experiment]\nname = solve\nseed = 1\n"
                            "[grid]\nn = tiny\n"
                            "[params]\neps_ladder = 0.1 abc\n")
    with pytest.raises(ConfigError):
        cfg.get("grid", "n", 64, int)
    with pytest.raises(ConfigError):
        cfg.get_floats("params", "eps_ladder")
    with pytest.raises(ConfigError):
        cfg.get_ints("params", "eps_ladder")


def test_run_experiment_writes_outputs(tmp_path):
    cfg = parse_config(text=SOLVE_CFG, out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    assert record["ok"] and record["experiment"] == "solve"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == cfg.config_hash
    assert (tmp_path / "out" / "solution_norms.csv").exists()
    N, slices = read_pfld(tmp_path / "out" / "solution.pfld")
    assert N == 16 and len(slices) >= 2


@pytest.mark.parametrize("text,files", [
    pytest.param(SOLVE_CFG, ("solution_norms.csv", "solution.pfld"),
                 id="solve"),
    # Picard sweeps step every stream against a many-atom measure
    pytest.param(PICARD_CFG, ("picard_trace.csv",), id="picard_trace")])
def test_rerun_is_byte_identical(tmp_path, text, files):
    outs = []
    for name in ("a", "b"):
        cfg = parse_config(text=text, out=str(tmp_path / name))
        run_experiment(cfg)
        outs.append(tmp_path / name)
    for fname in files:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_success_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, SOLVE_CFG)
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_linf" in out and "summary.json" in out


def test_cli_assertion_failure_exit_one(tmp_path, capsys):
    # the cross-term variance clause fails by design at this mollifier
    # convention, which exercises the assertion-failure exit path
    path = _write(tmp_path, FAILING_CFG)
    code = main(["cross_variance", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_config_error_exit_two(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # experiment name mismatch between argv and config
    path = _write(tmp_path, SOLVE_CFG)
    assert main(["picard_trace", "--config", path]) == 2


BAD_VALUES = {
    "grid_not_power_of_two": SOLVE_CFG.replace("n = 16", "n = 12"),
    "t_not_multiple_of_dt": SOLVE_CFG.replace("t = 0.1", "t = 0.1\ndt = 0.03"),
    "kernel_without_name": SOLVE_CFG + "\n[kernel]\nwidth = 0.5\n",
    "unknown_f_name": SOLVE_CFG.replace("tanh_bilinear", "warp_drive"),
    "seed_not_an_integer": SOLVE_CFG.replace("seed = 11", "seed = eleven"),
    "unknown_noise_kind": SOLVE_CFG.replace("eps = 0.1",
                                            "eps = 0.1\nkind = pink"),
    "negative_eps": SOLVE_CFG.replace("eps = 0.1", "eps = -0.1"),
    "kernel_with_m_two": SOLVE_CFG.replace("scale = 0.5", "scale = 0.5\nm = 2")
    + "\n[kernel]\nname = gaussian\n",
    "kernel_unknown_param": SOLVE_CFG
    + "\n[kernel]\nname = gaussian\nwidht = 0.5\n",
    "kernel_zero_width": SOLVE_CFG + "\n[kernel]\nname = gaussian\nwidth = 0\n",
    "f_c0_zero": SOLVE_CFG.replace("scale = 0.5", "scale = 0.5\nc0 = 0"),
    "f_m_negative": SOLVE_CFG.replace("scale = 0.5", "scale = 0.5\nm = -1"),
    "kernel_with_paracontrolled": SOLVE_CFG.replace(
        "snapshot_every = 2", "snapshot_every = 2\nscheme = paracontrolled")
    + "\n[kernel]\nname = gaussian\n",
    "kernel_with_tanh_revert": SOLVE_CFG.replace("tanh_bilinear", "tanh_revert")
    + "\n[kernel]\nname = gaussian\n",
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_cli_bad_config_value_exit_two(tmp_path, capsys, case):
    path = _write(tmp_path, BAD_VALUES[case])
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_fractional_list_entry_exit_two(tmp_path, capsys):
    # n_list is read before any solve, so this exits at once
    path = _write(tmp_path, "[experiment]\nname = chaos_additive\nseed = 1\n"
                            "\n[grid]\nn = 16\n\n[ensemble]\nk = 1\n"
                            "m_ref = 2\nn_list = 2.7 16\n")
    code = main(["chaos_additive", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_usage_error_exit_two(capsys):
    assert main([]) == 2
    assert main(["solve"]) == 2
    capsys.readouterr()


def test_cli_seed_override(tmp_path):
    path = _write(tmp_path, SOLVE_CFG)
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["solve", "--config", path, "--out", a]) == 0
    assert main(["solve", "--config", path, "--seed", "12", "--out", b]) == 0
    ra = json.loads((tmp_path / "a" / "summary.json").read_text())
    rb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert ra["seed"] == 11 and rb["seed"] == 12
    va = [m for m in ra["metrics"] if m["name"] == "final_linf"][0]["value"]
    vb = [m for m in rb["metrics"] if m["name"] == "final_linf"][0]["value"]
    assert va != vb


def test_thread_env_mapping(monkeypatch):
    from parafield.cli import _apply_thread_env
    monkeypatch.setenv("PARAFIELD_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _apply_thread_env()
    assert os.environ["OMP_NUM_THREADS"] == "2"


HEAP_CHURN = """\
import resource, sys
import numpy as np
from parafield.experiments import parse_config, run_experiment
run_experiment(parse_config(sys.argv[1], out=sys.argv[2]))
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    held = [np.ones((64, 64), complex) for _ in range(64)]  # 4 MiB
    del held
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the trim threshold is glibc's")
def test_run_keeps_freed_heap_for_reuse(tmp_path):
    # 50 rounds of holding and freeing 4 MiB fault its 1024 pages in
    # about once after a run, not once per round (about 40000 faults)
    src = os.path.dirname(os.path.dirname(parafield.__file__))
    out = subprocess.run(
        [sys.executable, "-c", HEAP_CHURN, _write(tmp_path, SOLVE_CFG),
         str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True).stdout
    assert int(out) < 4 * 1024
