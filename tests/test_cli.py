"""Config parsing, experiment pipeline outputs and CLI exit codes."""

import configparser
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np
import pytest

import parafield
import parafield.experiments
from parafield import read_pfld
from parafield.cli import main
from parafield.experiments import (SCHEMA, ConfigError, parse_config,
                                   run_experiment)


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
    assert cfg.values["grid"]["n"] == 16
    assert cfg.values["f"]["scale"] == 0.5
    assert cfg.values["params"]["snapshot_every"] == 2
    # unset keys hold the pipeline's defaults, None meaning unset
    assert cfg.values["params"]["u0"] == "bump"
    assert cfg.values["grid"]["dt"] is None and cfg.values["kernel"] is None
    cfg = parse_config(text="[experiment]\nname = renorm_constant\nseed = 1\n"
                            "[params]\neps_ladder = 0.1, 0.05 0.025\n")
    assert cfg.values["params"]["eps_ladder"] == (0.1, 0.05, 0.025)


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
    with pytest.raises(ConfigError, match="n = 'tiny'"):
        parse_config(text="[experiment]\nname = solve\nseed = 1\n"
                          "[grid]\nn = tiny\n")
    with pytest.raises(ConfigError, match="eps_ladder = '0.1 abc'"):
        parse_config(text="[experiment]\nname = renorm_constant\nseed = 1\n"
                          "[params]\neps_ladder = 0.1 abc\n")
    with pytest.raises(ConfigError, match="n_list = '0.1 abc'"):
        parse_config(text="[experiment]\nname = chaos_additive\nseed = 1\n"
                          "[ensemble]\nn_list = 0.1 abc\n")


def test_run_experiment_writes_outputs(tmp_path):
    cfg = parse_config(text=SOLVE_CFG, out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    assert record["ok"] and record["experiment"] == "solve"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == cfg.config_hash
    assert (tmp_path / "out" / "solution_norms.csv").exists()
    N, slices = read_pfld(tmp_path / "out" / "solution.pfld")
    assert N == 16 and len(slices) >= 2
    assert sorted(summary["artifacts"]) == sorted(
        str(p) for p in (tmp_path / "out").iterdir()
        if p.name != "summary.json")


@pytest.mark.parametrize("every,kept", [(1, [0, 1, 2, 3, 4]),
                                        (2, [0, 2, 4]), (4, [0, 4]),
                                        (5, [0, 4]), (1000, [0, 4])])
def test_solve_snapshot_rule(tmp_path, every, kept):
    # SOLVE_CFG has 5 slices (t = 0.1, dt = 0.025): every snapshot_every-th
    # slice is written, and when that is one slice, the first and the last
    text = SOLVE_CFG.replace("snapshot_every = 2", f"snapshot_every = {every}")
    assert run_experiment(parse_config(text=text, out=str(tmp_path / "out")))[
        "ok"]
    rows = (tmp_path / "out" / "solution_norms.csv").read_text().splitlines()
    linf = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(linf) == 5 and len(set(linf)) == 5
    _, slices = read_pfld(tmp_path / "out" / "solution.pfld")
    assert [float(np.max(np.abs(s))) for s in slices] == [linf[i] for i in kept]


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
    "paracontrolled_without_f": SOLVE_CFG.replace(
        "tanh_bilinear", "none").replace(
        "snapshot_every = 2", "snapshot_every = 2\nscheme = paracontrolled"),
    "unknown_section": SOLVE_CFG + "\n[parms]\nscheme = paracontrolled\n",
    "unknown_key": SOLVE_CFG.replace("t = 0.1", "t = 0.1\nbogus = 3"),
    "unknown_scheme": SOLVE_CFG.replace(
        "snapshot_every = 2", "snapshot_every = 2\nscheme = bogus"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_cli_bad_config_value_exit_two(tmp_path, capsys, case):
    path = _write(tmp_path, BAD_VALUES[case])
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _config(name, extra):
    return f"[experiment]\nname = {name}\nseed = 1\n\n[grid]\nn = 16\n{extra}"


def _experiment_name(text):
    # parse_config rejects these configs, so read the name from the text
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return cp["experiment"]["name"]


# a pipeline draws noise only through the noises it describes with these
NOISE_ENTRIES = ("enhance", "mean_field_enhance", "EnhancedNoise")


def _forbid_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("noise sampled before the config was checked")

    for name in NOISE_ENTRIES:
        monkeypatch.setattr(parafield.experiments, name, no_sampling)


# counts each pipeline needs at least one (two) of, read before any work
BAD_COUNTS = {
    "solve_snapshot_every_zero": SOLVE_CFG.replace("snapshot_every = 2",
                                                   "snapshot_every = 0"),
    "maxprinciple_no_seeds": _config("maxprinciple",
                                     "\n[params]\nn_seeds = 0\n"),
    "chaos_additive_no_runs": _config("chaos_additive", "\n[ensemble]\nk = 0\n"),
    "picard_trace_no_iterations": PICARD_CFG
    + "\n[params]\npicard_max_iters = 0\n",
    "renorm_constant_one_sample": _config("renorm_constant",
                                          "\n[params]\nmc_samples = 1\n"),
    "enhance_convergence_one_eps": _config(
        "enhance_convergence", "\n[params]\neps_ladder = 0.02\n"),
    "picard_trace_one_member": PICARD_CFG.replace("m = 4", "m = 1"),
    "chaos_singular_one_member": _config("chaos_singular",
                                         "\n[ensemble]\nm = 1\n"),
    "cross_variance_one_pair": _config("cross_variance",
                                       "\n[params]\nn_pairs = 1\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_cli_bad_count_exit_two(tmp_path, capsys, case):
    path = _write(tmp_path, BAD_COUNTS[case])
    name = _experiment_name(BAD_COUNTS[case])
    code = main([name, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a trend needs two list entries, each positive; renorm_constant's
# comparison grid must be a grid; numbers must be finite; times,
# mollification levels, tolerances, the noise's decay rate and damping
# must be in range, alpha valid and maxprinciple's u0 nonzero; each is
# checked before any noise is drawn
BAD_BEFORE_SAMPLING = {
    "chaos_additive_one_n": _config("chaos_additive",
                                    "\n[ensemble]\nn_list = 4\n"),
    "chaos_singular_one_n": _config("chaos_singular",
                                    "\n[ensemble]\nn_list = 2\n"),
    "renorm_dichotomy_one_eps": _config("renorm_dichotomy",
                                        "\n[params]\neps_ladder = 0.1\n"),
    "renorm_constant_one_eps": _config("renorm_constant",
                                       "\n[params]\neps_ladder = 0.1\n"),
    "cross_variance_one_eps": _config("cross_variance",
                                      "\n[params]\neps_pair = 0.1\n"),
    "renorm_constant_compare_grid_12": _config(
        "renorm_constant", "\n[params]\nn_compare = 12\n"),
    "enhance_convergence_negative_eps": _config(
        "enhance_convergence", "\n[params]\neps_ladder = 0.02 -0.01\n"),
    "cross_variance_negative_eps": _config(
        "cross_variance", "\n[params]\neps_pair = 0.2 -0.0125\n"),
    "renorm_constant_negative_eps": _config(
        "renorm_constant", "\n[params]\neps_ladder = 0.1 -0.05\n"),
    "renorm_constant_negative_mc_eps": _config(
        "renorm_constant", "\n[params]\nmc_eps = -0.05\n"),
    "renorm_dichotomy_zero_eps": _config(
        "renorm_dichotomy", "\n[params]\neps_ladder = 0.1 0\n"),
    "renorm_dichotomy_negative_eps": _config(
        "renorm_dichotomy", "\n[params]\neps_ladder = 0.1 -0.05\n"),
    "enhance_convergence_negative_t": _config("enhance_convergence",
                                              "t = -0.5\n"),
    "solve_negative_t": SOLVE_CFG.replace("t = 0.1", "t = -0.1"),
    "renorm_constant_zero_t_eval": _config("renorm_constant",
                                           "\n[params]\nt_eval = 0\n"),
    "cross_variance_negative_t_eval": _config(
        "cross_variance", "\n[params]\nt_eval = -0.5\n"),
    "enhance_convergence_alpha_two": _config("enhance_convergence",
                                             "\n[params]\nalpha = 2\n"),
    "chaos_additive_zero_n": _config("chaos_additive",
                                     "\n[ensemble]\nn_list = 0 4\n"),
    "chaos_singular_zero_n": _config("chaos_singular",
                                     "\n[ensemble]\nn_list = 0 8\n"),
    "maxprinciple_zero_u0": _config("maxprinciple", "\n[params]\nu0 = zero\n"),
    "solve_exp_correlated_negative_lambda": SOLVE_CFG.replace(
        "eps = 0.1", "eps = 0.1\nkind = exp_correlated\nlambda = -1"),
    "solve_exp_correlated_infinite_lambda": SOLVE_CFG.replace(
        "eps = 0.1", "eps = 0.1\nkind = exp_correlated\nlambda = inf"),
    "solve_f_scale_nan": SOLVE_CFG.replace("scale = 0.5", "scale = nan"),
    "solve_eta_multiplier_nan": SOLVE_CFG.replace(
        "eps = 0.1", "eps = 0.1\neta_multiplier = nan"),
    "solve_infinite_eps": SOLVE_CFG.replace("eps = 0.1", "eps = inf"),
    "solve_infinite_t": SOLVE_CFG.replace("t = 0.1", "t = inf"),
    "solve_u0_amp_nan": SOLVE_CFG.replace(
        "snapshot_every = 2", "snapshot_every = 2\nu0_amp = nan"),
    "solve_kernel_amp_nan": SOLVE_CFG
    + "\n[kernel]\nname = gaussian\namp = nan\n",
    "maxprinciple_infinite_c0": _config("maxprinciple",
                                        "\n[params]\nc0 = inf\n"),
    "picard_trace_negative_tol": PICARD_CFG + "\n[params]\npicard_tol = -1\n",
    "renorm_dichotomy_negative_low_floor": _config(
        "renorm_dichotomy", "\n[params]\nlow_floor = -1\n"),
    "renorm_dichotomy_negative_low_k0": _config(
        "renorm_dichotomy", "\n[params]\nlow_k0 = -2\n"),
    "chaos_additive_k_beyond_float": _config(
        "chaos_additive", "\n[ensemble]\nk = 1" + "0" * 400 + "\n"),
    # interaction keys that the run would not read
    "maxprinciple_f_params_without_f_name": _config(
        "maxprinciple", "\n[f]\nscale = 9\nc = 5\n"),
    "maxprinciple_f_scale_with_f_name": _config(
        "maxprinciple", "\n[f]\nname = cos_bump\n\n[params]\nf_scale = 7\n"),
    "solve_kernel_with_f_none": SOLVE_CFG.replace(
        "tanh_bilinear\nscale = 0.5", "none")
    + "\n[kernel]\nname = gaussian\nwidth = 0.3\n",
    "solve_g_params_without_g_name": SOLVE_CFG
    + "\n[g]\nscale = 3\nm = 2\n",
}


@pytest.mark.parametrize("case", sorted(BAD_BEFORE_SAMPLING))
def test_cli_bad_list_or_compare_grid_exit_two(tmp_path, capsys, monkeypatch,
                                               case):
    _forbid_sampling(monkeypatch)
    path = _write(tmp_path, BAD_BEFORE_SAMPLING[case])
    name = _experiment_name(BAD_BEFORE_SAMPLING[case])
    code = main([name, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _sample(key, default):
    # a valid value for a key whose default is unset
    unset = {"dt": "0.025", "eta_multiplier": "1.0", "name": "tanh_bilinear"}
    if default is None:
        return unset[key]
    return " ".join(map(str, default)) if isinstance(default, tuple) \
        else str(default)


def _keys(schema):
    # a [kernel] section (None in SCHEMA) is free-form; its name stands
    # for it
    return {(sec, key): _sample(key, d) for sec, keys in schema.items()
            for key, d in (keys or {"name": "gaussian"}).items()}


ALL_KEYS = {k: v for schema in SCHEMA.values()
            for k, v in _keys(schema).items()}


@pytest.mark.parametrize("pipeline", sorted(SCHEMA))
def test_unread_key_exit_two(tmp_path, capsys, monkeypatch, pipeline):
    # every key some other pipeline reads and this one does not
    _forbid_sampling(monkeypatch)
    unread = sorted(set(ALL_KEYS) - set(_keys(SCHEMA[pipeline])))
    assert unread
    for sec, key in unread:
        text = (f"[experiment]\nname = {pipeline}\nseed = 1\n\n"
                f"[{sec}]\n{key} = {ALL_KEYS[sec, key]}\n")
        out = tmp_path / f"{sec}_{key}"
        code = main([pipeline, "--config", _write(tmp_path, text),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "config error" in err, (sec, key)
        assert f"'{sec}'" in err or f"'{key}'" in err, (sec, key)
        assert not out.exists()


def test_schema_defaults_pass_their_parsers():
    # one parser per key name, and no parser that no pipeline uses
    assert set(SCHEMA) == set(parafield.experiments.EXPERIMENTS)
    assert ({key for _, key in ALL_KEYS} | {"seed", "out"}
            == set(parafield.experiments._PARSERS))
    assert set(parafield.experiments._SECTION_PARSERS) <= set(ALL_KEYS)
    for pipeline, schema in SCHEMA.items():
        # every default written out reads back as the default
        text = f"[experiment]\nname = {pipeline}\nseed = 1\n"
        for sec, keys in schema.items():
            # an [f]/[g] parameter needs that section's name, so a
            # section whose name is unset is left out
            if keys and keys.get("name", "") is not None:
                text += f"[{sec}]\n" + "".join(
                    f"{k} = {_sample(k, d)}\n" for k, d in keys.items()
                    if d is not None)
        assert parse_config(text=text).values == parse_config(
            text=f"[experiment]\nname = {pipeline}\nseed = 1\n").values


class _Recorded(dict):
    """One section of ``cfg.values`` that notes the keys read from it."""

    def __init__(self, section, values, reads):
        super().__init__(values)
        self.section, self.reads = section, reads

    def __getitem__(self, key):
        self.reads.add((self.section, key))
        return super().__getitem__(key)


class _FirstDraw(Exception):
    pass


@pytest.mark.parametrize("pipeline", sorted(SCHEMA))
def test_every_schema_key_is_read_before_the_first_draw(monkeypatch,
                                                        pipeline):
    # so SCHEMA holds no key that its pipeline ignores
    def first_draw(*args, **kwargs):
        raise _FirstDraw

    for name in NOISE_ENTRIES:
        monkeypatch.setattr(parafield.experiments, name, first_draw)
    cfg = parse_config(text=_config(pipeline, ""), out="unused")
    reads = set()
    cfg.values = {sec: v if v is None else _Recorded(sec, v, reads)
                  for sec, v in cfg.values.items()}
    with pytest.raises(_FirstDraw):
        run_experiment(cfg)
    assert reads == {(sec, key) for sec, keys in SCHEMA[pipeline].items()
                     for key in keys or ()}


def test_run_experiment_looks_up_the_pipeline_at_run_time(tmp_path,
                                                          monkeypatch):
    # perfbench's tracer times each pipeline by replacing its entry
    calls = []
    pipeline = parafield.experiments.EXPERIMENTS["solve"]

    def wrapped(cfg):
        calls.append(cfg)
        return pipeline(cfg)

    monkeypatch.setitem(parafield.experiments.EXPERIMENTS, "solve", wrapped)
    cfg = parse_config(text=SOLVE_CFG, out=str(tmp_path / "out"))
    assert run_experiment(cfg)["ok"] and calls == [cfg]


def test_unknown_scheme_is_rejected_before_sampling(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("noise sampled before the config was checked")

    monkeypatch.setattr(parafield.experiments, "enhance", no_sampling)
    cfg = parse_config(text=BAD_VALUES["unknown_scheme"],
                       out=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="unknown scheme"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_parse_config_accepts_every_benchmark_workload(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, wl in workloads.WORKLOADS.items():
        cfg = parse_config(text=wl.config_text(0), out="unused")
        assert cfg.seed == 0, name


def test_cli_explosion_exit_one_with_summary(tmp_path, capsys):
    path = _write(tmp_path, SOLVE_CFG.replace("n = 16", "n = 32")
                  .replace("scale = 0.5", "scale = 500"))
    out = tmp_path / "out"
    code = main(["solve", "--config", path, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parafield: ExplosionError: ")
    record = json.loads((out / "summary.json").read_text())
    assert record["ok"] is False
    assert record["metrics"] == [] and record["assertions"] == []
    failure = record["failure"]
    assert failure["type"] == "ExplosionError"
    assert err[0] == f"parafield: ExplosionError: {failure['message']}"
    assert 0.0 < failure["time"] <= 0.1
    assert not failure["linf"] < 15.0  # the guard 10 (1 + |u0|_inf)


def test_picard_failure_summary_carries_residuals(tmp_path):
    cfg = parse_config(text=PICARD_CFG + "\n[params]\npicard_tol = 1e-14\n"
                       "picard_max_iters = 2\n", out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    assert record["ok"] is False and record["metrics"] == []
    failure = json.loads((tmp_path / "out" / "summary.json").read_text())[
        "failure"]
    assert failure["type"] == "PicardError"
    assert len(failure["residuals"]) == 2
    assert failure["residuals"][-1] > 1e-14


def test_cli_fractional_list_entry_exit_two(tmp_path, capsys):
    # n_list is read before any solve, so this exits at once
    path = _write(tmp_path, "[experiment]\nname = chaos_additive\nseed = 1\n"
                            "\n[grid]\nn = 16\n\n[ensemble]\nk = 1\n"
                            "m_ref = 2\nn_list = 2.7 16\n")
    code = main(["chaos_additive", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("c0", ["0", "-0.5"])
def test_cli_maxprinciple_nonpositive_c0_exit_two(tmp_path, capsys, c0):
    path = _write(tmp_path, "[experiment]\nname = maxprinciple\nseed = 1\n"
                            f"\n[grid]\nn = 16\n\n[params]\nc0 = {c0}\n")
    code = main(["maxprinciple", "--config", path,
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


NEGATIVE_SEED = {
    "chaos_additive": _config("chaos_additive", "\n[ensemble]\nn_list = 2 4\n"
                              "k = 2\nm_ref = 8\n"),
    "chaos_singular": _config("chaos_singular", "t = 0.05\n\n[ensemble]\n"
                              "n_list = 2 4\nk = 2\nm = 4\n"),
}


@pytest.mark.parametrize("pipeline", sorted(NEGATIVE_SEED))
def test_negative_seed_is_the_seed_mod_2_64(tmp_path, pipeline):
    # every Philox key is reduced mod 2**64, so seed -10 runs and draws
    # what seed 2**64 - 10 draws
    path = _write(tmp_path, NEGATIVE_SEED[pipeline])
    for seed in (-10, 2 ** 64 - 10):
        assert main([pipeline, "--config", path, "--seed", str(seed),
                     "--out", str(tmp_path / str(seed))]) == 0
    name = f"{pipeline}.csv"
    assert ((tmp_path / "-10" / name).read_bytes()
            == (tmp_path / str(2 ** 64 - 10) / name).read_bytes())


@pytest.mark.parametrize("threads", ["0", "-1", "two",
                                     str((os.cpu_count() or 1) + 1)])
def test_bad_thread_count_exit_two_before_any_draw(tmp_path, capsys,
                                                   monkeypatch, threads):
    monkeypatch.setenv("PARAFIELD_THREADS", threads)
    _forbid_sampling(monkeypatch)
    path = _write(tmp_path, SOLVE_CFG)
    assert main(["solve", "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    assert "PARAFIELD_THREADS" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="PARAFIELD_THREADS"):
        run_experiment(parse_config(text=SOLVE_CFG, out=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads,size", [(None, 1), ("", 1), ("1", 1),
                                          (str(os.cpu_count() or 1),
                                           os.cpu_count() or 1)])
def test_summary_records_the_pool_size(tmp_path, monkeypatch, threads, size):
    if threads is None:
        monkeypatch.delenv("PARAFIELD_THREADS", raising=False)
    else:
        monkeypatch.setenv("PARAFIELD_THREADS", threads)
    record = run_experiment(parse_config(text=SOLVE_CFG,
                                         out=str(tmp_path / "out")))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert record["threads"] == summary["threads"] == size


def _two_threads(monkeypatch):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a pool of 2 needs 2 CPUs")
    monkeypatch.setenv("PARAFIELD_THREADS", "2")


@pytest.mark.parametrize("cost", [None, lambda x: x],
                         ids=["no_cost", "identity"])
def test_map_runs_returns_results_in_job_order(monkeypatch, cost):
    _two_threads(monkeypatch)
    started = []

    def job(x):
        started.append(x)
        time.sleep(0.002 * (x % 3))  # finish out of order
        return x * x

    jobs = [3, 1, 4, 1, 5, 9, 2, 6]
    assert parafield.experiments._map_runs(job, jobs, cost=cost) == [
        x * x for x in jobs]
    assert sorted(started) == sorted(jobs)  # each job ran once


def test_map_runs_raises_the_lowest_index_failure(monkeypatch):
    # largest index first: job 3 fails before jobs 2, 1 and 0 start; the
    # loop would have run job 0 and raised job 1's error
    _two_threads(monkeypatch)
    ran = set()

    def job(i):
        ran.add(i)
        if i in (1, 3):
            raise ValueError(f"job {i}")
        return i

    with pytest.raises(ValueError, match="job 1"):
        parafield.experiments._map_runs(job, range(6), cost=lambda i: i)
    assert {0, 1, 2, 3} <= ran


def test_map_runs_starts_no_queued_job_after_a_failure(monkeypatch):
    _two_threads(monkeypatch)
    ran = []

    def job(i):
        ran.append(i)
        if i == 0:
            raise ValueError("job 0")
        time.sleep(0.005)

    with pytest.raises(ValueError, match="job 0"):
        parafield.experiments._map_runs(job, range(40))
    assert len(ran) < 20


POOLED = {
    "chaos_additive": (_config("chaos_additive",
                               "t = 0.1\n\n[ensemble]\nn_list = 2 4\nk = 3\n"
                               "m_ref = 8\n"), ("chaos_additive.csv",)),
    "renorm_dichotomy": (_config("renorm_dichotomy",
                                 "t = 0.5\n\n[params]\neps_ladder = 0.2 0.1\n"
                                 "n_seeds = 3\n"), ("dichotomy.csv",)),
}


@pytest.mark.parametrize("pipeline", sorted(POOLED))
def test_pooled_runs_are_byte_identical_at_any_count(tmp_path, monkeypatch,
                                                     pipeline):
    text, files = POOLED[pipeline]
    summaries = []
    for threads in ("1", "2"):
        if threads == "2":
            _two_threads(monkeypatch)
        else:
            monkeypatch.setenv("PARAFIELD_THREADS", threads)
        run_experiment(parse_config(text=text, out=str(tmp_path / threads)))
        summaries.append(json.loads(
            (tmp_path / threads / "summary.json").read_text()))
    for name in files:
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())
    assert summaries[0]["metrics"] == summaries[1]["metrics"]
    assert [s["threads"] for s in summaries] == [1, 2]


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
