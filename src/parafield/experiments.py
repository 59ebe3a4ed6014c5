"""Config-driven experiment pipelines.

Configs are flat ``key = value`` files with ``[section]`` headers (read
with configparser), checked against the pipeline's ``SCHEMA`` entry and
its parsers before any work.  Every experiment is a pure function of
(config, seed): reruns with the same config produce byte-identical
metric CSVs.  A pipeline returns its metrics, its series and its
assertions; ``run_experiment`` then makes the output directory and
writes a JSON summary, one CSV per metric series and one PFLD file per
field-path series.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .bony import resonant
from .heat import semigroup
from .interactions import make_interaction, make_kernel
from .littlewood_paley import besov_norm
from .measures import chaos_metric
from .noise import (TIME_INDEPENDENT, EnhancedNoise, NoiseSpec, _rng,
                    cross_resonant, enhance, final_slice,
                    low_damped_multiplier, mean_field_enhance,
                    power_law_multiplier, renorm_constant)
from .solver import (ExplosionError, FixedPointError, PicardError,
                     SolveConfig, default_dt, solve_mean_field,
                     solve_paracontrolled, solve_particle_system,
                     solve_renormalized)
from .torus import Field, PathField, from_spectra, make_grid, make_times, \
    spectra, write_pfld

__all__ = ["ExperimentConfig", "run_experiment", "parse_config",
           "EXPERIMENTS", "ConfigError"]


class ConfigError(ValueError):
    pass


def pool_size() -> int:
    """The number of runs a pipeline steps at once: ``PARAFIELD_THREADS``,
    an integer in 1..os.cpu_count(); unset or empty means 1."""
    text = os.environ.get("PARAFIELD_THREADS", "")
    if not text:
        return 1
    cpus = os.cpu_count() or 1
    try:
        k = int(text)
    except ValueError:
        k = 0
    if not 1 <= k <= cpus:
        raise ConfigError(f"PARAFIELD_THREADS = {text!r} must be an integer "
                          f"in 1..{cpus}")
    return k


def _number(cast=float, low=-math.inf, high=math.inf, closed=False):
    """Parser of a finite number in (low, high), or [low, high) if closed."""
    span = f"{'[' if closed else '('}{low:.4g}, {high:.4g})"

    def parse(text):
        x = cast(text)
        if not (math.isfinite(x) and (low <= x if closed else low < x)
                and x < high):
            raise ValueError(f"must be finite and in {span}")
        return x
    return parse


def _list(entry):
    """Parser of a list a trend is read along: two or more ``entry``s."""
    def parse(text):
        out = tuple(entry(x) for x in text.replace(",", " ").split())
        if len(out) < 2:
            raise ValueError(f"needs at least 2 entries, got {len(out)}")
        return out
    return parse


def _grid_size(text):
    return make_grid(int(text)).N


_REAL, _POSITIVE = _number(), _number(low=0)
_COUNT, _SAMPLES = _number(int, 1, closed=True), _number(int, 2, closed=True)
# one parser per key name, shared by every pipeline
_PARSERS = {
    **dict.fromkeys(("name", "out", "kind", "scheme", "u0"), str),
    "seed": int,
    **dict.fromkeys(("n", "n_compare"), _grid_size),
    **dict.fromkeys(("scale", "c", "eta_multiplier", "f_scale", "u0_amp"),
                    _REAL),
    **dict.fromkeys(("t", "dt", "t_eval", "c0", "picard_tol", "low_k0"),
                    _POSITIVE),
    **dict.fromkeys(("eps", "mc_eps", "lambda", "low_floor"),
                    _number(low=0, closed=True)),
    **dict.fromkeys(("m", "k", "m_ref", "n_samples", "n_seeds",
                     "picard_max_iters", "snapshot_every"), _COUNT),
    **dict.fromkeys(("mc_samples", "n_pairs"), _SAMPLES),
    "alpha": _number(low=2 / 3, high=1),
    **dict.fromkeys(("eps_ladder", "eps_pair"), _list(_POSITIVE)),
    "n_list": _list(_COUNT),
}
# parsers of one section's key, looked up before the per-name ones: a
# Picard ensemble needs two members, while [f]/[g] m may be 1
_SECTION_PARSERS = {("ensemble", "m"): _SAMPLES}
_INTERACTION = {"name": None, "scale": 1.0, "c0": 1.0, "c": 1.0, "m": 1}


def _interactions(f, scale=1.0):
    """[f] with its default family, an unset [g], and [kernel], which
    holds the parameters of [f]'s kernel (make_kernel checks its keys)."""
    return {"f": {**_INTERACTION, "name": f, "scale": scale},
            "g": _INTERACTION, "kernel": None}


_NOISE = {"kind": "white", "lambda": 1.0, "eta_multiplier": None}
_U0 = {"u0": "bump", "u0_amp": 0.5}
# SCHEMA[pipeline][section][key] = default, None meaning unset: the keys
# each pipeline reads besides [experiment] name, seed and out
SCHEMA = {
    "renorm_constant": {
        "grid": {"n": 64, "t": 1.0, "dt": None}, "noise": _NOISE,
        "params": {"eps_ladder": tuple(2.0 ** -k for k in range(2, 8)),
                   "t_eval": 1.0, "mc_samples": 512, "mc_eps": 0.05,
                   "n_compare": 128}},
    "enhance_convergence": {
        "grid": {"n": 128, "t": 0.5}, "noise": _NOISE,
        "params": {"alpha": 0.75, "eps_ladder": (0.02, 0.01, 0.005, 0.0025),
                   "n_samples": 32}},
    "cross_variance": {
        "grid": {"n": 64}, "noise": _NOISE,
        "params": {"t_eval": 0.5, "eps_pair": (0.2, 0.0125), "n_pairs": 512}},
    "solve": {
        "grid": {"n": 64, "t": 0.5, "dt": None},
        "noise": {"eps": 0.1, **_NOISE}, **_interactions("tanh_bilinear"),
        "params": {**_U0, "scheme": "direct_renormalized",
                   "snapshot_every": 8}},
    "maxprinciple": {
        "grid": {"n": 64, "t": 0.5, "dt": None},
        "noise": {"eps": 0.05, **_NOISE}, **_interactions(None),
        "params": {**_U0, "c0": 1.0, "n_seeds": 16, "f_scale": 1.0}},
    "renorm_dichotomy": {
        "grid": {"n": 64, "t": 10.0}, "noise": _NOISE,
        **_interactions("tanh_bilinear", scale=0.4),
        "params": {**_U0, "eps_ladder": (0.1, 0.05, 0.025), "n_seeds": 4,
                   "low_k0": 2.0, "low_floor": 0.1}},
    "chaos_additive": {
        "grid": {"n": 32, "t": 0.25, "dt": None}, "noise": _NOISE,
        "g": {**_INTERACTION, "name": "tanh_revert"},
        "ensemble": {"n_list": (4, 16, 64), "k": 32, "m_ref": 256}},
    "chaos_singular": {
        "grid": {"n": 32, "t": 0.2, "dt": None},
        "noise": {"eps": 0.05, **_NOISE}, **_interactions("tanh_bilinear"),
        "params": _U0, "ensemble": {"n_list": (8, 32), "k": 16, "m": 32}},
    "picard_trace": {
        "grid": {"n": 64, "t": 0.25, "dt": None},
        "noise": {"eps": 0.1, **_NOISE}, **_interactions("tanh_bilinear"),
        "params": {**_U0, "picard_tol": 1e-4, "picard_max_iters": 60},
        "ensemble": {"m": 16}},
}


@dataclass
class ExperimentConfig:
    """A parsed config: ``values[section][key]`` holds the typed value of
    every key the pipeline reads, its default where the file has none
    (``values["kernel"]`` is None without a [kernel] section)."""

    experiment: str
    seed: int
    out: str
    values: dict
    raw_bytes: bytes

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()[:16]


def _parse(section: str, key: str, text: str, parser):
    try:
        return parser(text)
    except (ValueError, OverflowError) as e:  # an int too large for a float
        raise ConfigError(f"[{section}] {key} = {text!r}: {e}") from None


def _check_interaction_keys(name: str, sections: dict, values: dict):
    """Reject the interaction keys a run would not read: an [f]/[g]
    parameter without that section's name, [kernel] without a written
    [f] name, and maxprinciple's f_scale beside an [f] name."""
    off = {s: values[s]["name"] in (None, "none") for s in ("f", "g")
           if s in values}
    unread = [f"[{s}] {k}" for s in off if off[s]
              for k in sections.get(s, {}) if k != "name"]
    if "kernel" in sections and sections.get("f", {}).get("name") in (
            None, "none"):
        unread.append("[kernel]")
    if "f_scale" in sections.get("params", {}) and not off["f"]:
        unread.append("[params] f_scale")
    if unread:
        raise ConfigError(
            f"{name} would not read {unread}: an [f]/[g] key needs that "
            f"section's name, [kernel] an [f] name, and f_scale no [f] "
            f"name (name = none counts as no name)")


def parse_config(path: str | None = None, text: str | None = None,
                 seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Read an experiment config and parse it against the named pipeline's
    SCHEMA: a section or key the pipeline does not read, or a bad value,
    is a config error.  CLI overrides win over file values."""
    if text is None:
        if path is None:
            raise ConfigError("need a config path or text")
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None
    sections = {s: dict(cp.items(s)) for s in cp.sections()}
    name = sections.get("experiment", {}).get("name")
    if name not in SCHEMA:
        raise ConfigError(f"[experiment] name must be one of "
                          f"{sorted(SCHEMA)}, got {name!r}")
    schema = {"experiment": {"name": name, "seed": None, "out": "results"},
              **SCHEMA[name]}
    unknown = sorted(set(sections) - set(schema))
    if unknown:
        raise ConfigError(f"{name} reads no section(s) {unknown}; "
                          f"it reads {sorted(schema)}")
    values = {}
    for sec, defaults in schema.items():
        given = sections.get(sec, {})
        if defaults is None:  # [kernel]: make_kernel checks its keys
            values[sec] = ({k: _parse(sec, k, v, str if k == "name" else _REAL)
                            for k, v in given.items()}
                           if sec in sections else None)
            continue
        unknown = sorted(set(given) - set(defaults))
        if unknown:
            raise ConfigError(f"{name} reads no key(s) {unknown} in [{sec}]; "
                              f"it reads {sorted(defaults)}")
        values[sec] = {k: _parse(sec, k, given[k],
                                 _SECTION_PARSERS.get((sec, k), _PARSERS[k]))
                       if k in given else d for k, d in defaults.items()}
    _check_interaction_keys(name, sections, values)
    exp = values.pop("experiment")
    seed = exp["seed"] if seed is None else seed
    if seed is None:
        raise ConfigError("[experiment] seed is mandatory")
    out = out or exp["out"]
    raw = (text + f"\n# seed={seed} out={out}\n").encode()
    return ExperimentConfig(experiment=name, seed=seed, out=out,
                            values=values, raw_bytes=raw)


# ---------------------------------------------------------------------------
# shared builders


def _grid_times(cfg: ExperimentConfig, eps: float | None = None):
    g = cfg.values["grid"]
    N, T, dt = g["n"], g["t"], g["dt"]
    if dt is None:
        dt = default_dt(eps if eps else 0.1, N)
        dt = T / max(1, int(np.ceil(T / dt)))
    try:
        return make_grid(N), make_times(T, dt)
    except ValueError as e:
        raise ConfigError(f"[grid] n = {N}, t = {T}, dt = {dt}: {e}") from None


def _noise_spec(cfg: ExperimentConfig, seed: int, multiplier=None):
    """The [noise] spec; ``multiplier`` is its density if no eta_multiplier."""
    v = cfg.values["noise"]
    if v["eta_multiplier"] is not None:
        multiplier = power_law_multiplier(v["eta_multiplier"])
    try:
        return NoiseSpec(seed=seed, temporal=v["kind"], lam=v["lambda"],
                         spatial_multiplier=multiplier)
    except ValueError as e:
        raise ConfigError(f"[noise] {e}") from None


def _interaction(cfg: ExperimentConfig, section: str):
    sec = cfg.values[section]
    params = {"scale": sec["scale"], "C0": sec["c0"], "c": sec["c"],
              "m": sec["m"]}
    if sec["name"] in (None, "none"):
        return None
    kernel = cfg.values["kernel"] if section == "f" else None
    if kernel is not None and "name" not in kernel:
        raise ConfigError("[kernel] name is mandatory")
    try:
        if kernel is not None:
            params["kernel"] = make_kernel(**kernel)
        return make_interaction(sec["name"], **params)
    except ValueError as e:
        raise ConfigError(f"[{section}] {e}") from None


def _initial_field(cfg: ExperimentConfig, grid) -> Field:
    kind, amp = cfg.values["params"]["u0"], cfg.values["params"]["u0_amp"]
    X, Y = grid.coords()
    if kind == "zero":
        return Field.zero(grid)
    if kind == "bump":
        v = np.cos(X) * np.cos(Y) + 0.5 * np.sin(X + Y)
        return Field.from_values(grid, amp * v / np.max(np.abs(v)))
    if kind == "constant":
        return Field(grid, np.full((grid.N, grid.N), amp))
    raise ConfigError(f"unknown u0 kind {kind!r}")


def _map_runs(fn, jobs, cost=None) -> list:
    """``[fn(job) for job in jobs]``, run on ``pool_size()`` threads.

    With one thread this is that loop.  With k > 1 the jobs are queued
    on k workers, the largest ``cost(job)`` first (job order among equal
    costs, and without a cost), and the results are read in job order,
    so they do not depend on k.  A failure is raised once every job of
    lower index has finished: the lowest-index one, which the loop would
    have raised.  Jobs still queued then, or after an interrupt, never
    start.
    """
    k = min(pool_size(), len(jobs))
    if k <= 1:
        return [fn(job) for job in jobs]
    # imported here: it loads logging, which would slow every import
    from concurrent.futures import ThreadPoolExecutor

    order = range(len(jobs))
    if cost is not None:
        order = sorted(order, key=lambda i: -cost(jobs[i]))
    pool = ThreadPoolExecutor(k)
    try:
        futures = {i: pool.submit(fn, jobs[i]) for i in order}
        return [futures[i].result() for i in range(len(jobs))]
    finally:
        pool.shutdown(cancel_futures=True)


def _fit_line(x, y):
    """Least-squares slope/intercept/R^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# experiments


def _exp_renorm_constant(cfg: ExperimentConfig):
    grid, times = _grid_times(cfg)
    spec = _noise_spec(cfg, cfg.seed)
    p = cfg.values["params"]
    eps_ladder, t_eval, mc_eps = p["eps_ladder"], p["t_eval"], p["mc_eps"]
    mc_samples, grid2 = p["mc_samples"], make_grid(p["n_compare"])
    if spec.temporal != TIME_INDEPENDENT and t_eval > times[-1]:
        raise ConfigError(f"[params] t_eval = {t_eval} lies past [grid] t: "
                          f"the {spec.temporal} constant is known on the "
                          f"time grid only")

    rows = []
    for eps in eps_ladder:
        c = float(renorm_constant(spec, eps, times, grid)(t_eval))
        rows.append({"eps": eps, "c_analytic": c})

    # Monte Carlo oracle at one ladder point, against the constant of
    # its own time grid tg: the exp-correlated one depends on the step
    tg = np.array([0.0, t_eval / 2, t_eval])
    noises = enhance(spec, mc_eps, grid, tg, stream_id=range(mc_samples))
    vals = np.empty(mc_samples)
    for s, en in enumerate(noises):
        [xi], [X] = final_slice([en])
        vals[s] = resonant(X, xi).mean()
    mc_mean = float(vals.mean())
    mc_se = float(vals.std(ddof=1) / np.sqrt(mc_samples))
    c_ref = float(noises[0].c_eps(t_eval))

    xs = [np.log(1.0 / r["eps"]) for r in rows]
    ys = [r["c_analytic"] for r in rows]
    kappa, b, r2 = _fit_line(xs, ys)

    ys2 = [float(renorm_constant(spec, e, times, grid2)(t_eval))
           for e in eps_ladder]
    kappa2, b2, r2_2 = _fit_line(xs, ys2)

    metrics = [
        {"name": "kappa", "value": kappa}, {"name": "intercept", "value": b},
        {"name": "r2", "value": r2},
        {"name": "kappa_n2", "value": kappa2}, {"name": "r2_n2", "value": r2_2},
        {"name": "mc_mean", "value": mc_mean, "stderr": mc_se},
        {"name": "c_analytic_at_mc_eps", "value": c_ref},
    ]
    for r, y2 in zip(rows, ys2):
        r["c_analytic_n2"] = y2
    assertions = [
        ("log_divergence_r2", r2 >= 0.99),
        ("kappa_grid_stable", abs(kappa2 - kappa) <= 0.15 * abs(kappa)),
        ("mc_within_3se", abs(mc_mean - c_ref) <= 3.0 * mc_se),
    ]
    return metrics, {"renorm_constant": rows}, assertions


def _exp_enhance_convergence(cfg: ExperimentConfig):
    grid, T = make_grid(cfg.values["grid"]["n"]), cfg.values["grid"]["t"]
    times = np.array([0.0, T / 2, T])
    spec = _noise_spec(cfg, cfg.seed)
    p = cfg.values["params"]
    eps_ladder, n_samples = p["eps_ladder"], p["n_samples"]
    gamma = 2.0 * p["alpha"] - 2.0 - 0.1

    diffs = np.zeros((n_samples, len(eps_ladder) - 1))
    naive_means = np.zeros((n_samples, len(eps_ladder)))
    ladder = [enhance(spec, eps, grid, times, stream_id=range(n_samples))
              for eps in eps_ladder]
    for s in range(n_samples):
        # sample s is one draw, read at every eps of the ladder
        ens = [noises[s] for noises in ladder]
        xi2s, naives = [], []
        for en, xi, X in zip(ens, *final_slice(ens)):
            xi2 = resonant(X, xi).shift(-en.c_eps(times)[-1])
            xi2s.append(xi2)
            cs = float(en.c_eps(times[-1]))
            naives.append(xi2.mean() + cs)  # naive = resonant mean
        naive_means[s] = naives
        for j in range(len(eps_ladder) - 1):
            diffs[s, j] = besov_norm(xi2s[j + 1] - xi2s[j], gamma, 2)
    mean_diffs = diffs.mean(axis=0)
    mean_naive = naive_means.mean(axis=0)
    rows = [{"eps": eps_ladder[j + 1], "cauchy_norm": float(mean_diffs[j])}
            for j in range(len(mean_diffs))]
    naive_rows = [{"eps": e, "naive_mean": float(m)}
                  for e, m in zip(eps_ladder, mean_naive)]
    metrics = [{"name": f"cauchy_{r['eps']}", "value": r["cauchy_norm"]}
               for r in rows]
    assertions = [
        ("cauchy_decreasing", bool(np.all(np.diff(mean_diffs) < 0))),
        ("naive_mean_increasing", bool(np.all(np.diff(mean_naive) > 0))),
    ]
    return metrics, {"cauchy": rows, "naive_mean": naive_rows}, assertions


def _exp_cross_variance(cfg: ExperimentConfig):
    grid = make_grid(cfg.values["grid"]["n"])
    p = cfg.values["params"]
    t_eval, eps_pair, n_pairs = p["t_eval"], p["eps_pair"], p["n_pairs"]
    tg = np.array([0.0, t_eval / 2, t_eval])
    spec = _noise_spec(cfg, cfg.seed)

    rows = []
    for eps in eps_pair:
        acc = np.zeros((grid.N, grid.N))
        acc2 = np.zeros((grid.N, grid.N))
        noises = enhance(spec, eps, grid, tg, stream_id=range(2 * n_pairs))
        for s in range(n_pairs):
            pair = noises[2 * s:2 * s + 2]
            xis, Xs = final_slice(pair)
            cv = cross_resonant(*pair, xis[0], Xs[1]).values
            acc += cv
            acc2 += cv * cv
        var = (acc2 / n_pairs - (acc / n_pairs) ** 2).mean()
        c_diag = float(noises[0].c_eps(t_eval))
        rows.append({"eps": eps, "cross_variance": float(var),
                     "diagonal_naive_mean": c_diag})
    v0, v1 = rows[0]["cross_variance"], rows[-1]["cross_variance"]
    m0, m1 = rows[0]["diagonal_naive_mean"], rows[-1]["diagonal_naive_mean"]
    metrics = [
        {"name": "variance_ratio", "value": v1 / v0},
        {"name": "diagonal_mean_ratio", "value": m1 / m0},
    ]
    assertions = [
        ("cross_variance_bounded", max(v1 / v0, v0 / v1) <= 2.0),
        ("diagonal_mean_grows", m1 / m0 >= 3.0),
    ]
    return metrics, {"cross_variance": rows}, assertions


def _exp_solve(cfg: ExperimentConfig):
    eps = cfg.values["noise"]["eps"]
    grid, times = _grid_times(cfg, eps=eps)
    spec = _noise_spec(cfg, cfg.seed)
    f_spec = _interaction(cfg, "f")
    g_spec = _interaction(cfg, "g")
    u0 = _initial_field(cfg, grid)
    p = cfg.values["params"]
    scheme, every = p["scheme"], p["snapshot_every"]
    if scheme not in ("direct_renormalized", "paracontrolled"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if scheme == "paracontrolled" and cfg.values["kernel"] is not None:
        raise ConfigError("[kernel] needs scheme = direct_renormalized")
    if scheme == "paracontrolled" and f_spec is None:
        raise ConfigError("scheme = paracontrolled needs an [f]")
    scfg = SolveConfig()
    en = enhance(spec, eps, grid, times)
    # the heat flow of u0, built slice by slice as the solve reads it
    frozen = ([semigroup(u0, float(t))] for t in times)
    if scheme == "direct_renormalized":
        us = (row[0] for row in solve_renormalized([en], frozen, f_spec,
                                                   g_spec, [u0], scfg))
    else:
        us = solve_paracontrolled(en, frozen, f_spec, g_spec, u0, scfg)
    keep = range(0, times.size, every)
    if len(keep) < 2:
        keep = [0, times.size - 1]
    rows, snapshots = [], []
    for i, u in enumerate(us):
        rows.append({"t": float(times[i]), "linf": u.linf(), "l2": u.l2()})
        if i in keep:  # values only: the written snapshot has no spectrum
            snapshots.append(Field(grid, u.values))
    metrics = [{"name": "final_linf", "value": rows[-1]["linf"]},
               {"name": "sup_linf", "value": max(r["linf"] for r in rows)}]
    return metrics, {"solution": PathField(times[list(keep)], snapshots),
                     "solution_norms": rows}, []


def _exp_maxprinciple(cfg: ExperimentConfig):
    eps = cfg.values["noise"]["eps"]
    grid, times = _grid_times(cfg, eps=eps)
    p = cfg.values["params"]
    C0, n_seeds = p["c0"], p["n_seeds"]
    f_spec = _interaction(cfg, "f") or make_interaction(
        "cos_bump", C0=C0, scale=p["f_scale"])
    g_spec = _interaction(cfg, "g")
    base = _initial_field(cfg, grid)
    if base.linf() == 0:
        raise ConfigError("[params] u0 is zero everywhere, so it cannot be "
                          "scaled to sup norm 0.9 c0")
    u0 = base * (0.9 * C0 / base.linf())
    scfg = SolveConfig()
    noises = [enhance(_noise_spec(cfg, cfg.seed + s), eps, grid, times)
              for s in range(n_seeds)]
    # every seed's field in one stacked solve against the one heat flow
    # of u0, built slice by slice; sup norms are taken slice by slice
    frozen = ([semigroup(u0, float(t))] for t in times)
    sup = np.zeros(n_seeds)
    for row in solve_renormalized(noises, frozen, f_spec, g_spec,
                                  [u0] * n_seeds, scfg):
        sup = np.maximum(sup, [u.linf() for u in row])
    rows = [{"seed": cfg.seed + s, "sup_linf": float(sup[s]),
             "bound": C0 * 1.01} for s in range(n_seeds)]
    worst = max(r["sup_linf"] for r in rows)
    metrics = [{"name": "worst_sup_linf", "value": worst},
               {"name": "c0", "value": C0}]
    assertions = [("maximum_principle", worst <= 1.01 * C0)]
    return metrics, {"maxprinciple": rows}, assertions


def _exp_renorm_dichotomy(cfg: ExperimentConfig):
    grid, T = make_grid(cfg.values["grid"]["n"]), cfg.values["grid"]["t"]
    p = cfg.values["params"]
    eps_ladder, n_seeds = p["eps_ladder"], p["n_seeds"]
    low = low_damped_multiplier(p["low_k0"], p["low_floor"])
    f_spec = _interaction(cfg, "f")
    g_spec = _interaction(cfg, "g")
    base = _initial_field(cfg, grid)
    u0 = Field(grid, 0.5 + 0.6 * base.values)
    all_eps = sorted(set(eps_ladder) | {e / 2 for e in eps_ladder}, reverse=True)
    # the noise is constant in time, so four heat scales per step suffice
    dt = 4.0 * default_dt(min(all_eps), grid.N)
    dt = T / int(np.ceil(T / dt))
    times = make_times(T, dt)
    keys = [(eps, renorm) for eps in all_eps for renorm in (True, False)]
    # D[0] averages the renormalized gaps, D[1] the naive ones: gap (r, j)
    # is between the fields a[r][j] (eps_ladder[j]) and b[r][j] (its half)
    a = [[keys.index((e, r)) for e in eps_ladder] for r in (True, False)]
    b = [[keys.index((e / 2, r)) for e in eps_ladder] for r in (True, False)]
    scfg = SolveConfig()

    def seed_gaps(s):
        spec = _noise_spec(cfg, cfg.seed + s, low)
        noises = []
        for eps in all_eps:
            # one draw for every eps; the naive run is the same solve
            # with a zero counterterm
            en = enhance(spec, eps, grid, times)
            noises += [en, replace(en, c_eps=np.zeros_like)]
        # every (eps, renorm) field of the seed in one stacked solve; its
        # sup-in-time gaps are taken slice by slice
        gap = np.zeros((2, len(eps_ladder)))
        for row in solve_renormalized(noises, repeat([u0]), f_spec, g_spec,
                                      [u0] * len(keys), scfg):
            U = np.stack([u.values for u in row])
            gap = np.maximum(gap, np.max(np.abs(U[a] - U[b]), axis=(-2, -1)))
        return gap

    D = np.zeros((2, len(eps_ladder)))
    for gap in _map_runs(seed_gaps, range(n_seeds)):  # summed in seed order
        D += gap / n_seeds
    rows = [{"eps": e, "d_renormalized": float(D[0][j]),
             "d_naive": float(D[1][j])}
            for j, e in enumerate(eps_ladder)]
    metrics = [{"name": "d_renorm_finest", "value": float(D[0][-1])},
               {"name": "d_naive_finest", "value": float(D[1][-1])}]
    assertions = [
        ("renormalized_cauchy_decreasing", bool(np.all(np.diff(D[0]) < 0))),
        ("naive_3x_worse", D[1][-1] >= 3.0 * D[0][-1]),
    ]
    return metrics, {"dichotomy": rows}, assertions


def _final(slices):
    """The last slice of a solve, read in one pass over its stream."""
    return deque(slices, maxlen=1)[0]


def _exp_chaos_additive(cfg: ExperimentConfig):
    grid, times = _grid_times(cfg)
    e = cfg.values["ensemble"]
    n_list, K, M_ref = e["n_list"], e["k"], e["m_ref"]
    g_spec = _interaction(cfg, "g")
    spec = _noise_spec(cfg, cfg.seed)
    scfg = SolveConfig()

    def white(stream):
        return _rng(cfg.seed + 7, stream).standard_normal((grid.N, grid.N))

    def solve(sids):
        # each stream's raw noise (eps = 0, no counterterm read) and
        # smooth random initial data (a white draw run through the heat
        # flow for time 0.5, scaled to sup norm 0.5), each transformed
        # as one stack
        noises = [EnhancedNoise(spec, s, 0.0, grid, times, np.zeros_like)
                  for s in sids]
        S = semigroup(spectra([Field(grid, white(s)) for s in sids]), 0.5)
        u0s = [f * (0.5 / max(f.linf(), 1e-12))
               for f in from_spectra(grid, S)[1]]
        del S
        # values only: a finished run keeps no stacked spectra
        return [Field(grid, u.values) for u in _final(solve_particle_system(
            noises, None, g_spec, u0s, scfg))]

    # the reference, one big additive run (Tanaka reading of the mean
    # field), then K runs per n.  Common random numbers: particle i of run
    # k sees the same noise and initial data at every system size n, so
    # the n-trend is not masked by resampling noise
    jobs = [range(500_000, 500_000 + M_ref)] + [
        range(1000 * (k + 1), 1000 * (k + 1) + n)
        for n in n_list for k in range(K)]
    ref, *finals = _map_runs(solve, jobs, cost=len)
    runs = {n: finals[j * K:(j + 1) * K] for j, n in enumerate(n_list)}
    table = chaos_metric(runs, ref, p=2, seed=cfg.seed)
    dists = [r["measure_distance"] for r in table]
    metrics = [{"name": f"w2_n{r['n']}", "value": r["measure_distance"],
                "stderr": r["stderr"]} for r in table]
    assertions = [("chaos_decreasing", bool(np.all(np.diff(dists) < 0)))]
    return metrics, {"chaos_additive": table}, assertions


def _exp_chaos_singular(cfg: ExperimentConfig):
    eps = cfg.values["noise"]["eps"]
    grid, times = _grid_times(cfg, eps=eps)
    e = cfg.values["ensemble"]
    n_list, K, M = e["n_list"], e["k"], e["m"]
    f_spec = _interaction(cfg, "f")
    g_spec = _interaction(cfg, "g")
    spec = _noise_spec(cfg, cfg.seed)
    u0 = _initial_field(cfg, grid)
    scfg = SolveConfig()

    ref_noises = mean_field_enhance(M, spec, eps, grid, times,
                                    master_seed=cfg.seed + 1)
    ref = solve_mean_field(ref_noises, f_spec, g_spec, u0, scfg)[0][-1]

    # common random numbers across n: run k reuses one master seed, so
    # particle i carries the same noise at every system size
    runs = {}
    for n in n_list:
        runs_n = []
        for k in range(K):
            noises = mean_field_enhance(n, spec, eps, grid, times,
                                        master_seed=cfg.seed + 100 + k)
            runs_n.append(_final(solve_particle_system(
                noises, f_spec, g_spec, [u0] * n, scfg)))
        runs[n] = runs_n
    table = chaos_metric(runs, ref, p=2, seed=cfg.seed)
    dists = [r["measure_distance"] for r in table]
    metrics = [{"name": f"w2_n{r['n']}", "value": r["measure_distance"],
                "stderr": r["stderr"]} for r in table]
    assertions = [("chaos_decreasing", bool(np.all(np.diff(dists) < 0)))]
    return metrics, {"chaos_singular": table}, assertions


def _exp_picard_trace(cfg: ExperimentConfig):
    eps = cfg.values["noise"]["eps"]
    grid, times = _grid_times(cfg, eps=eps)
    M = cfg.values["ensemble"]["m"]
    f_spec = _interaction(cfg, "f")
    g_spec = _interaction(cfg, "g")
    spec = _noise_spec(cfg, cfg.seed)
    u0 = _initial_field(cfg, grid)
    p = cfg.values["params"]
    scfg = SolveConfig(picard_tol=p["picard_tol"],
                       picard_max_iters=p["picard_max_iters"])
    noises = mean_field_enhance(M, spec, eps, grid, times)
    _, iters, residuals = solve_mean_field(noises, f_spec, g_spec, u0, scfg)
    rows = [{"iteration": i, "residual": float(r)}
            for i, r in enumerate(residuals)]
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    metrics = [{"name": "iterations", "value": iters},
               {"name": "max_ratio", "value": max(ratios) if ratios else 0.0}]
    assertions = [("picard_contracts",
                   bool(all(r < 0.8 for r in ratios)) and ratios != [])]
    return metrics, {"picard_trace": rows}, assertions


EXPERIMENTS = {
    "renorm_constant": _exp_renorm_constant,
    "enhance_convergence": _exp_enhance_convergence,
    "cross_variance": _exp_cross_variance,
    "solve": _exp_solve,
    "maxprinciple": _exp_maxprinciple,
    "renorm_dichotomy": _exp_renorm_dichotomy,
    "chaos_additive": _exp_chaos_additive,
    "chaos_singular": _exp_chaos_singular,
    "picard_trace": _exp_picard_trace,
}


def _write_csv(path: str, rows: list):
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[c]) for c in cols) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep freed memory for reuse within the run.

    Every step allocates and frees many arrays.  When more than glibc's
    trim threshold lies free at the top of the heap, free() hands it
    back to the system and the next step faults the same pages in
    again.  The threshold is 128 KiB and grows only to twice the largest
    mmapped block freed so far, so a run at N=32-64 took over 1e5 minor
    page faults, a fifth to a third of its time.  Pin the thresholds at
    the ceiling of glibc's own dynamic rule: mmap from 32 MiB, trim
    above 64 MiB.  Where there is no mallopt this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the named pipeline and write its outputs: a CSV per series of
    rows, a PFLD file per PathField series and the JSON summary.

    Returns the result record; record["ok"] is False when an in-run
    assertion failed or a solver failed.  A solver failure still writes
    the summary, with no metrics and a ``failure`` record: the error's
    type, message and own fields (time, linf, defect or residuals).  A
    config error raised by the pipeline leaves no output directory.
    """
    _keep_freed_heap()
    threads = pool_size()
    fn = EXPERIMENTS[cfg.experiment]
    t0 = time.perf_counter()
    failure = None
    try:
        metrics, series, assertions = fn(cfg)
    except (ExplosionError, PicardError, FixedPointError) as e:
        metrics, series, assertions = [], {}, []
        failure = {"type": type(e).__name__, "message": str(e), **vars(e)}
    wall = time.perf_counter() - t0
    os.makedirs(cfg.out, exist_ok=True)
    files = []
    for name, data in series.items():
        if isinstance(data, PathField):
            files.append(os.path.join(cfg.out, f"{name}.pfld"))
            write_pfld(files[-1], data)
        elif data:
            files.append(os.path.join(cfg.out, f"{name}.csv"))
            _write_csv(files[-1], data)
    record = {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "metrics": metrics,
        "assertions": [{"name": n, "passed": bool(ok)} for n, ok in assertions],
        "ok": failure is None and all(ok for _, ok in assertions),
        "wall_time": wall,
        "threads": threads,
        "artifacts": files,
    }
    if failure is not None:
        record["failure"] = failure
    with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return record
