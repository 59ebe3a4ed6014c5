"""Config-driven experiment pipelines.

Configs are flat ``key = value`` files with ``[section]`` headers (read
with configparser).  Every experiment is a pure function of
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
import os
import time
from dataclasses import dataclass

import numpy as np

from .bony import resonant
from .heat import duhamel, semigroup
from .interactions import make_interaction, make_kernel
from .littlewood_paley import RegularityParams, besov_norm
from .measures import chaos_metric
from .noise import (EnhancedNoise, NoiseSpec, enhance, low_damped_multiplier,
                    mean_field_enhance, mollify, power_law_multiplier,
                    renorm_constant, sample_noise)
from .paracontrolled import reconstruct
from .solver import (ExplosionError, FixedPointError, PicardError,
                     SolveConfig, default_dt, solve_additive_mckean,
                     solve_mean_field, solve_paracontrolled,
                     solve_particle_system, solve_renormalized)
from .torus import Field, PathField, from_spectra, make_grid, make_times, \
    spectra, write_pfld

__all__ = ["ExperimentConfig", "run_experiment", "parse_config",
           "EXPERIMENTS", "ConfigError"]


class ConfigError(ValueError):
    pass


_INTERACTION_KEYS = frozenset({"name", "scale", "c0", "c", "m"})
# the keys each section accepts, the union over the pipelines; [kernel]
# holds the kernel's parameters, which make_kernel checks (None here)
KEYS = {
    "experiment": frozenset({"name", "seed", "out"}),
    "grid": frozenset({"n", "t", "dt"}),
    "noise": frozenset({"kind", "lambda", "eta_multiplier", "eps"}),
    "f": _INTERACTION_KEYS,
    "g": _INTERACTION_KEYS,
    "kernel": None,
    "params": frozenset({
        "alpha", "beta", "c0", "eps_ladder", "eps_pair", "f_scale",
        "low_floor", "low_k0", "mc_eps", "mc_samples", "n_compare",
        "n_pairs", "n_samples", "n_seeds", "picard_max_iters", "picard_tol",
        "scheme", "snapshot_every", "t_eval", "u0", "u0_amp"}),
    "ensemble": frozenset({"n_list", "k", "m_ref", "m"}),
}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    out: str
    sections: dict
    raw_bytes: bytes

    def get(self, section: str, key: str, default=None, cast=str):
        sec = self.sections.get(section, {})
        if key not in sec:
            return default
        v = sec[key]
        try:
            return cast(v)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"[{section}] {key} = {v!r}: {e}") from None

    def get_positive(self, section: str, key: str, default: float,
                     or_zero=False) -> float:
        x = self.get(section, key, default, float)
        if not (x >= 0 if or_zero else x > 0):
            raise ConfigError(f"[{section}] {key} = {x} must be "
                              f"{'nonnegative' if or_zero else 'positive'}")
        return x

    def get_floats(self, section: str, key: str, default=(), cast=float,
                   least=0):
        """A list of positive values (mollification levels or system
        sizes); a trend read along it needs ``least`` = 2."""
        sec = self.sections.get(section, {})
        if key not in sec:
            return list(default)
        v = sec[key]
        try:
            out = [cast(x) for x in str(v).replace(",", " ").split()]
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {v!r}: {e}") from None
        if len(out) < least:
            raise ConfigError(f"[{section}] {key} needs at least {least} "
                              f"entries, got {len(out)}")
        if not all(x > 0 for x in out):
            raise ConfigError(f"[{section}] {key} = {v!r}: entries must be "
                              f"positive")
        return out

    def get_ints(self, section: str, key: str, default=(), least=0):
        return self.get_floats(section, key, default, cast=int, least=least)

    def get_count(self, section: str, key: str, default: int, least=1):
        n = self.get(section, key, default, int)
        if n < least:
            raise ConfigError(f"[{section}] {key} = {n} must be at least "
                              f"{least}")
        return n

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()[:16]


def parse_config(path: str | None = None, text: str | None = None,
                 seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Read an experiment config; CLI overrides win over file values."""
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
    unknown = sorted(set(sections) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown config section(s) {unknown}; "
                          f"known: {sorted(KEYS)}")
    for sec, keys in sections.items():
        unknown = sorted(set(keys) - KEYS[sec]) if KEYS[sec] else []
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in [{sec}]; "
                              f"known: {sorted(KEYS[sec])}")
    exp = sections.get("experiment", {})
    name = exp.get("name")
    if name not in EXPERIMENTS:
        raise ConfigError(f"[experiment] name must be one of "
                          f"{sorted(EXPERIMENTS)}, got {name!r}")
    if seed is None:
        if "seed" not in exp:
            raise ConfigError("[experiment] seed is mandatory")
        try:
            seed = int(exp["seed"])
        except ValueError as e:
            raise ConfigError(f"[experiment] seed = {exp['seed']!r}: "
                              f"{e}") from None
    out = out or exp.get("out", "results")
    raw = (text + f"\n# seed={seed} out={out}\n").encode()
    return ExperimentConfig(experiment=name, seed=seed, out=out,
                            sections=sections, raw_bytes=raw)


# ---------------------------------------------------------------------------
# shared builders


def _grid_times(cfg: ExperimentConfig, default_N=64, default_T=0.5,
                eps: float | None = None):
    N = cfg.get("grid", "n", default_N, int)
    T = cfg.get("grid", "t", default_T, float)
    dt = cfg.get("grid", "dt", None, float)
    if dt is None:
        dt = default_dt(eps if eps else 0.1, N)
        dt = T / max(1, int(np.ceil(T / dt)))
    try:
        return make_grid(N), make_times(T, dt)
    except ValueError as e:
        raise ConfigError(f"[grid] n = {N}, t = {T}, dt = {dt}: {e}") from None


def _noise_spec(cfg: ExperimentConfig, seed: int) -> NoiseSpec:
    kind = cfg.get("noise", "kind", "white")
    lam = cfg.get("noise", "lambda", 1.0, float)
    eta = cfg.get("noise", "eta_multiplier", None, float)
    mult = power_law_multiplier(eta) if eta is not None else None
    try:
        return NoiseSpec(seed=seed, temporal=kind, lam=lam,
                         spatial_multiplier=mult)
    except ValueError as e:
        raise ConfigError(f"[noise] {e}") from None


def _interaction(cfg: ExperimentConfig, section: str, default_name=None):
    sec = cfg.sections.get(section, {})
    name = sec.get("name", default_name)
    if name is None or name == "none":
        return None
    kernel = (dict(cfg.sections["kernel"])
              if section == "f" and "kernel" in cfg.sections else None)
    if kernel is not None and "name" not in kernel:
        raise ConfigError("[kernel] name is mandatory")
    try:
        params = {}
        for k in ("scale", "c0", "c"):
            if k in sec:
                params["C0" if k == "c0" else k] = float(sec[k])
        if "m" in sec:
            params["m"] = int(sec["m"])
        if kernel is not None:
            kname = kernel.pop("name")
            params["kernel"] = make_kernel(
                kname, **{k: float(v) for k, v in kernel.items()})
        return make_interaction(name, **params)
    except ValueError as e:
        raise ConfigError(f"[{section}] {e}") from None


def _initial_field(cfg: ExperimentConfig, grid) -> Field:
    kind = cfg.get("params", "u0", "bump")
    amp = cfg.get("params", "u0_amp", 0.5, float)
    X, Y = grid.coords()
    if kind == "zero":
        return Field.zero(grid)
    if kind == "bump":
        v = np.cos(X) * np.cos(Y) + 0.5 * np.sin(X + Y)
        return Field.from_values(grid, amp * v / np.max(np.abs(v)))
    if kind == "constant":
        return Field(grid, np.full((grid.N, grid.N), amp))
    raise ConfigError(f"unknown u0 kind {kind!r}")


def _reg(cfg: ExperimentConfig) -> RegularityParams:
    try:
        return RegularityParams(
            alpha=cfg.get("params", "alpha", 0.75, float),
            beta=cfg.get("params", "beta", 0.7, float))
    except ValueError as e:
        raise ConfigError(f"[params] {e}") from None


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
    grid, times = _grid_times(cfg, default_T=1.0)
    spec = _noise_spec(cfg, cfg.seed)
    eps_ladder = cfg.get_floats("params", "eps_ladder",
                                [2.0 ** -k for k in range(2, 8)], least=2)
    t_eval = cfg.get_positive("params", "t_eval", 1.0)
    mc_samples = cfg.get_count("params", "mc_samples", 512, least=2)
    mc_eps = cfg.get_positive("params", "mc_eps", 0.05, or_zero=True)
    n2 = cfg.get("params", "n_compare", 128, int)
    try:
        grid2 = make_grid(n2)
    except ValueError as e:
        raise ConfigError(f"[params] n_compare = {n2}: {e}") from None

    rows = []
    for eps in eps_ladder:
        c = float(renorm_constant(spec, eps, times, grid)(t_eval))
        rows.append({"eps": eps, "c_analytic": c})

    # Monte Carlo oracle at one ladder point
    tg = np.array([0.0, t_eval / 2, t_eval])
    vals = np.empty(mc_samples)
    for s in range(mc_samples):
        xi = mollify(sample_noise(spec, grid, tg, stream_id=s), mc_eps)
        X = duhamel(xi)
        vals[s] = resonant(X[-1], xi[-1]).mean()
    mc_mean = float(vals.mean())
    mc_se = float(vals.std(ddof=1) / np.sqrt(mc_samples))
    c_ref = float(renorm_constant(spec, mc_eps, times, grid)(t_eval))

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
    grid, _ = _grid_times(cfg, default_N=128, default_T=0.5)
    T = cfg.get("grid", "t", 0.5, float)
    times = np.array([0.0, T / 2, T])
    spec = _noise_spec(cfg, cfg.seed)
    reg = _reg(cfg)
    gamma = 2.0 * reg.alpha - 2.0 - 0.1
    eps_ladder = cfg.get_floats("params", "eps_ladder",
                                [0.02, 0.01, 0.005, 0.0025], least=2)
    n_samples = cfg.get_count("params", "n_samples", 32)

    diffs = np.zeros((n_samples, len(eps_ladder) - 1))
    naive_means = np.zeros((n_samples, len(eps_ladder)))
    for s in range(n_samples):
        raw = sample_noise(spec, grid, times, stream_id=s)
        xi2s, naives = [], []
        for eps in eps_ladder:
            en = enhance(raw, eps)
            xi2s.append(en.xi2[-1])
            cs = float(en.c_eps(times[-1]))
            naives.append(en.xi2[-1].mean() + cs)  # naive = resonant mean
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
    grid, _ = _grid_times(cfg, default_T=0.5)
    t_eval = cfg.get_positive("params", "t_eval", 0.5)
    tg = np.array([0.0, t_eval / 2, t_eval])
    spec = _noise_spec(cfg, cfg.seed)
    eps_pair = cfg.get_floats("params", "eps_pair", [0.2, 0.0125], least=2)
    n_pairs = cfg.get_count("params", "n_pairs", 512)

    rows = []
    for eps in eps_pair:
        acc = np.zeros((grid.N, grid.N))
        acc2 = np.zeros((grid.N, grid.N))
        diag = 0.0
        for s in range(n_pairs):
            xi = mollify(sample_noise(spec, grid, tg, stream_id=2 * s), eps)
            xib = mollify(sample_noise(spec, grid, tg, stream_id=2 * s + 1), eps)
            Xb = duhamel(xib)
            cv = resonant(Xb[-1], xi[-1]).values
            acc += cv
            acc2 += cv * cv
        var = (acc2 / n_pairs - (acc / n_pairs) ** 2).mean()
        c_diag = float(renorm_constant(spec, eps, tg, grid)(t_eval))
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
    eps = cfg.get_positive("noise", "eps", 0.1, or_zero=True)
    grid, times = _grid_times(cfg, eps=eps)
    spec = _noise_spec(cfg, cfg.seed)
    f_spec = _interaction(cfg, "f", "tanh_bilinear")
    g_spec = _interaction(cfg, "g")
    u0 = _initial_field(cfg, grid)
    scheme = cfg.get("params", "scheme", "direct_renormalized")
    if scheme not in ("direct_renormalized", "paracontrolled"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if scheme == "paracontrolled" and "kernel" in cfg.sections:
        raise ConfigError("[kernel] needs scheme = direct_renormalized")
    if scheme == "paracontrolled" and f_spec is None:
        raise ConfigError("scheme = paracontrolled needs an [f]")
    every = cfg.get_count("params", "snapshot_every", 8)
    scfg = SolveConfig()
    raw = sample_noise(spec, grid, times, stream_id=0)
    en = enhance(raw, eps)
    frozen = [PathField(times, [semigroup(u0, float(t)) for t in times])]
    if scheme == "direct_renormalized":
        u = solve_renormalized(en, frozen, f_spec, g_spec, u0, scfg)
    else:
        u = reconstruct(solve_paracontrolled(en, frozen, f_spec, g_spec, u0,
                                             scfg))
    keep = list(range(0, len(u), every))
    if len(keep) < 2:
        keep = [0, len(u) - 1]
    snapshots = PathField(np.asarray([u.times[i] for i in keep]),
                          [u[i] for i in keep])
    rows = [{"t": float(u.times[i]), "linf": u[i].linf(), "l2": u[i].l2()}
            for i in range(len(u))]
    metrics = [{"name": "final_linf", "value": u[-1].linf()},
               {"name": "sup_linf", "value": u.sup_linf()}]
    return metrics, {"solution": snapshots, "solution_norms": rows}, []


def _exp_maxprinciple(cfg: ExperimentConfig):
    eps = cfg.get_positive("noise", "eps", 0.05, or_zero=True)
    grid, times = _grid_times(cfg, default_T=0.5, eps=eps)
    C0 = cfg.get_positive("params", "c0", 1.0)
    n_seeds = cfg.get_count("params", "n_seeds", 16)
    f_spec = _interaction(cfg, "f") or make_interaction(
        "cos_bump", C0=C0, scale=cfg.get("params", "f_scale", 1.0, float))
    g_spec = _interaction(cfg, "g")
    base = _initial_field(cfg, grid)
    if base.linf() == 0:
        raise ConfigError("[params] u0 is zero everywhere, so it cannot be "
                          "scaled to sup norm 0.9 c0")
    u0 = base * (0.9 * C0 / base.linf())
    scfg = SolveConfig()
    frozen = [PathField(times, [semigroup(u0, float(t)) for t in times])]
    rows = []
    for s in range(n_seeds):
        spec = _noise_spec(cfg, cfg.seed + s)
        raw = sample_noise(spec, grid, times, stream_id=0)
        en = enhance(raw, eps)
        u = solve_renormalized(en, frozen, f_spec, g_spec, u0, scfg)
        rows.append({"seed": cfg.seed + s, "sup_linf": u.sup_linf(),
                     "bound": C0 * 1.01})
    worst = max(r["sup_linf"] for r in rows)
    metrics = [{"name": "worst_sup_linf", "value": worst},
               {"name": "c0", "value": C0}]
    assertions = [("maximum_principle", worst <= 1.01 * C0)]
    return metrics, {"maxprinciple": rows}, assertions


def _exp_renorm_dichotomy(cfg: ExperimentConfig):
    grid, _ = _grid_times(cfg, default_T=10.0)
    T = cfg.get("grid", "t", 10.0, float)
    eps_ladder = cfg.get_floats("params", "eps_ladder", [0.1, 0.05, 0.025],
                                least=2)
    n_seeds = cfg.get_count("params", "n_seeds", 4)
    f_spec = _interaction(cfg, "f") or make_interaction("tanh_bilinear",
                                                        scale=0.4)
    g_spec = _interaction(cfg, "g")
    base = _initial_field(cfg, grid)
    u0 = Field(grid, 0.5 + 0.6 * base.values)
    all_eps = sorted(set(eps_ladder) | {e / 2 for e in eps_ladder}, reverse=True)
    # the noise is constant in time, so four heat scales per step suffice
    dt = 4.0 * default_dt(min(all_eps), grid.N)
    dt = T / int(np.ceil(T / dt))
    times = make_times(T, dt)
    frozen = [PathField.constant(times, u0)]
    D = {True: np.zeros(len(eps_ladder)), False: np.zeros(len(eps_ladder))}
    scfg = SolveConfig()
    k0 = cfg.get("params", "low_k0", 2.0, float)
    lfloor = cfg.get("params", "low_floor", 0.1, float)
    for s in range(n_seeds):
        spec = _noise_spec(cfg, cfg.seed + s)
        if spec.spatial_multiplier is None:
            spec = NoiseSpec(seed=spec.seed, temporal=spec.temporal,
                             lam=spec.lam,
                             spatial_multiplier=low_damped_multiplier(k0, lfloor))
        raw = sample_noise(spec, grid, times, stream_id=0)
        sols = {}
        for eps in all_eps:
            en = enhance(raw, eps)
            # the naive run is the same solve with a zero counterterm
            naive = EnhancedNoise(en.xi, c_eps=np.zeros_like)
            for renorm, noise in ((True, en), (False, naive)):
                sols[(eps, renorm)] = solve_renormalized(
                    noise, frozen, f_spec, g_spec, u0, scfg)
        for j, eps in enumerate(eps_ladder):
            for renorm in (True, False):
                d = (sols[(eps, renorm)] - sols[(eps / 2, renorm)]).sup_linf()
                D[renorm][j] += d / n_seeds
    rows = [{"eps": e, "d_renormalized": float(D[True][j]),
             "d_naive": float(D[False][j])}
            for j, e in enumerate(eps_ladder)]
    metrics = [{"name": "d_renorm_finest", "value": float(D[True][-1])},
               {"name": "d_naive_finest", "value": float(D[False][-1])}]
    assertions = [
        ("renormalized_cauchy_decreasing", bool(np.all(np.diff(D[True]) < 0))),
        ("naive_3x_worse", D[False][-1] >= 3.0 * D[True][-1]),
    ]
    return metrics, {"dichotomy": rows}, assertions


def _exp_chaos_additive(cfg: ExperimentConfig):
    grid, times = _grid_times(cfg, default_N=32, default_T=0.25)
    n_list = cfg.get_ints("ensemble", "n_list", [4, 16, 64], least=2)
    K = cfg.get_count("ensemble", "k", 32)
    M_ref = cfg.get_count("ensemble", "m_ref", 256)
    g_spec = _interaction(cfg, "g", "tanh_revert")
    spec = _noise_spec(cfg, cfg.seed)
    scfg = SolveConfig()

    def white(stream):
        key = np.array([cfg.seed + 7, stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (grid.N, grid.N))

    def solve(sids):
        # each stream's noise and smooth random initial data (a white
        # draw run through the heat flow for time 0.5, scaled to sup norm
        # 0.5), all drawn and transformed as one stack
        noises = sample_noise(spec, grid, times, stream_id=sids)
        S = semigroup(spectra([Field(grid, white(s)) for s in sids]), 0.5)
        u0s = [f * (0.5 / max(f.linf(), 1e-12))
               for f in from_spectra(grid, S)[1]]
        return [p[-1] for p in solve_additive_mckean(g_spec, noises, u0s, scfg)]

    # reference: one big additive run (Tanaka reading of the mean field)
    ref = solve(range(500_000, 500_000 + M_ref))

    # common random numbers: particle i of run k sees the same noise and
    # initial data at every system size n, so the n-trend is not masked
    # by resampling noise
    runs = {n: [solve(range(1000 * (k + 1), 1000 * (k + 1) + n))
                for k in range(K)] for n in n_list}
    table = chaos_metric(runs, ref, p=2, seed=cfg.seed)
    dists = [r["measure_distance"] for r in table]
    metrics = [{"name": f"w2_n{r['n']}", "value": r["measure_distance"],
                "stderr": r["stderr"]} for r in table]
    assertions = [("chaos_decreasing", bool(np.all(np.diff(dists) < 0)))]
    return metrics, {"chaos_additive": table}, assertions


def _exp_chaos_singular(cfg: ExperimentConfig):
    eps = cfg.get_positive("noise", "eps", 0.05, or_zero=True)
    grid, times = _grid_times(cfg, default_N=32, default_T=0.2, eps=eps)
    n_list = cfg.get_ints("ensemble", "n_list", [8, 32], least=2)
    K = cfg.get_count("ensemble", "k", 16)
    M = cfg.get_count("ensemble", "m", 32)
    f_spec = _interaction(cfg, "f", "tanh_bilinear")
    g_spec = _interaction(cfg, "g")
    spec = _noise_spec(cfg, cfg.seed)
    u0 = _initial_field(cfg, grid)
    scfg = SolveConfig()

    ref_noises = mean_field_enhance(M, spec, eps, grid, times,
                                    master_seed=cfg.seed + 1)
    ref_paths, _, _ = solve_mean_field(ref_noises, f_spec, g_spec, u0, scfg)
    ref = [p[-1] for p in ref_paths]

    # common random numbers across n: run k reuses one master seed, so
    # particle i carries the same noise at every system size
    runs = {}
    for n in n_list:
        runs_n = []
        for k in range(K):
            noises = mean_field_enhance(n, spec, eps, grid, times,
                                        master_seed=cfg.seed + 100 + k)
            sols = solve_particle_system(noises, f_spec, g_spec,
                                         [u0] * n, scfg)
            runs_n.append([p[-1] for p in sols])
        runs[n] = runs_n
    table = chaos_metric(runs, ref, p=2, seed=cfg.seed)
    dists = [r["measure_distance"] for r in table]
    metrics = [{"name": f"w2_n{r['n']}", "value": r["measure_distance"],
                "stderr": r["stderr"]} for r in table]
    assertions = [("chaos_decreasing", bool(np.all(np.diff(dists) < 0)))]
    return metrics, {"chaos_singular": table}, assertions


def _exp_picard_trace(cfg: ExperimentConfig):
    eps = cfg.get_positive("noise", "eps", 0.1, or_zero=True)
    grid, times = _grid_times(cfg, default_T=0.25, eps=eps)
    M = cfg.get_count("ensemble", "m", 16)
    f_spec = _interaction(cfg, "f", "tanh_bilinear")
    g_spec = _interaction(cfg, "g")
    spec = _noise_spec(cfg, cfg.seed)
    u0 = _initial_field(cfg, grid)
    scfg = SolveConfig(picard_tol=cfg.get("params", "picard_tol", 1e-4, float),
                       picard_max_iters=cfg.get_count(
                           "params", "picard_max_iters", 60))
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
        "threads": os.environ.get("PARAFIELD_THREADS", ""),
        "artifacts": files,
    }
    if failure is not None:
        record["failure"] = failure
    with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return record
