"""End-to-end acceptance suite.

Every test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or
in the captured output of a failing test) and then asserts the same
condition, so the suite doubles as a readable run report.

Known limitation, asserted faithfully: the cross-term variance bound in
``test_criterion_06`` cannot hold under the heat-kernel mollifier used
throughout this package.  Every Fourier contribution to the pointwise
variance of xi^eps (.) Xbar^eps carries the factor
e^{-2 eps (|k1|^2 + |k2|^2)} with |k1|, |k2| >= 1, so the variance grows
between eps = 0.2 and eps = 0.0125 by at least e^{2 * 0.1875 * 2} > 2
for any spatial spectral density.  The companion clause (the diagonal
naive mean grows by >= 3x) does hold.  The check is implemented as
stated and is expected to fail.
"""

import numpy as np
import pytest

from parafield import (EmpiricalMeasure, Field, NoiseSpec, PathField,
                       SolveConfig, besov_norm, default_dt, dyadic_blocks,
                       enhance, eval_f, final_slice, make_grid,
                       make_interaction, make_times, pointwise_product,
                       semigroup, solve_particle_system, solve_renormalized,
                       wasserstein)
from parafield.bony import para, resonant
from parafield.experiments import parse_config, run_experiment
from parafield.solver import solve_paracontrolled
from conftest import additive, random_field, sample


def _report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _run(tmp_path, text):
    cfg = parse_config(text=text, out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    return record, {a["name"]: a["passed"] for a in record["assertions"]}


def _metric(record, name):
    return [m for m in record["metrics"] if m["name"] == name][0]["value"]


def test_criterion_01_bony_identity():
    grid = make_grid(64)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        a = random_field(grid, rng, dealiased=True)
        b = random_field(grid, rng, dealiased=True)
        prod = pointwise_product(a, b)
        total = para(a, b) + para(b, a) + resonant(a, b)
        defect = (total - prod).linf() / max(1.0, prod.linf())
        worst = max(worst, defect)
    ok = worst <= 1e-10
    assert _report("criterion 01 bony identity",
                   ok, f"max relative defect {worst:.2e} (200 pairs, N=64)")


def test_criterion_02_lp_reconstruction_and_parseval():
    grid = make_grid(64)
    part = dyadic_blocks(grid)
    rng = np.random.default_rng(2)
    # each ky > 0 column of a half spectrum stands for the modes k and -k
    twice = np.where(grid.ky > 0, 2.0, 1.0)
    worst_rec, worst_par = 0.0, 0.0
    for _ in range(100):
        f = random_field(grid, rng)
        recon = part.block_fields(f.spectrum).sum(axis=0)
        worst_rec = max(worst_rec,
                        np.max(np.abs(recon - f.values)) / max(1.0, f.linf()))
        lhs = np.sum(f.values ** 2)
        rhs = np.sum(twice * np.abs(f.spectrum) ** 2) / grid.N ** 2
        worst_par = max(worst_par, abs(lhs - rhs) / rhs)
    ok = worst_rec <= 1e-10 and worst_par <= 1e-10
    assert _report("criterion 02 reconstruction + parseval", ok,
                   f"reconstruction {worst_rec:.2e}, parseval {worst_par:.2e}")


def test_criterion_03_heat_smoothing_exponent():
    grid = make_grid(64)
    spec = NoiseSpec(seed=303)
    ts = 2.0 ** np.arange(-10, -2)
    n_samples = 20
    details = []
    ok = True
    for delta in (0.5, 1.0):
        logs = np.zeros(ts.size)
        for s in range(n_samples):
            xi = sample(spec, grid, np.array([0.0]), stream_id=s)[0]
            denom = besov_norm(xi, -1.0, 2, np.inf)
            for i, t in enumerate(ts):
                num = besov_norm(semigroup(xi, float(t)), -1.0 + delta, 2,
                                 np.inf)
                logs[i] += np.log(num / denom) / n_samples
        slope = np.polyfit(np.log(ts), logs, 1)[0]
        ok = ok and abs(slope + delta / 2) <= 0.1 * (delta / 2)
        details.append(f"delta={delta}: slope {slope:.4f} (want {-delta / 2})")
    assert _report("criterion 03 heat smoothing exponent", ok,
                   "; ".join(details))


def test_criterion_04_renormalization_log_divergence(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = renorm_constant\nseed = 7\n")
    ok = all(passed.values())
    assert _report(
        "criterion 04 log divergence of c_eps", ok,
        f"R^2 {_metric(record, 'r2'):.4f}, slope {_metric(record, 'kappa'):.3f}"
        f" vs {_metric(record, 'kappa_n2'):.3f} at N=128, MC gap "
        f"{abs(_metric(record, 'mc_mean') - _metric(record, 'c_analytic_at_mc_eps')):.3f}")


def test_criterion_05_enhanced_noise_cauchy_trend(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = enhance_convergence\nseed = 9\n")
    ok = all(passed.values())
    cs = [m["value"] for m in record["metrics"]
          if m["name"].startswith("cauchy_")]
    assert _report("criterion 05 enhanced-noise cauchy trend", ok,
                   "cauchy norms " + ", ".join(f"{c:.3f}" for c in cs)
                   + " (decreasing), naive diagonal increasing")


def test_criterion_06_cross_term_variance(tmp_path):
    # the diagonal clause passes; the variance clause is impossible
    # under the heat-kernel mollifier (see module docstring) and the
    # faithful assertion below is expected to fail
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = cross_variance\nseed = 9\n")
    vr = _metric(record, "variance_ratio")
    dr = _metric(record, "diagonal_mean_ratio")
    ok = passed["cross_variance_bounded"] and passed["diagonal_mean_grows"]
    _report("criterion 06 cross-term variance", ok,
            f"variance ratio {vr:.2f} (bound 2.0, unattainable under the "
            f"heat-kernel mollifier), diagonal mean ratio {dr:.2f} (>= 3)")
    assert passed["diagonal_mean_grows"]
    assert passed["cross_variance_bounded"], (
        f"variance ratio {vr:.2f} > 2: every variance contribution scales "
        "by e^{2(0.2-0.0125)(|k1|^2+|k2|^2)} >= e^{0.75} > 2 between the "
        "two mollification levels, for any spatial spectral density")


def test_criterion_07_maximum_principle(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = maxprinciple\nseed = 9\n")
    ok = all(passed.values())
    assert _report("criterion 07 maximum principle", ok,
                   f"sup |u| = {_metric(record, 'worst_sup_linf'):.4f} "
                   f"<= 1.01 * C0 = {1.01 * _metric(record, 'c0'):.4f} "
                   "(16 seeds)")


def test_criterion_08_renormalization_dichotomy(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = renorm_dichotomy\nseed = 100\n")
    ok = all(passed.values())
    assert _report(
        "criterion 08 renormalization dichotomy", ok,
        f"renormalized D decreasing, naive/renormalized = "
        f"{_metric(record, 'd_naive_finest') / _metric(record, 'd_renorm_finest'):.2f}"
        " (>= 3) at the finest level")


def test_criterion_09_picard_contraction(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = picard_trace\nseed = 9\n")
    ok = all(passed.values())
    assert _report("criterion 09 picard-on-law contraction", ok,
                   f"max residual ratio {_metric(record, 'max_ratio'):.3f} "
                   f"< 0.8 over {int(_metric(record, 'iterations'))} iterations")


def test_criterion_10_additive_chaos(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = chaos_additive\nseed = 21\n")
    ok = all(passed.values())
    ds = [f"{m['value']:.4f}" for m in record["metrics"]]
    assert _report("criterion 10 additive propagation of chaos", ok,
                   "W2 over n in {4, 16, 64}: " + ", ".join(ds))


def test_criterion_11_singular_chaos(tmp_path):
    record, passed = _run(tmp_path, "[experiment]\n"
                          "name = chaos_singular\nseed = 31\n")
    ok = all(passed.values())
    ds = [f"{m['value']:.4f}" for m in record["metrics"]]
    assert _report("criterion 11 singular propagation of chaos", ok,
                   "W2 over n in {8, 32}: " + ", ".join(ds))


def test_criterion_12_tanaka_consistency():
    grid = make_grid(32)
    times = make_times(0.25, 1.0 / 64)
    spec = NoiseSpec(seed=12)
    g_spec = make_interaction("tanh_revert", scale=0.8)
    rng = np.random.default_rng(12)
    n = 4
    # raw noises (eps = 0) as descriptions: the additive equation reads
    # no counterterm, and each replay draws its stream again
    noises = enhance(spec, 0.0, grid, times, range(n))
    u0s = [random_field(grid, rng, smooth=0.3) for _ in range(n)]
    cfg = SolveConfig()
    stacked = list(solve_particle_system(noises, None, g_spec, u0s, cfg))
    ok = True
    for i in range(n):
        # the recorded slices of the stacked run are the frozen measure
        replay = [row[0] for row in solve_renormalized(
            noises[i:i + 1], stacked, None, g_spec, u0s[i:i + 1], cfg)]
        ok = ok and len(replay) == len(stacked) == len(times)
        for m in range(len(times)):
            ok = ok and np.array_equal(replay[m].values, stacked[m][i].values)
    assert _report("criterion 12 tanaka consistency", ok,
                   f"stacked vs per-particle replay bitwise over {n} particles")


def test_criterion_13_two_scheme_consistency():
    grid = make_grid(64)
    spec = NoiseSpec(seed=2024)
    f_spec = make_interaction("tanh_bilinear", scale=1.0)
    X, Y = grid.coords()
    v = np.cos(X) * np.cos(Y) + 0.5 * np.sin(X + Y)
    u0 = Field.from_values(grid, 0.5 * v / np.max(np.abs(v)))
    T = 0.25
    idx = 0.75 + 0.7 - 0.05
    rels, sharps, paras = {}, [], []
    for eps in (0.1, 0.05, 0.025):
        dt = default_dt(eps, grid.N)
        dt = T / int(np.ceil(T / dt))
        times = make_times(T, dt)
        en = enhance(spec, eps, grid, times)
        frozen = [[semigroup(u0, float(t))] for t in times]
        direct = [row[0] for row in solve_renormalized(
            [en], frozen, f_spec, None, [u0], SolveConfig())]
        u2 = list(solve_paracontrolled(en, frozen, f_spec, None, u0,
                                       SolveConfig()))
        gap = max((a - b).linf() for a, b in zip(direct, u2, strict=True))
        rels[eps] = gap / max(max(u.linf() for u in direct), 1e-12)
        # the final slice's u = (dz < X) + sharp, with dz = f(u, mu_T)
        dz = eval_f(f_spec, u2[-1], EmpiricalMeasure(frozen[-1]))
        paraproduct = para(dz, final_slice([en])[1][0])
        sharps.append(besov_norm(u2[-1] - paraproduct, idx, np.inf, np.inf))
        paras.append(besov_norm(paraproduct, idx, np.inf, np.inf))
    agree = all(rels[e] <= 0.05 for e in (0.1, 0.05))
    bounded = max(sharps) <= 1.25 * min(sharps)
    growing = all(np.diff(paras) > 0) and paras[-1] >= 1.5 * paras[0]
    ok = agree and bounded and growing
    assert _report(
        "criterion 13 two-scheme consistency", ok,
        f"relative gaps {rels[0.1]:.3f}, {rels[0.05]:.3f} (<= 0.05); "
        f"remainder norms {[round(s, 3) for s in sharps]} bounded while "
        f"paraproduct norms {[round(p, 3) for p in paras]} grow")


def test_criterion_14_lipschitz_in_law():
    grid = make_grid(32)
    times = make_times(0.25, 1.0 / 64)
    spec = NoiseSpec(seed=314)
    g_spec = make_interaction("tanh_revert", scale=1.0)
    M = 16

    def u0_for(s):
        key = np.array([99, s], dtype=np.uint64)
        w = np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (grid.N, grid.N))
        f = semigroup(Field.from_values(grid, w), 0.5)
        return f * (0.5 / max(f.linf(), 1e-12))

    base = sample(spec, grid, times, stream_id=range(M))
    fresh = sample(spec, grid, times, stream_id=range(10_000, 10_000 + M))
    u0s = [u0_for(i) for i in range(M)]
    cfg = SolveConfig()
    out0 = list(solve_particle_system(additive(base), None, g_spec, u0s,
                                      cfg))[-1]
    ratios = []
    for eta in (1e-1, 1e-2, 1e-3):
        pert = [PathField(b.times, [x + eta * y for x, y in
                                    zip(b.fields, f.fields)])
                for b, f in zip(base, fresh)]
        out1 = list(solve_particle_system(additive(pert), None, g_spec, u0s,
                                          cfg))[-1]
        d_in = wasserstein([b[-1] for b in base], [p[-1] for p in pert])
        d_out = wasserstein(out0, out1)
        ratios.append(d_out / d_in)
    ok = (max(ratios) <= 1.0 and np.all(np.isfinite(ratios))
          and max(ratios) <= 1.5 * min(ratios))
    assert _report(
        "criterion 14 lipschitz-in-law probe", ok,
        "output/input distance ratios "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + " across eta in {1e-1, 1e-2, 1e-3} (single constant)")
