"""Time integrators: closed-form reductions, coupling symmetry, guards."""

import math
import tracemalloc
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest

import parafield.bony
import parafield.experiments
import parafield.noise
import parafield.paracontrolled
import parafield.solver
from parafield import (EmpiricalMeasure, ExplosionError, Field,
                       FixedPointError, NoiseSpec, PicardError,
                       SolveConfig, StoredNoise, default_dt, enhance, etd_step, eval_f,
                       eval_g, eval_partial, make_grid, make_interaction,
                       make_times, mean_field_enhance, pointwise_product,
                       semigroup, solve_mean_field, solve_paracontrolled,
                       solve_particle_system, solve_renormalized)
from parafield.bony import corrector
from parafield.experiments import parse_config, run_experiment
from parafield.littlewood_paley import DyadicPartition
from conftest import additive, constant_path, random_field, read_paths, sample


def _times(T=0.25, dt=0.03125):
    return make_times(T, dt)


def _path(slices, i=0):
    """Field i of every slice a solve yields, as a list."""
    return [row[i] for row in slices]


def _sup_gap(us, vs):
    """sup over time of |u - v|_inf for two lists of slices."""
    return max(float(np.max(np.abs(u.values - v.values)))
               for u, v in zip(us, vs, strict=True))


def _heat_flows(u0s, times):
    """The frozen measure whose atoms are the heat flows of ``u0s``."""
    return [[semigroup(a, float(t)) for a in u0s] for t in times]


def test_default_dt():
    assert default_dt(0.1, 64) == pytest.approx(min(0.1 / 4, 1 / 64))
    assert default_dt(1.0, 16) == pytest.approx(1 / 16)


def test_solveconfig_guard():
    cfg = SolveConfig()
    assert cfg.guard(2.0) == pytest.approx(30.0)
    assert SolveConfig(max_linf=5.0).guard(2.0) == 5.0


def test_additive_without_drift_is_mild_heat_solution(grid32):
    # du = Lap u + zeta with zeta constant in time: the mild solution is
    # P_t u0 + (1 - e^{-t|k|^2})/|k|^2 zeta per mode, and the stepper
    # reproduces it exactly for time-constant forcing
    times = _times()
    X, Y = grid32.coords()
    zeta_f = Field.from_values(grid32, np.cos(3 * X) + 0.5 * np.sin(X + 2 * Y))
    zeta = constant_path(times, zeta_f)
    u0 = Field.from_values(grid32, 0.3 * np.cos(X + Y))
    sol = _path(solve_particle_system(additive([zeta]), None, None, [u0],
                                      SolveConfig()))
    q = grid32.k2
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, t in enumerate(times):
            resp = np.where(q > 0, -np.expm1(-t * q) / np.where(q > 0, q, 1), t)
            want = semigroup(u0, t).spectrum + resp * zeta_f.spectrum
            err = np.max(np.abs(sol[i].spectrum - want))
            assert err < 1e-10 * grid32.N ** 2


def test_tanaka_frozen_replay_is_bitwise(grid16):
    # re-solving one particle against the recorded measure path of the
    # stacked run reproduces its trajectory bit for bit
    times = _times()
    spec = NoiseSpec(seed=3)
    g_spec = make_interaction("tanh_revert", scale=0.7)
    n = 3
    noises = sample(spec, grid16, times, stream_id=range(n))
    rng = np.random.default_rng(0)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(n)]
    cfg = SolveConfig()
    stacked = list(solve_particle_system(additive(noises), None, g_spec, u0s,
                                         cfg))
    for i in range(n):
        # the running measure at step m is the stacked state at slice m
        replay = _path(solve_renormalized(additive(noises[i:i + 1]), stacked,
                                          None, g_spec, u0s[i:i + 1], cfg))
        assert len(replay) == len(stacked) == len(times)
        for m in range(len(times)):
            assert np.array_equal(replay[m].values, stacked[m][i].values)


def test_singular_tanaka_frozen_replay_is_bitwise(grid16):
    # the renormalized analogue: each particle of the stacked system,
    # re-solved against the recorded ensemble, reproduces its path
    times = _times(T=0.125)
    mf = mean_field_enhance(3, NoiseSpec(seed=11), 0.1, grid16, times)
    assert np.any(mf[0].c_eps(times) != 0.0)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    g_spec = make_interaction("tanh_revert", scale=0.7)
    rng = np.random.default_rng(2)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(3)]
    cfg = SolveConfig()
    stacked = list(solve_particle_system(mf, f_spec, g_spec, u0s, cfg))
    for i in range(3):
        replay = _path(solve_renormalized([mf[i]], stacked, f_spec, g_spec,
                                          [u0s[i]], cfg))
        assert len(replay) == len(stacked) == len(times)
        for m in range(len(times)):
            assert np.array_equal(replay[m].values, stacked[m][i].values)


def test_mixed_frozen_stack_is_bitwise_per_field(grid16):
    # one frozen-measure call on distinct noises, one of them with a zero
    # counterterm, returns each field's one-field solve bit for bit
    times = _times(T=0.125)
    mf = mean_field_enhance(3, NoiseSpec(seed=13), 0.1, grid16, times)
    assert np.any(mf[0].c_eps(times) != 0.0)
    noises = [mf[0], replace(mf[1], c_eps=np.zeros_like), mf[2]]
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    g_spec = make_interaction("tanh_revert", scale=0.7)
    rng = np.random.default_rng(4)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(3)]
    frozen = _heat_flows(u0s[:2], times)
    cfg = SolveConfig()
    stacked = list(solve_renormalized(noises, frozen, f_spec, g_spec, u0s,
                                      cfg))
    for i in range(3):
        alone = _path(solve_renormalized(noises[i:i + 1], frozen, f_spec,
                                         g_spec, u0s[i:i + 1], cfg))
        for m in range(len(times)):
            assert alone[m].values.tobytes() == stacked[m][i].values.tobytes()


DICHOTOMY_CFG = """\
[experiment]
name = renorm_dichotomy
seed = 1

[grid]
n = 16
t = {t}

[f]
name = bilinear
scale = {scale}

[params]
n_seeds = {n_seeds}
"""


def _recording_solves(monkeypatch):
    # the arguments of every solver call the dichotomy pipeline makes
    calls = []
    solve = parafield.experiments.solve_renormalized

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(parafield.experiments, "solve_renormalized",
                        recording)
    return calls


def test_dichotomy_makes_one_solver_call_per_seed(tmp_path, monkeypatch):
    calls = _recording_solves(monkeypatch)
    cfg = parse_config(text=DICHOTOMY_CFG.format(t=0.25, scale=0.4,
                                                 n_seeds=2),
                       out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    assert "failure" not in record
    # each call stacks the renormalized and naive field of every eps
    assert [len(args[0]) for args in calls] == [8, 8]


def _dichotomy_peak(tmp_path, t):
    # the tracemalloc peak of one dichotomy run, in bytes
    cfg = parse_config(text=DICHOTOMY_CFG.format(t=t, scale=0.4, n_seeds=1),
                       out=str(tmp_path / f"out_{t}"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        record = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "failure" not in record
    return peak


def test_dichotomy_peak_memory_does_not_grow_with_t(tmp_path):
    # the gaps are read from the solve's stream slice by slice and the
    # constant measure is one atom list, so doubling t (20 -> 40 steps at
    # N = 16) adds only per-step references, under 10% of the peak (about
    # 2.5% measured); holding the eight solution paths would add 35 kB
    # of values and half spectra per slice and nearly double it
    _dichotomy_peak(tmp_path, 0.25)  # fills the first-call caches
    short, long = (_dichotomy_peak(tmp_path, t) for t in (0.25, 0.5))
    assert long <= 1.1 * short


def _exp_correlated_solve_peak(T):
    # the tracemalloc peak of describing and solving one exp-correlated
    # direct solve at N = 32, in bytes
    grid = make_grid(32)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid, np.full((32, 32), 0.3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        en = enhance(NoiseSpec(seed=5, temporal="exp_correlated"), 0.1, grid,
                     make_times(T, 1.0 / 64))
        for _ in solve_renormalized([en], repeat([u0]), f_spec, None, [u0],
                                    SolveConfig()):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_exp_correlated_solve_peak_does_not_grow_with_t():
    # the noise is drawn slice by slice as the solve reads it, so
    # doubling t (16 -> 32 steps) adds no stored slice (163 kB both
    # measured); stored raw and mollified noise paths grew it from 0.73
    # to 1.42 MB
    _exp_correlated_solve_peak(0.25)  # fills the first-call caches
    short, long = (_exp_correlated_solve_peak(T) for T in (0.25, 0.5))
    assert long <= 1.1 * short


def test_dichotomy_reports_the_earliest_crossing(tmp_path, monkeypatch):
    # the stacked solve reports the earliest explosion over its fields,
    # not that of the first (eps, renorm) pair in loop order
    calls = _recording_solves(monkeypatch)
    cfg = parse_config(text=DICHOTOMY_CFG.format(t=10.0, scale=1.0,
                                                 n_seeds=1),
                       out=str(tmp_path / "out"))
    failure = run_experiment(cfg)["failure"]
    (noises, frozen, f_spec, g_spec, u0s, scfg), = calls
    crossings = []
    for i in range(len(noises)):
        with pytest.raises(ExplosionError) as exc:
            list(solve_renormalized(noises[i:i + 1], frozen, f_spec, g_spec,
                                    u0s[i:i + 1], scfg))
        crossings.append((exc.value.time, exc.value.linf))
    earliest = min(crossings, key=lambda c: c[0])
    assert crossings[0][0] > earliest[0]
    assert failure["type"] == "ExplosionError"
    assert (failure["time"], failure["linf"]) == earliest


MAXPRINCIPLE_CFG = """\
[experiment]
name = maxprinciple
seed = 0

[grid]
n = 16
t = 0.5

[noise]
lambda = 10

[params]
n_seeds = 4
f_scale = 16
"""


def test_maxprinciple_stacks_its_seeds_and_reports_the_earliest_crossing(
        tmp_path, monkeypatch):
    # one solve steps every seed against the one heat flow; it reports
    # the earliest explosion over the seeds, not that of the first seed
    calls = _recording_solves(monkeypatch)
    cfg = parse_config(text=MAXPRINCIPLE_CFG, out=str(tmp_path / "out"))
    failure = run_experiment(cfg)["failure"]
    (noises, _, f_spec, g_spec, u0s, scfg), = calls
    assert len(noises) == len(u0s) == 4
    heat = [[semigroup(u0s[0], float(t))] for t in noises[0].times]
    crossings = []
    for i in range(len(noises)):
        with pytest.raises(ExplosionError) as exc:
            list(solve_renormalized(noises[i:i + 1], heat, f_spec, g_spec,
                                    u0s[i:i + 1], scfg))
        crossings.append((exc.value.time, exc.value.linf))
    earliest = min(crossings, key=lambda c: c[0])
    assert crossings[0][0] > earliest[0]
    assert failure["type"] == "ExplosionError"
    assert (failure["time"], failure["linf"]) == earliest


def _step_by_hand(u0s, xis, c, f_spec, g_spec, dt):
    """One exponential-Euler step of each field through the Field API,
    one field at a time, against the running measure of ``u0s``."""
    mu = EmpiricalMeasure(list(u0s))
    out = []
    for u, xi in zip(u0s, xis):
        rhs = xi[0]
        if f_spec is not None:
            fval = eval_f(f_spec, u, mu)
            rhs = pointwise_product(fval, xi[0])
            rhs = rhs - c * pointwise_product(
                fval, eval_partial(f_spec, 1, u, mu), dealias=False)
        if g_spec is not None:
            rhs = rhs + eval_g(g_spec, u, mu)
        out.append(etd_step(u, rhs, dt))
    return out


@pytest.mark.parametrize("system", ["particle", "additive"])
def test_one_stacked_step_matches_field_by_field(grid16, system):
    dt = 1.0 / 32
    times = make_times(dt, dt)
    n = 4
    rng = np.random.default_rng(3)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(n)]
    g_spec = make_interaction("tanh_revert", scale=0.7)
    cfg = SolveConfig()
    if system == "particle":
        # c_eps(0) = 0, so the one step gets a constant counterterm
        c = 0.8
        mf = [replace(en, c_eps=lambda t: np.full_like(t, c))
              for en in mean_field_enhance(n, NoiseSpec(seed=4), 0.05,
                                           grid16, times)]
        f_spec = make_interaction("tanh_bilinear", scale=0.5)
        xis = read_paths(mf)
        got = list(solve_particle_system(mf, f_spec, g_spec, u0s, cfg))
    else:
        c, f_spec = 0.0, None
        xis = sample(NoiseSpec(seed=4, temporal="exp_correlated"), grid16,
                     times, stream_id=range(n))
        got = list(solve_particle_system(additive(xis), None, g_spec, u0s,
                                         cfg))
    want = _step_by_hand(u0s, xis, c, f_spec, g_spec, dt)
    for u, w in zip(got[1], want, strict=True):
        assert u.values.tobytes() == w.values.tobytes()
        assert u.spectrum.tobytes() == w.spectrum.tobytes()


def test_one_etd_step_call_per_time_step(grid16, monkeypatch):
    # the benchmark's traced run counts field steps as the leading planes
    # of etd_step's first argument, summed over its calls
    planes = []

    def counting(u, nonlin, dt):
        planes.append(math.prod(np.shape(getattr(u, "values", u))[:-2]))
        return etd_step(u, nonlin, dt)

    monkeypatch.setattr(parafield.solver, "etd_step", counting)
    n, times = 3, _times(T=0.125)
    mf = mean_field_enhance(n, NoiseSpec(seed=5), 0.1, grid16, times)
    rng = np.random.default_rng(1)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(n)]
    list(solve_particle_system(mf, make_interaction("tanh_bilinear", scale=0.5),
                               None, u0s, SolveConfig()))
    M = len(times) - 1
    assert len(planes) == M
    assert sum(planes) == n * M


def test_particle_system_permutation_symmetry(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=5)
    mf = mean_field_enhance(3, spec, 0.1, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    rng = np.random.default_rng(1)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(3)]
    cfg = SolveConfig()
    final = list(solve_particle_system(mf, f_spec, None, u0s, cfg))[-1]
    # permute particles: the i-th output only depends on the measure,
    # which is permutation invariant, and on its own noise/initial data
    perm = [2, 0, 1]
    mf_p = [mf[i] for i in perm]
    final_p = list(solve_particle_system(mf_p, f_spec, None,
                                         [u0s[i] for i in perm], cfg))[-1]
    # exact up to the summation order inside the measure average
    for j, i in enumerate(perm):
        err = np.max(np.abs(final_p[j].values - final[i].values))
        assert err < 1e-12


def test_renormalize_flag_changes_solution(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=6)
    en = enhance(spec, 0.05, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.4))
    a = _path(solve_renormalized([en], repeat([u0]), f_spec, None, [u0],
                                 SolveConfig()))
    # the naive run is the same solve with a zero counterterm
    naive = replace(en, c_eps=np.zeros_like)
    b = _path(solve_renormalized([naive], repeat([u0]), f_spec, None, [u0],
                                 SolveConfig()))
    assert _sup_gap(a, b) > 1e-6


def test_explosion_guard_raises_with_time(grid16):
    times = make_times(1.0, 0.0625)
    zeta = constant_path(times, Field.zero(grid16))
    g_spec = make_interaction("constant", c=50.0)
    u0 = Field.zero(grid16)
    with pytest.raises(ExplosionError) as exc:
        list(solve_particle_system(additive([zeta]), None, g_spec, [u0],
                                   SolveConfig(max_linf=2.0)))
    assert 0.0 < exc.value.time <= 1.0
    assert exc.value.linf >= 2.0


@pytest.mark.parametrize("amps,crossing", [((0.5, 1.0, 4.0), 2),
                                            ((0.5, 4.0, 4.0), 1)])
def test_stack_explosion_reports_the_crossing_field(grid16, amps, crossing):
    # independent fields u = (1 - e^{-t}) A cos(x) with R = 2: A = 4
    # crosses at t = 0.75, smaller amplitudes never; of two fields that
    # cross at one step the lower index is reported
    times = make_times(1.0, 1.0 / 16)
    X, _ = grid16.coords()
    zetas = [constant_path(times, Field.from_values(grid16,
                                                         a * np.cos(X)))
             for a in amps]
    u0s = [Field.zero(grid16)] * len(amps)
    with pytest.raises(ExplosionError) as exc:
        list(solve_particle_system(additive(zetas), None, None, u0s,
                                   SolveConfig(max_linf=2.0)))
    alone = _path(solve_particle_system(additive([zetas[crossing]]), None,
                                        None, u0s[:1],
                                        SolveConfig(max_linf=1e9)))
    k = next(k for k in range(len(times)) if alone[k].linf() >= 2.0)
    assert exc.value.time == times[k] == 0.75
    assert exc.value.linf == alone[k].linf()


def test_picard_error_on_tight_budget(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=7)
    noises = [enhance(spec, 0.1, grid16, times, i)
              for i in range(2)]
    f_spec = make_interaction("tanh_bilinear")
    u0 = Field(grid16, np.full((16, 16), 0.3))
    cfg = SolveConfig(picard_tol=1e-14, picard_max_iters=1)
    with pytest.raises(PicardError) as exc:
        solve_mean_field(noises, f_spec, None, u0, cfg)
    assert len(exc.value.residuals) == 1
    with pytest.raises(ValueError):
        solve_mean_field(noises[:1], f_spec, None, u0, SolveConfig())


def test_fixed_point_error_when_cap_is_reached(grid16, monkeypatch):
    times = _times(T=0.125)
    en = enhance(NoiseSpec(seed=9), 0.05, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.4))
    # X_0 = 0 pins the first slice in one iteration; X_1 != 0 needs more
    monkeypatch.setattr("parafield.solver.FIXED_POINT_MAX_ITERS", 1)
    with pytest.raises(FixedPointError) as exc:
        list(solve_paracontrolled(en, repeat([u0]), f_spec, None, u0,
                                  SolveConfig()))
    assert exc.value.time == pytest.approx(times[1])
    assert exc.value.defect > 0.0


def test_paracontrolled_makes_no_corrector_call(grid16, monkeypatch):
    # frozen atoms carry no derivative, so there is no dmu corrector, and
    # the corrector of dz is spelled out on the products the step holds
    calls = []

    def counting(*args):
        calls.append(1)
        return corrector(*args)

    monkeypatch.setattr("parafield.paracontrolled.corrector", counting)
    times = _times(T=0.125)
    en = enhance(NoiseSpec(seed=9), 0.05, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.4))
    u = list(solve_paracontrolled(en, repeat([u0, -u0]), f_spec, None, u0,
                                  SolveConfig()))
    assert len(u) == len(times) and calls == []


def test_paracontrolled_returns_the_solution_path(grid16):
    # like the direct solvers: one slice per time of the noise, from u0
    times = _times(T=0.125)
    en = enhance(NoiseSpec(seed=9), 0.05, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = random_field(grid16, np.random.default_rng(3), smooth=0.2)
    u = list(solve_paracontrolled(en, repeat([u0]), f_spec, None, u0,
                                  SolveConfig()))
    assert len(u) == len(times)
    assert all(isinstance(f, Field) for f in u)
    assert np.array_equal(u[0].values, u0.values)


def _four_paracontrolled_steps(grid):
    """The slices of a four-step paracontrolled solve on time-constant
    noise."""
    en = enhance(NoiseSpec(seed=9), 0.05, grid, _times(T=0.125))
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    X, Y = grid.coords()
    u0 = Field.from_values(grid, 0.4 * np.cos(X) * np.sin(Y))
    return list(solve_paracontrolled(en, repeat([u0]), f_spec, None, u0,
                                     SolveConfig()))


def test_paracontrolled_step_keeps_its_operands_blocked(grid32, monkeypatch):
    # a block cache of four stacks made 73 block transforms here and one
    # of eight stacks 60; with each Bony product of a step formed once it
    # made 55, and with each Field keeping its own stack it makes 52
    transforms = []
    inner = DyadicPartition.block_fields
    monkeypatch.setattr(DyadicPartition, "block_fields",
                        lambda self, *args, **kwargs:
                        transforms.append(1) or inner(self, *args, **kwargs))
    assert len(_four_paracontrolled_steps(grid32)) == 5
    assert len(transforms) <= 52


def test_paracontrolled_step_forms_each_product_once(grid32, monkeypatch):
    # no (product, operand, operand) repeats: no step forms a paraproduct
    # or X (.) xi it already holds
    seen = []
    for name in ("para", "resonant"):
        inner = getattr(parafield.bony, name)

        def recording(a, b, name=name, inner=inner):
            seen.append((name, a, b))  # kept alive, so no id is reused
            return inner(a, b)

        for module in (parafield.bony, parafield.paracontrolled,
                       parafield.solver, parafield.noise):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    _four_paracontrolled_steps(grid32)
    keys = [(name, id(a), id(b)) for name, a, b in seen]
    assert len(seen) > 0 and len(set(keys)) == len(keys)


def test_paracontrolled_matches_direct_with_two_atoms(grid32):
    # criterion 13's two-scheme agreement, against a measure of two heat flows
    f_spec = make_interaction("tanh_bilinear", scale=1.0)
    X, Y = grid32.coords()
    v = np.cos(X) * np.cos(Y) + 0.5 * np.sin(X + Y)
    u0 = Field.from_values(grid32, 0.5 * v / np.max(np.abs(v)))
    w0 = Field.from_values(grid32, 0.8 * np.sin(2 * X) - 0.3)
    times = make_times(0.25, 0.025)
    en = enhance(NoiseSpec(seed=2024), 0.1, grid32, times)
    frozen = _heat_flows([u0, w0], times)
    cfg = SolveConfig()
    direct = _path(solve_renormalized([en], frozen, f_spec, None, [u0], cfg))
    pc = list(solve_paracontrolled(en, frozen, f_spec, None, u0, cfg))
    assert _sup_gap(direct, pc) <= 0.05 * max(u.linf() for u in direct)
    # the second atom is read: one atom alone gives another solution
    one = list(solve_paracontrolled(en, [row[:1] for row in frozen], f_spec,
                                    None, u0, cfg))
    assert _sup_gap(pc, one) > 0.05


def test_mean_field_fixed_point_residual(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=8)
    noises = [enhance(spec, 0.1, grid16, times, i)
              for i in range(3)]
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.3))
    cfg = SolveConfig(picard_tol=1e-6)
    ensemble, iters, residuals = solve_mean_field(noises, f_spec, None, u0, cfg)
    assert residuals[-1] < 1e-6 and iters == len(residuals)
    # the returned ensemble is a fixed point of one more sweep
    assert len(ensemble) == len(times)
    again = [_path(solve_renormalized([noises[i]], ensemble, f_spec, None,
                                      [u0], cfg)) for i in range(3)]
    res = max(_sup_gap(again[i], _path(ensemble, i)) for i in range(3))
    assert res < 1e-5


def test_mean_field_builds_one_measure_per_step_and_sweep(grid16,
                                                         monkeypatch):
    # a sweep steps all streams against one shared frozen measure per step
    built = []

    class CountingMeasure(EmpiricalMeasure):
        def __post_init__(self):
            super().__post_init__()
            built.append(len(self))

    monkeypatch.setattr("parafield.solver.EmpiricalMeasure", CountingMeasure)
    times = _times(T=0.125)
    noises = mean_field_enhance(3, NoiseSpec(seed=8), 0.1, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.3))
    _, iters, _ = solve_mean_field(noises, f_spec, None, u0,
                                   SolveConfig(picard_tol=1e-6))
    assert iters >= 2
    assert built == [3] * (iters * (len(times) - 1))


@pytest.mark.parametrize("amp0", [0.0, 3.0])
def test_mean_field_explosion_reports_earliest_crossing(grid16, amp0):
    # u = (1 - e^{-t}) A cos(x) for f = 1 and time-constant xi = A cos(x):
    # with R = 2, stream 1 (A = 4) crosses at t = 0.75 and stream 0
    # (A = 3) at t = 1.125, or never when A = 0
    times = make_times(2.0, 1.0 / 16)
    X, _ = grid16.coords()
    enhanced = [StoredNoise(constant_path(
        times, Field.from_values(grid16, amp * np.cos(X))),
        lambda t: np.zeros_like(t)) for amp in (amp0, 4.0)]
    f_spec = make_interaction("constant", c=1.0)
    u0 = Field.zero(grid16)
    cfg = SolveConfig(max_linf=2.0)
    flow = repeat([u0, u0])
    with pytest.raises(ExplosionError) as alone:
        list(solve_renormalized(enhanced[1:], flow, f_spec, None, [u0], cfg))
    assert alone.value.time == pytest.approx(0.75)
    if amp0 > 0.0:
        with pytest.raises(ExplosionError) as later:
            list(solve_renormalized(enhanced[:1], flow, f_spec, None, [u0],
                                    cfg))
        assert later.value.time == pytest.approx(1.125)
    with pytest.raises(ExplosionError) as exc:
        solve_mean_field(enhanced, f_spec, None, u0, cfg)
    assert exc.value.time == alone.value.time
    assert exc.value.linf == alone.value.linf


def test_input_validation(grid16, rng):
    times = _times(T=0.125)
    zeta = constant_path(times, Field.zero(grid16))
    with pytest.raises(ValueError):
        solve_particle_system(additive([zeta]), None, None, [],
                              SolveConfig())
    # the lists are checked when the solver is called, not when the
    # first slice is read
    with pytest.raises(ValueError):
        solve_renormalized([], repeat([zeta[0]]), None, None, [],
                           SolveConfig())


def _singular_setup(grid, n=2):
    times = _times(T=0.125)
    mf = mean_field_enhance(n, NoiseSpec(seed=17), 0.1, grid, times)
    rng = np.random.default_rng(5)
    u0s = [random_field(grid, rng, smooth=0.3) for _ in range(n)]
    return times, mf, make_interaction("tanh_bilinear", scale=0.5), u0s


def test_a_stream_yields_one_slice_per_time(grid16):
    times, mf, f_spec, u0s = _singular_setup(grid16)
    cfg = SolveConfig()
    for stream in (solve_particle_system(mf, f_spec, None, u0s, cfg),
                   solve_renormalized(mf, _heat_flows(u0s, times), f_spec,
                                      None, u0s, cfg)):
        slices = list(stream)
        assert len(slices) == len(times)
        assert all(a is b for a, b in zip(slices[0], u0s, strict=True))
        for row in slices[1:]:
            # the fields of a slice are rows of one read-only stack, each
            # with its half spectrum
            base = row[0].values.base
            assert base.shape == (len(u0s), 16, 16)
            assert not base.flags.writeable
            assert all(u.values.base is base and u._spectrum is not None
                       for u in row)
    pc = list(solve_paracontrolled(mf[0], repeat([u0s[1]]), f_spec, None,
                                   u0s[0], cfg))
    assert len(pc) == len(times)


def test_frozen_heat_flow_may_be_a_generator(grid16):
    # a heat flow produced slice by slice as the solve reads it gives,
    # bit for bit, the solve against the stored flow
    times, mf, f_spec, u0s = _singular_setup(grid16)
    cfg = SolveConfig()

    def flow():
        return ([semigroup(a, float(t)) for a in u0s] for t in times)

    stored = list(solve_renormalized(mf, _heat_flows(u0s, times), f_spec,
                                     None, u0s, cfg))
    streamed = list(solve_renormalized(mf, flow(), f_spec, None, u0s, cfg))
    for a, b in zip(stored, streamed, strict=True):
        for u, v in zip(a, b, strict=True):
            assert u.values.tobytes() == v.values.tobytes()
    stored = list(solve_paracontrolled(mf[0], _heat_flows(u0s, times),
                                       f_spec, None, u0s[0], cfg))
    streamed = list(solve_paracontrolled(mf[0], flow(), f_spec, None,
                                         u0s[0], cfg))
    for u, v in zip(stored, streamed, strict=True):
        assert u.values.tobytes() == v.values.tobytes()


def test_a_frozen_measure_with_too_few_slices_raises(grid16):
    # the direct scheme reads slices 0..M-1 of an M-step solve, the
    # paracontrolled one also slice M; one less is a ValueError, whether
    # the measure is a list or a generator
    times, mf, f_spec, u0s = _singular_setup(grid16, n=1)
    cfg = SolveConfig()
    M = len(times) - 1
    list(solve_renormalized(mf, [u0s] * M, f_spec, None, u0s, cfg))
    for short in ([u0s] * (M - 1), (u0s for _ in range(M - 1))):
        with pytest.raises(ValueError, match="fewer slices"):
            list(solve_renormalized(mf, short, f_spec, None, u0s, cfg))
    list(solve_paracontrolled(mf[0], [u0s] * (M + 1), f_spec, None, u0s[0],
                              cfg))
    for short in ([u0s] * M, (u0s for _ in range(M))):
        with pytest.raises(ValueError, match="fewer slices"):
            list(solve_paracontrolled(mf[0], short, f_spec, None, u0s[0],
                                      cfg))
