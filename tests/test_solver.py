"""Time integrators: closed-form reductions, coupling symmetry, guards."""

import numpy as np
import pytest

from parafield import (EmpiricalMeasure, EnhancedNoise, ExplosionError, Field,
                       FixedPointError, NoiseSpec, PathField, PicardError,
                       SolveConfig, decompose, default_dt, enhance,
                       make_interaction, make_times,
                       mean_field_enhance, sample_noise, semigroup,
                       solve_additive_frozen, solve_additive_mckean,
                       solve_mean_field, solve_paracontrolled,
                       solve_particle_system, solve_renormalized)
from conftest import random_field


def _times(T=0.25, dt=0.03125):
    return make_times(T, dt)


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
    zeta = PathField.constant(times, zeta_f)
    u0 = Field.from_values(grid32, 0.3 * np.cos(X + Y))
    sol = solve_additive_mckean(None, [zeta], [u0], SolveConfig())[0]
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
    noises = [sample_noise(spec, grid16, times, stream_id=i) for i in range(n)]
    rng = np.random.default_rng(0)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(n)]
    cfg = SolveConfig()
    stacked = solve_additive_mckean(g_spec, noises, u0s, cfg)
    for i in range(n):
        # the running measure at step m is the stacked state at slice m
        replay = solve_additive_frozen(g_spec, noises[i], u0s[i],
                                       stacked, cfg)
        for m in range(len(times)):
            assert np.array_equal(replay[m].values, stacked[i][m].values)


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
    stacked = solve_particle_system(mf, f_spec, g_spec, u0s, cfg)
    for i in range(3):
        replay = solve_renormalized(mf[i], stacked, f_spec, g_spec, u0s[i],
                                    cfg)
        for m in range(len(times)):
            assert np.array_equal(replay[m].values, stacked[i][m].values)


def test_particle_system_permutation_symmetry(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=5)
    mf = mean_field_enhance(3, spec, 0.1, grid16, times)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    rng = np.random.default_rng(1)
    u0s = [random_field(grid16, rng, smooth=0.3) for _ in range(3)]
    cfg = SolveConfig()
    sols = solve_particle_system(mf, f_spec, None, u0s, cfg)
    # permute particles: the i-th output only depends on the measure,
    # which is permutation invariant, and on its own noise/initial data
    perm = [2, 0, 1]
    mf_p = [mf[i] for i in perm]
    sols_p = solve_particle_system(mf_p, f_spec, None,
                                   [u0s[i] for i in perm], cfg)
    # exact up to the summation order inside the measure average
    for j, i in enumerate(perm):
        err = np.max(np.abs(sols_p[j][-1].values - sols[i][-1].values))
        assert err < 1e-12


def test_renormalize_flag_changes_solution(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=6)
    en = enhance(sample_noise(spec, grid16, times, stream_id=0), 0.05)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.4))
    frozen = [PathField.constant(times, u0)]
    a = solve_renormalized(en, frozen, f_spec, None, u0, SolveConfig())
    # the naive run is the same solve with a zero counterterm
    naive = EnhancedNoise(en.xi, c_eps=np.zeros_like, eps=en.eps)
    b = solve_renormalized(naive, frozen, f_spec, None, u0, SolveConfig())
    assert (a - b).sup_linf() > 1e-6


def test_explosion_guard_raises_with_time(grid16):
    times = make_times(1.0, 0.0625)
    zeta = PathField.zero(times, grid16)
    g_spec = make_interaction("constant", c=50.0)
    u0 = Field.zero(grid16)
    with pytest.raises(ExplosionError) as exc:
        solve_additive_mckean(g_spec, [zeta], [u0],
                              SolveConfig(max_linf=2.0))
    assert 0.0 < exc.value.time <= 1.0
    assert exc.value.linf >= 2.0


def test_picard_error_on_tight_budget(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=7)
    noises = [enhance(sample_noise(spec, grid16, times, stream_id=i), 0.1)
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
    en = enhance(sample_noise(NoiseSpec(seed=9), grid16, times, stream_id=0),
                 0.05)
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.4))
    frozen = [decompose(PathField.constant(times, u0), en.X,
                        PathField.zero(times, grid16))]
    # X_0 = 0 pins the first slice in one iteration; X_1 != 0 needs more
    monkeypatch.setattr("parafield.solver.FIXED_POINT_MAX_ITERS", 1)
    with pytest.raises(FixedPointError) as exc:
        solve_paracontrolled(en, frozen, f_spec, None, u0, SolveConfig())
    assert exc.value.time == pytest.approx(times[1])
    assert exc.value.defect > 0.0


def test_mean_field_fixed_point_residual(grid16):
    times = _times(T=0.125)
    spec = NoiseSpec(seed=8)
    noises = [enhance(sample_noise(spec, grid16, times, stream_id=i), 0.1)
              for i in range(3)]
    f_spec = make_interaction("tanh_bilinear", scale=0.5)
    u0 = Field(grid16, np.full((16, 16), 0.3))
    cfg = SolveConfig(picard_tol=1e-6)
    ensemble, iters, residuals = solve_mean_field(noises, f_spec, None, u0, cfg)
    assert residuals[-1] < 1e-6 and iters == len(residuals)
    # the returned ensemble is a fixed point of one more sweep
    again = [solve_renormalized(noises[i], list(ensemble), f_spec, None, u0,
                                cfg) for i in range(3)]
    res = max((again[i] - ensemble[i]).sup_linf() for i in range(3))
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
    enhanced = [EnhancedNoise(PathField.constant(
        times, Field.from_values(grid16, amp * np.cos(X))),
        lambda t: np.zeros_like(t), 0.1) for amp in (amp0, 4.0)]
    f_spec = make_interaction("constant", c=1.0)
    u0 = Field.zero(grid16)
    cfg = SolveConfig(max_linf=2.0)
    flow = [PathField.constant(times, u0)] * 2
    with pytest.raises(ExplosionError) as alone:
        solve_renormalized(enhanced[1], flow, f_spec, None, u0, cfg)
    assert alone.value.time == pytest.approx(0.75)
    if amp0 > 0.0:
        with pytest.raises(ExplosionError) as later:
            solve_renormalized(enhanced[0], flow, f_spec, None, u0, cfg)
        assert later.value.time == pytest.approx(1.125)
    with pytest.raises(ExplosionError) as exc:
        solve_mean_field(enhanced, f_spec, None, u0, cfg)
    assert exc.value.time == alone.value.time
    assert exc.value.linf == alone.value.linf


def test_input_validation(grid16, rng):
    times = _times(T=0.125)
    zeta = PathField.zero(times, grid16)
    with pytest.raises(ValueError):
        solve_additive_mckean(None, [zeta], [], SolveConfig())
