"""Noise sampler statistics, mollification and renormalization oracles.

Monte Carlo checks use explicit standard-error bounds so they are
deterministic given the fixed seeds.
"""

import dataclasses

import numpy as np
import pytest

import parafield.noise
from parafield import (Field, NoiseSpec, cross_resonant, enhance,
                       final_slice, make_grid, make_times, mean_field_enhance,
                       noise_slices, power_law_multiplier, renorm_constant)
from parafield.bony import resonant
from parafield.heat import duhamel_step
from parafield.littlewood_paley import dyadic_blocks
from parafield.experiments import (SCHEMA, ConfigError, parse_config,
                                   run_experiment)
from conftest import read_paths, sample


TIMES3 = np.array([0.0, 0.25, 0.5])


def test_sampler_deterministic(grid16):
    spec = NoiseSpec(seed=7)
    a = sample(spec, grid16, TIMES3, stream_id=3)
    b = sample(spec, grid16, TIMES3, stream_id=3)
    assert np.array_equal(a[0].values, b[0].values)
    c = sample(spec, grid16, TIMES3, stream_id=4)
    assert not np.array_equal(a[0].values, c[0].values)
    d = sample(NoiseSpec(seed=8), grid16, TIMES3, stream_id=3)
    assert not np.array_equal(a[0].values, d[0].values)


def test_white_in_time_reuses_one_draw(grid16):
    # a time-constant stream yields its one Field at every slice
    xi = sample(NoiseSpec(seed=1), grid16, TIMES3)
    assert xi[0] is xi[1] is xi[2]


def test_coefficient_covariance_normalization(grid16):
    # E|coef(k)|^2 = Chat(k) = 1 for spatial white noise
    spec = NoiseSpec(seed=11)
    M = 400
    acc = np.zeros(grid16.k2.shape)
    for s in range(M):
        xi = sample(spec, grid16, np.array([0.0]), stream_id=s)
        coef = xi[0].spectrum / grid16.N ** 2
        acc += np.abs(coef) ** 2
    acc /= M
    keep = (grid16.k2 > 0) & ~grid16.nyquist
    mean = acc[keep].mean()
    assert abs(mean - 1.0) < 5.0 / np.sqrt(M * keep.sum())
    assert np.all(acc[~keep & (grid16.k2 == 0)] == 0)


def test_spatial_multiplier_shapes_spectrum(grid16):
    spec = NoiseSpec(seed=3, spatial_multiplier=power_law_multiplier(-1.0))
    chat = spec.chat(grid16)
    keep = (grid16.k2 > 0) & ~grid16.nyquist
    assert np.allclose(chat[keep], grid16.k2[keep] ** -0.5)
    assert chat[0, 0] == 0.0
    bad = NoiseSpec(seed=3, spatial_multiplier=lambda k: k - 10.0)
    with pytest.raises(ValueError):
        bad.chat(grid16)
    with pytest.raises(ValueError):
        NoiseSpec(seed=1, temporal="pink")


def test_exp_correlated_lag_correlation(grid16):
    lam = 2.0
    spec = NoiseSpec(seed=5, temporal="exp_correlated", lam=lam)
    times = make_times(1.0, 0.125)
    M = 300
    lags = [1, 4]
    acc = {l: 0.0 for l in lags}
    var = 0.0
    for s in range(M):
        xi = sample(spec, grid16, times, stream_id=s)
        c0 = xi[0].spectrum / grid16.N ** 2
        var += np.mean(np.abs(c0) ** 2)
        for l in lags:
            cl = xi[l].spectrum / grid16.N ** 2
            acc[l] += np.mean((cl * np.conj(c0)).real)
    keep_frac = ((grid16.k2 > 0) & ~grid16.nyquist).mean()
    for l in lags:
        want = np.exp(-lam * l * 0.125) * keep_frac
        assert acc[l] / M == pytest.approx(want, rel=0.1)
    assert var / M == pytest.approx(keep_frac, rel=0.05)


def test_mollify_multiplier_and_meta(grid16):
    # the slice at eps is the raw slice times e^{-eps |k|^2}
    spec = NoiseSpec(seed=2)
    raw = sample(spec, grid16, TIMES3)
    en = enhance(spec, 0.1, grid16, TIMES3)
    assert (en.spec, en.stream_id, en.eps) == (spec, 0, 0.1)
    xi = read_paths([en])[0]
    m = np.exp(-0.1 * grid16.k2)
    assert np.allclose(xi[0].spectrum, raw[0].spectrum * m, atol=1e-9)
    with pytest.raises(ValueError):
        enhance(spec, -0.1, grid16, TIMES3)


def test_mollify_transforms_each_distinct_slice_once(grid16, monkeypatch):
    # a draw read at two eps is drawn and transformed once per slice, and
    # each eps is one Field per slice; white noise is one Field repeated
    m = np.exp(-0.1 * grid16.k2)
    calls = []
    for name in ("rfft2", "irfft2"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, _n=name, **k:
                            calls.append(_n) or _fn(*a, **k))
    for temporal in ("white", "exp_correlated"):
        spec = NoiseSpec(seed=2, temporal=temporal)
        raw = sample(spec, grid16, TIMES3)
        calls.clear()
        both = read_paths([enhance(spec, 0.1, grid16, TIMES3),
                           enhance(spec, 0.2, grid16, TIMES3)])
        planes = 1 if temporal == "white" else len(TIMES3)
        assert calls == ["rfft2", "irfft2"] * planes
        for f, r in zip(both[0].fields, raw.fields):
            want = Field.from_spectrum(grid16, r.spectrum * m)
            assert np.array_equal(f.values, want.values)
            assert np.array_equal(f.spectrum, want.spectrum)
        assert (both[0][0] is both[0][-1]) == (temporal == "white")


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
@pytest.mark.parametrize("ids", [[3], [3, 4, 500_000]])
def test_slices_match_a_whole_draw_oracle(temporal, ids):
    # each stream drawn in one standard_normal call of all its planes,
    # updated, transformed in one rfft2 and then multiplied, as the
    # whole-path sampler did: the plane-by-plane stream is bitwise it
    grid, eps = make_grid(32), 0.05
    spec = NoiseSpec(seed=5, temporal=temporal, lam=2.0,
                     spatial_multiplier=power_law_multiplier(-0.5))
    times = make_times(0.5, 0.125)
    got = read_paths(enhance(spec, eps, grid, times, ids))
    planes = 1 if temporal == "white" else times.size
    a = np.exp(-spec.lam * 0.125)
    for s, path in zip(ids, got, strict=True):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([5, s], dtype=np.uint64)))
        W = rng.standard_normal((planes, 32, 32))
        for t in range(1, planes):
            W[t] = a * W[t - 1] + np.sqrt(1.0 - a * a) * W[t]
        S = np.fft.rfft2(W)
        S *= 32 * np.sqrt(spec.chat(grid))
        S[..., grid.nyquist] = 0.0
        S *= np.exp(-eps * grid.k2)
        for n in range(times.size):
            want = Field.from_spectrum(grid, S[min(n, planes - 1)])
            assert path[n].values.tobytes() == want.values.tobytes()
            assert path[n].spectrum.tobytes() == want.spectrum.tobytes()


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
def test_reading_twice_replays_the_same_slices(grid16, temporal):
    # reading the noises again gives the same bits, X included: a replay
    # of one field of a stacked solve (criterion 12) relies on it
    times = make_times(0.5, 0.125)
    noises = mean_field_enhance(3, NoiseSpec(seed=4, temporal=temporal), 0.1,
                                grid16, times)
    first, again = (list(noise_slices(noises, X=True)) for _ in range(2))
    for (xa, Xa), (xb, Xb) in zip(first, again, strict=True):
        for u, v in zip(xa + Xa, xb + Xb, strict=True):
            assert u.values.tobytes() == v.values.tobytes()


def test_renorm_constant_white_against_monte_carlo(grid16):
    spec = NoiseSpec(seed=21)
    eps, t_eval = 0.1, 0.5
    c = float(renorm_constant(spec, eps, TIMES3, grid16)(t_eval))
    M = 300
    vals = np.empty(M)
    for s, en in enumerate(enhance(spec, eps, grid16, TIMES3, range(M))):
        [xi], [X] = final_slice([en])
        vals[s] = resonant(X, xi).mean()
    se = vals.std(ddof=1) / np.sqrt(M)
    assert abs(vals.mean() - c) <= 4.0 * se


def test_renorm_constant_exp_correlated_against_monte_carlo(grid16):
    spec = NoiseSpec(seed=22, temporal="exp_correlated", lam=1.0)
    times = make_times(0.5, 0.0625)
    eps = 0.1
    c = float(renorm_constant(spec, eps, times, grid16)(times[-1]))
    M = 300
    vals = np.empty(M)
    for s, en in enumerate(enhance(spec, eps, grid16, times, range(M))):
        [xi], [X] = final_slice([en])
        vals[s] = resonant(X, xi).mean()
    se = vals.std(ddof=1) / np.sqrt(M)
    assert abs(vals.mean() - c) <= 4.0 * se
    # on a one-point time grid X = 0, so the constant is 0
    for t in (0.0, 0.25):
        one = np.array([t])
        assert renorm_constant(spec, eps, one, grid16)(one) == 0.0
    # the constant depends on the step, so it is known on its grid only
    c_eps = renorm_constant(spec, eps, times, grid16)
    for t in (-0.01, 0.51, np.array([0.25, 0.75])):
        with pytest.raises(ValueError, match="known on"):
            c_eps(t)


def _full_grid_renorm(spec, eps, times, N):
    """c_eps on the time grid as the old sum over every mode of the fft2
    grid; sharp blocks partition the modes, so w_res = 1 on all of them."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    q = kx ** 2 + ky ** 2
    keep = (np.abs(kx) <= N // 3) & (np.abs(ky) <= N // 3) & (q > 0)
    q = q[keep]
    mult = spec.spatial_multiplier
    chat = 1.0 if mult is None else mult(np.sqrt(q))
    weight = chat * np.exp(-2.0 * eps * q)
    if spec.temporal == "white":
        return np.array([np.sum(weight * -np.expm1(-t * q) / q)
                         for t in times])
    dt = times[1] - times[0]
    a, E = np.exp(-spec.lam * dt), np.exp(-q * dt)
    I0 = (1.0 - E) / q
    I1 = dt / q - I0 / q
    m, vals = np.zeros_like(q), [0.0]
    for _ in times[1:]:
        m = E * a * m + (I0 - I1 / dt) * a + I1 / dt
        vals.append(np.sum(weight * m))
    return np.array(vals)


@pytest.mark.parametrize("spec", [
    NoiseSpec(seed=1),
    NoiseSpec(seed=1, spatial_multiplier=power_law_multiplier(-0.5)),
    NoiseSpec(seed=1, temporal="exp_correlated", lam=2.0)],
    ids=["white", "power_law", "exp_correlated"])
@pytest.mark.parametrize("N", [16, 64])
def test_renorm_constant_matches_full_grid_sum(spec, N):
    grid = make_grid(N)
    assert np.all(dyadic_blocks(grid).resonant_weight[~grid.nyquist] == 1)
    times = make_times(0.5, 0.0625)
    got = renorm_constant(spec, 0.01, times, grid)(times)
    want = _full_grid_renorm(spec, 0.01, times, N)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_renorm_constant_grows_as_eps_shrinks(grid32):
    spec = NoiseSpec(seed=1)
    cs = [float(renorm_constant(spec, e, TIMES3, grid32)(0.5))
          for e in (0.2, 0.1, 0.05, 0.025)]
    assert np.all(np.diff(cs) > 0)


def test_enhance_centers_xi2(grid16):
    # the renormalized diagonal has (near) zero spatial-mean expectation
    spec = NoiseSpec(seed=31)
    M = 64
    means = np.empty(M)
    for s, en in enumerate(enhance(spec, 0.1, grid16, TIMES3, range(M))):
        c = float(en.c_eps(TIMES3)[-1])
        [xi], [X] = final_slice([en])
        means[s] = resonant(X, xi).shift(-c).mean()
    se = means.std(ddof=1) / np.sqrt(M)
    assert abs(means.mean()) <= 4.0 * se
    assert en.eps == 0.1 and en.stream_id == M - 1


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
def test_enhance_builds_X_and_xi2_on_first_read(grid16, temporal,
                                                monkeypatch):
    spec = NoiseSpec(seed=13, temporal=temporal, lam=2.0)
    times = make_times(0.5, 0.125)
    en = enhance(spec, 0.1, grid16, times, stream_id=2)
    # a description: no slice is drawn, and a read without X builds none
    assert [f.name for f in dataclasses.fields(en)] == [
        "spec", "stream_id", "eps", "grid", "times", "c_eps"]
    steps = []
    monkeypatch.setattr(parafield.noise, "duhamel_step",
                        lambda *a: steps.append(1) or duhamel_step(*a))
    xi = read_paths([en])[0]
    assert steps == []
    # oracle: X by the Duhamel recursion over the read slices; a reader
    # forms xi2 = X (.) xi - c_eps on the slice it reads
    Z = np.zeros_like(xi[0].spectrum)
    cs = np.atleast_1d(en.c_eps(times))
    for i, ([xs], [X]) in enumerate(noise_slices([en], X=True)):
        if i > 0:
            Z = duhamel_step(Z, xi[i - 1].spectrum, xi[i].spectrum, 0.125)
        want = Field.from_spectrum(grid16, Z)
        assert xs.values.tobytes() == xi[i].values.tobytes()
        assert X.values.tobytes() == want.values.tobytes()
        got = resonant(X, xs).shift(-float(cs[i]))
        xi2 = resonant(want, xi[i]).shift(-float(cs[i]))
        assert got.values.tobytes() == xi2.values.tobytes()
    assert len(steps) == times.size - 1


SINGULAR_SOLVES = {
    "solve": """\
[experiment]
name = solve
seed = 3

[grid]
n = 16
t = 0.05

[noise]
eps = 0.1

[params]
scheme = {scheme}
""",
    "chaos_singular": """\
[experiment]
name = chaos_singular
seed = 3

[grid]
n = 16
t = 0.05

[ensemble]
n_list = 2 4
k = 2
m = 4
""",
}


def _count_enhancement_calls(monkeypatch, tmp_path, text):
    """Run ``text``; count the Duhamel steps of X, the X slices made into
    Fields, the resonant products formed in any module and, among them,
    the products X[n] (.) xi[n]."""
    calls = {"duhamel_step": 0, "X slices": 0, "resonant": 0, "X (.) xi": 0}
    Xs = []
    inner_step, inner_fields = duhamel_step, parafield.noise._X_fields
    inner_resonant = resonant

    def counting_step(*args):
        calls["duhamel_step"] += 1
        return inner_step(*args)

    def counting_fields(*args):
        Xs.append(inner_fields(*args))  # kept alive, so no id is reused
        calls["X slices"] += len(Xs[-1])
        return Xs[-1]

    def counting_resonant(a, b):
        calls["resonant"] += 1
        calls["X (.) xi"] += any(a is f for X in Xs for f in X)
        return inner_resonant(a, b)

    monkeypatch.setattr(parafield.noise, "duhamel_step", counting_step)
    monkeypatch.setattr(parafield.noise, "_X_fields", counting_fields)
    for module in (parafield.bony, parafield.noise, parafield.paracontrolled,
                   parafield.experiments):
        monkeypatch.setattr(module, "resonant", counting_resonant)
    run_experiment(parse_config(text=text, out=str(tmp_path / "out")))
    return calls


@pytest.mark.parametrize("experiment", sorted(SINGULAR_SOLVES))
def test_direct_scheme_builds_no_X_or_xi2(monkeypatch, tmp_path, experiment):
    text = SINGULAR_SOLVES[experiment].format(scheme="direct_renormalized")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    assert calls == {"duhamel_step": 0, "X slices": 0, "resonant": 0,
                     "X (.) xi": 0}


def test_paracontrolled_scheme_builds_X_and_xi2_once(monkeypatch, tmp_path):
    # the counters do see the reads: each X slice is formed once, by one
    # Duhamel step from the last (X = 0 at the first slice), and each
    # step forms X (.) xi once, on its own slice (none for the final one)
    text = SINGULAR_SOLVES["solve"].format(scheme="paracontrolled")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    rows = (tmp_path / "out" / "solution_norms.csv").read_text().splitlines()
    steps = len(rows) - 2  # a header and one row per slice
    assert steps > 0
    assert calls["X slices"] == steps + 1
    assert calls["duhamel_step"] == calls["X (.) xi"] == steps


def test_enhance_convergence_forms_one_product_per_sample_and_eps(
        monkeypatch, tmp_path):
    # only the final slice of X (.) xi - c_eps is read, so only it is
    # formed, and only the final X slice of each eps is made a Field;
    # the eps of one sample are stepped as one stack
    text = ("[experiment]\nname = enhance_convergence\nseed = 9\n\n"
            "[grid]\nn = 32\n\n[params]\nn_samples = 2\n")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    ladder = SCHEMA["enhance_convergence"]["params"]["eps_ladder"]
    assert calls["X slices"] == calls["X (.) xi"] == 2 * len(ladder)
    assert calls["resonant"] == calls["X (.) xi"]
    assert calls["duhamel_step"] == 2 * 2  # two steps per sample


def test_cross_resonant_rejects_equal_streams(grid16):
    spec = NoiseSpec(seed=4)
    a, b = enhance(spec, 0.1, grid16, TIMES3, [0, 1])
    with pytest.raises(ValueError):
        cross_resonant(a, dataclasses.replace(a, eps=0.2), *[Field.zero(
            grid16)] * 2)
    for xis, Xs in noise_slices([a, b], X=True):
        out = cross_resonant(a, b, xis[0], Xs[1])
        assert out.values.tobytes() == resonant(Xs[1], xis[0]).values.tobytes()


def test_mean_field_enhance_streams(grid16):
    spec = NoiseSpec(seed=9)
    mf = mean_field_enhance(3, spec, 0.1, grid16, TIMES3)
    assert len(mf) == 3
    first = next(noise_slices(mf))
    assert not np.array_equal(first[0].values, first[1].values)
    # the analytic constant is shared across streams for white noise
    assert mf[0].c_eps is mf[1].c_eps
    # master_seed reproducibility, overriding the NoiseSpec seed
    mf2 = mean_field_enhance(3, NoiseSpec(seed=77), 0.1, grid16, TIMES3,
                             master_seed=9)
    assert np.array_equal(first[2].values, next(noise_slices(mf2))[2].values)


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
@pytest.mark.parametrize("N", [16, 64])
def test_sampling_a_stack_of_streams_is_bitwise_per_stream(temporal, N):
    grid = make_grid(N)
    spec = NoiseSpec(seed=5, temporal=temporal, lam=2.0)
    ids = [3, 4, 500_000]
    stack = sample(spec, grid, TIMES3, stream_id=ids)
    assert len(stack) == len(ids)
    for s, path in zip(ids, stack):
        one = sample(spec, grid, TIMES3, stream_id=s)
        for a, b in zip(path.fields, one.fields):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.spectrum.tobytes() == b.spectrum.tobytes()
    # the first slice is the stream's own Philox draw, transformed alone
    w = np.random.Generator(np.random.Philox(
        key=np.array([5, 3], dtype=np.uint64))).standard_normal((N, N))
    want = Field.from_spectrum(grid, N * np.sqrt(spec.chat(grid))
                               * np.fft.rfft2(w))
    assert stack[0][0].values.tobytes() == want.values.tobytes()


def test_mean_field_enhance_is_bitwise_per_stream_enhancement(grid16):
    times = make_times(0.5, 0.125)
    for temporal in ("white", "exp_correlated"):
        spec = NoiseSpec(seed=6, temporal=temporal)
        mf = mean_field_enhance(4, spec, 0.1, grid16, times)
        paths = read_paths(mf)
        for i, (en, path) in enumerate(zip(mf, paths)):
            one = enhance(spec, 0.1, grid16, times, i)
            for a, b in zip(path.fields, read_paths([one])[0].fields):
                assert a.values.tobytes() == b.values.tobytes()
                assert a.spectrum.tobytes() == b.spectrum.tobytes()
            assert (en.c_eps(times).tobytes()
                    == one.c_eps(times).tobytes())
            assert en.eps == 0.1 and en.stream_id == i
        # a time-independent stream stays one Field repeated
        assert (paths[0][0] is paths[0][-1]) == (temporal == "white")


def test_stream_count_does_not_change_the_transform_count(grid16,
                                                           monkeypatch):
    calls = []
    for name in ("rfft2", "irfft2"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    counts = []
    for n in (1, 8):
        for temporal in ("white", "exp_correlated"):
            spec = NoiseSpec(seed=3, temporal=temporal)
            calls.clear()
            for _ in noise_slices(mean_field_enhance(n, spec, 0.1, grid16,
                                                     TIMES3)):
                pass
            counts.append((temporal, len(calls)))
    assert counts[:2] == counts[2:]
    # one rfft2 of the drawn planes and one mollifying irfft2 per fresh
    # slice: one for white noise, one per time for exp-correlated noise
    assert counts[:2] == [("white", 2), ("exp_correlated", 2 * len(TIMES3))]


RENORM_EXP = """\
[experiment]
name = renorm_constant
seed = 7

[grid]
n = 16
t = {t}

[noise]
kind = {kind}

[params]
t_eval = 0.5
mc_samples = 8
n_compare = 32
"""


@pytest.mark.parametrize("kind", ["white", "exp_correlated"])
def test_renorm_constant_oracle_is_checked_on_its_own_grid(tmp_path, kind):
    # the Monte Carlo oracle draws on tg = [0, t_eval/2, t_eval], and the
    # exp-correlated constant depends on the step: the reference is taken
    # on tg, not on the config's grid (dt = 0.025 here)
    cfg = parse_config(text=RENORM_EXP.format(t=1.0, kind=kind),
                       out=str(tmp_path / "out"))
    record = run_experiment(cfg)
    got = {m["name"]: m["value"] for m in record["metrics"]}
    spec = NoiseSpec(seed=7, temporal=kind)
    grid, mc_eps = make_grid(16), SCHEMA["renorm_constant"]["params"]["mc_eps"]
    tg = np.array([0.0, 0.25, 0.5])
    assert got["c_analytic_at_mc_eps"] == float(
        renorm_constant(spec, mc_eps, tg, grid)(0.5))
    on_config = float(renorm_constant(spec, mc_eps, make_times(1.0, 0.025),
                                      grid)(0.5))
    assert (got["c_analytic_at_mc_eps"] != on_config) == (kind != "white")


def test_renorm_constant_rejects_t_eval_past_the_grid(tmp_path):
    # the exp-correlated constant is known on the time grid only
    cfg = parse_config(text=RENORM_EXP.format(t=0.25, kind="exp_correlated"),
                       out=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="t_eval"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()
    white = RENORM_EXP.format(t=0.25, kind="white")
    assert run_experiment(parse_config(text=white, out=str(tmp_path / "w")))
