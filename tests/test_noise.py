"""Noise sampler statistics, mollification and renormalization oracles.

Monte Carlo checks use explicit standard-error bounds so they are
deterministic given the fixed seeds.
"""

import numpy as np
import pytest

import parafield.noise
from parafield import (Field, NoiseSpec, cross_resonant, duhamel, enhance,
                       make_grid, make_times, mean_field_enhance, mollify,
                       power_law_multiplier, renorm_constant, sample_noise)
from parafield.bony import resonant
from parafield.littlewood_paley import dyadic_blocks
from parafield.experiments import SCHEMA, parse_config, run_experiment


TIMES3 = np.array([0.0, 0.25, 0.5])


def test_sampler_deterministic(grid16):
    spec = NoiseSpec(seed=7)
    a = sample_noise(spec, grid16, TIMES3, stream_id=3)
    b = sample_noise(spec, grid16, TIMES3, stream_id=3)
    assert np.array_equal(a[0].values, b[0].values)
    c = sample_noise(spec, grid16, TIMES3, stream_id=4)
    assert not np.array_equal(a[0].values, c[0].values)
    d = sample_noise(NoiseSpec(seed=8), grid16, TIMES3, stream_id=3)
    assert not np.array_equal(a[0].values, d[0].values)


def test_white_in_time_reuses_one_draw(grid16):
    xi = sample_noise(NoiseSpec(seed=1), grid16, TIMES3)
    assert np.array_equal(xi[0].values, xi[2].values)


def test_coefficient_covariance_normalization(grid16):
    # E|coef(k)|^2 = Chat(k) = 1 for spatial white noise
    spec = NoiseSpec(seed=11)
    M = 400
    acc = np.zeros(grid16.k2.shape)
    for s in range(M):
        xi = sample_noise(spec, grid16, np.array([0.0]), stream_id=s)
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
        xi = sample_noise(spec, grid16, times, stream_id=s)
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
    xi = sample_noise(NoiseSpec(seed=2), grid16, TIMES3)
    a = mollify(xi, 0.1)
    m = np.exp(-0.1 * grid16.k2)
    assert np.allclose(a[0].spectrum, xi[0].spectrum * m, atol=1e-9)
    b = mollify(a, 0.05)
    assert b.meta["eps"] == pytest.approx(0.15)
    assert mollify(xi, 0.0) is xi
    with pytest.raises(ValueError):
        mollify(xi, -0.1)


def test_mollify_transforms_each_distinct_slice_once(grid16):
    m = np.exp(-0.1 * grid16.k2)
    for temporal in ("white", "exp_correlated"):
        raw = sample_noise(NoiseSpec(seed=2, temporal=temporal), grid16, TIMES3)
        out = mollify(raw, 0.1)
        for f, r in zip(out.fields, raw.fields):
            want = Field.from_spectrum(grid16, r.spectrum * m)
            assert np.array_equal(f.values, want.values)
            assert np.array_equal(f.spectrum, want.spectrum)
        # white noise is one Field repeated, and stays one Field repeated
        assert (out[0] is out[-1]) == (temporal == "white")


def test_renorm_constant_white_against_monte_carlo(grid16):
    spec = NoiseSpec(seed=21)
    eps, t_eval = 0.1, 0.5
    c = float(renorm_constant(spec, eps, TIMES3, grid16)(t_eval))
    M = 300
    vals = np.empty(M)
    for s in range(M):
        xi = mollify(sample_noise(spec, grid16, TIMES3, stream_id=s), eps)
        X = duhamel(xi)
        vals[s] = resonant(X[-1], xi[-1]).mean()
    se = vals.std(ddof=1) / np.sqrt(M)
    assert abs(vals.mean() - c) <= 4.0 * se


def test_renorm_constant_exp_correlated_against_monte_carlo(grid16):
    spec = NoiseSpec(seed=22, temporal="exp_correlated", lam=1.0)
    times = make_times(0.5, 0.0625)
    eps = 0.1
    c = float(renorm_constant(spec, eps, times, grid16)(times[-1]))
    M = 300
    vals = np.empty(M)
    for s in range(M):
        xi = mollify(sample_noise(spec, grid16, times, stream_id=s), eps)
        X = duhamel(xi)
        vals[s] = resonant(X[-1], xi[-1]).mean()
    se = vals.std(ddof=1) / np.sqrt(M)
    assert abs(vals.mean() - c) <= 4.0 * se
    # on a one-point time grid X = 0, so the constant is 0
    for t in (0.0, 0.25):
        one = np.array([t])
        assert renorm_constant(spec, eps, one, grid16)(one) == 0.0


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
    for s in range(M):
        raw = sample_noise(spec, grid16, TIMES3, stream_id=s)
        en = enhance(raw, 0.1)
        c = float(en.c_eps(TIMES3)[-1])
        means[s] = resonant(en.X[-1], en.xi[-1]).shift(-c).mean()
    se = means.std(ddof=1) / np.sqrt(M)
    assert abs(means.mean()) <= 4.0 * se
    assert en.xi.meta["eps"] == 0.1 and en.xi.meta["stream_id"] == M - 1


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
def test_enhance_builds_X_and_xi2_on_first_read(grid16, temporal):
    spec = NoiseSpec(seed=13, temporal=temporal, lam=2.0)
    times = make_times(0.5, 0.125)
    raw = sample_noise(spec, grid16, times, stream_id=2)
    en = enhance(raw, 0.1)
    assert set(vars(en)) == {"xi", "c_eps"}
    # oracle: the eager construction, slice by slice; a reader forms
    # xi2 = X (.) xi - c_eps on the slice it reads
    xi = mollify(raw, 0.1)
    X = duhamel(xi)
    cs = np.atleast_1d(en.c_eps(times))
    for i in range(times.size):
        xi2 = resonant(X[i], xi[i]).shift(-float(cs[i]))
        assert np.array_equal(en.xi[i].values, xi[i].values)
        assert np.array_equal(en.X[i].values, X[i].values)
        got = resonant(en.X[i], en.xi[i]).shift(-float(cs[i]))
        assert np.array_equal(got.values, xi2.values)
    assert en.X is en.X  # cached after the first read
    assert set(vars(en)) == {"xi", "c_eps", "X"}


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
    """Run ``text``; count the references X built, the resonant products
    formed in any module and, among them, the products X[n] (.) xi[n]."""
    calls = {"duhamel": 0, "resonant": 0, "X (.) xi": 0}
    Xs = []
    inner_duhamel, inner_resonant = parafield.noise.duhamel, resonant

    def counting_duhamel(*args, **kwargs):
        calls["duhamel"] += 1
        Xs.append(inner_duhamel(*args, **kwargs))
        return Xs[-1]

    def counting_resonant(a, b):
        calls["resonant"] += 1
        calls["X (.) xi"] += any(a is f for X in Xs for f in X.fields)
        return inner_resonant(a, b)

    monkeypatch.setattr(parafield.noise, "duhamel", counting_duhamel)
    for module in (parafield.bony, parafield.noise, parafield.paracontrolled,
                   parafield.experiments):
        monkeypatch.setattr(module, "resonant", counting_resonant)
    run_experiment(parse_config(text=text, out=str(tmp_path / "out")))
    return calls


@pytest.mark.parametrize("experiment", sorted(SINGULAR_SOLVES))
def test_direct_scheme_builds_no_X_or_xi2(monkeypatch, tmp_path, experiment):
    text = SINGULAR_SOLVES[experiment].format(scheme="direct_renormalized")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    assert calls == {"duhamel": 0, "resonant": 0, "X (.) xi": 0}


def test_paracontrolled_scheme_builds_X_and_xi2_once(monkeypatch, tmp_path):
    # the counters do see the reads: X is built once, and each step forms
    # X (.) xi once, on its own slice (none for the final slice)
    text = SINGULAR_SOLVES["solve"].format(scheme="paracontrolled")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    rows = (tmp_path / "out" / "solution_norms.csv").read_text().splitlines()
    steps = len(rows) - 2  # a header and one row per slice
    assert steps > 0
    assert calls["duhamel"] == 1 and calls["X (.) xi"] == steps


def test_enhance_convergence_forms_one_product_per_sample_and_eps(
        monkeypatch, tmp_path):
    # only the final slice of X (.) xi - c_eps is read, so only it is formed
    text = ("[experiment]\nname = enhance_convergence\nseed = 9\n\n"
            "[grid]\nn = 32\n\n[params]\nn_samples = 2\n")
    calls = _count_enhancement_calls(monkeypatch, tmp_path, text)
    ladder = SCHEMA["enhance_convergence"]["params"]["eps_ladder"]
    assert calls["duhamel"] == calls["X (.) xi"] == 2 * len(ladder)
    assert calls["resonant"] == calls["X (.) xi"]


def test_cross_resonant_rejects_equal_streams(grid16):
    spec = NoiseSpec(seed=4)
    a = sample_noise(spec, grid16, TIMES3, stream_id=0)
    b = sample_noise(spec, grid16, TIMES3, stream_id=0)
    with pytest.raises(ValueError):
        cross_resonant(a, duhamel(b))
    c = sample_noise(spec, grid16, TIMES3, stream_id=1)
    X = duhamel(c)
    out = cross_resonant(a, X)
    assert len(out) == 3
    for i in range(3):
        assert out[i].values.tobytes() == resonant(X[i], a[i]).values.tobytes()
    # the two paths must share their times
    with pytest.raises(ValueError, match="mismatched time grids"):
        cross_resonant(a, duhamel(sample_noise(spec, grid16, TIMES3 * 2,
                                               stream_id=1)))


def test_mean_field_enhance_streams(grid16):
    spec = NoiseSpec(seed=9)
    mf = mean_field_enhance(3, spec, 0.1, grid16, TIMES3)
    assert len(mf) == 3
    assert not np.array_equal(mf[0].xi[0].values, mf[1].xi[0].values)
    # the analytic constant is shared across streams for white noise
    assert mf[0].c_eps is mf[1].c_eps
    # master_seed reproducibility, overriding the NoiseSpec seed
    mf2 = mean_field_enhance(3, NoiseSpec(seed=77), 0.1, grid16, TIMES3,
                             master_seed=9)
    assert np.array_equal(mf[2].xi[0].values, mf2[2].xi[0].values)


@pytest.mark.parametrize("temporal", ["white", "exp_correlated"])
@pytest.mark.parametrize("N", [16, 64])
def test_sampling_a_stack_of_streams_is_bitwise_per_stream(temporal, N):
    grid = make_grid(N)
    spec = NoiseSpec(seed=5, temporal=temporal, lam=2.0)
    ids = [3, 4, 500_000]
    stack = sample_noise(spec, grid, TIMES3, stream_id=ids)
    assert len(stack) == len(ids)
    for s, path in zip(ids, stack):
        one = sample_noise(spec, grid, TIMES3, stream_id=s)
        assert path.meta["stream_id"] == s
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
        for i, en in enumerate(mf):
            one = enhance(sample_noise(spec, grid16, times, stream_id=i), 0.1)
            for a, b in zip(en.xi.fields, one.xi.fields):
                assert a.values.tobytes() == b.values.tobytes()
                assert a.spectrum.tobytes() == b.spectrum.tobytes()
            assert (en.c_eps(times).tobytes()
                    == one.c_eps(times).tobytes())
            assert en.xi.meta["eps"] == 0.1 and en.xi.meta["stream_id"] == i
        # a time-independent path stays one Field repeated
        assert (mf[0].xi[0] is mf[0].xi[-1]) == (temporal == "white")


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
            sample_noise(spec, grid16, TIMES3, stream_id=range(n))
            mean_field_enhance(n, spec, 0.1, grid16, TIMES3)
            counts.append((temporal, len(calls)))
    assert counts[:2] == counts[2:]
    # two samplings of an rfft2 and an irfft2 each, one mollifying irfft2
    assert counts[0][1] == 5
