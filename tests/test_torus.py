"""Grid, field and serialization contracts.

The dealiasing oracle is independent of the implementation: products
are recomputed exactly on a zero-padded grid of twice the size and
compared mode by mode on the retained band.
"""

import numpy as np
import pytest

from parafield import (Field, PathField, dealiased, make_grid, make_times,
                       pointwise_product, read_pfld, write_pfld)
from parafield.torus import from_spectra, spectra
from conftest import random_field


def test_make_grid_validates_size():
    with pytest.raises(ValueError):
        make_grid(7)
    with pytest.raises(ValueError):
        make_grid(48)
    g = make_grid(8)
    assert g.N == 8 and g.spacing == pytest.approx(2 * np.pi / 8)


def _full_nyquist(N):
    # Nyquist modes of the full fft2 grid: wavenumber -N/2 on either axis
    k = np.fft.fftfreq(N, d=1.0 / N)
    return (k[:, None] == -N // 2) | (k[None, :] == -N // 2)


def test_wavenumber_layout(grid16):
    # axis 0 follows the fft layout (index k holds wavenumber k mod N),
    # axis 1 the rfft layout (ky = 0 .. N/2)
    N = grid16.N
    assert grid16.kx[1, 0] == 1
    assert grid16.kx[N - 1, 0] == -1
    assert grid16.ky[0, N // 2] == N // 2
    assert grid16.k2[2, 3] == 13
    assert grid16.nyquist[N // 2, 0] and grid16.nyquist[0, N // 2]
    assert grid16.nyquist.sum() == N + N // 2
    assert grid16.dealias[5, 5] and not grid16.dealias[6, 0]


@pytest.mark.parametrize("N", [8, 16, 64])
def test_spectra_are_half_spectra(N, rng):
    g = make_grid(N)
    for a in (g.kx, g.ky, g.k2, g.nyquist, g.dealias):
        assert a.shape == (N, N // 2 + 1)
    assert random_field(g, rng).spectrum.shape == (N, N // 2 + 1)
    with pytest.raises(ValueError):
        Field.from_spectrum(g, np.zeros((N, N), dtype=complex))


def test_spectrum_is_half_of_fft2(grid16, rng):
    v = rng.standard_normal((16, 16))
    want = np.fft.fft2(v)
    want[_full_nyquist(16)] = 0.0
    got = Field.from_values(grid16, v).spectrum
    assert np.allclose(got, want[:, :16 // 2 + 1], rtol=0, atol=1e-12)
    assert np.all(got[grid16.nyquist] == 0)


def test_field_roundtrip_and_nyquist(grid16, rng):
    v = rng.standard_normal((16, 16))
    f = Field.from_values(grid16, v)
    # Nyquist is projected out, everything else kept
    spec = np.fft.fft2(v)
    spec[_full_nyquist(16)] = 0.0
    assert np.allclose(f.values, np.fft.ifft2(spec).real, atol=1e-12)
    assert np.all(f.spectrum[grid16.nyquist] == 0)


def test_spectrum_convention_single_mode(grid16):
    # cos(2x) has coefficient 1/2 at modes (+-2, 0): spectrum = N^2/2 there
    X, _ = grid16.coords()
    f = Field.from_values(grid16, np.cos(2 * X))
    s = f.spectrum
    N = grid16.N
    assert s[2, 0] == pytest.approx(N ** 2 / 2, rel=1e-12)
    assert s[N - 2, 0] == pytest.approx(N ** 2 / 2, rel=1e-12)
    off = np.abs(s).sum() - np.abs(s[2, 0]) - np.abs(s[N - 2, 0])
    assert off < 1e-8 * N ** 2


def test_parseval(grid16, rng):
    f = random_field(grid16, rng)
    lhs = np.sum(f.values ** 2)
    # each ky > 0 column stands for the modes k and -k
    twice = np.where(grid16.ky > 0, 2.0, 1.0)
    rhs = np.sum(twice * np.abs(f.spectrum) ** 2) / grid16.N ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert f.l2() == pytest.approx(np.sqrt(lhs) * grid16.spacing, rel=1e-12)


def test_field_arithmetic(grid16, rng):
    a = random_field(grid16, rng)
    b = random_field(grid16, rng)
    assert np.allclose((a + b).values, a.values + b.values)
    assert np.allclose((a - b).values, a.values - b.values)
    assert np.allclose((2.5 * a).values, 2.5 * a.values)
    assert np.allclose((-a).values, -a.values)
    assert a.shift(1.0).mean() == pytest.approx(a.mean() + 1.0)
    with pytest.raises(TypeError):
        a * b  # field products go through pointwise_product


def test_grid_mismatch_raises(grid16, rng):
    a = random_field(grid16, rng)
    b = random_field(make_grid(32), rng)
    with pytest.raises(ValueError):
        a + b


def _exact_product_coefficients(a, b):
    """Alias-free product coefficients via a zero-padded double grid."""
    N = a.grid.N
    k = np.fft.fftfreq(N, d=1.0 / N).astype(int) % (2 * N)
    out = []
    for f in (a, b):
        spec_big = np.zeros((2 * N, 2 * N), dtype=complex)
        spec_big[k[:, None], k[None, :]] = np.fft.fft2(f.values) * 4
        out.append(np.fft.ifft2(spec_big).real)
    return np.fft.fft2(out[0] * out[1]) / (2 * N) ** 2


def test_dealiased_product_matches_padded_oracle(grid32, rng):
    a = random_field(grid32, rng, dealiased=True)
    b = random_field(grid32, rng, dealiased=True)
    p = pointwise_product(a, b)
    exact = _exact_product_coefficients(a, b)
    N = grid32.N
    got = p.spectrum / N ** 2
    keep = grid32.dealias  # band guaranteed alias-free by the 2/3 rule
    want = exact[grid32.kx % (2 * N), grid32.ky % (2 * N)]
    err = np.max(np.abs((got - want)[keep]))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_pointwise_product_no_dealias_is_grid_product(grid16, rng):
    a = random_field(grid16, rng)
    b = random_field(grid16, rng)
    p = pointwise_product(a, b, dealias=False)
    assert np.allclose(p.values, a.values * b.values, atol=1e-14)


def test_products_of_a_stack_match_each_field(grid16, rng):
    # Fields built from values, whose spectra are rfft2 of the values as
    # a stack's are; a Field built from a spectrum keeps that spectrum
    a = [Field(grid16, random_field(grid16, rng).values) for _ in range(3)]
    b = [Field(grid16, random_field(grid16, rng).values) for _ in range(3)]
    A = np.stack([f.values for f in a])
    B = np.stack([f.values for f in b])
    for dealias in (True, False):
        got = pointwise_product(A, B, dealias=dealias)
        for i in range(3):
            one = pointwise_product(a[i], b[i], dealias=dealias)
            assert got[i].tobytes() == one.values.tobytes()
    # a list of Fields is truncated through each Field's own spectrum
    rows = dealiased(a)
    for i in range(3):
        assert rows[i].tobytes() == dealiased(a[i]).tobytes()


def test_field_keeps_its_array_read_only(grid16):
    v = np.ones((16, 16))
    f = Field(grid16, v)
    assert f.values is v and not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 2.0
    # a strided view is copied to a contiguous array
    w = np.arange(256.0).reshape(16, 16).T
    assert Field(grid16, w).values.flags.c_contiguous


def test_make_times():
    t = make_times(1.0, 0.25)
    assert np.allclose(t, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        make_times(1.0, 0.3)
    # a negative T with a step of its own sign would run backwards
    for T, dt in ((-0.5, -0.5), (0.0, 0.0), (0.5, -0.25)):
        with pytest.raises(ValueError, match="positive"):
            make_times(T, dt)


def test_pathfield_contracts(grid16, rng):
    times = make_times(0.5, 0.25)
    fs = [random_field(grid16, rng) for _ in times]
    p = PathField(times, fs)
    assert len(p) == 3 and np.array_equal(p.times, times)
    assert p[1] is fs[1] and p.grid == grid16
    with pytest.raises(ValueError):
        PathField(np.array([0.0, 0.1, 0.3]), fs)  # nonuniform step
    with pytest.raises(ValueError):
        PathField(times, fs[:2])


def test_pfld_roundtrip(tmp_path, grid16, rng):
    f = random_field(grid16, rng)
    path = tmp_path / "one.pfld"
    write_pfld(path, f)
    N, slices = read_pfld(path)
    assert N == 16 and len(slices) == 1
    assert np.array_equal(slices[0], f.values)

    p = PathField(make_times(0.2, 0.1), [random_field(grid16, rng)
                                         for _ in range(3)])
    path2 = tmp_path / "path.pfld"
    write_pfld(path2, p)
    N2, slices2 = read_pfld(path2)
    assert N2 == 16 and len(slices2) == 3
    for s, f in zip(slices2, p.fields):
        assert np.array_equal(s, f.values)


def test_pfld_rejects_bad_magic(tmp_path, grid16, rng):
    bad = tmp_path / "bad.pfld"
    bad.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_pfld(bad)
    # a header cut short, a slice cut short and bytes after the M slices
    good = tmp_path / "good.pfld"
    write_pfld(good, PathField(make_times(0.1, 0.1),
                               [random_field(grid16, rng) for _ in range(2)]))
    data = good.read_bytes()
    for cut, match in ((data[:10], "cut short"), (data[:-8], "bytes"),
                       (data + b"\0", "bytes")):
        bad.write_bytes(cut)
        with pytest.raises(ValueError, match=match):
            read_pfld(bad)


def test_pathfield_checks_every_time_grid(grid16):
    # the times are held as a read-only copy, and a bad grid raises, also
    # when an array already used is changed in place
    times = make_times(0.5, 0.125)
    p = PathField(times, [Field.zero(grid16)] * len(times))
    assert not p.times.flags.writeable and p.times is not times
    assert np.array_equal(p.times, times)
    with pytest.raises(ValueError, match="constant step"):
        PathField(np.array([0.0, 0.1, 0.3, 0.4, 0.5]), p.fields)
    times[2] = 0.3
    with pytest.raises(ValueError, match="constant step"):
        PathField(times, p.fields)


def test_stacked_spectra_match_each_field(grid16, rng):
    fs = [Field(grid16, rng.standard_normal((16, 16))) for _ in range(3)]
    want = [Field(grid16, f.values.copy()).spectrum for f in fs]
    cached = fs[1].spectrum
    got = spectra([fs[0], fs[1], fs[2], fs[0]])
    assert got.shape == (4, 16, 9)
    for g, w in zip(got, want + want[:1]):
        assert g.tobytes() == w.tobytes()
    assert fs[1].spectrum is cached
    assert fs[0].spectrum.tobytes() == want[0].tobytes()


def test_fields_from_stacked_spectra_match_each_field(grid16, rng):
    S = np.fft.rfft2(rng.standard_normal((3, 16, 16)))
    want = [Field.from_spectrum(grid16, s) for s in S]
    V, fs = from_spectra(grid16, S)
    assert V.shape == (3, 16, 16) and not V.flags.writeable
    for i, (f, w) in enumerate(zip(fs, want)):
        assert f.values.tobytes() == w.values.tobytes() == V[i].tobytes()
        assert f.spectrum.tobytes() == w.spectrum.tobytes()
        assert not f.spectrum.flags.writeable
    assert spectra(fs).tobytes() == S.tobytes()
