"""Heat semigroup and exponential integrator against closed forms."""

import numpy as np
import pytest

from parafield import (Field, PathField, StoredNoise, duhamel_step, etd_step,
                       make_times, noise_slices, semigroup)
from parafield.heat import etd_weights
from conftest import constant_path, random_field


def _duhamel(zeta):
    """Z at every time of the path zeta, by duhamel_step from Z_0 = 0."""
    z = np.zeros_like(zeta[0].spectrum)
    out = [z]
    for a, b in zip(zeta.fields, zeta.fields[1:]):
        z = duhamel_step(z, a.spectrum, b.spectrum,
                         float(zeta.times[1] - zeta.times[0]))
        out.append(z)
    return [Field.from_spectrum(zeta.grid, s) for s in out]


def test_semigroup_single_mode(grid32):
    X, Y = grid32.coords()
    f = Field.from_values(grid32, np.cos(2 * X + Y))  # |k|^2 = 5
    for t in (0.0, 0.01, 0.3):
        g = semigroup(f, t)
        assert np.allclose(g.values, np.exp(-5.0 * t) * f.values, atol=1e-13)
    with pytest.raises(ValueError):
        semigroup(f, -0.1)


def test_semigroup_of_a_stack_matches_each_field(grid32, rng):
    fs = [random_field(grid32, rng) for _ in range(3)]
    got = semigroup(np.stack([f.spectrum for f in fs]), 0.2)
    for g, f in zip(got, fs):
        assert g.tobytes() == semigroup(f, 0.2).spectrum.tobytes()


def test_semigroup_composition(grid32, rng):
    f = random_field(grid32, rng)
    a = semigroup(semigroup(f, 0.07), 0.05)
    b = semigroup(f, 0.12)
    assert (a - b).linf() < 1e-12 * max(1.0, f.linf())


def test_etd_weights_zero_mode_limits(grid16):
    dt = 0.37
    E, I0, I1 = etd_weights(grid16, dt)
    assert E[0, 0] == pytest.approx(1.0)
    assert I0[0, 0] == pytest.approx(dt)
    assert I1[0, 0] == pytest.approx(0.5 * dt * dt)
    # generic mode: closed forms
    q = grid16.k2[3, 1]
    assert E[3, 1] == pytest.approx(np.exp(-dt * q), rel=1e-12)
    assert I0[3, 1] == pytest.approx((1 - np.exp(-dt * q)) / q, rel=1e-10)
    assert I1[3, 1] == pytest.approx(dt / q - (1 - np.exp(-dt * q)) / q ** 2,
                                     rel=1e-8)


def test_etd_weights_are_shared_and_read_only(grid16):
    # one cached table per (grid, dt), shared by every caller: a write
    # would change every later step
    weights = etd_weights(grid16, 0.05)
    assert etd_weights(grid16, 0.05) is weights
    for a in weights:
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_etd_step_formula(grid16, rng):
    u = random_field(grid16, rng)
    n = random_field(grid16, rng)
    dt = 0.05
    E, I0, _ = etd_weights(grid16, dt)
    want = np.fft.irfft2(E * u.spectrum + I0 * n.spectrum, s=(16, 16))
    got = etd_step(u, n, dt)
    assert np.max(np.abs(got.values - want)) < 1e-12
    with pytest.raises(ValueError):
        etd_step(u, n, 0.0)
    # a stack of half spectra steps as one, each row as its own Field
    us = [u, n, random_field(grid16, rng)]
    forcing = [n, random_field(grid16, rng), u]
    spec = etd_step(np.stack([f.spectrum for f in us]),
                    np.stack([f.spectrum for f in forcing]), dt)
    for i in range(3):
        one = etd_step(us[i], forcing[i], dt)
        assert spec[i].tobytes() == one.spectrum.tobytes()


def test_duhamel_closed_form_linear_forcing(grid32):
    # forcing (1 + 2s) cos(x + y), |k|^2 = 2: the integrator is exact
    # for inputs linear in time, so the closed form holds to rounding
    X, Y = grid32.coords()
    base = np.cos(X + Y)
    times = make_times(0.5, 0.03125)
    zeta = PathField(times, [Field.from_values(grid32, (1 + 2 * s) * base)
                             for s in times])
    Z = _duhamel(zeta)
    q = 2.0
    for i, t in enumerate(times):
        E = np.exp(-q * t)
        amp = (1 - E) / q + 2.0 * (t / q - (1 - E) / q ** 2)
        assert np.max(np.abs(Z[i].values - amp * base)) < 1e-12
    # the noise stream's X of a stored forcing is this recursion, bitwise
    for i, (_, [Xi]) in enumerate(noise_slices([StoredNoise(zeta)], X=True)):
        assert Xi.values.tobytes() == Z[i].values.tobytes()


def test_duhamel_zero_mode_integrates(grid16):
    # constant-in-space forcing accumulates linearly (no decay at k = 0)
    times = make_times(1.0, 0.25)
    one = Field(grid16, np.ones((16, 16)))
    Z = _duhamel(constant_path(times, one))
    for i, t in enumerate(times):
        assert Z[i].mean() == pytest.approx(t, abs=1e-12)


def test_duhamel_single_slice(grid16):
    # on a one-point time grid X is the zero field
    zeta = PathField(np.array([0.0]), [Field.zero(grid16)])
    [(_, [X])] = list(noise_slices([StoredNoise(zeta)], X=True))
    assert X.linf() == 0.0
