"""Heat semigroup, Duhamel recursion and exponential time stepping.

Everything acts mode by mode, so the linear heat part is exact up to
the grid cutoff: no stiffness restriction on the time step.  Each
operator maps one time slice to the next; a path is made by calling it
slice by slice.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .torus import Field, TorusGrid, make_grid

__all__ = ["semigroup", "duhamel_step", "etd_step", "etd_weights"]


def semigroup(f, t: float):
    """Heat semigroup P_t f, multiplier e^{-t|k|^2}.

    Maps a Field to a Field, or half spectra of shape (..., N, N//2 + 1),
    one field per leading index, to their half spectra, Nyquist modes
    zeroed.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if isinstance(f, Field):
        return Field.from_spectrum(f.grid, _semigroup_spectrum(f.spectrum, t))
    return _semigroup_spectrum(f, t)


def _semigroup_spectrum(spec: np.ndarray, t: float) -> np.ndarray:
    # the semigroup on half spectra: one body for a Field and a stack
    g = make_grid(spec.shape[-2])
    out = spec * np.exp(-t * g.k2)
    out[..., g.nyquist] = 0.0
    return out


@lru_cache(maxsize=None)
def etd_weights(grid: TorusGrid, dt: float):
    """Per-mode weights (E, I0, I1) of the exact exponential integrator,
    built once per grid size and step and read-only.

    For zdot = -|k|^2 z + (a + b*tau) on a step of length dt:
    z_next = E*z + I0*a + I1*b with E = e^{-q dt}, I0 = (1-E)/q and
    I1 = dt/q - (1-E)/q^2 (limits dt and dt^2/2 at q = 0).
    """
    q = grid.k2
    E = np.exp(-dt * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        I0 = np.where(q > 0, -np.expm1(-dt * q) / np.where(q > 0, q, 1.0), dt)
        I1 = np.where(q > 0, dt / np.where(q > 0, q, 1.0) - I0 / np.where(q > 0, q, 1.0),
                      0.5 * dt * dt)
    E.flags.writeable = I0.flags.writeable = I1.flags.writeable = False
    return E, I0, I1


def duhamel_step(z: np.ndarray, a: np.ndarray, b: np.ndarray,
                 dt: float) -> np.ndarray:
    """One step of the mild solution Z_t = int_0^t P_{t-s} zeta_s ds.

    ``z`` is the half spectrum of Z at t, ``a`` and ``b`` those of zeta
    at t and t + dt (stacks (..., N, N//2 + 1) alike).  zeta is taken
    linear in time over the step, which is exact per mode, so the scheme
    is second order in dt.  Returns the half spectrum of Z at t + dt.
    """
    E, I0, I1 = etd_weights(make_grid(z.shape[-2]), dt)
    return E * z + I0 * a + I1 * ((b - a) / dt)


def etd_step(u, nonlin, dt: float):
    """One exponential-Euler step of du/dt = Laplacian(u) + nonlin.

    Steps a Field with a Field forcing to a Field.  Given half spectra
    of shape (..., N, N//2 + 1) instead, one field per leading index, it
    steps the whole stack at once and returns its next half spectrum,
    Nyquist modes zeroed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(u, Field):
        return Field.from_spectrum(
            u.grid, _etd_spectrum(u.spectrum, nonlin.spectrum, dt))
    return _etd_spectrum(u, nonlin, dt)


def _etd_spectrum(u: np.ndarray, nonlin: np.ndarray, dt: float) -> np.ndarray:
    # the step on half spectra; kept apart from etd_step so that a Field
    # step is one etd_step call, as a stack step is
    g = make_grid(u.shape[-2])
    E, I0, _ = etd_weights(g, dt)
    spec = E * u + I0 * nonlin
    spec[..., g.nyquist] = 0.0
    return spec
