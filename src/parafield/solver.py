"""Time integrators for the frozen-measure, particle and mean-field
equations, renormalized or (f_spec=None) additive.

All schemes are exponential-Euler in mild form: the heat part is exact
per Fourier mode and the nonlinearity enters through the phi_1 weight.
Every solve yields its time slices and keeps none.  It reads its
frozen measure, any iterable whose item n is slice n's list of atoms,
and its noise (``noise_slices``) slice by slice.  The direct schemes
share one loop, ``_step_fields``, which steps its fields as one
(n, N, N) stack against a frozen measure or their own running measure.
An explosion guard checks the sup norm at every step and raises
ExplosionError with the earliest crossing time over the fields stepped
together (and, within one step, the lowest-index field).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .bony import para
from .heat import etd_step, semigroup
from .interactions import EmpiricalMeasure, InteractionSpec, eval_f, eval_g, \
    eval_partial
from .noise import EnhancedNoise, StoredNoise, noise_slices
from .paracontrolled import Paracontrolled, paralinearize_slice, \
    pc_product_slice
from .torus import Field, PathField, dealiased, from_spectra, \
    pointwise_product, spectra

__all__ = [
    "SolveConfig",
    "ExplosionError",
    "PicardError",
    "FixedPointError",
    "solve_renormalized",
    "solve_paracontrolled",
    "solve_particle_system",
    "solve_mean_field",
    "default_dt",
]


class ExplosionError(RuntimeError):
    """Raised when the sup norm crosses the guard level R."""

    def __init__(self, time: float, linf: float, R: float):
        super().__init__(f"|u|_inf = {linf:.3g} >= R = {R:.3g} at t = {time:.6g}")
        self.time = time
        self.linf = linf


class PicardError(RuntimeError):
    """Raised when the Picard-on-law iteration fails to converge."""

    def __init__(self, residuals):
        super().__init__(
            "Picard iteration did not reach tolerance; residuals: "
            + ", ".join(f"{r:.3e}" for r in residuals))
        self.residuals = list(residuals)


class FixedPointError(RuntimeError):
    """Raised when u = (f(u, mu) < X) + sharp is not solved within the cap."""

    def __init__(self, time: float, defect: float):
        super().__init__(f"fixed point not reached at t = {time:.6g}; "
                         f"final defect {defect:.3e}")
        self.time = time
        self.defect = defect


# iteration cap of the fixed point that pins the Gubinelli derivative
FIXED_POINT_MAX_ITERS = 100


@dataclass
class SolveConfig:
    picard_tol: float = 1e-4
    picard_max_iters: int = 40
    max_linf: float | None = None  # None: 10 * (1 + |u0|_inf)

    def guard(self, u0_linf: float) -> float:
        if self.max_linf is not None:
            return self.max_linf
        return 10.0 * (1.0 + u0_linf)


def default_dt(eps: float, N: int) -> float:
    """Default step resolving both the mollifier scale and the grid."""
    return min(eps / 4.0, 1.0 / N)


def _check_guard(values: np.ndarray, R: float, t: float):
    """Raise ExplosionError for the lowest-index field of ``values``
    (one field (N, N) or a stack (n, N, N)) whose sup norm reaches R."""
    m = np.max(np.abs(values), axis=(-2, -1)).reshape(-1)
    bad = (m >= R) | ~np.isfinite(m)
    if bad.any():
        raise ExplosionError(t, float(m[np.argmax(bad)]), R)


def _dealiased_noise(xs: list, kept: dict):
    """The dealiased values of the noise slices ``xs``, stacked, and the
    slice -> values map to pass at the next step.

    Each distinct slice is transformed once; a slice in ``kept`` (met at
    the last step, as a time-constant noise is) is not transformed again.
    """
    new = [x for x in dict.fromkeys(xs) if x not in kept]
    if new:
        kept = {**kept, **dict(zip(new, dealiased(new)))}
    kept = {x: kept[x] for x in xs}
    return np.stack([kept[x] for x in xs]), kept


def _forcing(f_spec, g_spec, U, mu, xs, xid, c):
    """Half spectrum of the forcing f(u, mu) xi - c (f d1f)(u, mu)
    + g(u, mu) of one step, for every field u of the stack U.

    ``xs`` holds each field's noise slice, ``xid`` their dealiased values
    and ``c`` the counterterms, shape (n, 1, 1).  Without f the forcing
    is xi + g(u, mu) (the additive equation).
    """
    if f_spec is None:
        if g_spec is None:
            return np.stack([x.spectrum for x in xs])
        rhs = eval_g(g_spec, U, mu)  # a fresh array: add the noise in place
        for r, x in zip(rhs, xs):
            r += x.values
    else:
        fval = eval_f(f_spec, U, mu)
        rhs = pointwise_product(dealiased(fval), xid, dealias=False)
        live = c != 0.0
        if live.any():
            ct = c * pointwise_product(fval, eval_partial(f_spec, 1, U, mu),
                                       dealias=False)
            rhs = np.where(live, rhs - ct, rhs)
        if g_spec is not None:
            rhs = rhs + eval_g(g_spec, U, mu)
    spec = np.fft.rfft2(rhs)
    spec[..., mu.grid.nyquist] = 0.0
    return spec


def _frozen_slices(frozen: Iterable) -> Iterator[list]:
    """``frozen`` slice by slice, then a ValueError, not a StopIteration."""
    yield from frozen
    raise ValueError("the frozen measure has fewer slices than the solve "
                     "reads")


def _check_aligned(enhanced: list, u0s: list):
    if not enhanced or len(u0s) != len(enhanced):
        raise ValueError("need aligned, nonempty noise/initial lists")


def _step_fields(u0s: list, enhanced: list, f_spec: InteractionSpec | None,
                 g_spec: InteractionSpec | None, frozen: Iterable | None,
                 cfg: SolveConfig) -> Iterator[list]:
    """Exponential-Euler steps of every field, all fields together.

    u^i_{n+1} = E u^i_n + I0 (f(u^i_n, mu_n) xi^i_n - c^i_n (f d1f)(u^i_n,
    mu_n) + g(u^i_n, mu_n)), with (xi^i, c^i) the enhanced noise of field
    i, or with forcing xi^i_n + g when f_spec is None (then c^i is not
    read).  mu_n is item n of ``frozen``, or the fields' own running
    measure when ``frozen`` is None.  The fields are one (n, N, N) value
    stack with its half spectrum, stepped by one ``etd_step``.  Yields
    ``u0s``, then at every step one Field per row of the read-only stack.
    """
    times = enhanced[0].times
    dt = float(times[1] - times[0])
    grid = u0s[0].grid
    R = cfg.guard(max(u.linf() for u in u0s))
    c = None if f_spec is None else np.stack(
        [np.atleast_1d(en.c_eps(times)) for en in enhanced])[:, :, None, None]
    slices = None if frozen is None else _frozen_slices(frozen)
    rows = list(u0s)
    U = np.stack([u.values for u in u0s])
    S = spectra(u0s)
    U.flags.writeable = S.flags.writeable = False
    yield rows
    mu, xid, kept = None, None, {}
    # the final noise slice drives no step, so it is not drawn
    for n, xs in zip(range(times.size - 1), noise_slices(enhanced)):
        if slices is None:
            mu = EmpiricalMeasure(rows, stack=U)
        else:
            atoms = next(slices)
            if mu is None or any(a is not b for a, b in zip(atoms, mu.atoms)):
                mu = EmpiricalMeasure(atoms)
        if f_spec is not None:
            xid, kept = _dealiased_noise(xs, kept)
        S = etd_step(S, _forcing(f_spec, g_spec, U, mu, xs, xid,
                                 None if c is None else c[:, n]), dt)
        U, rows = from_spectra(grid, S)
        _check_guard(U, R, float(times[n + 1]))
        yield rows


def solve_renormalized(enhanced: list, frozen: Iterable,
                       f_spec: InteractionSpec | None,
                       g_spec: InteractionSpec | None, u0s: list,
                       cfg: SolveConfig) -> Iterator[list]:
    """Frozen-measure renormalized equation for n fields, direct scheme.

    du^i = Lap u^i + f(u^i, v_t) xi^i - c^i(t) (f d1f)(u^i, v_t)
    + g(u^i, v_t), with (xi^i, c^i) the enhanced noise of field i and
    v_t the empirical measure of item n of ``frozen`` at t = t_n
    (du^i = Lap u^i + xi^i + g(u^i, v_t) when f_spec is None).  Returns
    an iterator whose item n is the fields at t_n, each bitwise its
    solve alone; bad lists raise here, not at the first slice.
    """
    _check_aligned(enhanced, u0s)
    return _step_fields(u0s, enhanced, f_spec, g_spec, frozen, cfg)


def solve_paracontrolled(en: EnhancedNoise, frozen: Iterable,
                         f_spec: InteractionSpec,
                         g_spec: InteractionSpec | None, u0: Field,
                         cfg: SolveConfig) -> Iterator[Field]:
    """Frozen-measure equation via the remainder formulation.

    ``frozen`` is read as by ``solve_renormalized``, with its atoms of
    zero Gubinelli derivative, so f(u, v) has no measure-derivative
    terms.  Steps sharp with (d_t - Lap) sharp = Phi_sharp where
    Phi_sharp is the paracontrolled product of f(u, v) with the enhanced
    noise plus g minus f(u, v) < xi; the Gubinelli
    derivative dz is pinned to f(u, v) at every slice.  Yields
    u = (dz < X) + sharp at every slice.
    """
    times = en.times
    dt = float(times[1] - times[0])
    R = cfg.guard(u0.linf())

    def fix_dz(sharp_f: Field, X_f: Field, mu: EmpiricalMeasure, u_guess: Field,
               t: float):
        # solve u = (f(u, mu) < X) + sharp to high accuracy
        u = u_guess
        for _ in range(FIXED_POINT_MAX_ITERS):
            u_new = para(eval_f(f_spec, u, mu), X_f) + sharp_f
            defect = float(np.max(np.abs(u_new.values - u.values)))
            converged = defect <= 1e-14 * max(1.0, u.linf())
            u = u_new
            if converged:
                return u, eval_f(f_spec, u, mu)
        raise FixedPointError(t, defect)

    cs = np.atleast_1d(en.c_eps(times))
    slices = _frozen_slices(frozen)
    noise = noise_slices([en], X=True)  # slice n holds ([xi_n], [X_n])
    ([xi], [X]) = next(noise)
    mu = EmpiricalMeasure(next(slices))
    sharp = u0  # X_0 = 0, so u_0 = sharp_0
    u, dz = fix_dz(sharp, X, mu, u0, float(times[0]))
    dz_X = para(dz, X)
    yield dz_X + sharp
    for n, ([xi_next], [X_next]) in enumerate(noise):
        f_pc = paralinearize_slice(
            f_spec, Paracontrolled(X, dz, dz_X, sharp), [], mu)
        phi = pc_product_slice(f_pc, xi, float(cs[n]), [])
        phi = phi - para(dz, xi)
        if g_spec is not None:
            phi = phi + eval_g(g_spec, u, mu)
        sharp = etd_step(sharp, phi, dt)
        xi, X = xi_next, X_next
        mu = EmpiricalMeasure(next(slices))
        u, dz = fix_dz(sharp, X, mu, u, float(times[n + 1]))
        dz_X = para(dz, X)
        sharp = u - dz_X  # exact residual storage
        _check_guard(u.values, R, float(times[n + 1]))
        yield dz_X + sharp


def solve_particle_system(enhanced: list, f_spec: InteractionSpec | None,
                          g_spec: InteractionSpec | None, u0s: list,
                          cfg: SolveConfig) -> Iterator[list]:
    """Renormalized n-particle system with the running empirical measure.

    ``enhanced`` holds the n particles' enhanced noises, as
    ``mean_field_enhance`` returns them.  With f_spec None it is the
    additive system du^i = Lap u^i + xi^i + g(u^i, mu^n).  Returns an
    iterator over the time slices, as ``solve_renormalized`` does.
    """
    _check_aligned(enhanced, u0s)
    return _step_fields(u0s, enhanced, f_spec, g_spec, None, cfg)


def solve_mean_field(enhanced: list, f_spec: InteractionSpec,
                     g_spec: InteractionSpec | None, u0: Field,
                     cfg: SolveConfig):
    """Picard-on-law solver for the singular mean-field equation.

    ``enhanced`` is a list of M frozen enhanced noises (common random
    numbers across iterations).  Each sweep steps all M streams
    together against the frozen empirical measure of the previous
    ensemble {u^{k,j}}, until the ensemble is a fixed point.  Returns
    (ensemble, iterations, residuals), the ensemble as the last sweep's
    slices (a frozen measure).  The noise slices are read once and kept
    for every sweep: a sweep holds the ensemble's slices anyway, and
    drawing exp-correlated streams again took about a third of the run.
    """
    M = len(enhanced)
    if M < 2:
        raise ValueError("need M >= 2 samples")
    times = enhanced[0].times
    read = list(noise_slices(enhanced))
    enhanced = [StoredNoise(PathField(times, [r[i] for r in read]), en.c_eps)
                for i, en in enumerate(enhanced)]
    ensemble = [[semigroup(u0, float(t))] * M for t in times]
    residuals = []
    for it in range(cfg.picard_max_iters):
        new, res = [], 0.0
        for now, old in zip(solve_renormalized(enhanced, ensemble, f_spec,
                                               g_spec, [u0] * M, cfg),
                            ensemble):
            res = max(res, max(float(np.max(np.abs(a.values - b.values)))
                               for a, b in zip(now, old)))
            new.append(now)
        residuals.append(res)
        ensemble = new
        if res < cfg.picard_tol:
            return ensemble, it + 1, residuals
    raise PicardError(residuals)
