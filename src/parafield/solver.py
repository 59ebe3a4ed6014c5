"""Time integrators for the additive, frozen-measure, particle and
mean-field equations.

All schemes are exponential-Euler in mild form: the heat part is exact
per Fourier mode and the nonlinearity enters through the phi_1 weight.
The direct schemes share one loop, ``_step_fields``, which steps a list
of fields together against a frozen measure path or against their own
running measure; only the paracontrolled scheme has a loop of its own.
An explosion guard monitors the sup norm and raises ExplosionError with
the earliest crossing time over the fields stepped together instead of
letting the run NaN out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bony import para
from .heat import etd_step, semigroup
from .interactions import EmpiricalMeasure, InteractionSpec, eval_f, eval_g, \
    eval_partial
from .noise import EnhancedNoise, cross_resonant
from .paracontrolled import Paracontrolled, paralinearize_slice, \
    pc_product_slice, reconstruct
from .torus import Field, PathField, pointwise_product

__all__ = [
    "SolveConfig",
    "ExplosionError",
    "PicardError",
    "FixedPointError",
    "solve_additive_mckean",
    "solve_additive_frozen",
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


def _check_guard(u: Field, R: float, t: float):
    m = u.linf()
    if m >= R or not np.isfinite(m):
        raise ExplosionError(t, m, R)


def _renorm_rhs(f_spec, g_spec, u, mu, xi_slice, c_val):
    """Forcing f(u, mu) xi - c (f d1f)(u, mu) + g(u, mu) of one step.

    Without f the forcing is xi itself (the additive equation).
    """
    if f_spec is None:
        rhs = xi_slice
    else:
        fval = eval_f(f_spec, u, mu)
        rhs = pointwise_product(fval, xi_slice)
        if c_val != 0.0:
            dfval = eval_partial(f_spec, 1, u, mu)
            rhs = rhs - c_val * pointwise_product(fval, dfval, dealias=False)
    if g_spec is not None:
        rhs = rhs + eval_g(g_spec, u, mu)
    return rhs


def _step_fields(u0s: list, xis: list, cs: list | None,
                 f_spec: InteractionSpec | None,
                 g_spec: InteractionSpec | None, frozen: list | None,
                 cfg: SolveConfig) -> list:
    """Exponential-Euler steps of every field, all fields together.

    u^i_{n+1} = E u^i_n + I0 (f(u^i_n, mu_n) xi^i_n - c^i_n (f d1f)(u^i_n,
    mu_n) + g(u^i_n, mu_n)), or with forcing xi^i_n + g when f_spec is
    None.  mu_n is slice n of the ``frozen`` atoms, or the running
    empirical measure of the fields themselves when ``frozen`` is None.
    """
    times = xis[0].times
    dt = float(times[1] - times[0])
    R = cfg.guard(max(u.linf() for u in u0s))
    paths = [[u] for u in u0s]
    atoms = paths if frozen is None else frozen
    for n in range(times.size - 1):
        mu = EmpiricalMeasure([p[n] for p in atoms])
        for i, path in enumerate(paths):
            c = float(cs[i][n]) if cs is not None else 0.0
            rhs = _renorm_rhs(f_spec, g_spec, path[n], mu, xis[i][n], c)
            v = etd_step(path[n], rhs, dt)
            _check_guard(v, R, float(times[n + 1]))
            path.append(v)
    return [PathField(times, p) for p in paths]


def _counterterm(en: EnhancedNoise) -> np.ndarray:
    return np.atleast_1d(en.c_eps(en.times))


def solve_additive_mckean(g_spec: InteractionSpec | None, noises: list,
                          u0s: list, cfg: SolveConfig) -> list:
    """Coupled additive system: du^i = Lap u^i + zeta^i + g(u^i, mu^n).

    mu^n is the running empirical measure of the n fields.  With n
    equal to the Monte Carlo sample count this doubles as the additive
    mean-field solver (the particle system restates the mean-field
    equation on the uniform n-point space).
    """
    if len(noises) != len(u0s) or not noises:
        raise ValueError("need aligned, nonempty noise/initial lists")
    return _step_fields(u0s, noises, None, None, g_spec, None, cfg)


def solve_additive_frozen(g_spec: InteractionSpec | None, noise: PathField,
                          u0: Field, frozen: list, cfg: SolveConfig) -> PathField:
    """One additive solve against a frozen empirical measure path.

    ``frozen`` is a list of PathField atoms; the measure at step n is
    their slice n.  Shares the stepping kernel of the stacked solver,
    so a particle re-solved against the recorded measure of a stacked
    run reproduces it bitwise.
    """
    return _step_fields([u0], [noise], None, None, g_spec, frozen, cfg)[0]


def solve_renormalized(en: EnhancedNoise, frozen: list, f_spec: InteractionSpec,
                       g_spec: InteractionSpec | None, u0: Field,
                       cfg: SolveConfig) -> PathField:
    """Frozen-measure renormalized equation, direct scheme.

    du = Lap u + f(u, v_t) xi_eps - c_eps(t) (f d1f)(u, v_t) + g(u, v_t)
    with v_t the slice-t empirical measure of the frozen atoms.
    """
    return _step_fields([u0], [en.xi], [_counterterm(en)], f_spec, g_spec,
                        frozen, cfg)[0]


def solve_paracontrolled(en: EnhancedNoise, frozen_pcs: list,
                         f_spec: InteractionSpec,
                         g_spec: InteractionSpec | None, u0: Field,
                         cfg: SolveConfig) -> Paracontrolled:
    """Frozen-measure equation via the remainder formulation.

    Steps sharp with (d_t - Lap) sharp = Phi_sharp where Phi_sharp is
    the paracontrolled product of f(u, v) with the enhanced noise plus
    g minus f(u, v) < xi; the Gubinelli derivative is pinned to
    f(u, v) at every slice and u is rebuilt as (dz < X) + sharp.
    """
    if not frozen_pcs:
        raise ValueError("need frozen paracontrolled samples")
    for s in frozen_pcs:
        if s.dz is None or s.sharp is None:
            raise ValueError("frozen samples must carry paracontrolled data")
    times = en.times
    dt = float(times[1] - times[0])
    R = cfg.guard(u0.linf())
    sample_paths = [reconstruct(s) for s in frozen_pcs]
    # cross terms xi (.) Xbar_j for the dmu channel of the f structure
    cross = [cross_resonant(en.xi, s.reference)
             if s.reference.meta.get("stream_id") != en.stream_id
             else en.xi2  # same stream: renormalized diagonal
             for s in frozen_pcs]

    def fix_dz(sharp_f: Field, X_f: Field, mu: EmpiricalMeasure, u_guess: Field,
               t: float):
        # solve u = (f(u, mu) < X) + sharp to high accuracy
        u = u_guess
        for _ in range(FIXED_POINT_MAX_ITERS):
            u_new = para(eval_f(f_spec, u, mu), X_f) + sharp_f
            defect = (u_new - u).linf()
            converged = defect <= 1e-14 * max(1.0, u.linf())
            u = u_new
            if converged:
                return u, eval_f(f_spec, u, mu)
        raise FixedPointError(t, defect)

    mu = EmpiricalMeasure([p[0] for p in sample_paths])
    sharp = u0  # X_0 = 0, so u_0 = sharp_0
    u, dz = fix_dz(sharp, en.X[0], mu, u0, float(times[0]))
    dzs, sharps = [dz], [sharp]
    for n in range(times.size - 1):
        f_pc = paralinearize_slice(f_spec, Paracontrolled(en.X[n], dz, sharp),
                                   [s[n] for s in frozen_pcs], mu)
        phi = pc_product_slice(f_pc, en.xi[n], en.X[n], en.xi2[n],
                               [c[n] for c in cross])
        phi = phi - para(dz, en.xi[n])
        if g_spec is not None:
            phi = phi + eval_g(g_spec, u, mu)
        sharp = etd_step(sharp, phi, dt)
        mu = EmpiricalMeasure([p[n + 1] for p in sample_paths])
        u, dz = fix_dz(sharp, en.X[n + 1], mu, u, float(times[n + 1]))
        sharp = u - para(dz, en.X[n + 1])  # exact residual storage
        _check_guard(u, R, float(times[n + 1]))
        dzs.append(dz)
        sharps.append(sharp)
    return Paracontrolled(reference=en.X, dz=PathField(times, dzs),
                          sharp=PathField(times, sharps))


def solve_particle_system(enhanced: list, f_spec: InteractionSpec,
                          g_spec: InteractionSpec | None, u0s: list,
                          cfg: SolveConfig) -> list:
    """Renormalized n-particle system with the running empirical measure.

    ``enhanced`` holds the n particles' enhanced noises, as
    ``mean_field_enhance`` returns them.
    """
    if not enhanced or len(u0s) != len(enhanced):
        raise ValueError("need particles, one initial condition each")
    cs = [_counterterm(enhanced[0])] * len(enhanced)
    return _step_fields(u0s, [en.xi for en in enhanced], cs, f_spec, g_spec,
                        None, cfg)


def solve_mean_field(enhanced: list, f_spec: InteractionSpec,
                     g_spec: InteractionSpec | None, u0: Field,
                     cfg: SolveConfig):
    """Picard-on-law solver for the singular mean-field equation.

    ``enhanced`` is a list of M frozen enhanced noises (common random
    numbers across iterations).  Each sweep steps all M streams
    together against the frozen empirical measure of the previous
    ensemble {u^{k,j}}, until the ensemble is a fixed point.  Returns
    (ensemble, iterations, residuals).
    """
    M = len(enhanced)
    if M < 2:
        raise ValueError("need M >= 2 samples")
    times = enhanced[0].times
    flow = [semigroup(u0, float(t)) for t in times]
    ensemble = [PathField(times, flow) for _ in range(M)]
    xis = [en.xi for en in enhanced]
    cs = [_counterterm(en) for en in enhanced]
    residuals = []
    for it in range(cfg.picard_max_iters):
        new = _step_fields([u0] * M, xis, cs, f_spec, g_spec, ensemble, cfg)
        res = max((new[i] - ensemble[i]).sup_linf() for i in range(M))
        residuals.append(res)
        ensemble = new
        if res < cfg.picard_tol:
            return ensemble, it + 1, residuals
    raise PicardError(residuals)
