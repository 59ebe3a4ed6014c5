"""Gaussian noise class, mollification, renormalization and enhancement.

Noise normalization: writing a field as sum_k ghat(k) e^{i k.x}, the
sampler enforces E[ghat_t(k) ghat_s(-k')] = 1_{k=k'} c(t,s) Chat(k)
with Chat the spatial spectral density (Chat = 1 is spatial white
noise) and c the temporal correlation.  The zero mode is always zero
(null spatial mean) and Nyquist modes are dropped.

Sampling is keyed by (seed, stream_id) through a counter-based Philox
generator: identical configurations give identical bits.
``sample_noise`` draws one stream or a sequence of them; each stream
draws from its own key, and the drawn planes of all of them are
transformed as one stack, so a stream has the same bits whether it is
drawn alone or with others.  ``mollify`` likewise takes one path or a
list and transforms their distinct slices as one stack.

Enhancement is lazy: ``enhance`` mollifies the noise and fixes c_eps,
and X is built on first read, so a scheme that reads only xi and c_eps
never builds it; a reader forms X (.) xi - c_eps on the slice it reads.
``enhance`` also takes a list of paths and mollifies them as one stack;
``mean_field_enhance`` draws and enhances n streams that way.  The cross
term between two streams is ``cross_resonant``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bony import resonant
from .heat import duhamel
from .littlewood_paley import dyadic_blocks
from .torus import PathField, TorusGrid, _checked_times, from_spectra, \
    spectra

__all__ = [
    "NoiseSpec",
    "EnhancedNoise",
    "power_law_multiplier",
    "sample_noise",
    "mollify",
    "renorm_constant",
    "enhance",
    "cross_resonant",
    "mean_field_enhance",
]

TIME_INDEPENDENT = "white"
EXP_CORRELATED = "exp_correlated"


def power_law_multiplier(eta: float):
    """Spatial spectral density Chat(k) = |k|^eta (zero at k = 0)."""

    def chat(absk: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            out = np.where(absk > 0, absk ** eta, 0.0)
        return out

    return chat


def low_damped_multiplier(k0: float, floor: float):
    """White density with the shells below |k| = k0 damped to ``floor``.

    Keeps the log-divergent tail intact while shrinking the convergent
    low-mode bulk of the renormalization constant, which sharpens the
    relative divergence between mollification levels.
    """

    def chat(absk: np.ndarray) -> np.ndarray:
        return np.where(absk < k0, floor, 1.0)

    return chat


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance class of the Gaussian noise.

    ``spatial_multiplier`` maps |k| to Chat(k) >= 0 (None means white,
    Chat = 1).  ``temporal`` is "white" for time-independent noise
    (c(t,s) = 1) or "exp_correlated" for the stationary OU correlation
    c(t,s) = exp(-lam |t-s|).
    """

    seed: int
    temporal: str = TIME_INDEPENDENT
    lam: float = 1.0
    spatial_multiplier: object = None

    def __post_init__(self):
        if self.temporal not in (TIME_INDEPENDENT, EXP_CORRELATED):
            raise ValueError(f"unknown temporal class {self.temporal!r}")
        if not self.lam >= 0:
            raise ValueError(f"lambda = {self.lam} must be nonnegative")

    def chat(self, grid: TorusGrid) -> np.ndarray:
        absk = np.sqrt(grid.k2)
        if self.spatial_multiplier is None:
            chat = np.ones_like(absk)
        else:
            chat = np.asarray(self.spatial_multiplier(absk), dtype=np.float64)
        chat = chat.copy()
        chat[grid.k2 == 0] = 0.0
        chat[grid.nyquist] = 0.0
        if np.any(chat < 0):
            raise ValueError("spatial multiplier must be nonnegative")
        return chat


def _rng(seed: int, stream_id: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream_id), each taken mod
    2**64, so that every int, negative ones too, is a key."""
    key = np.array([seed % 2 ** 64, stream_id % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_noise(spec: NoiseSpec, grid: TorusGrid, times: np.ndarray,
                 stream_id=0) -> PathField | list[PathField]:
    """Draw one noise path, or one per id of a sequence of stream ids.

    Time-independent noise reuses a single spatial draw at all times;
    the exp-correlated class evolves every mode by a stationary AR(1)
    update that matches exp(-lam |t-s|) exactly on the time grid.  Each
    stream draws from its own Philox key, in the same order however many
    streams are drawn together; the drawn planes of all streams are
    transformed as one stack.
    """
    ids = [stream_id] if np.ndim(stream_id) == 0 else list(stream_id)
    times = _checked_times(times)
    N = grid.N
    planes = 1 if spec.temporal == TIME_INDEPENDENT else times.size
    W = np.empty((len(ids), planes, N, N))
    for i, s in enumerate(ids):
        _rng(spec.seed, s).standard_normal(out=W[i])
    if planes > 1:
        dt = float(times[1] - times[0])
        a = np.exp(-spec.lam * dt)
        for t in range(1, planes):
            W[:, t] = a * W[:, t - 1] + np.sqrt(1.0 - a * a) * W[:, t]
    S = np.fft.rfft2(W)
    del W  # the real draws are not needed next to the spectra
    S *= N * np.sqrt(spec.chat(grid))
    _, fields = from_spectra(grid, S.reshape(-1, N, N // 2 + 1))
    paths = []
    for i, s in enumerate(ids):
        row = fields[i * planes:(i + 1) * planes]
        if planes == 1:  # one draw for every time
            row = row * times.size
        paths.append(PathField(times, row, meta={"spec": spec,
                                                 "stream_id": s,
                                                 "eps": 0.0}))
    return paths[0] if np.ndim(stream_id) == 0 else paths


def mollify(xi, eps: float) -> PathField | list[PathField]:
    """Heat-kernel mollifier at scale eps: multiplier e^{-eps |k|^2}.

    ``xi`` is a PathField or a list of them.  The distinct slice objects
    of all the paths are transformed as one stack, so a time-independent
    path (one Field repeated) stays one Field repeated.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return xi
    paths = [xi] if isinstance(xi, PathField) else xi
    g = paths[0].grid
    slices = list(dict.fromkeys(f for p in paths for f in p.fields))
    S = spectra(slices)
    S *= np.exp(-eps * g.k2)
    done = dict(zip(slices, from_spectra(g, S)[1]))
    out = [PathField(p.times, [done[f] for f in p.fields],
                     meta={**p.meta, "eps": p.meta.get("eps", 0.0) + eps})
           for p in paths]
    return out[0] if isinstance(xi, PathField) else out


def _retained(grid: TorusGrid) -> np.ndarray:
    # modes entering dealiased quadratic products, zero mode excluded
    return grid.dealias & ~grid.nyquist & (grid.k2 > 0)


def renorm_constant(spec: NoiseSpec, eps: float, times: np.ndarray,
                    grid: TorusGrid):
    """Renormalization constant c_eps(t) = E[(X_eps (.) xi_eps)(t, x)].

    Analytic for the time-independent class:
    c_eps(t) = sum_{k != 0} w_res(k) Chat(k) e^{-2 eps |k|^2}
               (1 - e^{-t |k|^2}) / |k|^2
    over the dealias-retained modes (matching the dealiased resonant
    product).  For the exp-correlated class it is the exact expectation
    of the discrete scheme on the time grid.  Returns a callable of t.
    """
    times = np.asarray(times, dtype=np.float64)
    keep = _retained(grid)
    # the half grid holds one of k and -k when ky > 0: count it twice
    chat = (spec.chat(grid) * np.where(grid.ky > 0, 2.0, 1.0))[keep]
    wres = dyadic_blocks(grid).resonant_weight[keep]
    q = grid.k2[keep]
    moll = np.exp(-2.0 * eps * q)
    if spec.temporal == TIME_INDEPENDENT:

        def c_eps(t):
            t = np.asarray(t, dtype=np.float64)
            integ = -np.expm1(-np.multiply.outer(t, q)) / q
            return np.einsum("...k,k->...", integ, wres * chat * moll)

        return c_eps

    # exact expectation of the discrete scheme: the AR(1) mode update
    # paired with the piecewise-linear exponential integrator gives
    # m_{n+1} = e^{-q dt} a m_n + (I0 - I1/dt) a + I1/dt per mode,
    # with a = e^{-lam dt}, m_n = E[z_n wbar_n], z_0 = 0; on a one-point
    # time grid X = 0, so the constant is 0
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    a = np.exp(-spec.lam * dt)
    E = np.exp(-q * dt)
    I0 = (1.0 - E) / q
    I1 = dt / q - I0 / q
    weight = wres * chat * moll
    m = np.zeros_like(q)
    vals = np.zeros(times.size)
    for n in range(times.size - 1):
        m = E * a * m + (I0 - I1 / dt) * a + I1 / dt
        vals[n + 1] = float(np.dot(weight, m))

    def c_eps_ou(t):
        return np.interp(t, times, vals)

    return c_eps_ou


class EnhancedNoise:
    """The noise xi, its constant c_eps and its reference X = duhamel(xi),
    built on first read and cached (the direct scheme reads only xi and
    c_eps).  A reader forms X (.) xi - c_eps on the slice it reads.
    """

    def __init__(self, xi: PathField, c_eps):
        self.xi = xi
        self.c_eps = c_eps  # callable of t

    @cached_property
    def X(self) -> PathField:
        return duhamel(self.xi)

    @property
    def times(self):
        return self.xi.times


def enhance(xi_raw, eps: float) -> EnhancedNoise | list[EnhancedNoise]:
    """Mollify and fix the renormalization constant; X is lazy.

    ``xi_raw`` is a path from ``sample_noise`` or a list of paths of one
    noise class, times and grid; a list is mollified as one stack and
    its paths share the c_eps of the first.  X = duhamel(xi) is computed
    when first read (see ``EnhancedNoise``).
    """
    paths = [xi_raw] if isinstance(xi_raw, PathField) else xi_raw
    spec = paths[0].meta.get("spec")
    if any(p.meta.get("spec") is None for p in paths):
        raise ValueError("xi_raw must come from sample_noise")
    xis = mollify(paths, eps)
    c_eps = renorm_constant(spec, eps, xis[0].times, xis[0].grid)
    out = [EnhancedNoise(xi=xi, c_eps=c_eps) for xi in xis]
    return out[0] if isinstance(xi_raw, PathField) else out


def cross_resonant(xi_i: PathField, X_j: PathField) -> PathField:
    """Cross term xi^i (.) X^j between independent streams, no counterterm."""
    si = xi_i.meta.get("stream_id")
    sj = X_j.meta.get("stream_id")
    if si is not None and sj is not None and si == sj:
        raise ValueError("cross_resonant needs independent streams "
                         "(equal stream ids would require renormalization)")
    if not np.array_equal(xi_i.times, X_j.times):
        raise ValueError("mismatched time grids")
    return PathField(xi_i.times, [resonant(b, a) for a, b in
                                  zip(xi_i.fields, X_j.fields)])


def mean_field_enhance(n: int, spec: NoiseSpec, eps: float, grid: TorusGrid,
                       times: np.ndarray,
                       master_seed: int | None = None) -> list[EnhancedNoise]:
    """Sample n independent streams and enhance each one.

    Stream i has stream id i.  The n streams are drawn and enhanced as
    one stack (see ``enhance``).  The cross terms xi^i (.) X^j between
    two streams come from ``cross_resonant``.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    seed = spec.seed if master_seed is None else master_seed
    base = replace(spec, seed=seed)
    return enhance(sample_noise(base, grid, times, stream_id=range(n)), eps)
