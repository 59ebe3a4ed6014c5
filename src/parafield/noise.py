"""Gaussian noise class, renormalization and the enhanced-noise stream.

Noise normalization: writing a field as sum_k ghat(k) e^{i k.x}, the
sampler enforces E[ghat_t(k) ghat_s(-k')] = 1_{k=k'} c(t,s) Chat(k)
with Chat the spatial spectral density (Chat = 1 is spatial white
noise) and c the temporal correlation.  The zero mode is always zero
(null spatial mean) and Nyquist modes are dropped.

An ``EnhancedNoise`` is a description, not a path: the noise class,
stream id, mollification level eps, grid, times and the constant c_eps.
``noise_slices`` reads a list of them one time slice at a time.  Plane
n of each distinct (seed, stream_id) is drawn from its own counter-based
Philox key, so identical configurations give identical bits, a stream
has the same bits whether it is read alone or with others, and reading
the list again replays the same slices.  The planes of all streams are
transformed and mollified as one stack.  A time-constant stream yields
the same Field at every slice.  The reference X = int P_{t-s} xi_s ds
is built only for a reader that asks for it, one Duhamel step per
slice, and a reader forms X (.) xi - c_eps on the slice it reads.
Draws at two time steps are unrelated realizations: a study in dt
subsamples one fine path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bony import resonant
from .heat import duhamel_step
from .littlewood_paley import dyadic_blocks
from .torus import Field, PathField, TorusGrid, _checked_times, \
    from_spectra

__all__ = [
    "NoiseSpec",
    "EnhancedNoise",
    "StoredNoise",
    "power_law_multiplier",
    "renorm_constant",
    "enhance",
    "noise_slices",
    "final_slice",
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
    of the discrete scheme on the time grid, so it depends on the step,
    and t outside the grid raises ValueError.  Returns a callable of t.
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
        if np.any((np.asarray(t) < times[0]) | (np.asarray(t) > times[-1])):
            raise ValueError(f"c_eps is known on [{times[0]}, {times[-1]}] "
                             f"only, not at t = {t}")
        return np.interp(t, times, vals)

    return c_eps_ou


@dataclass(frozen=True, eq=False)
class EnhancedNoise:
    """A replayable description of stream ``stream_id`` of the class
    ``spec``, mollified at scale ``eps`` (multiplier e^{-eps |k|^2}; 0 is
    the raw noise) on ``grid`` at ``times``, with the constant ``c_eps``
    (a callable of t).  ``noise_slices`` draws its slices.  The naive run
    of a noise is ``dataclasses.replace(noise, c_eps=np.zeros_like)``."""

    spec: NoiseSpec
    stream_id: int
    eps: float
    grid: TorusGrid
    times: np.ndarray
    c_eps: object


@dataclass(frozen=True, eq=False)
class StoredNoise:
    """A noise read from a stored path, slice n being ``xi[n]``, with the
    constant ``c_eps`` (zero by default): a forcing given in full, or
    the slices a Picard loop keeps across its sweeps."""

    xi: PathField
    c_eps: object = np.zeros_like
    grid = property(lambda self: self.xi.grid)
    times = property(lambda self: self.xi.times)


def enhance(spec: NoiseSpec, eps: float, grid: TorusGrid, times: np.ndarray,
            stream_id=0) -> EnhancedNoise | list[EnhancedNoise]:
    """The enhanced noise of one stream id, or one per id of a sequence,
    mollified at eps; every stream shares the one c_eps.  Nothing is
    drawn until ``noise_slices`` reads the noise."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    times = _checked_times(times)
    c_eps = renorm_constant(spec, eps, times, grid)
    ids = [stream_id] if np.ndim(stream_id) == 0 else list(stream_id)
    out = [EnhancedNoise(spec, s, eps, grid, times, c_eps) for s in ids]
    return out[0] if np.ndim(stream_id) == 0 else out


def mean_field_enhance(n: int, spec: NoiseSpec, eps: float, grid: TorusGrid,
                       times: np.ndarray,
                       master_seed: int | None = None) -> list[EnhancedNoise]:
    """n independent enhanced streams, stream i with stream id i, of the
    spec's class keyed by ``master_seed`` (the spec's seed by default)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    seed = spec.seed if master_seed is None else master_seed
    return enhance(replace(spec, seed=seed), eps, grid, times, range(n))


def _stream_slices(streams: list, grid: TorusGrid, times: np.ndarray):
    """Yield, for t_0, ..., t_M, the list of each stream's slice: plane n
    of a drawn stream (spec, stream_id, eps), mollified at eps, or slice
    n of a StoredNoise.  The fresh planes of all draws are transformed
    as one stack; the time-independent class draws one plane, and the
    exp-correlated class evolves every mode by the stationary AR(1)
    update that matches exp(-lam |t-s|) exactly on the time grid."""
    N = grid.N
    drawn = [s for s in streams if isinstance(s, tuple)]
    draws = list(dict.fromkeys(s[:2] for s in drawn))
    rngs = {d: _rng(d[0].seed, d[1]) for d in draws}
    specs = {d[0].spatial_multiplier: d[0] for d in draws}
    amp = {m: N * np.sqrt(spec.chat(grid)) for m, spec in specs.items()}
    moll = {s[2]: np.exp(-s[2] * grid.k2) for s in drawn}
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    last, now = {}, {}  # each draw's last real plane, each stream's slice
    for n in range(times.size):
        fresh = [d for d in draws
                 if n == 0 or d[0].temporal != TIME_INDEPENDENT]
        if fresh:
            W = np.empty((len(fresh), N, N))
            for w, d in zip(W, fresh):
                rngs[d].standard_normal(out=w)
                if n > 0:  # the AR(1) update of a correlated draw
                    a = np.exp(-d[0].lam * dt)
                    w[...] = a * last[d] + np.sqrt(1.0 - a * a) * w
                if d[0].temporal != TIME_INDEPENDENT:
                    last[d] = w
            S = np.fft.rfft2(W)
            del W  # only the last planes of correlated draws are read again
            row = {d: i for i, d in enumerate(fresh)}
            for i, d in enumerate(fresh):
                S[i] *= amp[d[0].spatial_multiplier]
            new = [s for s in drawn if s[:2] in row]
            T = np.empty((len(new),) + S.shape[1:], dtype=S.dtype)
            for t, s in zip(T, new):  # no temporary per stream
                np.multiply(S[row[s[:2]]], moll[s[2]], out=t)
            del S
            now.update(zip(new, from_spectra(grid, T)[1]))
        yield [now[s] if isinstance(s, tuple) else s.xi[n] for s in streams]


def _slices(noises: list, X: bool):
    """Yield (xi, i, Z) at t_0, ..., t_M: ``xi`` the list of the noises'
    slices and, with X, ``i`` the row of each noise in ``Z``, the half
    spectra of X at that time of the distinct streams (None at t_0,
    where X = 0).  Z is one Duhamel step behind the slices it reads."""
    grid, times = noises[0].grid, noises[0].times
    if any(en.grid != grid or not np.array_equal(en.times, times)
           for en in noises):
        raise ValueError("noises read together need one grid and times")
    keys = [(en.spec, en.stream_id, en.eps) if isinstance(en, EnhancedNoise)
            else en for en in noises]
    row = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    streams, index = list(row), [row[k] for k in keys]
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    Z = A = None
    for now in _stream_slices(streams, grid, times):
        if X:
            prev, A = A, np.stack([f.spectrum for f in now])
            if prev is not None:
                Z = duhamel_step(np.zeros_like(A) if Z is None else Z, prev,
                                 A, dt)
        yield [now[i] for i in index], index, Z


def _X_fields(grid: TorusGrid, index: list, Z) -> list:
    """The X Fields of the noises, from ``_slices``' rows and Z."""
    if Z is None:  # X = 0 at t_0
        return [Field.zero(grid)] * len(index)
    fields = from_spectra(grid, Z)[1]
    return [fields[i] for i in index]


def noise_slices(noises: list, X: bool = False):
    """Read the noises slice by slice: yield, for t_0, ..., t_M, the list
    of their xi slices, or with X the pair (xi list, X list).

    ``noises`` are ``EnhancedNoise`` and ``StoredNoise`` on one grid and
    times.  Each call replays the same slices.  Noises of one (spec,
    stream_id) share one draw, and of one (spec, stream_id, eps) one
    Field.
    """
    for xis, index, Z in _slices(noises, X):
        yield (xis, _X_fields(noises[0].grid, index, Z)) if X else xis


def final_slice(noises: list):
    """(xi list, X list) at the final time, as ``noise_slices(noises,
    True)`` yields them last, with no X Field made for earlier times."""
    for xis, index, Z in _slices(noises, True):
        pass
    return xis, _X_fields(noises[0].grid, index, Z)


def cross_resonant(noise_i, noise_j, xi_i: Field, X_j: Field) -> Field:
    """Cross term xi^i (.) X^j of two independent noises on one slice, no
    counterterm: xi_i a slice of noise_i, X_j the same of noise_j."""
    if (noise_i.spec, noise_i.stream_id) == (noise_j.spec, noise_j.stream_id):
        raise ValueError("cross_resonant needs independent streams "
                         "(one stream would require renormalization)")
    return resonant(X_j, xi_i)
