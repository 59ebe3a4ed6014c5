"""Real scalar fields on the discretized 2-torus.

The domain is [0, 2pi)^2 sampled on an N x N grid.  A spectrum is the
unnormalized half spectrum ``rfft2(values)`` of shape (N, N//2 + 1),
and ``values = irfft2(spectrum, s=(N, N))``: it holds the modes with
ky >= 0, whose conjugates -k are the rest, so it is Hermitian by
construction.  The Fourier *coefficient* of e^{i k.x} is
``spectrum[k] / N**2``.  Nyquist modes (|kx| = N/2 or ky = N/2) are
zeroed everywhere, so every retained mode has its partner -k.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "PathField",
    "make_grid",
    "make_times",
    "spectra",
    "from_spectra",
    "dealiased",
    "pointwise_product",
    "write_pfld",
    "read_pfld",
]

PFLD_MAGIC = b"PFLD"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N x N grid on the 2-torus with integer Fourier modes."""

    N: int
    spacing: float
    kx: np.ndarray  # integer wavenumbers along axis 0, shape (N, N//2 + 1)
    ky: np.ndarray  # nonnegative wavenumbers along axis 1, same shape
    k2: np.ndarray  # |k|^2, same shape
    nyquist: np.ndarray  # True where the mode must be zeroed
    dealias: np.ndarray  # True on modes kept by the 2/3 rule

    def __eq__(self, other):
        return other is self or (isinstance(other, TorusGrid)
                                 and self.N == other.N)

    def __hash__(self):
        return hash(("TorusGrid", self.N))

    @property
    def x(self):
        return np.arange(self.N) * self.spacing

    def coords(self):
        """Meshgrid of physical coordinates, shape (N, N) each."""
        x = self.x
        return np.meshgrid(x, x, indexing="ij")


@lru_cache(maxsize=None)
def make_grid(N: int) -> TorusGrid:
    """The torus grid, built once per size.  N must be a power of two,
    N >= 8."""
    if N < 8 or N & (N - 1) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {N}")
    k = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
    kx, ky = np.meshgrid(k, np.arange(N // 2 + 1), indexing="ij")  # rfft2
    k2 = (kx * kx + ky * ky).astype(np.float64)
    nyquist = (np.abs(kx) == N // 2) | (ky == N // 2)
    cut = N // 3
    dealias = (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
    for a in (kx, ky, k2, nyquist, dealias):
        a.flags.writeable = False
    return TorusGrid(N=N, spacing=2.0 * np.pi / N, kx=kx, ky=ky, k2=k2,
                     nyquist=nyquist, dealias=dealias)


class Field:
    """Immutable real scalar field on a :class:`TorusGrid`.

    The values array is taken as it is, not copied, and marked
    read-only; a caller that hands in a buffer it still writes to passes
    a copy.  The spectrum is cached lazily and kept consistent with the
    values, and so is the dealiased Littlewood-Paley block stack that
    ``DyadicPartition.dealiased_blocks`` fills on first use: it lives
    and dies with the Field.
    """

    __slots__ = ("grid", "values", "_spectrum", "_blocks")

    def __init__(self, grid: TorusGrid, values: np.ndarray,
                 spectrum: np.ndarray | None = None):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (grid.N, grid.N):
            raise ValueError("values shape does not match grid")
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self._spectrum = spectrum
        self._blocks = None

    @classmethod
    def from_values(cls, grid: TorusGrid, values: np.ndarray) -> "Field":
        """Field from grid samples; Nyquist content is projected out."""
        return cls.from_spectrum(
            grid, np.fft.rfft2(np.asarray(values, dtype=np.float64)))

    @classmethod
    def from_spectrum(cls, grid: TorusGrid, spec: np.ndarray) -> "Field":
        """Field from a half spectrum, read as ``irfft2`` reads it."""
        spec = np.array(spec, dtype=np.complex128)
        if spec.shape != grid.k2.shape:
            raise ValueError("spectrum shape does not match grid")
        spec[grid.nyquist] = 0.0
        vals = np.fft.irfft2(spec, s=(grid.N, grid.N))
        spec.flags.writeable = False
        return cls(grid, vals, spectrum=spec)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "Field":
        return cls(grid, np.zeros((grid.N, grid.N)))

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = np.fft.rfft2(self.values)
            spec[self.grid.nyquist] = 0.0
            spec.flags.writeable = False
            self._spectrum = spec
        return self._spectrum

    # arithmetic: fields form a vector space
    def __add__(self, other):
        _same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        _same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c):
        if isinstance(c, Field):
            raise TypeError("use pointwise_product for field products")
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def shift(self, c: float) -> "Field":
        """Add the constant c to the field."""
        return Field(self.grid, self.values + float(c))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2)) * self.grid.spacing)

    def mean(self) -> float:
        return float(np.mean(self.values))


def _same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("grid mismatch")


def _checked_times(times) -> np.ndarray:
    """``times`` as a read-only float copy, checked to be strictly
    increasing with a constant step."""
    copy = np.array(times, dtype=np.float64)
    if copy.size >= 2:
        dt = np.diff(copy)
        if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-14):
            raise ValueError("times must be strictly increasing with constant step")
    copy.flags.writeable = False
    return copy


class PathField:
    """A time-indexed path of fields on a common grid and uniform times,
    such as the snapshots a pipeline writes or a stored noise; ``times``
    is held as a checked read-only copy."""

    __slots__ = ("times", "fields")

    def __init__(self, times: np.ndarray, fields: list):
        times = _checked_times(times)
        if len(fields) != times.size:
            raise ValueError("times/fields length mismatch")
        g = fields[0].grid
        for f in fields:
            if f.grid != g:
                raise ValueError("all slices must share one grid")
        self.times = times
        self.fields = list(fields)

    @property
    def grid(self) -> TorusGrid:
        return self.fields[0].grid

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, i) -> Field:
        return self.fields[i]


def make_times(T: float, dt: float) -> np.ndarray:
    """Uniform time grid 0 = t_0 < ... < t_M = T with step dt."""
    if not (T > 0 and dt > 0):
        raise ValueError("T and dt must be positive")
    M = int(round(T / dt))
    if M < 1 or abs(M * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    return np.linspace(0.0, T, M + 1)


def spectra(fields: list) -> np.ndarray:
    """The half spectra of a list of Fields, stacked to (n, N, N//2 + 1).

    The spectra no field has cached yet are computed by one ``rfft2``
    over the stack of their values, and cached.
    """
    missing = [f for f in dict.fromkeys(fields) if f._spectrum is None]
    if missing:
        S = np.fft.rfft2(np.stack([f.values for f in missing]))
        S[..., missing[0].grid.nyquist] = 0.0
        S.flags.writeable = False
        for f, s in zip(missing, S):
            f._spectrum = s
    return np.stack([f.spectrum for f in fields])


def from_spectra(grid: TorusGrid, S: np.ndarray) -> tuple:
    """Fields from a stack of half spectra of shape (n, N, N//2 + 1).

    The counterpart of ``spectra``: one ``irfft2`` over the stack.  S is
    taken over, not copied: its Nyquist modes are zeroed in place and it
    is frozen as the fields' spectra.  Returns the read-only (n, N, N)
    value stack and one Field per row, a view of it.
    """
    S[..., grid.nyquist] = 0.0
    V = np.fft.irfft2(S, s=(grid.N, grid.N))
    S.flags.writeable = V.flags.writeable = False
    return V, [Field(grid, v, s) for v, s in zip(V, S)]


def dealiased(x) -> np.ndarray:
    """Grid values of x with every mode outside the 2/3 rule removed.

    ``x`` is a Field (its own spectrum is truncated), a list of Fields
    (values of shape (n, N, N)) or a stack of grid values of shape
    (..., N, N), one field per leading index.
    """
    if isinstance(x, Field):
        g, spec = x.grid, x.spectrum
    elif isinstance(x, list):
        g, spec = x[0].grid, spectra(x)
    else:
        g = make_grid(x.shape[-1])
        spec = np.fft.rfft2(x)
        spec[..., g.nyquist] = 0.0
    return np.fft.irfft2(spec * g.dealias, s=(g.N, g.N))


def pointwise_product(a, b, dealias: bool = True):
    """Grid product a*b; the 2/3 rule truncates both inputs first.

    Two Fields give a Field.  Either input may instead be a stack of
    grid values of shape (..., N, N), multiplied field by field, and
    then the product is returned as values.
    """
    fields = isinstance(a, Field) and isinstance(b, Field)
    if fields:
        _same_grid(a, b)
    if dealias:
        out = dealiased(a) * dealiased(b)
    else:
        out = getattr(a, "values", a) * getattr(b, "values", b)
    return Field(a.grid, out) if fields else out


def write_pfld(path, data) -> None:
    """Write a Field or PathField snapshot in the PFLD binary format.

    Layout: magic "PFLD", u32 N, u32 M, then M slices of N*N float64
    little-endian values, row-major.
    """
    if isinstance(data, Field):
        slices = [data]
    else:
        slices = list(data.fields)
    N = slices[0].grid.N
    with open(path, "wb") as fh:
        fh.write(PFLD_MAGIC)
        fh.write(struct.pack("<II", N, len(slices)))
        for f in slices:
            fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_pfld(path):
    """Read a PFLD snapshot; returns (N, list of (N, N) float arrays)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != PFLD_MAGIC:
        raise ValueError("not a PFLD file: bad magic or header cut short")
    N, M = struct.unpack_from("<II", data, 4)
    if len(data) != 12 + 8 * N * N * M:  # a slice cut short, or bytes after
        raise ValueError(f"PFLD file of {len(data)} bytes; its header "
                         f"(N = {N}, M = {M}) needs {12 + 8 * N * N * M}")
    flat = np.frombuffer(data, dtype="<f8", offset=12).reshape(M, N, N)
    return N, [s.copy() for s in flat]
