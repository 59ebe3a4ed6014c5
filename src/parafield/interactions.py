"""Nonlinearity families f and g acting on a field and an empirical measure.

An interaction is built from a pointwise function F(a, b_1, ..., b_m)
averaged over m-tuples of measure atoms:

    f(u, mu)(z) = mean over atom tuples of F(u(z), v_1(z), ..., v_m(z)).

Long-range interactions (m = 1, with a kernel) integrate the second
argument against k(z, z') over the torus instead of evaluating it at z.
Bounded-confinement variants vanishing at +-C0 realize the comparison
principle assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .torus import Field, TorusGrid

__all__ = [
    "InteractionSpec",
    "EmpiricalMeasure",
    "make_interaction",
    "make_kernel",
    "eval_f",
    "eval_f_longrange",
    "eval_partial",
    "eval_g",
]

TUPLE_CAP = 4096
_SUBSAMPLE_SEED = 0x7A57EED  # fixed seed for tuple subsampling


@dataclass
class EmpiricalMeasure:
    """Uniform-weight ensemble of fields (atoms share one grid)."""

    atoms: list

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("empirical measure needs at least one atom")
        g = self.atoms[0].grid
        for a in self.atoms:
            if a.grid != g:
                raise ValueError("atoms must share a grid")
        self._stack = None

    def __len__(self):
        return len(self.atoms)

    @property
    def grid(self) -> TorusGrid:
        return self.atoms[0].grid

    def values(self) -> np.ndarray:
        """The atoms stacked to shape (n, N, N), built on the first call."""
        if self._stack is None:
            self._stack = np.stack([a.values for a in self.atoms])
            self._stack.flags.writeable = False
        return self._stack


@dataclass
class InteractionSpec:
    """Pointwise interaction F with its partial derivatives.

    ``F`` takes (m+1) arrays; ``partials[i]`` is dF/d(arg i+1).  When
    ``kernel`` is set the interaction is long-range and m must be 1.
    ``C0`` marks the vanishing threshold of Assumption-B variants.
    """

    name: str
    F: object
    partials: tuple
    m: int = 1
    kernel: object = None
    C0: float | None = None


def _tuples(n: int, m: int):
    """All ordered atom tuples, or a seeded subsample above the cap."""
    total = n ** m
    if total <= TUPLE_CAP:
        return list(itertools.product(range(n), repeat=m))
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [_SUBSAMPLE_SEED, total], dtype=np.uint64)))
    return [tuple(rng.integers(0, n, size=m)) for _ in range(TUPLE_CAP)]


def _tuple_average(fn, u: Field, mu: EmpiricalMeasure, m: int) -> Field:
    vals = mu.values()
    if m == 1:
        out = fn(u.values[None, :, :], vals).mean(axis=0)
        return Field(u.grid, out)
    acc = np.zeros_like(u.values)
    tups = _tuples(len(mu), m)
    for tup in tups:
        acc += fn(u.values, *[vals[i] for i in tup])
    return Field(u.grid, acc / len(tups))


def eval_f(spec: InteractionSpec, u: Field, mu: EmpiricalMeasure) -> Field:
    """Tuple-averaged interaction f(u, mu)."""
    if spec.kernel is not None:
        return eval_f_longrange(spec, u, mu)
    if len(mu) == 0:
        raise ValueError("empty measure")
    return _tuple_average(spec.F, u, mu, spec.m)


def eval_partial(spec: InteractionSpec, index: int, u: Field,
                 mu: EmpiricalMeasure) -> Field:
    """Tuple-averaged partial derivative; index 1 is d/d(first argument)."""
    if not 1 <= index <= spec.m + 1:
        raise ValueError(f"index must be in 1..{spec.m + 1}")
    dF = spec.partials[index - 1]
    if spec.kernel is not None:
        return _longrange(dF, u, mu, spec.kernel)
    return _tuple_average(dF, u, mu, spec.m)


def eval_g(spec_g: InteractionSpec, u: Field, mu: EmpiricalMeasure) -> Field:
    """The drift g, sharing the evaluation machinery of f."""
    return eval_f(spec_g, u, mu)


# ---------------------------------------------------------------------------
# long-range kernels


class GridKernel:
    """Smooth kernel k(z, z') sampled on the grid (dense matrix)."""

    def __init__(self, fn, name: str = "kernel"):
        self.fn = fn
        self.name = name
        self._cache: dict = {}

    def matrix(self, grid: TorusGrid) -> np.ndarray:
        if grid.N not in self._cache:
            X, Y = grid.coords()
            z = np.stack([X.ravel(), Y.ravel()], axis=1)
            self._cache[grid.N] = self.fn(z[:, None, :], z[None, :, :])
        return self._cache[grid.N]


def _torus_dist2(z, zp):
    d = np.abs(z - zp)
    d = np.minimum(d, 2.0 * np.pi - d)
    return (d ** 2).sum(axis=-1)


def make_kernel(name: str, **params) -> GridKernel:
    """Registered long-range kernels."""
    if name == "constant":
        c = params.get("c", 1.0 / (2.0 * np.pi) ** 2)
        return GridKernel(lambda z, zp: np.full(np.broadcast_shapes(
            z.shape[:-1], zp.shape[:-1]), c), name)
    if name == "gaussian":
        w = params.get("width", 1.0)
        amp = params.get("amp", 1.0 / (2.0 * np.pi * w ** 2))

        def fn(z, zp):
            return amp * np.exp(-_torus_dist2(z, zp) / (2.0 * w ** 2))

        return GridKernel(fn, name)
    if name == "cosine":
        # separable smooth kernel 1 + a cos(z1 - z1')cos-type coupling
        a = params.get("a", 0.5)

        def fn(z, zp):
            return (1.0 + a * np.cos(z[..., 0] - zp[..., 0])
                    * np.cos(z[..., 1] - zp[..., 1])) / (2.0 * np.pi) ** 2

        return GridKernel(fn, name)
    raise ValueError(f"unknown kernel {name!r}")


def _longrange(fn, u: Field, mu: EmpiricalMeasure, kernel: GridKernel) -> Field:
    grid = u.grid
    K = kernel.matrix(grid)
    uf = u.values.ravel()
    h2 = grid.spacing ** 2
    acc = np.zeros_like(uf)
    for atom in mu.atoms:
        bf = atom.values.ravel()
        # chunk over target points to bound memory at larger N
        step = max(1, 2 ** 22 // max(1, bf.size))
        for lo in range(0, uf.size, step):
            hi = min(uf.size, lo + step)
            Fm = fn(uf[lo:hi, None], bf[None, :])
            acc[lo:hi] += (Fm * K[lo:hi]).sum(axis=1) * h2
    return Field(grid, (acc / len(mu)).reshape(grid.N, grid.N))


def eval_f_longrange(spec: InteractionSpec, u: Field,
                     mu: EmpiricalMeasure) -> Field:
    """Long-range interaction: integrate F(u(z), b(z')) k(z, z') dz'."""
    if spec.kernel is None:
        raise ValueError("spec has no kernel")
    if spec.m != 1:
        raise ValueError("long-range interactions require m = 1")
    return _longrange(spec.F, u, mu, spec.kernel)


# ---------------------------------------------------------------------------
# built-in interaction library


def make_interaction(name: str, **params) -> InteractionSpec:
    """Registered interaction family.

    bilinear          scale * a * b
    tanh_bilinear     scale * tanh(a) * tanh(b)            (bounded)
    cos_bump          scale * cos(pi a / (2 C0)) / (1+b^2) (vanishes at +-C0)
    quadratic_cap     scale * (C0^2-a^2) e^{-a^2/(2C0^2)} / (1+b^2)
    identity          a                                    (f(u, mu) = u)
    constant          c
    mean_revert       scale * (b - a)                      (drift toward mean)
    tanh_revert       scale * tanh(b - a)                  (bounded drift)
    zero              0
    """
    s = params.get("scale", 1.0)
    m = int(params.get("m", 1))
    C0 = params.get("C0")
    kernel = params.get("kernel")

    if name == "bilinear":
        spec = InteractionSpec(
            name, lambda a, b: s * a * b,
            (lambda a, b: s * b, lambda a, b: s * a),
            m=1)
    elif name == "tanh_bilinear":
        spec = InteractionSpec(
            name, lambda a, b: s * np.tanh(a) * np.tanh(b),
            (lambda a, b: s * np.tanh(b) / np.cosh(a) ** 2,
             lambda a, b: s * np.tanh(a) / np.cosh(b) ** 2),
            m=1)
    elif name == "cos_bump":
        c0 = 1.0 if C0 is None else float(C0)
        w = np.pi / (2.0 * c0)
        spec = InteractionSpec(
            name, lambda a, b: s * np.cos(np.clip(w * a, -np.pi, np.pi)) / (1.0 + b ** 2),
            (lambda a, b: -s * w * np.sin(np.clip(w * a, -np.pi, np.pi)) / (1.0 + b ** 2),
             lambda a, b: -2.0 * s * b * np.cos(np.clip(w * a, -np.pi, np.pi))
             / (1.0 + b ** 2) ** 2),
            m=1, C0=c0)
    elif name == "quadratic_cap":
        c0 = 1.0 if C0 is None else float(C0)

        def env(a):
            return np.exp(-a ** 2 / (2.0 * c0 ** 2))

        spec = InteractionSpec(
            name,
            lambda a, b: s * (c0 ** 2 - a ** 2) * env(a) / (1.0 + b ** 2),
            (lambda a, b: s * env(a) * (-2.0 * a - (c0 ** 2 - a ** 2) * a / c0 ** 2)
             / (1.0 + b ** 2),
             lambda a, b: -2.0 * s * b * (c0 ** 2 - a ** 2) * env(a)
             / (1.0 + b ** 2) ** 2),
            m=1, C0=c0)
    elif name == "identity":
        spec = InteractionSpec(
            name, lambda a, b: a + 0.0 * b,
            (lambda a, b: np.ones_like(a + 0.0 * b),
             lambda a, b: np.zeros_like(a + 0.0 * b)),
            m=1)
    elif name == "constant":
        c = params.get("c", 1.0)
        spec = InteractionSpec(
            name, lambda a, b: np.full_like(a + 0.0 * b, c),
            (lambda a, b: np.zeros_like(a + 0.0 * b),
             lambda a, b: np.zeros_like(a + 0.0 * b)),
            m=1)
    elif name == "mean_revert":
        spec = InteractionSpec(
            name, lambda a, b: s * (b - a),
            (lambda a, b: np.full_like(a + 0.0 * b, -s),
             lambda a, b: np.full_like(a + 0.0 * b, s)),
            m=1)
    elif name == "tanh_revert":
        spec = InteractionSpec(
            name, lambda a, b: s * np.tanh(b - a),
            (lambda a, b: -s / np.cosh(b - a) ** 2,
             lambda a, b: s / np.cosh(b - a) ** 2),
            m=1)
    elif name == "zero":
        spec = InteractionSpec(
            name, lambda a, b: np.zeros_like(a + 0.0 * b),
            (lambda a, b: np.zeros_like(a + 0.0 * b),
             lambda a, b: np.zeros_like(a + 0.0 * b)),
            m=1)
    else:
        raise ValueError(f"unknown interaction {name!r}")

    if kernel is not None and m != 1:
        raise ValueError("long-range interactions require m = 1")
    if m != 1 and name in ("bilinear", "tanh_bilinear"):
        spec = _lift_to_m(spec, m, s, name)
    elif m != 1:
        raise ValueError(f"{name} only supports m = 1")
    if kernel is not None:
        spec.kernel = kernel
    return spec


def _lift_to_m(base: InteractionSpec, m: int, s: float, name: str) -> InteractionSpec:
    """Product lift of a bilinear family to m measure slots."""
    if name == "bilinear":
        g = lambda x: x
        dg = lambda x: np.ones_like(x)
    else:
        g = np.tanh
        dg = lambda x: 1.0 / np.cosh(x) ** 2

    def F(a, *bs):
        out = s * g(a)
        for b in bs:
            out = out * g(b)
        return out

    def partial(i):
        def dF(a, *bs):
            args = (a,) + bs
            out = np.full_like(a, s)
            for j, x in enumerate(args):
                out = out * (dg(x) if j == i else g(x))
            return out
        return dF

    return InteractionSpec(name + f"_m{m}", F,
                           tuple(partial(i) for i in range(m + 1)),
                           m=m)
