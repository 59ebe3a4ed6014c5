"""Nonlinearity families f and g acting on a field and an empirical measure.

An interaction is built from a pointwise function F(a, b_1, ..., b_m)
averaged over m-tuples of measure atoms:

    f(u, mu)(z) = mean over atom tuples of F(u(z), v_1(z), ..., v_m(z)).

Most families are products F = s g(a) h(b_1) ... h(b_m).  Their tuple
average is exactly s g(u) H^m with H = mean_j h(v_j), and a measure
computes H once for every field evaluated against it, so the cost is
linear in the number of atoms for any m (Bossy-Talay).  The two
pointwise families, mean_revert and tanh_revert, do not factor; they
take m = 1, are stored as an odd profile phi with F(a, b) = phi(b - a)
and are averaged atom by atom.

A long-range interaction averages the measure argument against a
kernel k(z - z') over the torus, which turns H into k * H: one
per-mode multiplier on its spectrum.  It takes product families with
m = 1, and direct schemes only (its derivative along an atom is a
convolution, not the pointwise factor the paracontrolled scheme needs).
Bounded-confinement variants vanishing at +-C0 realize the comparison
principle assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .torus import Field, TorusGrid

__all__ = [
    "InteractionSpec",
    "EmpiricalMeasure",
    "make_interaction",
    "make_kernel",
    "eval_f",
    "eval_partial",
    "eval_g",
    "eval_slot_partial",
]


@dataclass
class EmpiricalMeasure:
    """Uniform-weight ensemble of fields (atoms share one grid).

    ``stack`` is the atoms' values stacked to shape (n, N, N), read-only,
    when the caller already holds them so (a solver's own fields);
    otherwise it is built on the first ``values()`` call.
    """

    atoms: list
    stack: np.ndarray | None = None

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("empirical measure needs at least one atom")
        g = self.atoms[0].grid
        for a in self.atoms:
            if a.grid != g:
                raise ValueError("atoms must share a grid")
        if self.stack is not None:
            if self.stack.shape != (len(self.atoms), g.N, g.N):
                raise ValueError("stack shape does not match the atoms")
            if self.stack.flags.writeable:
                raise ValueError("stack must be read-only")
        self._means = {}

    def __len__(self):
        return len(self.atoms)

    @property
    def grid(self) -> TorusGrid:
        return self.atoms[0].grid

    def values(self) -> np.ndarray:
        """The atoms stacked to shape (n, N, N), built on the first call."""
        if self.stack is None:
            self.stack = np.stack([a.values for a in self.atoms])
            self.stack.flags.writeable = False
        return self.stack

    def mean(self, fn, kernel=None) -> np.ndarray:
        """The atom average mean_j fn(v_j), built once per (fn, kernel).

        With a kernel it is convolved over the torus: k * mean_j fn(v_j).
        """
        key = (fn, kernel)
        if key not in self._means:
            if kernel is None:
                avg = fn(self.values()).mean(axis=0)
            else:
                N = self.grid.N
                avg = np.fft.irfft2(_multiplier(kernel, self.grid)
                                    * np.fft.rfft2(self.mean(fn)), s=(N, N))
            avg.flags.writeable = False
            self._means[key] = avg
        return self._means[key]


@dataclass
class InteractionSpec:
    """Pointwise interaction F with its partial derivatives.

    ``F`` takes (m+1) arrays; ``partials[i]`` is dF/d(arg i+1).  A
    product family also carries ``factors`` = (s, g, g', h, h') with
    F = s g(a) h(b_1) ... h(b_m); F and its partials are derived from
    them, and the measure averages read them directly.  When ``kernel``
    is set the interaction is long-range: the measure factor's spectrum
    is multiplied by the kernel's, which needs a product family, m = 1
    and a direct scheme.  A spec without ``factors`` is a pointwise
    family with m = 1 and carries ``phi``, an odd profile (phi(-d) =
    -phi(d) bit for bit, called as phi(d, out=...)) with F(a, b) =
    phi(b - a); F and its partials are derived from it, and a running
    measure sums phi over each pair of its atoms once.
    """

    name: str
    F: object
    partials: tuple
    m: int = 1
    kernel: object = None
    factors: tuple | None = None
    phi: object = None


def _self_pair_sum(phi, V: np.ndarray) -> np.ndarray:
    """sum_j phi(v_j - v_i) for every atom v_i of V, for an odd phi.

    Row i evaluates its terms j >= i only; each term j > i enters row j
    negated, as phi(v_i - v_j) = -phi(v_j - v_i).  Every row still adds
    its terms in the order j = 0, 1, ... from +0, as add.reduce over
    axis 0 does, so each sum is bitwise the one of phi(V - v_i); a sum
    started at +0 does not show the sign of a zero term, where the two
    differ.  One (n + 1, N, N) buffer holds a row's partial sum and its
    new terms, so no step allocates.
    """
    n = len(V)
    acc = np.zeros_like(V)  # row i: +0 and its terms j < i, in order
    buf = np.empty((n + 1,) + V.shape[1:])
    for i in range(n):
        P = buf[1:n - i + 1]
        phi(np.subtract(V[i:], V[i], out=P), out=P)
        acc[i + 1:] -= P[1:]
        buf[0] = acc[i]
        np.add.reduce(buf[:n - i + 1], axis=0, out=acc[i])
    return acc


def _average(spec: InteractionSpec, index: int, u, mu: EmpiricalMeasure):
    """Tuple average of F (index 0) or of dF/d(arg index)."""
    vals = u.values if isinstance(u, Field) else u
    if spec.factors is None:
        fn = spec.F if index == 0 else spec.partials[index - 1]
        V = mu.values()
        if index == 0 and vals is V:
            out = _self_pair_sum(spec.phi, V)
            out /= len(V)
        else:
            rows = vals[None] if vals.ndim == 2 else vals
            out = np.stack([fn(row[None], V).mean(axis=0) for row in rows])
            out = out[0] if vals.ndim == 2 else out
    else:
        s, g, dg, h, dh = spec.factors
        m = spec.m
        H = mu.mean(h, spec.kernel)
        if index == 0:
            out = s * g(vals) * H ** m
        elif index == 1:
            out = s * dg(vals) * H ** m
        else:
            out = s * g(vals) * mu.mean(dh, spec.kernel) * H ** (m - 1)
    return Field(u.grid, out) if isinstance(u, Field) else out


def eval_f(spec: InteractionSpec, u, mu: EmpiricalMeasure):
    """Tuple-averaged interaction f(u, mu).

    ``u`` is a Field, which gives a Field, or a stack of grid values of
    shape (n, N, N), which gives the values of f at each field.  When
    the stack is ``mu.values()`` itself (a running measure), a pointwise
    family evaluates each pair of fields once.
    """
    return _average(spec, 0, u, mu)


def eval_partial(spec: InteractionSpec, index: int, u,
                 mu: EmpiricalMeasure):
    """Tuple-averaged partial derivative; index 1 is d/d(first argument).

    ``u`` is a Field or a stack of grid values, as for ``eval_f``.
    """
    if not 1 <= index <= spec.m + 1:
        raise ValueError(f"index must be in 1..{spec.m + 1}")
    return _average(spec, index, u, mu)


def eval_g(spec_g: InteractionSpec, u, mu: EmpiricalMeasure):
    """The drift g, sharing the evaluation machinery of f."""
    return eval_f(spec_g, u, mu)


def eval_slot_partial(spec: InteractionSpec, j: int, u: Field,
                      mu: EmpiricalMeasure) -> Field:
    """Derivative of f(u, mu) along atom j of mu.

    The sum over the m measure slots of the tuple average of that
    slot's partial with atom j held in it: m s g(u) h'(v_j) H^(m-1)
    for a product family.  A long-range f has no such pointwise
    derivative (it is a convolution), so a kernel is rejected.
    """
    if spec.kernel is not None:
        raise ValueError("long-range interactions have no pointwise "
                         "derivative along an atom")
    v = mu.values()[j]
    if spec.factors is None:
        return Field(u.grid, spec.partials[1](u.values, v))
    s, g, _, h, dh = spec.factors
    m = spec.m
    return Field(u.grid, m * s * g(u.values) * dh(v) * mu.mean(h) ** (m - 1))


# ---------------------------------------------------------------------------
# long-range kernels

_KERNEL_PARAMS = {"constant": ("c",), "gaussian": ("width", "amp"),
                  "cosine": ("a",)}


def make_kernel(name: str, **params):
    """Registered long-range kernel, a function k(dx, dy) of z - z'.

    constant   c                                    (c = 1/(2 pi)^2)
    gaussian   amp exp(-|z - z'|^2 / (2 width^2))   (minimum image;
               width = 1, amp = 1/(2 pi width^2))
    cosine     (1 + a cos(dx) cos(dy)) / (2 pi)^2   (a = 0.5)
    """
    if name not in _KERNEL_PARAMS:
        raise ValueError(f"unknown kernel {name!r}")
    unknown = sorted(set(params) - set(_KERNEL_PARAMS[name]))
    if unknown:
        raise ValueError(f"kernel {name} has no parameter {unknown[0]!r} "
                         f"(allowed: {', '.join(_KERNEL_PARAMS[name])})")
    if name == "constant":
        c = params.get("c", 1.0 / (2.0 * np.pi) ** 2)
        return lambda dx, dy: np.full(np.broadcast(dx, dy).shape, c)
    if name == "gaussian":
        w = params.get("width", 1.0)
        if not w > 0:
            raise ValueError(f"gaussian width = {w} must be positive")
        amp = params.get("amp", 1.0 / (2.0 * np.pi * w ** 2))

        def k(dx, dy):
            r2 = sum(np.minimum(d % (2.0 * np.pi), -d % (2.0 * np.pi)) ** 2
                     for d in (dx, dy))
            return amp * np.exp(-r2 / (2.0 * w ** 2))

        return k
    a = params.get("a", 0.5)
    return lambda dx, dy: (1.0 + a * np.cos(dx) * np.cos(dy)) / (2.0 * np.pi) ** 2


@lru_cache(maxsize=8)
def _multiplier(kernel, grid: TorusGrid) -> np.ndarray:
    """Per-mode multiplier h^2 rfft2(k(z - 0)) of convolution with k.

    Nyquist modes are kept, so irfft2(multiplier * rfft2(H)) is the grid
    sum h^2 sum_z' k(z - z') H(z') up to rounding.
    """
    X, Y = grid.coords()
    k_hat = grid.spacing ** 2 * np.fft.rfft2(kernel(X, Y))
    k_hat.flags.writeable = False
    return k_hat


# ---------------------------------------------------------------------------
# built-in interaction library


def _ident(x):
    return x


def _sech2(x):
    return 1.0 / np.cosh(x) ** 2


def _lorentz(b):
    return 1.0 / (1.0 + b ** 2)


def _dlorentz(b):
    return -2.0 * b / (1.0 + b ** 2) ** 2


def _product_spec(name: str, m: int, factors: tuple) -> InteractionSpec:
    """F = s g(a) h(b_1) ... h(b_m) and its m + 1 partials."""
    s, g, dg, h, dh = factors

    def term(i):
        # the product with factor i differentiated (0 is g); -1 gives F
        def fn(a, *bs):
            out = s * (dg(a) if i == 0 else g(a))
            for k, b in enumerate(bs, 1):
                out = out * (dh(b) if k == i else h(b))
            return out
        return fn

    return InteractionSpec(name, term(-1), tuple(term(i) for i in range(m + 1)),
                           m=m, factors=factors)


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

    bilinear and tanh_bilinear take m measure slots, F = scale * g(a)
    * g(b_1) ... g(b_m); every other family takes m = 1.  A ``kernel``
    (see ``make_kernel``) needs a product family and m = 1.
    """
    s = params.get("scale", 1.0)
    m = int(params.get("m", 1))
    C0 = params.get("C0")
    c0 = 1.0 if C0 is None else float(C0)
    kernel = params.get("kernel")
    if m < 1:
        raise ValueError(f"m = {m} must be at least 1")
    if not c0 > 0:
        raise ValueError(f"C0 = {C0} must be positive")
    w = np.pi / (2.0 * c0)

    def bump(a):
        return np.cos(np.clip(w * a, -np.pi, np.pi))

    def dbump(a):
        return -w * np.sin(np.clip(w * a, -np.pi, np.pi))

    def cap(a):
        return (c0 ** 2 - a ** 2) * np.exp(-a ** 2 / (2.0 * c0 ** 2))

    def dcap(a):
        return (np.exp(-a ** 2 / (2.0 * c0 ** 2))
                * (-2.0 * a - (c0 ** 2 - a ** 2) * a / c0 ** 2))

    # F = s g(a) h(b_1) ... h(b_m), stored as (s, g, g', h, h')
    products = {
        "bilinear": (s, _ident, np.ones_like, _ident, np.ones_like),
        "tanh_bilinear": (s, np.tanh, _sech2, np.tanh, _sech2),
        "cos_bump": (s, bump, dbump, _lorentz, _dlorentz),
        "quadratic_cap": (s, cap, dcap, _lorentz, _dlorentz),
        "identity": (1.0, _ident, np.ones_like, np.ones_like, np.zeros_like),
        "constant": (params.get("c", 1.0), np.ones_like, np.zeros_like,
                     np.ones_like, np.zeros_like),
        "zero": (0.0, np.ones_like, np.zeros_like, np.ones_like,
                 np.zeros_like),
    }
    # F(a, b) = phi(b - a) that does not factor, stored as (phi, phi');
    # each phi is odd bit for bit, which a running measure's pair sum
    # relies on (_self_pair_sum)
    pointwise = {
        "mean_revert": (lambda d, out=None: np.multiply(s, d, out=out),
                        lambda d: np.full_like(d, s)),
        "tanh_revert": (lambda d, out=None: np.multiply(
                            s, np.tanh(d, out=out), out=out),
                        lambda d: s / np.cosh(d) ** 2),
    }

    if name not in products and name not in pointwise:
        raise ValueError(f"unknown interaction {name!r}")
    if kernel is not None and m != 1:
        raise ValueError("long-range interactions require m = 1")
    if kernel is not None and name in pointwise:
        raise ValueError(f"{name} does not factor, so it takes no kernel")
    if m != 1 and name not in ("bilinear", "tanh_bilinear"):
        raise ValueError(f"{name} only supports m = 1")
    if name in products:
        spec = _product_spec(name, m, products[name])
    else:  # dF/da = -phi'(b - a), dF/db = phi'(b - a)
        phi, dphi = pointwise[name]
        spec = InteractionSpec(name, lambda a, b: phi(b - a),
                               (lambda a, b: -dphi(b - a),
                                lambda a, b: dphi(b - a)), phi=phi)
    spec.kernel = kernel
    return spec
