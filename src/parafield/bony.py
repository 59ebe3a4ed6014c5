"""Paraproduct, resonant product, corrector and the time-modified paraproduct.

Block-pair conventions: the paraproduct a < b keeps pairs (l', l) with
l' <= l - 2; the resonant product keeps |l - l'| <= 1.  Together with
the reversed paraproduct these partition all block pairs exactly, so
the Bony reconstruction a<b + b<a + a(.)b = a*b holds to rounding.
All grid products are dealiased, and the blocks are those of
``dyadic_blocks`` on the grid of the operands, read through its bounded
cache, so an operand used in consecutive products is blocked once.
"""

from __future__ import annotations

import numpy as np

from .littlewood_paley import dyadic_blocks
from .torus import Field, PathField, pointwise_product

__all__ = ["para", "resonant", "corrector", "modified_para"]


def para(a: Field, b: Field) -> Field:
    """Paraproduct a < b (low frequencies of a times high of b)."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    part = dyadic_blocks(a.grid)
    ab = part.dealiased_blocks(a)
    bb = part.dealiased_blocks(b)
    # block index i corresponds to ell = i - 1; need ell' <= ell - 2,
    # so block i meets low = ab[0] + ... + ab[i - 2]
    low = ab[0]
    out = np.zeros_like(ab[0])
    for i in range(2, len(part.ells)):
        out += low * bb[i]
        low = low + ab[i - 1]
    return Field(a.grid, out)


def resonant(a: Field, b: Field) -> Field:
    """Resonant product a (.) b, the |l - l'| <= 1 block diagonal."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    part = dyadic_blocks(a.grid)
    ab = part.dealiased_blocks(a)
    bb = part.dealiased_blocks(b)
    n = len(part.ells)
    out = np.zeros_like(ab[0])
    for i in range(n):
        lo, hi = max(0, i - 1), min(n, i + 2)
        out += ab[i] * bb[lo:hi].sum(axis=0)
    return Field(a.grid, out)


def corrector(a: Field, b: Field, c: Field) -> Field:
    """Corrector C(a, b, c) = (a<b) (.) c - a * (b (.) c)."""
    left = resonant(para(a, b), c)
    right = pointwise_product(a, resonant(b, c))
    return left - right


def modified_para(a: PathField, b: PathField,
                  mode: str = "heat_average") -> PathField:
    """Time-modified paraproduct on paths.

    With ``mode="heat_average"`` the low-frequency factor feeding block
    l of b at time t is replaced by its average over the parabolic
    window [t - 2^{-2l}, t] (discretized to the time grid); with
    ``mode="naive"`` this is the slice-wise paraproduct.
    """
    if not np.array_equal(a.times, b.times):
        raise ValueError("mismatched time grids")
    if mode == "naive":
        return a.zip_with(b, para)
    if mode != "heat_average":
        raise ValueError(f"unknown mode {mode!r}")
    part = dyadic_blocks(a.grid)
    n = len(part.ells)
    # lows[m][i] = sum_{l' <= ell_i} Delta_{l'} a at slice m (dealiased)
    lows = [np.cumsum(part.dealiased_blocks(f), axis=0) for f in a.fields]
    out = []
    for m, t in enumerate(a.times):
        bb = part.dealiased_blocks(b.fields[m])
        acc = np.zeros_like(bb[0])
        for i in range(2, n):
            ell = part.ells[i]
            window = 2.0 ** (-2 * ell)
            lo_t = max(0.0, t - window)
            sel = np.nonzero((a.times >= lo_t - 1e-12) & (a.times <= t + 1e-12))[0]
            low_avg = np.mean([lows[s][i - 2] for s in sel], axis=0)
            acc += low_avg * bb[i]
        out.append(Field(a.grid, acc))
    return PathField(a.times, out)
