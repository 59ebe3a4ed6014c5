"""Paraproduct, resonant product and corrector.

Block-pair conventions: the paraproduct a < b keeps pairs (l', l) with
l' <= l - 2; the resonant product keeps |l - l'| <= 1.  Together with
the reversed paraproduct these partition all block pairs exactly, so
the Bony reconstruction a<b + b<a + a(.)b = a*b holds to rounding.
All grid products are dealiased, and the blocks are those of
``dyadic_blocks`` on the grid of the operands, kept on each operand
Field, so an operand used in several products is blocked once.
That stack omits the top block, which dealiasing empties, so both
products loop over the blocks they are given.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .littlewood_paley import dyadic_blocks
from .torus import Field, pointwise_product

__all__ = ["para", "resonant", "corrector"]


def para(a: Field, b: Field) -> Field:
    """Paraproduct a < b (low frequencies of a times high of b)."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    part = dyadic_blocks(a.grid)
    ab = part.dealiased_blocks(a)
    bb = part.dealiased_blocks(b)
    # block index i corresponds to ell = i - 1; need ell' <= ell - 2,
    # so block i meets low = ab[0] + ... + ab[i - 2]; zip stops at the
    # last block of b before it asks for a low sum nothing reads
    out = np.zeros_like(ab[0])
    for high, low in zip(bb[2:], accumulate(ab)):
        out += low * high
    return Field(a.grid, out)


def resonant(a: Field, b: Field) -> Field:
    """Resonant product a (.) b, the |l - l'| <= 1 block diagonal."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    part = dyadic_blocks(a.grid)
    ab = part.dealiased_blocks(a)
    bb = part.dealiased_blocks(b)
    n = len(ab)
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
