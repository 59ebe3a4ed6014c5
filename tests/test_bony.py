"""Paraproduct / resonant decomposition against a block double-sum oracle."""

import numpy as np

from parafield import Field, dyadic_blocks, make_grid, pointwise_product
from parafield.bony import corrector, para, resonant
from conftest import on_two_threads, random_field


def _fresh_blocks(f):
    """The dealiased block stack, transformed anew on every call."""
    return dyadic_blocks(f.grid).block_fields(f.spectrum * f.grid.dealias)


def _double_sum_oracle(a, b):
    """Direct sum over block pairs split by the Bony index sets."""
    g = a.grid
    ab, bb = _fresh_blocks(a), _fresh_blocks(b)
    n = len(ab)
    lo_hi = np.zeros_like(ab[0])
    hi_lo = np.zeros_like(ab[0])
    diag = np.zeros_like(ab[0])
    for i in range(n):
        for j in range(n):
            term = ab[i] * bb[j]
            if i <= j - 2:
                lo_hi += term
            elif j <= i - 2:
                hi_lo += term
            else:
                diag += term
    return Field(g, lo_hi), Field(g, hi_lo), Field(g, diag)


def test_para_resonant_match_double_sum(grid32, rng):
    a = random_field(grid32, rng)
    b = random_field(grid32, rng)
    lo_hi, hi_lo, diag = _double_sum_oracle(a, b)
    assert (para(a, b) - lo_hi).linf() < 1e-10
    assert (para(b, a) - hi_lo).linf() < 1e-10
    assert (resonant(a, b) - diag).linf() < 1e-10


def test_bony_reconstruction_exact(grid32, rng):
    for _ in range(20):
        a = random_field(grid32, rng)
        b = random_field(grid32, rng)
        total = para(a, b) + para(b, a) + resonant(a, b)
        prod = pointwise_product(a, b)
        defect = (total - prod).linf()
        assert defect <= 1e-10 * max(1.0, prod.linf())


def test_resonant_symmetric(grid32, rng):
    a = random_field(grid32, rng)
    b = random_field(grid32, rng)
    assert (resonant(a, b) - resonant(b, a)).linf() < 1e-10


def test_corrector_definition(grid32, rng):
    a = random_field(grid32, rng, smooth=0.05)
    b = random_field(grid32, rng)
    c = random_field(grid32, rng)
    want = resonant(para(a, b), c) - \
        pointwise_product(a, resonant(b, c))
    assert (corrector(a, b, c) - want).linf() < 1e-12


def test_corrector_trilinear(grid32, rng):
    a = random_field(grid32, rng, smooth=0.1)
    a2 = random_field(grid32, rng, smooth=0.1)
    b = random_field(grid32, rng)
    c = random_field(grid32, rng)
    scaled = corrector(2.0 * a, b, c)
    assert (scaled - 2.0 * corrector(a, b, c)).linf() < 1e-10
    summed = corrector(a + a2, b, c)
    split = corrector(a, b, c) + corrector(a2, b, c)
    assert (summed - split).linf() < 1e-10


def _para_cumsum(a, b):
    """The paraproduct from fresh blocks and a cumulative low sum."""
    lows = np.cumsum(_fresh_blocks(a), axis=0)
    bb = _fresh_blocks(b)
    out = np.zeros_like(bb[0])
    for i in range(2, len(bb)):
        out += lows[i - 2] * bb[i]
    return Field(a.grid, out)


def _resonant_fresh(a, b):
    ab, bb = _fresh_blocks(a), _fresh_blocks(b)
    n = len(ab)
    out = np.zeros_like(ab[0])
    for i in range(n):
        out += ab[i] * bb[max(0, i - 1):min(n, i + 2)].sum(axis=0)
    return Field(a.grid, out)


def _corrector_fresh(a, b, c):
    return (_resonant_fresh(_para_cumsum(a, b), c)
            - pointwise_product(a, _resonant_fresh(b, c)))


def _assert_bitwise(a, b, c):
    assert np.array_equal(para(a, b).values, _para_cumsum(a, b).values)
    assert np.array_equal(para(b, a).values, _para_cumsum(b, a).values)
    assert np.array_equal(resonant(a, c).values, _resonant_fresh(a, c).values)
    assert np.array_equal(corrector(a, b, c).values,
                          _corrector_fresh(a, b, c).values)


def test_cached_products_bitwise_equal_fresh(grid32, rng):
    a = random_field(grid32, rng, smooth=0.05)
    b = random_field(grid32, rng)
    c = random_field(grid32, rng)
    _assert_bitwise(a, b, c)
    # every operand keeps its stack now, and a product of a with itself
    # reads the same stack twice
    _assert_bitwise(a, b, c)
    assert np.array_equal(para(a, a).values, _para_cumsum(a, a).values)
    assert np.array_equal(resonant(b, b).values, _resonant_fresh(b, b).values)
    # new Fields of the same values are blocked again, to the same bits
    _assert_bitwise(*(Field(grid32, f.values) for f in (a, b, c)))


def test_para_from_two_threads():
    # both threads read the same fresh Fields in the same order, so they
    # race to fill each Field's block stack, which takes no lock
    grid = make_grid(16)
    rng = np.random.default_rng(11)
    values = [rng.standard_normal((16, 16)) for _ in range(400)]

    def products(fields):
        return [para(a, b).values for a, b in zip(fields, fields[1:])]

    serial = products([Field(grid, v) for v in values])
    shared = [Field(grid, v) for v in values]
    for out in on_two_threads(lambda i: products(shared)):
        assert all(np.array_equal(x, y) for x, y in zip(out, serial,
                                                        strict=True))
