"""Dyadic partition and Besov estimator contracts."""

import gc
import weakref

import numpy as np
import pytest

from parafield import Field, besov_norm, dyadic_blocks, make_grid
from parafield.bony import para
from parafield.littlewood_paley import DyadicPartition
from conftest import block_planes, random_field


def single_mode(grid, kx, ky, amp=1.0):
    X, Y = grid.coords()
    return Field.from_values(grid, amp * np.cos(kx * X + ky * Y))


@pytest.mark.parametrize("mode,block", [
    ((0, 0), -1), ((1, 0), 0), ((1, 1), 0), ((3, 0), 1),
    ((4, 0), 2), ((5, 5), 2), ((8, 0), 3), ((15, 0), 3),
])
def test_block_membership(grid64, mode, block):
    part = dyadic_blocks(grid64)
    if mode == (0, 0):
        f = Field(grid64, np.ones((64, 64)))
    else:
        f = single_mode(grid64, *mode)
    # the block's weight is one on the field's modes, every other zero
    support = np.abs(f.spectrum) > 1e-9
    for ell, w in zip(part.ells, part.weights):
        assert np.all(w[support] == (1.0 if ell == block else 0.0))


def test_sharp_weights_partition_unity(grid64):
    part = dyadic_blocks(grid64)
    total = part.weights.sum(axis=0)
    keep = ~grid64.nyquist
    assert np.allclose(total[keep], 1.0, atol=1e-14)
    assert np.allclose(total[~keep], 0.0, atol=1e-14)


def test_reconstruction_from_blocks(grid64, rng):
    part = dyadic_blocks(grid64)
    f = random_field(grid64, rng)
    recon = part.block_fields(f.spectrum).sum(axis=0)
    assert np.max(np.abs(recon - f.values)) <= 1e-10 * max(1.0, f.linf())


def test_dealiased_blocks_match_fresh_transform_read_only(grid32, rng):
    part = dyadic_blocks(grid32)
    f = random_field(grid32, rng)
    first = part.dealiased_blocks(f)
    again = part.dealiased_blocks(f)  # kept on the Field
    assert again is first
    fresh = part.block_fields(f.spectrum * grid32.dealias)
    # the kept stack omits the top block, which dealiasing empties
    assert np.array_equal(first, fresh[:-1])
    assert not np.any(fresh[-1])
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 1.0


def test_field_owns_its_block_stack(grid32, rng, monkeypatch):
    # each Field is blocked once, however often it is read, and its
    # stack is freed with it; nothing else keeps one
    part = dyadic_blocks(grid32)
    transforms = []
    inner = DyadicPartition.block_fields
    monkeypatch.setattr(DyadicPartition, "block_fields",
                        lambda self, *args, **kwargs:
                        transforms.append(1) or inner(self, *args, **kwargs))
    fields = [random_field(grid32, rng) for _ in range(20)]
    for _ in range(3):
        for f in fields:
            part.dealiased_blocks(f)
    assert len(transforms) == len(fields)
    stacks = [weakref.ref(f._blocks) for f in fields]
    del f, fields
    gc.collect()
    assert all(s() is None for s in stacks)


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
def test_grown_stack_matches_fresh_transform(N, monkeypatch):
    # a prefix read, then a full read, transforms each plane once and
    # leaves on the Field the planes a fresh transform gives
    grid = make_grid(N)
    part = dyadic_blocks(grid)
    f = random_field(grid, np.random.default_rng(N))
    fresh = part.block_fields(f.spectrum * grid.dealias)[:-1]
    planes = block_planes(monkeypatch)
    n = len(fresh)
    prefix = part.dealiased_blocks(f, n - 2)
    assert len(f._blocks) == n - 2
    full = part.dealiased_blocks(f)
    assert planes == [n - 2, 2]
    for got, want in zip(full, fresh, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(prefix, full[:-2])
    for stack in (prefix, full, part.dealiased_blocks(f, 1)):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
    # a repeated full read returns the stored stack itself, and a prefix
    # read of a full stack neither transforms nor shortens it
    assert part.dealiased_blocks(f) is full
    assert part.dealiased_blocks(f) is full
    assert np.array_equal(part.dealiased_blocks(f, n - 2), prefix)
    assert f._blocks is full and len(planes) == 2


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
def test_para_blocks_its_low_operand_in_part(N):
    # a < b reads a only through its first len - 2 blocks
    grid = make_grid(N)
    part = dyadic_blocks(grid)
    rng = np.random.default_rng(N)
    a, b = random_field(grid, rng), random_field(grid, rng)
    n = len(part.ells) - 1
    para(a, b)
    para(a, b)
    assert len(a._blocks) == n - 2
    assert len(b._blocks) == n


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
def test_top_block_is_empty_after_dealiasing(N):
    # the top block holds |k| >= N/2, the 2/3 rule keeps |k| <= sqrt(2) N/3
    grid = make_grid(N)
    part = dyadic_blocks(grid)
    assert part.ells[-1] == part.L_max
    assert not np.any(part.weights[-1][grid.dealias])


def test_besov_single_mode_values(grid64):
    # cos(3x) sits in block 1: sup norm term is 2^gamma * 1,
    # L2 term is 2^gamma * ||cos||_{L2} = 2^gamma * pi * sqrt(2)
    f = single_mode(grid64, 3, 0)
    for gamma in (-1.0, 0.0, 0.7):
        assert besov_norm(f, gamma) == pytest.approx(2.0 ** gamma, rel=1e-10)
        assert besov_norm(f, gamma, q_space=2) == pytest.approx(
            2.0 ** gamma * np.pi * np.sqrt(2.0), rel=1e-10)


def test_besov_homogeneity_and_sum(grid32, rng):
    f = random_field(grid32, rng)
    for q_sum in (1, 2, np.inf):
        n1 = besov_norm(f, 0.3, 2, q_sum)
        n2 = besov_norm(3.0 * f, 0.3, 2, q_sum)
        assert n2 == pytest.approx(3.0 * n1, rel=1e-12)
    # l^1 over blocks dominates l^inf
    assert besov_norm(f, 0.3, 2, 1) >= besov_norm(f, 0.3, 2, np.inf)


def test_partition_cache_shared():
    g = make_grid(16)
    assert dyadic_blocks(g) is dyadic_blocks(make_grid(16))
