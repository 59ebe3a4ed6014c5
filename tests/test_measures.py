"""Wasserstein distances: brute-force oracle and metric properties."""

import importlib
import itertools
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import parafield
from parafield import (Field, chaos_metric, ground_distance_matrix, make_grid,
                       subsample_ensemble, wasserstein)
from parafield.measures import linear_sum_assignment
from conftest import random_field


def _brute_force_w(xs, ys, p):
    cost = ground_distance_matrix(xs, ys) ** p
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, np.mean([cost[i, perm[i]] for i in range(n)]))
    return best ** (1.0 / p)


@pytest.mark.parametrize("p", [1, 2], ids=lambda p: f"{p}-L2")
def test_wasserstein_matches_brute_force(grid16, rng, p):
    xs = [random_field(grid16, rng, smooth=0.2) for _ in range(4)]
    ys = [random_field(grid16, rng, smooth=0.2) for _ in range(4)]
    got = wasserstein(xs, ys, p)
    want = _brute_force_w(xs, ys, p)
    assert got == pytest.approx(want, rel=1e-10)


def _assert_permutation(rows, cols, n):
    assert np.array_equal(rows, np.arange(n))
    assert sorted(cols.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_assignment_matches_brute_force(rng, n):
    # continuous costs (a unique optimum) and small integers (many ties)
    for cost in (rng.random((n, n)), rng.integers(0, 3, (n, n)) * 1.0):
        rows, cols = linear_sum_assignment(cost)
        _assert_permutation(rows, cols, n)
        best = min(sum(cost[i, perm[i]] for i in range(n))
                   for perm in itertools.permutations(range(n)))
        assert cost[rows, cols].sum() == best


def test_assignment_constant_cost_is_identity():
    for n in (1, 2, 7):
        rows, cols = linear_sum_assignment(np.full((n, n), 2.5))
        assert np.array_equal(cols, np.arange(n))


def test_assignment_input_validation():
    for bad in (np.nan, np.inf, -np.inf):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="square"):
        linear_sum_assignment(np.ones((2, 3)))


def test_assignment_agrees_with_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(1, 71))
        cost = rng.random((n, n))
        want = scipy_optimize.linear_sum_assignment(cost)[1]
        assert np.array_equal(linear_sum_assignment(cost)[1], want)
        ints = rng.integers(0, 4, (n, n)) * 1.0
        rows, cols = linear_sum_assignment(ints)
        _assert_permutation(rows, cols, n)
        r2, c2 = scipy_optimize.linear_sum_assignment(ints)
        assert ints[rows, cols].sum() == ints[r2, c2].sum()


def test_wasserstein_identical_ensembles_is_zero(grid16, rng):
    a, b = random_field(grid16, rng), random_field(grid16, rng)
    atoms = [a, b, a, b, a]  # repeated atoms: many optimal pairings
    assert wasserstein(atoms, atoms, 2) == 0.0
    assert wasserstein(atoms, list(reversed(atoms)), 1) == 0.0


def test_import_loads_no_scipy_or_concurrent_futures():
    # both are slow to import; the run pool imports concurrent.futures
    # when it first runs on more than one thread
    src = os.path.dirname(os.path.dirname(parafield.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, parafield, parafield.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'concurrent.futures'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone breaks only
    # `from parafield.<module> import *`
    for info in pkgutil.iter_modules(parafield.__path__):
        mod = importlib.import_module(f"parafield.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"parafield.{info.name}.{name}"


def test_ground_l2_matches_field_norm(grid16, rng):
    a = random_field(grid16, rng)
    b = random_field(grid16, rng)
    d = ground_distance_matrix([a], [b])[0, 0]
    assert d == pytest.approx((a - b).l2(), rel=1e-10)


def test_wasserstein_metric_properties(grid16, rng):
    xs = [random_field(grid16, rng) for _ in range(3)]
    ys = [random_field(grid16, rng) for _ in range(3)]
    zs = [random_field(grid16, rng) for _ in range(3)]
    dxy = wasserstein(xs, ys)
    dyx = wasserstein(ys, xs)
    assert dxy == pytest.approx(dyx, rel=1e-12)
    # the Gram-trick cost matrix limits the self-distance floor to
    # sqrt(rounding), not rounding itself
    assert wasserstein(xs, xs) < 1e-6
    dxz = wasserstein(xs, zs)
    dzy = wasserstein(zs, ys)
    assert dxy <= dxz + dzy + 1e-10


def test_wasserstein_scaling_homogeneity(grid16, rng):
    xs = [random_field(grid16, rng) for _ in range(3)]
    ys = [random_field(grid16, rng) for _ in range(3)]
    d1 = wasserstein(xs, ys)
    d2 = wasserstein([2.5 * f for f in xs], [2.5 * f for f in ys])
    assert d2 == pytest.approx(2.5 * d1, rel=1e-10)


def test_wasserstein_constant_shift(grid16):
    # singletons at constant fields: distance is the L2 norm of the gap
    a = Field(grid16, np.full((16, 16), 1.0))
    b = Field(grid16, np.full((16, 16), 3.0))
    assert wasserstein([a], [b]) == pytest.approx(2.0 * 2 * np.pi, rel=1e-10)


def test_wasserstein_input_validation(grid16, rng):
    xs = [random_field(grid16, rng) for _ in range(2)]
    ys = [random_field(grid16, rng) for _ in range(3)]
    with pytest.raises(ValueError):
        wasserstein(xs, ys)
    g8 = make_grid(8)
    many = [Field.zero(g8)] * 513
    with pytest.raises(ValueError):
        wasserstein(many, many)
    with pytest.raises(ValueError, match="empty"):
        wasserstein([], [])
    nan = Field(grid16, np.full((16, 16), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        wasserstein([nan], [xs[0]])


def test_subsample_ensemble(grid16, rng):
    atoms = [random_field(grid16, rng) for _ in range(10)]
    a = subsample_ensemble(atoms, 4, seed=3)
    b = subsample_ensemble(atoms, 4, seed=3)
    assert all(x is y for x, y in zip(a, b))
    c = subsample_ensemble(atoms, 4, seed=4)
    assert len(c) == 4
    with pytest.raises(ValueError):
        subsample_ensemble(atoms, 11)


def test_chaos_metric_table(grid16):
    zero = Field.zero(grid16)
    ref = [zero] * 8

    def const_run(n, v):
        return [Field(grid16, np.full((16, 16), v))] * n

    runs = {2: [const_run(2, 0.5), const_run(2, 0.5)],
            4: [const_run(4, 0.25), const_run(4, 0.25)]}
    table = chaos_metric(runs, ref)
    assert [r["n"] for r in table] == [2, 4]
    # constant-v atoms against the zero reference: W2 = v * 2 pi
    assert table[0]["measure_distance"] == pytest.approx(0.5 * 2 * np.pi,
                                                         rel=1e-10)
    assert table[1]["measure_distance"] == pytest.approx(0.25 * 2 * np.pi,
                                                         rel=1e-10)
    assert table[0]["stderr"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        chaos_metric(runs, [])
