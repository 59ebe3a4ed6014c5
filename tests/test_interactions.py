"""Interaction registry: derivative oracles, averaging and kernels."""

import itertools

import numpy as np
import pytest

from parafield import (EmpiricalMeasure, Field, eval_f, eval_f_longrange,
                       eval_g, eval_partial, make_interaction, make_kernel)
from conftest import random_field

FAMILIES = ["bilinear", "tanh_bilinear", "cos_bump", "quadratic_cap",
            "identity", "constant", "mean_revert", "tanh_revert", "zero"]


@pytest.mark.parametrize("name,m", [pytest.param(n, 1, id=n) for n in FAMILIES]
                         + [pytest.param("bilinear", 2, id="bilinear_m2"),
                            pytest.param("tanh_bilinear", 3,
                                         id="tanh_bilinear_m3")])
def test_partials_match_central_differences(name, m):
    spec = make_interaction(name, scale=0.7, C0=1.3, m=m)
    rng = np.random.default_rng(5)
    args = list(rng.uniform(-1.0, 1.0, size=(m + 1, 50)))
    h = 1e-5
    for i in range(m + 1):
        up, down = list(args), list(args)
        up[i], down[i] = args[i] + h, args[i] - h
        fd = (spec.F(*up) - spec.F(*down)) / (2 * h)
        got = spec.partials[i](*args)
        assert np.max(np.abs(got - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("name", ["cos_bump", "quadratic_cap"])
def test_confinement_vanishes_at_threshold(name):
    C0 = 0.8
    spec = make_interaction(name, C0=C0)
    b = np.linspace(-2, 2, 9)
    for edge in (C0, -C0):
        vals = spec.F(np.full_like(b, edge), b)
        assert np.max(np.abs(vals)) < 1e-12
    assert spec.C0 == C0


def test_eval_f_is_atom_average(grid16, rng):
    spec = make_interaction("tanh_bilinear", scale=1.1)
    u = random_field(grid16, rng, smooth=0.2)
    atoms = [random_field(grid16, rng, smooth=0.2) for _ in range(4)]
    mu = EmpiricalMeasure(atoms)
    got = eval_f(spec, u, mu)
    want = np.mean([spec.F(u.values, a.values) for a in atoms], axis=0)
    assert np.max(np.abs(got.values - want)) < 1e-13
    # eval_g shares the machinery
    assert np.max(np.abs(eval_g(spec, u, mu).values - want)) < 1e-13
    # partial with respect to the field argument
    got1 = eval_partial(spec, 1, u, mu)
    want1 = np.mean([spec.partials[0](u.values, a.values) for a in atoms],
                    axis=0)
    assert np.max(np.abs(got1.values - want1)) < 1e-13
    with pytest.raises(ValueError):
        eval_partial(spec, 3, u, mu)


def test_m2_lift_double_average(grid16, rng):
    spec = make_interaction("bilinear", scale=0.5, m=2)
    assert spec.m == 2
    u = random_field(grid16, rng, smooth=0.3)
    atoms = [random_field(grid16, rng, smooth=0.3) for _ in range(3)]
    mu = EmpiricalMeasure(atoms)
    got = eval_f(spec, u, mu)
    acc = np.zeros_like(u.values)
    for v in atoms:
        for w in atoms:
            acc += 0.5 * u.values * v.values * w.values
    want = acc / len(atoms) ** 2
    assert np.max(np.abs(got.values - want)) < 1e-12
    with pytest.raises(ValueError):
        make_interaction("cos_bump", m=2)


def test_product_average_is_exact_over_all_tuples(grid16, rng):
    # all 17^3 = 4913 ordered atom tuples enter the average
    spec = make_interaction("tanh_bilinear", scale=0.9, m=3)
    u = random_field(grid16, rng, smooth=0.5)
    atoms = [random_field(grid16, rng, smooth=0.5) for _ in range(17)]
    mu = EmpiricalMeasure(atoms)
    fns = [spec.F, *spec.partials]
    want = [np.zeros_like(u.values) for _ in fns]
    for tup in itertools.product([a.values for a in atoms], repeat=3):
        for acc, fn in zip(want, fns):
            acc += fn(u.values, *tup)
    got = [eval_f(spec, u, mu)] + [eval_partial(spec, i, u, mu)
                                   for i in range(1, 5)]
    for g, w in zip(got, want):
        assert np.max(np.abs(g.values - w / 17 ** 3)) < 1e-12


def test_longrange_constant_kernel_oracle(grid16, rng):
    c = 0.03
    kern = make_kernel("constant", c=c)
    spec = make_interaction("bilinear", scale=1.0, kernel=kern)
    u = random_field(grid16, rng, smooth=0.3)
    atoms = [random_field(grid16, rng, smooth=0.3) for _ in range(2)]
    mu = EmpiricalMeasure(atoms)
    got = eval_f(spec, u, mu)
    h2 = grid16.spacing ** 2
    mass = np.mean([a.values.sum() * h2 for a in atoms])
    want = u.values * c * mass
    assert np.max(np.abs(got.values - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(eval_f_longrange(spec, u, mu).values - want)) < 1e-10


def test_longrange_gaussian_kernel_smooths(grid16, rng):
    kern = make_kernel("gaussian", width=0.8)
    spec = make_interaction("bilinear", kernel=kern)
    u = Field(grid16, np.ones((16, 16)))
    atom = random_field(grid16, rng)
    out = eval_f(spec, u, EmpiricalMeasure([atom]))
    # kernel averaging shrinks oscillations of a mean-zero rough atom
    assert out.linf() < atom.linf()


def test_kernel_and_registry_validation(grid16, rng):
    with pytest.raises(ValueError):
        make_interaction("cubic")
    with pytest.raises(ValueError):
        make_kernel("delta")
    with pytest.raises(ValueError):
        make_interaction("tanh_bilinear", m=2, kernel=make_kernel("constant"))
    with pytest.raises(ValueError):
        EmpiricalMeasure([])
    spec = make_interaction("bilinear")
    u = random_field(grid16, rng)
    with pytest.raises(ValueError):
        eval_f_longrange(spec, u, EmpiricalMeasure([u]))


def test_measure_grid_consistency(grid16, grid32, rng):
    with pytest.raises(ValueError):
        EmpiricalMeasure([random_field(grid16, rng), random_field(grid32, rng)])


def test_measure_stacks_atoms_once(grid16, rng):
    atoms = [random_field(grid16, rng) for _ in range(3)]
    mu = EmpiricalMeasure(atoms)
    vals = mu.values()
    assert mu.values() is vals
    assert np.array_equal(vals, np.stack([a.values for a in atoms]))
    assert not vals.flags.writeable


def test_measure_mean_calls_its_function_once(grid16, rng):
    atoms = [random_field(grid16, rng) for _ in range(3)]
    calls = []

    def h(v):
        calls.append(v.shape)
        return np.tanh(v)

    mu = EmpiricalMeasure(atoms)
    H = mu.mean(h)
    assert mu.mean(h) is H and calls == [(3, 16, 16)]
    want = np.mean([np.tanh(a.values) for a in atoms], axis=0)
    assert np.max(np.abs(H - want)) < 1e-15
    assert not H.flags.writeable
    EmpiricalMeasure(atoms).mean(h)
    assert len(calls) == 2
