"""Interaction registry: derivative oracles, averaging and kernels."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import parafield
from parafield import (EmpiricalMeasure, Field, eval_f, eval_g, eval_partial,
                       make_interaction, make_kernel)
from parafield.interactions import eval_slot_partial
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


@pytest.mark.parametrize("scale", [0.7, -0.7])
@pytest.mark.parametrize("name", ["mean_revert", "tanh_revert"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_running_measure_pair_sum_is_bitwise(grid16, rng, n, name, scale):
    # eval_f on the measure's own stack evaluates phi(b - a) on each pair
    # once and uses phi(-d) = -phi(d); every row must still equal the
    # plain average of F
    spec = make_interaction(name, scale=scale)
    vals = rng.standard_normal((n, 16, 16))
    if n > 1:  # ties: the same floats, and zeros of either sign
        vals[1, :4] = vals[0, :4]
        vals[0, 5], vals[1, 5] = 0.0, -0.0
        vals[0, 6], vals[1, 6] = -0.0, -0.0
    mu = EmpiricalMeasure([Field(grid16, v) for v in vals])
    V = mu.values()
    want = np.stack([spec.F(V[i][None], V).mean(axis=0) for i in range(n)])
    pairs = []
    phi = spec.phi

    def counting(d, out=None):
        pairs.append(len(d))
        return phi(d, out=out)

    spec.phi = counting
    got = eval_f(spec, V, mu)
    assert got.tobytes() == want.tobytes()
    assert sum(pairs) == n * (n + 1) // 2
    # a stack that is not the measure's own is averaged row by row
    got_rows = eval_f(spec, V.copy(), mu)
    assert got_rows.tobytes() == want.tobytes()


def test_eval_on_a_stack_matches_each_field(grid16, rng):
    atoms = [random_field(grid16, rng) for _ in range(3)]
    mu = EmpiricalMeasure(atoms)
    us = [random_field(grid16, rng) for _ in range(4)]
    U = np.stack([u.values for u in us])
    for spec in (make_interaction("tanh_bilinear", scale=0.5, m=2),
                 make_interaction("tanh_revert", scale=0.7)):
        for index in (0, 1, 2):
            got = (eval_f(spec, U, mu) if index == 0
                   else eval_partial(spec, index, U, mu))
            for i, u in enumerate(us):
                one = (eval_f(spec, u, mu) if index == 0
                       else eval_partial(spec, index, u, mu))
                assert got[i].tobytes() == one.values.tobytes()


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


def _torus_dist2(dx, dy):
    d = [np.minimum(np.abs(c), 2.0 * np.pi - np.abs(c)) for c in (dx, dy)]
    return d[0] ** 2 + d[1] ** 2


# k(z, z') of each registered kernel, written out on the displacement
DENSE_KERNELS = {
    "constant": ({"c": 0.03}, lambda dx, dy: np.full(dx.shape, 0.03)),
    "gaussian": ({"width": 0.6, "amp": 0.4},
                 lambda dx, dy: 0.4 * np.exp(-_torus_dist2(dx, dy) / 0.72)),
    "cosine": ({"a": 0.7}, lambda dx, dy: (1.0 + 0.7 * np.cos(dx) * np.cos(dy))
               / (2.0 * np.pi) ** 2),
}


@pytest.mark.parametrize("family", ["bilinear", "tanh_bilinear", "cos_bump"])
@pytest.mark.parametrize("kname", sorted(DENSE_KERNELS))
def test_longrange_matches_dense_sum(grid16, rng, kname, family):
    # mean_j h^2 sum_z' F(u(z), v_j(z')) k(z, z') as a dense N^2 x N^2 sum
    params, k = DENSE_KERNELS[kname]
    spec = make_interaction(family, scale=0.7, C0=1.3,
                            kernel=make_kernel(kname, **params))
    u = random_field(grid16, rng, smooth=0.1)
    atoms = [random_field(grid16, rng, smooth=0.1) for _ in range(3)]
    mu = EmpiricalMeasure(atoms)
    X, Y = grid16.coords()
    x, y = X.ravel(), Y.ravel()
    K = k(x[:, None] - x[None, :], y[:, None] - y[None, :])
    a = u.values.ravel()[:, None]
    for fn, got in [(spec.F, eval_f(spec, u, mu)),
                    (spec.partials[0], eval_partial(spec, 1, u, mu)),
                    (spec.partials[1], eval_partial(spec, 2, u, mu))]:
        want = np.mean([(fn(a, v.values.ravel()[None, :]) * K).sum(axis=1)
                        for v in atoms], axis=0) * grid16.spacing ** 2
        assert np.max(np.abs(got.values.ravel() - want)) < 1e-12


LONGRANGE_CFG = """\
[experiment]
name = solve
seed = 3

[grid]
n = 128
t = 0.05

[f]
name = tanh_bilinear

[kernel]
name = gaussian
width = 0.5
"""

# VmHWM is the peak RSS of this process image; ru_maxrss would carry
# over the peak of the forking test process through fork and exec
PEAK_RSS_RUN = """\
import sys
from parafield.experiments import parse_config, run_experiment
assert run_experiment(parse_config(sys.argv[1], out=sys.argv[2]))["ok"]
with open("/proc/self/status") as fh:
    print([ln.split()[1] for ln in fh if ln.startswith("VmHWM:")][0])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_longrange_solve_memory_is_bounded(tmp_path):
    # a dense N^2 x N^2 kernel matrix alone would take 2.1 GB at N = 128
    cfg = tmp_path / "longrange.cfg"
    cfg.write_text(LONGRANGE_CFG)
    src = os.path.dirname(os.path.dirname(parafield.__file__))
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_RUN, str(cfg), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=300).stdout
    assert int(out) < 400 * 1024


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
        make_interaction("tanh_revert", kernel=make_kernel("constant"))
    for bad in ({"widht": 0.5}, {"width": 0.0}, {"width": -1.0}, {"a": 1.0}):
        with pytest.raises(ValueError):
            make_kernel("gaussian", **bad)
    with pytest.raises(ValueError):
        make_kernel("constant", width=1.0)
    with pytest.raises(ValueError):
        make_interaction("tanh_bilinear", C0=0.0)
    with pytest.raises(ValueError):
        make_interaction("bilinear", m=0)
    with pytest.raises(ValueError):
        EmpiricalMeasure([])
    spec = make_interaction("bilinear", kernel=make_kernel("cosine"))
    u = random_field(grid16, rng)
    with pytest.raises(ValueError):
        eval_slot_partial(spec, 0, u, EmpiricalMeasure([u]))


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


def test_measure_takes_a_matching_read_only_stack(grid16, rng):
    atoms = [random_field(grid16, rng) for _ in range(3)]
    stack = np.stack([a.values for a in atoms])
    with pytest.raises(ValueError, match="read-only"):
        EmpiricalMeasure(atoms, stack=stack)
    stack.flags.writeable = False
    assert EmpiricalMeasure(atoms, stack=stack).values() is stack
    with pytest.raises(ValueError, match="shape"):
        EmpiricalMeasure(atoms[:2], stack=stack)


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
