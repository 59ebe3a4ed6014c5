"""Paracontrolled decomposition and the singular product in the smooth regime."""

import numpy as np
import pytest

from parafield import (EmpiricalMeasure, Field, NoiseSpec, enhance, eval_f,
                       eval_partial, final_slice, make_interaction,
                       noise_slices, pointwise_product)
from parafield.bony import corrector, para, resonant
from parafield.paracontrolled import (decompose_slice, paralinearize_slice,
                                      pc_product_slice, reconstruct_slice)
from conftest import random_field

TIMES = np.array([0.0, 0.25, 0.5])


def test_decompose_reconstruct_identity(grid32, rng):
    u = random_field(grid32, rng)
    ref = random_field(grid32, rng)
    dz = random_field(grid32, rng, smooth=0.2)
    pc = decompose_slice(u, ref, dz, [], [])
    back = reconstruct_slice(pc)
    assert (back - u).linf() < 1e-11 * max(1.0, u.linf())


def test_decompose_reconstruct_with_measure_terms(grid32, rng):
    u = random_field(grid32, rng)
    ref = random_field(grid32, rng)
    dz = random_field(grid32, rng, smooth=0.2)
    dmu = [random_field(grid32, rng, smooth=0.2) for _ in range(2)]
    refs = [random_field(grid32, rng) for _ in range(2)]
    pc = decompose_slice(u, ref, dz, dmu, refs)
    back = reconstruct_slice(pc)
    assert (back - u).linf() < 1e-11 * max(1.0, u.linf())
    with pytest.raises(ValueError):
        decompose_slice(u, ref, dz, dmu, refs[:1])


def test_pc_product_smooth_regime(grid32):
    # with a heavily mollified noise the singular product must agree
    # with the classical product up to the counterterm: for u = dz < X
    # + sharp the seven-term sum telescopes to u * xi - c_eps * dz plus
    # dealiasing corrections that vanish in the smooth regime
    rng = np.random.default_rng(42)
    en = enhance(NoiseSpec(seed=100), 0.5, grid32, TIMES)
    us = [random_field(grid32, rng, smooth=0.3) for _ in TIMES]
    dzs = [random_field(grid32, rng, smooth=0.5) for _ in TIMES]
    cs = np.atleast_1d(en.c_eps(TIMES))
    worst = 0.0
    for i, ([xi], [X]) in enumerate(noise_slices([en], X=True)):
        pc = decompose_slice(us[i], X, dzs[i], [], [])
        got = pc_product_slice(pc, xi, float(cs[i]), [])
        want = pointwise_product(us[i], xi) - float(cs[i]) * dzs[i]
        scale = max(1.0, want.linf())
        worst = max(worst, (got - want).linf() / scale)
    assert worst < 2e-2


def test_pc_product_needs_aligned_cross_terms(grid32, rng):
    en = enhance(NoiseSpec(seed=101), 0.3, grid32, TIMES)
    [xi], [X] = final_slice([en])
    pc = decompose_slice(random_field(grid32, rng), X,
                         random_field(grid32, rng, smooth=0.2),
                         [random_field(grid32, rng, smooth=0.2)],
                         [random_field(grid32, rng)])
    with pytest.raises(ValueError):
        pc_product_slice(pc, xi, float(en.c_eps(TIMES)[-1]), [])


def test_pc_product_dz_term_is_the_corrector(grid32, rng):
    # pc_product_slice spells out corrector(dz, X, xi) on the products it
    # holds; the sum must be, bit for bit, the one built on corrector
    en = enhance(NoiseSpec(seed=102), 0.1, grid32, TIMES)
    c = float(en.c_eps(TIMES)[-1])
    [xi], [X] = final_slice([en])
    pc = decompose_slice(random_field(grid32, rng), X,
                         random_field(grid32, rng, smooth=0.2), [], [])
    u = reconstruct_slice(pc)
    want = para(u, xi) + para(xi, u)
    want = want + resonant(pc.sharp, xi)
    want = want + corrector(pc.dz, X, xi)
    want = want + pointwise_product(pc.dz, resonant(X, xi).shift(-c))
    got = pc_product_slice(pc, xi, c, [])
    assert np.array_equal(got.values, want.values)


def test_paralinearize_f_reconstructs_f_exactly(grid32, rng):
    f_spec = make_interaction("tanh_bilinear", scale=0.8)
    ref = random_field(grid32, rng)
    u_pc = decompose_slice(random_field(grid32, rng, smooth=0.1), ref,
                           random_field(grid32, rng, smooth=0.3), [], [])
    s_pc = decompose_slice(random_field(grid32, rng, smooth=0.1), ref,
                           random_field(grid32, rng, smooth=0.3), [], [])
    u = reconstruct_slice(u_pc)
    mu = EmpiricalMeasure([reconstruct_slice(s_pc)])
    want = eval_f(f_spec, u, mu)
    # the field derivative is (d1 f) * u'
    want_dz = pointwise_product(eval_partial(f_spec, 1, u, mu), u_pc.dz,
                                dealias=False)
    f_pc = paralinearize_slice(f_spec, u_pc, [s_pc], mu)
    # without samples, the atoms of mu carry no derivative: no dmu terms
    f_0 = paralinearize_slice(f_spec, u_pc, [], mu)
    assert len(f_pc.dmu) == 1 and f_0.dmu == []
    for pc in (f_pc, f_0):
        got = reconstruct_slice(pc)
        assert (got - want).linf() < 1e-10 * max(1.0, want.linf())
        assert (pc.dz - want_dz).linf() < 1e-12


def test_paralinearize_m2_measure_derivative(grid32, rng):
    # dmu_j = (sum over both slots of the slot partial averaged over
    # the other atom, with atom j in that slot) * v_j'
    f_spec = make_interaction("tanh_bilinear", scale=0.8, m=2)
    ref = random_field(grid32, rng)

    def slice_pc():
        return decompose_slice(random_field(grid32, rng, smooth=0.1), ref,
                               random_field(grid32, rng, smooth=0.3), [], [])

    u_pc = slice_pc()
    samples = [slice_pc() for _ in range(3)]
    mu = EmpiricalMeasure([reconstruct_slice(s) for s in samples])
    f_pc = paralinearize_slice(f_spec, u_pc, samples, mu)
    u = reconstruct_slice(u_pc).values
    vs = [reconstruct_slice(s).values for s in samples]
    d1, d2 = f_spec.partials[1], f_spec.partials[2]
    for j, s in enumerate(samples):
        slot = np.mean([d1(u, vs[j], w) + d2(u, w, vs[j]) for w in vs], axis=0)
        want = pointwise_product(Field(grid32, slot), s.dz, dealias=False)
        assert (f_pc.dmu[j] - want).linf() < 1e-12 * max(1.0, want.linf())
