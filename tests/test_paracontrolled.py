"""Paracontrolled decomposition and the singular product in the smooth regime."""

import numpy as np
import pytest

from parafield import (EmpiricalMeasure, Field, NoiseSpec, PathField,
                       decompose, enhance, eval_f, eval_partial,
                       make_interaction, paralinearize_f, pc_product,
                       pointwise_product, reconstruct, sample_noise)
from parafield.paracontrolled import (decompose_slice, paralinearize_slice,
                                      pc_product_slice, reconstruct_slice)
from conftest import random_field

TIMES = np.array([0.0, 0.25, 0.5])


def _random_path(grid, rng, smooth=0.0):
    return PathField(TIMES, [random_field(grid, rng, smooth=smooth)
                             for _ in TIMES])


def test_decompose_reconstruct_identity(grid32, rng):
    u = _random_path(grid32, rng)
    ref = _random_path(grid32, rng)
    dz = _random_path(grid32, rng, smooth=0.2)
    pc = decompose(u, ref, dz)
    back = reconstruct(pc)
    assert (back - u).sup_linf() < 1e-11 * max(1.0, u.sup_linf())


def test_decompose_reconstruct_with_measure_terms(grid32, rng):
    u = _random_path(grid32, rng)
    ref = _random_path(grid32, rng)
    dz = _random_path(grid32, rng, smooth=0.2)
    dmu = [_random_path(grid32, rng, smooth=0.2) for _ in range(2)]
    refs = [_random_path(grid32, rng) for _ in range(2)]
    pc = decompose(u, ref, dz, dmu=dmu, dmu_refs=refs)
    back = reconstruct(pc)
    assert (back - u).sup_linf() < 1e-11 * max(1.0, u.sup_linf())
    with pytest.raises(ValueError):
        decompose(u, ref, dz, dmu=dmu, dmu_refs=refs[:1])


def test_pc_product_smooth_regime(grid32):
    # with a heavily mollified noise the singular product must agree
    # with the classical product up to the counterterm: for u = dz < X
    # + sharp the seven-term sum telescopes to u * xi - c_eps * dz plus
    # dealiasing corrections that vanish in the smooth regime
    rng = np.random.default_rng(42)
    spec = NoiseSpec(seed=100)
    raw = sample_noise(spec, grid32, TIMES, stream_id=0)
    en = enhance(raw, 0.5)
    u = PathField(TIMES, [random_field(grid32, rng, smooth=0.3)
                          for _ in TIMES])
    dz = PathField(TIMES, [random_field(grid32, rng, smooth=0.5)
                           for _ in TIMES])
    pc = decompose(u, en.X, dz)
    got = pc_product(pc, en)
    cs = np.atleast_1d(en.c_eps(TIMES))
    worst = 0.0
    for i in range(len(TIMES)):
        want = pointwise_product(u[i], en.xi[i]) - float(cs[i]) * dz[i]
        scale = max(1.0, want.linf())
        worst = max(worst, (got[i] - want).linf() / scale)
    assert worst < 2e-2


def test_pc_product_needs_aligned_cross_terms(grid32, rng):
    spec = NoiseSpec(seed=101)
    en = enhance(sample_noise(spec, grid32, TIMES, stream_id=0), 0.3)
    u = _random_path(grid32, rng)
    dmu = [_random_path(grid32, rng, smooth=0.2)]
    refs = [_random_path(grid32, rng)]
    pc = decompose(u, en.X, _random_path(grid32, rng, smooth=0.2),
                   dmu=dmu, dmu_refs=refs)
    with pytest.raises(ValueError):
        pc_product(pc, en, cross=[])


def test_paralinearize_f_reconstructs_f_exactly(grid32, rng):
    f_spec = make_interaction("tanh_bilinear", scale=0.8)
    ref = _random_path(grid32, rng)
    u_pc = decompose(_random_path(grid32, rng, smooth=0.1), ref,
                     _random_path(grid32, rng, smooth=0.3))
    s_pc = decompose(_random_path(grid32, rng, smooth=0.1), ref,
                     _random_path(grid32, rng, smooth=0.3))
    f_pc = paralinearize_f(f_spec, u_pc, [s_pc])
    u = reconstruct(u_pc)
    s = reconstruct(s_pc)
    f_path = reconstruct(f_pc)
    for i in range(len(TIMES)):
        mu = EmpiricalMeasure([s[i]])
        want = eval_f(f_spec, u[i], mu)
        assert (f_path[i] - want).linf() < 1e-10 * max(1.0, want.linf())
        # the field derivative is (d1 f) * u'
        p1 = eval_partial(f_spec, 1, u[i], mu)
        want_dz = pointwise_product(p1, u_pc.dz[i], dealias=False)
        assert (f_pc.dz[i] - want_dz).linf() < 1e-12
    with pytest.raises(ValueError):
        paralinearize_f(f_spec, u_pc, [])


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
    f_pc = paralinearize_slice(f_spec, u_pc, samples)
    u = reconstruct_slice(u_pc).values
    vs = [reconstruct_slice(s).values for s in samples]
    d1, d2 = f_spec.partials[1], f_spec.partials[2]
    for j, s in enumerate(samples):
        slot = np.mean([d1(u, vs[j], w) + d2(u, w, vs[j]) for w in vs], axis=0)
        want = pointwise_product(Field(grid32, slot), s.dz, dealias=False)
        assert (f_pc.dmu[j] - want).linf() < 1e-12 * max(1.0, want.linf())


def test_path_operators_map_slice_operators(grid32, rng):
    f_spec = make_interaction("tanh_bilinear", scale=0.8)
    en = enhance(sample_noise(NoiseSpec(seed=102), grid32, TIMES, stream_id=0),
                 0.3)
    u_pc = decompose(_random_path(grid32, rng, smooth=0.1), en.X,
                     _random_path(grid32, rng, smooth=0.3))
    s_pc = decompose(_random_path(grid32, rng, smooth=0.1),
                     _random_path(grid32, rng),
                     _random_path(grid32, rng, smooth=0.3))
    cross = [_random_path(grid32, rng)]
    f_pc = paralinearize_f(f_spec, u_pc, [s_pc])
    prod = pc_product(f_pc, en, cross)
    s_path = reconstruct(s_pc)
    for i in range(len(TIMES)):
        f_i = paralinearize_slice(f_spec, u_pc[i], [s_pc[i]])
        # a measure built by the caller from the reconstructed samples
        f_mu = paralinearize_slice(f_spec, u_pc[i], [s_pc[i]],
                                   EmpiricalMeasure([s_path[i]]))
        for path, one, given in [(f_pc.dz, f_i.dz, f_mu.dz),
                                 (f_pc.sharp, f_i.sharp, f_mu.sharp),
                                 (f_pc.dmu[0], f_i.dmu[0], f_mu.dmu[0])]:
            assert np.array_equal(path[i].values, one.values)
            assert np.array_equal(one.values, given.values)
        want = pc_product_slice(f_pc[i], en.xi[i], en.X[i], en.xi2[i],
                                [cross[0][i]])
        assert np.array_equal(prod[i].values, want.values)
