"""Paracontrolled data, the singular product and paralinearization.

A time slice u is stored as u = low + mean_j (dmu_j < Xbar_j) + sharp,
with low = dz < X kept so that no operator forms it twice.  Every
operator is defined on a single slice; a solver that steps a path
applies them slice by slice.  The remainder ``sharp`` is always the
exact residual, so decompose-then-reconstruct is the identity and the
regularity of sharp is checked as a property, not imposed.  The Bony
products take the dyadic blocks of the grid their operands live on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bony import corrector, para, resonant
from .interactions import EmpiricalMeasure, InteractionSpec, eval_f, \
    eval_partial, eval_slot_partial
from .torus import Field, dealiased, pointwise_product

__all__ = ["Paracontrolled", "decompose_slice", "reconstruct_slice",
           "pc_product_slice", "paralinearize_slice"]


@dataclass
class Paracontrolled:
    """Paracontrolled decomposition of one time slice.

    ``reference`` is the rough reference X; ``dz`` the Gubinelli
    derivative and ``low`` = dz < X; ``dmu`` the per-sample measure
    derivatives with their references ``dmu_refs`` (both empty in the
    null-derivative case); ``sharp`` the residual.  Every entry is a Field.
    """

    reference: Field
    dz: Field
    low: Field
    sharp: Field
    dmu: list = field(default_factory=list)
    dmu_refs: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.dmu) != len(self.dmu_refs):
            raise ValueError("dmu and dmu_refs must be aligned")


def _mean_para(dmu: list, dmu_refs: list) -> Field:
    terms = [para(d, r) for d, r in zip(dmu, dmu_refs)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out * (1.0 / len(terms))


def decompose_slice(u: Field, reference: Field, dz: Field, dmu: list,
                    dmu_refs: list) -> Paracontrolled:
    """Store the slice u with the given derivatives; sharp is the exact residual."""
    low = para(dz, reference)
    sharp = u - low
    if dmu:
        sharp = sharp - _mean_para(dmu, dmu_refs)
    return Paracontrolled(reference, dz, low, sharp, list(dmu),
                          list(dmu_refs))


def reconstruct_slice(pc: Paracontrolled) -> Field:
    """u = (dz < X) + mean_j (dmu_j < Xbar_j) + sharp on one slice."""
    out = pc.low + pc.sharp
    if pc.dmu:
        out = out + _mean_para(pc.dmu, pc.dmu_refs)
    return out


def pc_product_slice(pc: Paracontrolled, xi: Field, c: float,
                     cross: list) -> Field:
    """One slice of the singular product (u xi).

    Sum of u < xi, xi < u, sharp (.) xi, the correctors of dz and each
    dmu_j, dz * (X (.) xi - c) and the mean of dmu_j * cross_j, with X
    = ``pc.reference``, ``c`` the renormalization constant of the slice
    and ``cross[j]`` the term xi (.) Xbar_j of the j-th measure derivative.
    """
    if len(cross) != len(pc.dmu):
        raise ValueError("need one cross term per dmu entry")
    u = reconstruct_slice(pc)
    Xxi = resonant(pc.reference, xi)
    # xi < u first: it blocks u in full, so u < xi reads a prefix of
    # that stack and never extends it
    acc = para(xi, u) + para(u, xi)
    acc = acc + resonant(pc.sharp, xi)
    # corrector(dz, X, xi) spelled out, to reuse pc.low, X (.) xi and
    # the dealiased dz in both of its products
    dz = dealiased(pc.dz)
    acc = acc + (resonant(pc.low, xi) - Field(xi.grid, dz * dealiased(Xxi)))
    acc = acc + Field(xi.grid, dz * dealiased(Xxi.shift(-c)))
    n = len(pc.dmu)
    for j in range(n):
        acc = acc + (1.0 / n) * corrector(pc.dmu[j], pc.dmu_refs[j], xi)
        acc = acc + (1.0 / n) * pointwise_product(pc.dmu[j], cross[j])
    return acc


def paralinearize_slice(spec: InteractionSpec, u_pc: Paracontrolled,
                        sample_pcs: list,
                        mu: EmpiricalMeasure) -> Paracontrolled:
    """Paracontrolled structure of f(u, mu) on one slice.

    ``sample_pcs[j]`` is the paracontrolled data of atom j of mu;
    dz = (d1 f)(u, mu) * u' and dmu_j = (sum over measure slots of the
    slot-j partial average) * v_j'; sharp is the exact residual of
    eval_f(u, mu).  With no samples the atoms of mu are taken as paths
    of zero derivative, so there are no dmu terms.
    """
    u = reconstruct_slice(u_pc)
    p1 = eval_partial(spec, 1, u, mu)
    dz = pointwise_product(p1, u_pc.dz, dealias=False)
    dmu = [pointwise_product(eval_slot_partial(spec, j, u, mu), s.dz,
                             dealias=False)
           for j, s in enumerate(sample_pcs)]
    return decompose_slice(eval_f(spec, u, mu), u_pc.reference, dz, dmu,
                           [s.reference for s in sample_pcs])
