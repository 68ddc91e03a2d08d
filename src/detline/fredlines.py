"""Determinant lines of Fredholm operators and their canonical maps.

Every map between determinant lines is returned as a plain complex
number relative to canonical frames: the frame of |T| is (wedge of the
canonical kernel basis) tensor (dual wedge of the canonical cokernel
representatives), in presentation order, and |T| has degree T.index().
Composing maps multiplies the numbers.

The torsion and perturbation maps work on fibered lattice operators and
on dense windows alike.  Besides presentation, apply, express_in_kernel,
coker_coords and compose, an operator provides what the perturbation map
needs: `finite_difference` (whether a difference is trace class),
`label_key` (the order of kernel labels, grouped by fiber), `pert_labels`
(the finite block carrying the perturbation determinant), `block` (the
operator's matrix on that block) and `pad_pair` (auxiliary coordinates
that shift the index to zero).  Quasi-isomorphisms are fibered only:
`quasi_map` checks its square with `FiberedLatticeOp.intertwines`.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .graded import ExactTriangle, GradedVectorSpace, torsion_of_triangle
from .lattice import FiberedLatticeOp, Presentation
from .errors import (
    IndexMismatch,
    NotComplementary,
    NotQuasiIso,
    NotTraceClassDifference,
    ShapeMismatch,
)


def _space_of(pres: Presentation) -> GradedVectorSpace:
    return GradedVectorSpace(len(pres.ker), len(pres.coker))


def triangle_of_composition(T, S, ST=None):
    """Six-term exact triangle I(T) -> I(ST) -> I(S) of a composition."""
    if ST is None:
        ST = S.compose(T)
    pT, pS, pST = T.presentation(), S.presentation(), ST.presentation()
    i_plus = ST.express_in_kernel(list(pT.ker))
    i_minus = ST.coker_coords([S.apply(r) for r in pT.coker])
    q_plus = S.express_in_kernel([T.apply(k) for k in pST.ker])
    q_minus = S.coker_coords(list(pST.coker))
    d_plus = T.coker_coords(list(pS.ker))
    d_minus = np.zeros((len(pT.ker), len(pS.coker)))
    return ExactTriangle(
        U=_space_of(pT),
        V=_space_of(pST),
        W=_space_of(pS),
        i_plus=i_plus,
        i_minus=i_minus,
        q_plus=q_plus,
        q_minus=q_minus,
        d_plus=d_plus,
        d_minus=d_minus,
    )


def torsion(T, S, ST=None) -> complex:
    """Torsion isomorphism |T| (x) |S| -> |ST| on canonical frames."""
    return 1.0 / torsion_of_triangle(triangle_of_composition(T, S, ST))


def torsion_chain(ops) -> tuple[complex, object]:
    """|A1| (x) ... (x) |An| -> |An ... A1| for a composable chain.

    `ops` is listed in application order (A1 acts first).  Returns the
    scalar and the composite An ... A1, associated from the left.
    """
    scalar = 1.0 + 0.0j
    partial = ops[-1]
    for op in reversed(ops[:-1]):
        composite = partial.compose(op)
        scalar *= torsion(op, partial, composite)
        partial = composite
    return scalar, partial


def quasi_map(phi, psi, T1, T2) -> complex:
    """Line map |T1| -> |T2| induced by a quasi-isomorphism (phi, psi)."""
    if not T2.intertwines(T1, phi, psi):
        raise NotQuasiIso("psi T1 != T2 phi")
    p1, p2 = T1.presentation(), T2.presentation()
    if len(p1.ker) != len(p2.ker) or len(p1.coker) != len(p2.coker):
        raise NotQuasiIso("kernel/cokernel dimensions differ")
    a = T2.express_in_kernel([phi.apply(k) for k in p1.ker])
    b = T2.coker_coords([psi.apply(r) for r in p1.coker])
    det_a, det_b = _linalg.det(a), _linalg.det(b)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise NotQuasiIso("induced kernel/cokernel maps are singular")
    return det_a / det_b


def stabilization(T, T_big, dom_positions=None, cod_positions=None) -> complex:
    """Stabilisation |T| -> |T + Gamma| via the slotwise inclusions."""
    if dom_positions is None:
        dom_positions = list(range(len(T.dom)))
    if cod_positions is None:
        cod_positions = list(range(len(T.cod)))
    try:
        phi = FiberedLatticeOp.inclusion(T.dom, T_big.dom, dom_positions)
        psi = FiberedLatticeOp.inclusion(T.cod, T_big.cod, cod_positions)
        return quasi_map(phi, psi, T, T_big)
    except (NotQuasiIso, ShapeMismatch) as exc:
        raise NotComplementary(str(exc)) from exc


def _matcher_images(pres: Presentation):
    return [dict(r) for r in pres.coker]


def _chi_functionals(op, kers):
    """Dual functionals to kernel vectors of op, grouped per fiber / window."""
    by_fiber = {}
    for j, kv in enumerate(kers):
        by_fiber.setdefault(op.label_key(next(iter(kv)))[0], []).append(j)
    chis = [None] * len(kers)
    for idxs in by_fiber.values():
        labels = sorted({l for j in idxs for l in kers[j]}, key=op.label_key)
        kmat = np.array(
            [[kers[j].get(l, 0.0) for j in idxs] for l in labels], dtype=complex
        )
        pinv = np.linalg.pinv(kmat)
        for row, j in enumerate(idxs):
            chis[j] = {labels[c]: pinv[row, c] for c in range(len(labels))}
    return chis


def completed(T, dom_labels, cod_labels, kers, images):
    """Block of T on the labels plus the matcher sum_j images[j] (x) chi_j.

    chi_j are the dual functionals of the kernel vectors `kers`, so the
    matcher sends the j-th kernel vector to images[j].
    """
    mat = T.block(dom_labels, cod_labels)
    dpos = {l: i for i, l in enumerate(dom_labels)}
    cpos = {l: i for i, l in enumerate(cod_labels)}
    chis = _chi_functionals(T, kers) if kers else []
    for j, img in enumerate(images):
        for rl, rv in img.items():
            for cl, cv in chis[j].items():
                mat[cpos[rl], dpos[cl]] += rv * cv
    return mat


def _pert_index0(T1, T2, images1=None, images2=None) -> complex:
    """det((T2 + F2)(T1 + F1)^{-1}) on the perturbation block, F_i the matchers
    sending kernel frames to images_i, corrected by the images' cokernel
    coordinates."""
    p1, p2 = T1.presentation(), T2.presentation()
    if images1 is None:
        images1 = _matcher_images(p1)
    if images2 is None:
        images2 = _matcher_images(p2)
    c1 = _linalg.det(T1.coker_coords(images1))
    c2 = _linalg.det(T2.coker_coords(images2))
    dom_labels, cod_labels = T1.pert_labels(T2, [*images1, *images2])
    if len(dom_labels) != len(cod_labels):
        raise IndexMismatch("perturbation block is not square")
    d1 = _linalg.det(completed(T1, dom_labels, cod_labels, p1.ker, images1))
    d2 = _linalg.det(completed(T2, dom_labels, cod_labels, p2.ker, images2))
    if abs(d1) < 1e-300:
        raise IndexMismatch("completion of the first operator is singular")
    return d2 / d1 * c1 / c2


def _split_triangle_scalar(T, padded, aux_dom, aux_cod) -> complex:
    """Det of the split triangle I(T) -> I(T + 0) -> I(0_{m,n})."""
    pT, pP = T.presentation(), padded.presentation()
    i_plus = padded.express_in_kernel(list(pT.ker))
    i_minus = padded.coker_coords(list(pT.coker))
    q_plus = np.array(
        [[kv.get(al, 0.0) for kv in pP.ker] for al in aux_dom], dtype=complex
    ).reshape(len(aux_dom), len(pP.ker))
    q_minus = np.array(
        [[rv.get(al, 0.0) for rv in pP.coker] for al in aux_cod], dtype=complex
    ).reshape(len(aux_cod), len(pP.coker))
    tri = ExactTriangle(
        U=_space_of(pT),
        V=_space_of(pP),
        W=GradedVectorSpace(len(aux_dom), len(aux_cod)),
        i_plus=i_plus,
        i_minus=i_minus,
        q_plus=q_plus,
        q_minus=q_minus,
        d_plus=np.zeros((len(pT.coker), len(aux_dom))),
        d_minus=np.zeros((len(pT.ker), len(aux_cod))),
    )
    return torsion_of_triangle(tri)


def perturbation(T1, T2, images1=None, images2=None) -> complex:
    """Perturbation isomorphism |T1| -> |T2| for trace-class differences."""
    if not T1.finite_difference(T2):
        raise NotTraceClassDifference("difference has unbounded support")
    idx1, idx2 = T1.index(), T2.index()
    if idx1 != idx2:
        raise IndexMismatch(f"indices differ: {idx1} vs {idx2}")
    if idx1 == 0:
        return _pert_index0(T1, T2, images1, images2)
    n_dom, n_cod = max(0, -idx1), max(0, idx1)
    P1, P2, aux_dom, aux_cod = T1.pad_pair(T2, n_dom, n_cod)
    t1 = _split_triangle_scalar(T1, P1, aux_dom, aux_cod)
    t2 = _split_triangle_scalar(T2, P2, aux_dom, aux_cod)
    s_pad = _pert_index0(P1, P2)
    return t2 * s_pad / t1
