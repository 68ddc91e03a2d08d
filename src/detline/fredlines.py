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
(the finite block carrying the perturbation determinant) and `block` (the
operator's matrix on that block).  For index d != 0 the block has d more
columns than rows, and the perturbation map pads the block, not the
operators, to a square.  Quasi-isomorphisms are fibered only: `quasi_map`
checks its square with `FiberedLatticeOp.intertwines`.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .graded import ExactTriangle, torsion_of_triangle
from .lattice import FiberedLatticeOp, Presentation
from .errors import (
    IndexMismatch,
    NotComplementary,
    NotQuasiIso,
    NotTraceClassDifference,
    OutOfRange,
    ShapeMismatch,
)


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


def stabilization(T, T_big, dom_positions, cod_positions) -> complex:
    """Stabilisation |T| -> |T + Gamma|, T's slot k going to slot positions[k].

    Exactly 1 when Gamma shares no row or column with T and the positions
    keep T's slot order: Gamma's rows and columns are then all pivots, so
    T_big's canonical kernel basis and cokernel representatives are T's.
    """
    try:
        phi = FiberedLatticeOp.inclusion(T.dom, T_big.dom, dom_positions)
        psi = FiberedLatticeOp.inclusion(T.cod, T_big.cod, cod_positions)
        return quasi_map(phi, psi, T, T_big)
    except (NotQuasiIso, ShapeMismatch) as exc:
        raise NotComplementary(str(exc)) from exc


# Module sentinel naming the zero rows or columns that pad a block square.
_PAD = object()


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
    """Block of T on the labels, padded square, plus the matcher.

    The matcher is sum_j images[j] (x) chi_j, with chi_j the dual
    functionals of the kernel vectors `kers`, so it sends the j-th kernel
    vector to images[j].  A block with d more domain than codomain labels
    gains d zero rows, whose unit vectors follow `images`; one with |d|
    fewer gains |d| zero columns, whose unit covectors follow the chi_j.
    The padding is labelled (_PAD, k).
    """
    pad = len(dom_labels) - len(cod_labels)
    pad_dom = [(_PAD, k) for k in range(-pad)]
    pad_cod = [(_PAD, k) for k in range(pad)]
    mat = np.pad(T.block(dom_labels, cod_labels), ((0, len(pad_cod)), (0, len(pad_dom))))
    dpos = {l: i for i, l in enumerate([*dom_labels, *pad_dom])}
    cpos = {l: i for i, l in enumerate([*cod_labels, *pad_cod])}
    chis = (_chi_functionals(T, kers) if kers else []) + [{l: 1.0} for l in pad_dom]
    for j, img in enumerate([*images, *({l: 1.0} for l in pad_cod)]):
        for rl, rv in img.items():
            for cl, cv in chis[j].items():
                mat[cpos[rl], dpos[cl]] += rv * cv
    return mat


def perturbation(T1, T2, images1=None, images2=None) -> complex:
    """Perturbation isomorphism |T1| -> |T2| for trace-class differences.

    det((T2 + F2)(T1 + F1)^{-1}) on the perturbation block padded square
    by `completed`, where F_i sends the kernel frame of T_i to images_i (by
    default its cokernel representatives) and to the padding; the images'
    cokernel coordinates correct the ratio.  Padding the block is padding
    both operators by |d| zero-mapped coordinates: the torsion of the split
    triangle I(T_i) -> I(T_i + 0) -> I(0) is a sign fixed by d and the
    parity of dim ker T_i + dim coker T_i, so the two cancel.
    """
    if not T1.finite_difference(T2):
        raise NotTraceClassDifference("difference has unbounded support")
    idx1, idx2 = T1.index(), T2.index()
    if idx1 != idx2:
        raise IndexMismatch(f"indices differ: {idx1} vs {idx2}")
    p1, p2 = T1.presentation(), T2.presentation()
    if images1 is None:
        images1 = _matcher_images(p1)
    if images2 is None:
        images2 = _matcher_images(p2)
    c1 = _linalg.det(T1.coker_coords(images1))
    c2 = _linalg.det(T2.coker_coords(images2))
    dom_labels, cod_labels = T1.pert_labels(T2, [*images1, *images2])
    if len(dom_labels) - len(cod_labels) != idx1:
        raise IndexMismatch("perturbation block does not carry the index")
    d1 = _linalg.det(completed(T1, dom_labels, cod_labels, p1.ker, images1))
    d2 = _linalg.det(completed(T2, dom_labels, cod_labels, p2.ker, images2))
    if abs(d1) < 1e-300:
        raise OutOfRange(f"completion determinant {d1} of the first operator underflowed")
    return d2 / d1 * c1 / c2
