"""Exact triangles of determinant lines and their torsion.

A determinant-line isomorphism is a single complex scalar relative to
canonical frames: the canonical frame of Det(V) is (top wedge of the even
basis) tensor (dual top wedge of the odd basis), both in basis order.
Det(V) has degree dim_even - dim_odd.  A triangle is its six maps; the
dimension of each space is read from the shapes of the two maps meeting it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import NotExact

# The six maps in triangle order, each with the space it leaves and the
# space it enters.
_MAPS = (
    ("i_plus", "U+", "V+"),
    ("q_plus", "V+", "W+"),
    ("d_plus", "W+", "U-"),
    ("i_minus", "U-", "V-"),
    ("q_minus", "V-", "W-"),
    ("d_minus", "W-", "U+"),
)


def swap_epsilon(a: int, b: int) -> int:
    """Sign of the commutativity constraint swapping lines of degrees a and b."""
    return -1 if (a * b) % 2 else 1


@dataclass
class ExactTriangle:
    """Six-term exact sequence U+ -> V+ -> W+ -> U- -> V- -> W- -> U+.

    The even maps i, q and the odd map d are stored as matrices in the
    column-vector convention (i_plus has shape dim V+ x dim U+, d_plus
    maps W+ into U-, d_minus maps W- into U+).
    """

    i_plus: np.ndarray
    i_minus: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray

    def __post_init__(self):
        for name, _, _ in _MAPS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=complex))

    def validate(self) -> tuple[dict, dict]:
        """Exactness via rank equalities and vanishing compositions.

        Returns the dimension of each space and the pivot columns of each
        map (one elimination per map), by name.
        """
        dims, pivots = {}, {}
        for name, source, target in _MAPS:
            mat = getattr(self, name)
            for space, n in ((target, mat.shape[0]), (source, mat.shape[1])):
                if dims.setdefault(space, n) != n:
                    raise NotExact(f"{name} disagrees on dim {space}: {n} != {dims[space]}")
            pivots[name] = _linalg.memo(_linalg.rref, mat)[1]
        for (before, _, _), (name, space, _) in zip(_MAPS[-1:] + _MAPS[:-1], _MAPS):
            got = len(pivots[before]) + len(pivots[name])
            if got != dims[space]:
                raise NotExact(f"rank condition fails at {space}: {got} != {dims[space]}")
            prod = getattr(self, name) @ getattr(self, before)
            if prod.size and np.max(np.abs(prod)) > _linalg._tol(prod):
                raise NotExact(f"composition {name} {before} is nonzero")
        return dims, pivots


def _complement_of_kernel(mat, pivots, rng=None):
    """Columns spanning a complement of Ker(mat), as a dim x rank matrix;
    `pivots` are the pivot columns of mat."""
    n, rank = mat.shape[1], len(pivots)
    if rng is None:
        cols = np.zeros((n, rank), dtype=complex)
        cols[pivots, range(rank)] = 1.0
        return cols
    kern = _linalg.nullspace(mat)
    kern_mat = np.array(kern).T if kern else np.zeros((n, 0), dtype=complex)
    for _ in range(64):
        cand = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        probe = np.hstack([kern_mat, cand])
        if len(_linalg.image_pivot_rows(probe)) == n:
            return cand
    raise NotExact("could not sample a kernel complement")


def torsion_of_triangle(tri: ExactTriangle, rng=None) -> complex:
    """Torsion isomorphism of an exact triangle.

    The result is the scalar t with Det(Delta)(frame V) = t * frame U
    (x) frame W.  With `rng` given, homogeneous lifts are sampled at
    random instead of the deterministic pivot choice; the scalar does
    not depend on this choice.
    """
    dims, pivots = tri.validate()
    u_plus, v_plus, w_plus, u_minus, v_minus, w_minus = (
        _complement_of_kernel(getattr(tri, name), pivots[name], rng) for name, _, _ in _MAPS
    )

    def wedge_det(*blocks):
        val = _linalg.det(np.hstack(blocks))
        if abs(val) <= 1e-12:
            raise NotExact("degenerate lift choice")
        return val

    a_plus = wedge_det(tri.i_plus @ u_plus, v_plus)
    a_minus = wedge_det(tri.i_minus @ u_minus, v_minus)
    b_plus = wedge_det(tri.d_minus @ w_minus, u_plus)
    b_minus = wedge_det(tri.d_plus @ w_plus, u_minus)
    c_plus = wedge_det(tri.q_plus @ v_plus, w_plus)
    c_minus = wedge_det(tri.q_minus @ v_minus, w_minus)

    eps = (
        len(pivots["q_plus"]) * dims["U+"]
        + len(pivots["i_minus"]) * dims["W+"]
        + len(pivots["d_minus"]) * dims["V-"]
    )
    sign = -1.0 if eps % 2 else 1.0
    scalar = sign * (a_minus / a_plus) * (b_plus / b_minus) * (c_plus / c_minus)
    return complex(scalar)
