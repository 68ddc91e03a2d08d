"""Z/2-graded vector spaces and the torsion of exact triangles.

A determinant-line isomorphism is a single complex scalar relative to
canonical frames: the canonical frame of Det(V) is (top wedge of the even
basis) tensor (dual top wedge of the odd basis), both in basis order.
Det(V) has degree dim_even - dim_odd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import NotExact


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-dimensional Z/2-graded space with its standard basis."""

    dim_even: int
    dim_odd: int


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

    U: GradedVectorSpace
    V: GradedVectorSpace
    W: GradedVectorSpace
    i_plus: np.ndarray
    i_minus: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray

    def __post_init__(self):
        shapes = {
            "i_plus": (self.V.dim_even, self.U.dim_even),
            "i_minus": (self.V.dim_odd, self.U.dim_odd),
            "q_plus": (self.W.dim_even, self.V.dim_even),
            "q_minus": (self.W.dim_odd, self.V.dim_odd),
            "d_plus": (self.U.dim_odd, self.W.dim_even),
            "d_minus": (self.U.dim_even, self.W.dim_odd),
        }
        for name, shape in shapes.items():
            mat = np.asarray(getattr(self, name), dtype=complex).reshape(shape)
            setattr(self, name, mat)

    def validate(self) -> dict:
        """Exactness via rank equalities and vanishing compositions; the
        rank of each of the six maps, by name."""
        rank = {
            name: len(_linalg.image_pivot_rows(getattr(self, name)))
            for name in ("i_plus", "i_minus", "q_plus", "q_minus", "d_plus", "d_minus")
        }
        conditions = [
            (rank["d_minus"] + rank["i_plus"], self.U.dim_even, "U+"),
            (rank["i_plus"] + rank["q_plus"], self.V.dim_even, "V+"),
            (rank["q_plus"] + rank["d_plus"], self.W.dim_even, "W+"),
            (rank["d_plus"] + rank["i_minus"], self.U.dim_odd, "U-"),
            (rank["i_minus"] + rank["q_minus"], self.V.dim_odd, "V-"),
            (rank["q_minus"] + rank["d_minus"], self.W.dim_odd, "W-"),
        ]
        for got, want, where in conditions:
            if got != want:
                raise NotExact(f"rank condition fails at {where}: {got} != {want}")
        for a, b, where in [
            (self.q_plus, self.i_plus, "q+ i+"),
            (self.q_minus, self.i_minus, "q- i-"),
            (self.d_plus, self.q_plus, "d+ q+"),
            (self.d_minus, self.q_minus, "d- q-"),
            (self.i_minus, self.d_plus, "i- d+"),
            (self.i_plus, self.d_minus, "i+ d-"),
        ]:
            prod = a @ b
            if prod.size and np.max(np.abs(prod)) > _linalg._tol(prod):
                raise NotExact(f"composition {where} is nonzero")
        return rank


def _complement_of_kernel(mat, rng=None):
    """Columns spanning a complement of Ker(mat), as a dim x rank matrix."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[1]
    if rng is None:
        _, pivots = _linalg.rref(mat)
        cols = np.zeros((n, len(pivots)), dtype=complex)
        for k, p in enumerate(pivots):
            cols[p, k] = 1.0
        return cols
    rank = len(_linalg.image_pivot_rows(mat))
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
    rank = tri.validate()
    u_plus = _complement_of_kernel(tri.i_plus, rng)
    v_plus = _complement_of_kernel(tri.q_plus, rng)
    w_plus = _complement_of_kernel(tri.d_plus, rng)
    u_minus = _complement_of_kernel(tri.i_minus, rng)
    v_minus = _complement_of_kernel(tri.q_minus, rng)
    w_minus = _complement_of_kernel(tri.d_minus, rng)

    def wedge_det(*blocks, dim):
        cols = [b for b in blocks if b.shape[1]]
        mat = np.hstack(cols) if cols else np.zeros((dim, 0), dtype=complex)
        if mat.shape != (dim, dim):
            raise NotExact("wedge blocks do not fill the space")
        val = _linalg.det(mat)
        if abs(val) <= 1e-12:
            raise NotExact("degenerate lift choice")
        return val

    a_plus = wedge_det(tri.i_plus @ u_plus, v_plus, dim=tri.V.dim_even)
    a_minus = wedge_det(tri.i_minus @ u_minus, v_minus, dim=tri.V.dim_odd)
    b_plus = wedge_det(tri.d_minus @ w_minus, u_plus, dim=tri.U.dim_even)
    b_minus = wedge_det(tri.d_plus @ w_plus, u_minus, dim=tri.U.dim_odd)
    c_plus = wedge_det(tri.q_plus @ v_plus, w_plus, dim=tri.W.dim_even)
    c_minus = wedge_det(tri.q_minus @ v_minus, w_minus, dim=tri.W.dim_odd)

    eps = (
        rank["q_plus"] * tri.U.dim_even
        + rank["i_minus"] * tri.W.dim_even
        + rank["d_minus"] * tri.V.dim_odd
    )
    sign = -1.0 if eps % 2 else 1.0
    scalar = sign * (a_minus / a_plus) * (b_plus / b_minus) * (c_plus / c_minus)
    return complex(scalar)
