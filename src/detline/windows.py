"""Dense windowed operators sharing the fibered operators' interface.

A ``DenseOp`` is a complex matrix between two labelled finite coordinate
spaces.  Kernels and cokernels are found by SVD with a relative
singular-value threshold; `circle` certifies a window value a priori
from its loops' roots.  A square window is first tested for
invertibility with one LU factorisation: its determinant and Frobenius
norm bound its condition number (`_certified_invertible`), and a
certified one gets empty frames without an SVD.  Any other window takes
one full SVD: rectangular windows always have a kernel or cokernel, and
a square the bound cannot certify needs the SVD's singular vectors.

The SVD fixes a kernel or cokernel basis only up to a unitary rotation,
which depends on the LAPACK path.  Determinant lines need a frame that
depends on the subspace alone, so both bases are put in echelon form,
like the fibered operators' free-column bases: a basis B becomes
B · B[p]⁻¹, where p are the pivot rows of rref(Bᵀ), so the frame is the
identity on the rows p.
A kernel spanned by coordinate vectors thus gets exactly those vectors,
in label order.  The cokernel representatives are the echelon frame of
the orthogonal complement of the image; the class of a codomain vector
v has coordinates W[q] · Wᴴ v for an orthonormal complement basis W
with pivot rows q.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import _linalg
from .errors import ShapeMismatch
from .lattice import Presentation

# Relative singular-value cut.  Over a seed-1 round of the bench `window`
# workload the smallest kept σ/σ_max is 0.41 and the largest dropped one
# 4.9e-16: far from the cut.  The invertibility certificate works at half
# the cut; over seed 1, 3 and 9 rounds its condition bound on an
# invertible square was at most 7e5, so it certified every one of them.
SVD_TOL = 1e-8
# Absolute cut under which an entry of a window vector (frame column or `apply` value) is
# roundoff, not data: echelon frames are 1 on their pivot rows, so it is ~50 ulps of 1.
SPARSE_TOL = 1e-14


def _echelon(basis):
    """Echelon frame B · B[p]⁻¹ of the column span of B, and the rows p."""
    _, piv = _linalg.rref(basis.T)
    return basis @ np.linalg.inv(basis[piv]), piv


def _rank(s):
    """Number of singular values above the relative cut."""
    return int(np.sum(s > SVD_TOL * max(s[0] if s.size else 0.0, 1e-300)))


def _certified_invertible(mat) -> bool:
    """Whether `_rank` of the SVD of the n x n `mat` would be n, shown from
    one LU factorisation (`slogdet`); False when the bound cannot show it.

    With s1 >= ... >= sn the singular values and F the Frobenius norm,
    s1 <= F, and AM-GM on s1 ... s(n-1) gives their product at most
    (F^2 / (n - 1))^((n - 1)/2), so sn = |det| / (s1 ... s(n-1)) is at
    least |det| (F^2 / (n - 1))^(-(n - 1)/2)  (Guggenheimer, Edelman and
    Johnson, College Math. J. 26, 1995).  Certified means that lower bound
    exceeds 2 SVD_TOL max(F, 1e-300): twice `_rank`'s cut, floor included.
    The logarithms are taken of B = mat / max|mat|, so nothing overflows.

    The factor 2 covers the rounding of both computations.  LU with partial
    pivoting returns the determinant of some B + E with ||E|| of order
    n eps rho ||B||, rho its growth factor (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 9), so the bound holds for B + E, and for
    B within ||E|| (Weyl); the SVD returns singular values within about
    n eps s1 of the true ones.  Together they move sn by about
    n^(3/2) eps rho s1: below 1e-9 s1 for windows of a few hundred rows
    unless rho passes 1e3, while the factor 2 leaves 1e-8 s1.  The norm and
    the sum of logarithms add relative errors near n eps.  A singular or
    non-finite matrix gives no finite bound and is left to the SVD.
    """
    n, scale = len(mat), np.max(np.abs(mat))
    if not 0.0 < scale < np.inf:
        return False
    b = mat / scale
    _, log_det = np.linalg.slogdet(b)
    log_f2 = 2.0 * np.log(np.linalg.norm(b))  # F^2 of B lies in [1, n^2]
    log_s1 = np.log(scale) + log_f2 / 2.0
    log_sn = np.log(scale) + log_det - (n - 1) / 2.0 * (log_f2 - np.log(max(n - 1, 1)))
    return bool(log_sn > np.log(2.0 * SVD_TOL) + max(log_s1, np.log(1e-300)))


def _sparse(vec, labels):
    return {labels[i]: vec[i] for i in range(len(vec)) if abs(vec[i]) > SPARSE_TOL}


class DenseOp:
    """Dense matrix between labelled windowed coordinate spaces."""

    def __init__(self, dom_labels, cod_labels, matrix):
        self.dom_labels = list(dom_labels)
        self.cod_labels = list(cod_labels)
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (len(self.cod_labels), len(self.dom_labels)):
            raise ShapeMismatch("matrix shape does not match label counts")
        self._pres = None
        self._ker_frame = None
        self._coker_proj = None

    # -- elementary algebra ---------------------------------------------------

    def compose(self, other: "DenseOp") -> "DenseOp":
        if other.cod_labels != self.dom_labels:
            raise ShapeMismatch("compose: inner windows differ")
        return DenseOp(other.dom_labels, self.cod_labels, self.matrix @ other.matrix)

    # -- kernel / cokernel ----------------------------------------------------

    def _decompose(self):
        """(u, s, vh) of the SVD; run once, by `presentation`.  A square
        certified invertible takes none: it gets no singular triples, so
        its kernel and cokernel frames are empty."""
        rows, cols = self.matrix.shape
        if not self.matrix.size:
            return np.eye(rows, dtype=complex), np.zeros(0), np.eye(cols, dtype=complex)
        if rows == cols and _certified_invertible(self.matrix):
            empty = np.zeros((rows, 0), dtype=complex)
            return empty, np.zeros(0), empty.T
        return np.linalg.svd(self.matrix)

    def presentation(self) -> Presentation:
        if self._pres is None:
            u, s, vh = self._decompose()
            rank = _rank(s)
            self._ker_frame, _ = _echelon(np.conj(vh[rank:]).T)
            w = u[:, rank:]
            reps, q = _echelon(w)
            self._coker_proj = w[q] @ np.conj(w.T)
            self._pres = Presentation(
                tuple(_sparse(k, self.dom_labels) for k in self._ker_frame.T),
                tuple(_sparse(r, self.cod_labels) for r in reps.T),
            )
        return self._pres

    def index(self) -> int:
        return self.presentation().degree

    # -- vector interface -----------------------------------------------------

    @cached_property
    def _dom_pos(self):
        return {l: i for i, l in enumerate(self.dom_labels)}

    @cached_property
    def _cod_pos(self):
        return {l: i for i, l in enumerate(self.cod_labels)}

    def _dmat(self, vecs, pos):
        """The vectors as the columns of a matrix, rows in label order."""
        out = np.zeros((len(vecs), len(pos)), dtype=complex)
        for r, vec in enumerate(vecs):
            for l, val in vec.items():
                out[r, pos[l]] = val
        return out.T

    def apply(self, vec):
        return _sparse(self.matrix @ self._dmat([vec], self._dom_pos)[:, 0], self.cod_labels)

    def express_in_kernel(self, vecs):
        """Coordinates of kernel vectors in the echelon kernel frame."""
        self.presentation()
        return _linalg.solve_exact(self._ker_frame, self._dmat(vecs, self._dom_pos))

    def coker_coords(self, vecs):
        """Cokernel-class coordinates of codomain vectors."""
        self.presentation()
        return self._coker_proj @ self._dmat(vecs, self._cod_pos)

    # -- perturbation blocks --------------------------------------------------

    def label_key(self, label):
        """Sort key of a domain label: its position (one fiber per window)."""
        return (0, self._dom_pos[label])

    def finite_difference(self, other: "DenseOp") -> bool:
        """A window is finite: every difference of windows is trace class."""
        if other.cod_labels != self.cod_labels or other.dom_labels != self.dom_labels:
            raise ShapeMismatch("finite_difference: windows differ")
        return True

    def pert_labels(self, other: "DenseOp", images):
        """The whole window carries the perturbation determinant."""
        return self.dom_labels, self.cod_labels

    def block(self, dom_labels, cod_labels):
        """Matrix of the operator between lists of window labels."""
        rows = [self._cod_pos[l] for l in cod_labels]
        cols = [self._dom_pos[l] for l in dom_labels]
        return self.matrix[np.ix_(rows, cols)]

    def __repr__(self):
        return f"DenseOp({len(self.cod_labels)}x{len(self.dom_labels)})"
