"""Dense windowed operators sharing the fibered operators' interface.

A ``DenseOp`` is a complex matrix between two labelled finite coordinate
spaces.  Kernels and cokernels are found by SVD with a relative
singular-value threshold; `circle` certifies a window value a priori
from its loops' roots.  A square window takes its singular
values first and its singular vectors only when a kernel or cokernel
exists: an invertible one gets empty frames without them.  Rectangular
windows always have one, so they take the full SVD at once.

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
# 4.9e-16: far from the cut, so values-only and full SVDs agree on ranks.
SVD_TOL = 1e-8


def _echelon(basis):
    """Echelon frame B · B[p]⁻¹ of the column span of B, and the rows p."""
    _, piv = _linalg.rref(basis.T)
    return basis @ np.linalg.inv(basis[piv]), piv


def _rank(s):
    """Number of singular values above the relative cut."""
    return int(np.sum(s > SVD_TOL * max(s[0] if s.size else 0.0, 1e-300)))


def _sparse(vec, labels):
    return {labels[i]: vec[i] for i in range(len(vec)) if abs(vec[i]) > 1e-14}


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
        """(u, s, vh) of the SVD; run once, by `presentation`."""
        rows, cols = self.matrix.shape
        if not self.matrix.size:
            return np.eye(rows, dtype=complex), np.zeros(0), np.eye(cols, dtype=complex)
        if rows == cols and _rank(s := np.linalg.svd(self.matrix, compute_uv=False)) == rows:
            # invertible: the frames are empty, so no singular vectors
            return np.zeros((rows, 0), dtype=complex), s, np.zeros((0, cols), dtype=complex)
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
