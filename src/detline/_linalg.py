"""Tolerant exact-ish linear algebra helpers used by the line calculus, and
their memo: `memo_table` activates a table for a block, and inside it `memo`
computes each kernel once per distinct argument list."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

ZERO_TOL = 1e-10
# Relative residual up to which a least-squares solution counts as exact:
# looser than ZERO_TOL, as it carries lstsq roundoff that grows with cond.
SOLVE_TOL = 1e-8
MEMO = ContextVar("MEMO", default=None)


def _read_only(x):
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    return tuple(map(_read_only, x)) if isinstance(x, (list, tuple)) else x


@contextmanager
def memo_table(table=None):
    """Run the block with `table`, else a fresh dict, as the active MEMO."""
    token = MEMO.set({} if table is None else table)
    try:
        yield
    finally:
        MEMO.reset(token)


def memo(kernel, *args):
    """kernel(*args) from the active MEMO table, keyed by the kernel and the
    arguments (an array by shape, dtype and bytes) and stored read-only;
    computed directly when no table is active."""
    table = MEMO.get()
    if table is None:
        return kernel(*args)
    key = (kernel, *[(a.shape, a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a
                     for a in args])
    if key not in table:
        table[key] = _read_only(kernel(*args))
    return table[key]


def _tol(mat):
    scale = np.max(np.abs(mat)) if mat.size else 0.0
    return ZERO_TOL * max(scale, 1.0)


def rref(mat):
    """Row-reduced echelon form with partial pivoting.

    Returns (R, pivot_cols).
    """
    a = np.array(mat, dtype=complex)
    m, n = a.shape
    tol = _tol(a)
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] / a[row, col]
        for r in range(m):
            if r != row and abs(a[r, col]) > 0:
                a[r] = a[r] - a[r, col] * a[row]
        pivots.append(col)
        row += 1
    return a, pivots


def nullspace(mat):
    """Deterministic nullspace basis in free-column form.

    Each basis vector has entry 1 at its free column, ordered by free
    column index ascending.
    """
    a = np.asarray(mat, dtype=complex)
    r, pivots = rref(a)
    n = a.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = np.zeros(n, dtype=complex)
        v[f] = 1.0
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        basis.append(v)
    return basis


def image_pivot_rows(mat):
    """Row indices that carry the column space (via column elimination)."""
    a = np.asarray(mat, dtype=complex)
    _, pivots = rref(a.T)
    return sorted(pivots)


def coker_free_rows(mat):
    """Row indices whose classes span the cokernel, ascending."""
    a = np.asarray(mat, dtype=complex)
    m = a.shape[0]
    piv = set(image_pivot_rows(a))
    return [i for i in range(m) if i not in piv]


def solve_exact(a, b):
    """Least-squares solve that insists on a (near) exact solution."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = a @ x - b
    scale = max(np.max(np.abs(b), initial=0.0), np.max(np.abs(a), initial=0.0), 1.0)
    if np.max(np.abs(resid), initial=0.0) > SOLVE_TOL * scale:
        raise np.linalg.LinAlgError("inconsistent system")
    return x


def det(mat):
    a = np.asarray(mat, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError("determinant of non-square matrix")
    return complex(np.linalg.det(a))

