"""Tolerant exact-ish linear algebra helpers used by the line calculus."""

from __future__ import annotations

import numpy as np

ZERO_TOL = 1e-10
# Relative residual up to which a least-squares solution counts as exact:
# looser than ZERO_TOL, as it carries lstsq roundoff that grows with cond.
SOLVE_TOL = 1e-8


def _tol(mat, rel=ZERO_TOL):
    scale = np.max(np.abs(mat)) if mat.size else 0.0
    return rel * max(scale, 1.0)


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
    if a.size == 0:
        if a.shape[1] == 0:
            return []
        return [np.eye(a.shape[1], dtype=complex)[:, j] for j in range(a.shape[1])]
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
    if a.size == 0:
        return []
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
    if a.shape[1] == 0:
        if np.max(np.abs(b), initial=0.0) > _tol(b, SOLVE_TOL):
            raise np.linalg.LinAlgError("inconsistent system")
        return np.zeros((0,) + b.shape[1:], dtype=complex)
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
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(a))


def perm_sign_by_key(items, key):
    """Sign of the permutation sorting `items` by `key` (distinct keys)."""
    keyed = [key(x) for x in items]
    order = sorted(range(len(items)), key=lambda i: keyed[i])
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
