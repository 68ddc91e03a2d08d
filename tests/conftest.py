"""Reference implementations and probes shared by the tests."""

import numpy as np
import pytest

from detline import _linalg
from detline.lattice import COEFF_TOL, FiberedLatticeOp, _box_size, _walk


def _full_svd_decompose(self):
    """The full-SVD DenseOp._decompose the rank-first one replaced."""
    if self._svd is None:
        if self.matrix.size:
            u, s, vh = np.linalg.svd(self.matrix)
        else:
            u = np.eye(len(self.cod_labels), dtype=complex)
            s = np.zeros(0)
            vh = np.eye(len(self.dom_labels), dtype=complex)
        self._svd = (u, s, vh)
    return self._svd


@pytest.fixture
def full_svd_decompose():
    """The full-SVD decomposition, as a reference for DenseOp._decompose."""
    return _full_svd_decompose


@pytest.fixture
def svd_flags(monkeypatch):
    """The compute_uv flag of every np.linalg.svd call the test makes."""
    real, flags = np.linalg.svd, []

    def svd(a, *args, compute_uv=True, **kw):
        flags.append(compute_uv)
        return real(a, *args, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return flags


def _fredholm_det(op):
    """Product over bounded grid cells of det(fiber)^|cell|, for an operator
    that is the identity on every unbounded cell (up to 1e-10 entrywise)."""
    assert op.dom.compatible(op.cod), "domain and codomain differ"
    for _, pt, [(mat, dom_a, cod_a)] in _walk([op], bounded=False):
        assert dom_a == cod_a, f"asymptotic fiber at {pt} is not square"
        dist = np.max(np.abs(mat - np.eye(len(dom_a))), initial=0.0)
        assert dist <= 1e-10, f"asymptotic fiber at {pt} is not identity"
    val = 1.0 + 0.0j
    for box, pt, [(mat, dom_a, cod_a)] in _walk([op], bounded=True):
        assert len(dom_a) == len(cod_a), f"non-square fiber at {pt}"
        if dom_a:
            val *= _linalg.det(mat) ** _box_size(box)
    return val


def _inverse(op):
    """Inverse of a fiberwise-invertible operator, fiber by fiber on each cell."""
    entries = {}
    for bounded in (True, False):
        for cell, pt, [(mat, dom_a, cod_a)] in _walk([op], bounded):
            assert len(dom_a) == len(cod_a), f"non-square fiber at {pt}"
            if not dom_a:
                continue
            # entries are O(1): a smaller |det| gives entries beyond float accuracy
            assert abs(_linalg.det(mat)) > 1e-12, f"singular fiber at {pt}"
            inv = np.linalg.inv(mat)
            for r, j in enumerate(dom_a):
                for cix, i in enumerate(cod_a):
                    if abs(inv[r, cix]) > COEFF_TOL:
                        entries.setdefault((j, i), []).append((inv[r, cix], cell))
    return FiberedLatticeOp(op.cod, op.dom, entries)


def _perm_sign_by_key(items, key):
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


@pytest.fixture
def fredholm_det():
    """The Fredholm determinant of a determinant-class fibered operator."""
    return _fredholm_det


@pytest.fixture
def inverse():
    """The inverse of a fiberwise-invertible fibered operator."""
    return _inverse


@pytest.fixture
def perm_sign_by_key():
    """The sign of a sorting permutation, for hand-computed frame shuffles."""
    return _perm_sign_by_key
