"""Fixtures shared by the windowed-mode tests."""

import numpy as np
import pytest


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
