"""Graded determinant lines and triangle torsion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detline.errors import NotExact
from detline.graded import ExactTriangle, GradedVectorSpace, swap_epsilon, torsion_of_triangle
from detline.verify import random_triangle


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_swap_sign(n, m):
    assert swap_epsilon(n, m) == (-1) ** (n * m)


def split_triangle(U, W):
    V = GradedVectorSpace(U.dim_even + W.dim_even, U.dim_odd + W.dim_odd)

    def inc(big, small):
        m = np.zeros((big, small))
        for i in range(small):
            m[i, i] = 1.0
        return m

    return ExactTriangle(
        U=U,
        V=V,
        W=W,
        i_plus=inc(V.dim_even, U.dim_even),
        i_minus=inc(V.dim_odd, U.dim_odd),
        q_plus=np.hstack([np.zeros((W.dim_even, U.dim_even)), np.eye(W.dim_even)]),
        q_minus=np.hstack([np.zeros((W.dim_odd, U.dim_odd)), np.eye(W.dim_odd)]),
        d_plus=np.zeros((U.dim_odd, W.dim_even)),
        d_minus=np.zeros((U.dim_even, W.dim_odd)),
    )


def test_split_triangle_sign():
    # the torsion of the direct-sum triangle carries the documented exponent
    for nu, mu, nw, mw in [(2, 0, 2, 0), (1, 0, 1, 0), (2, 1, 1, 2), (0, 0, 3, 1)]:
        tri = split_triangle(GradedVectorSpace(nu, mu), GradedVectorSpace(nw, mw))
        tor = torsion_of_triangle(tri)
        eps = nw * nu + mu * nw
        assert tor == pytest.approx((-1) ** eps)


def test_degenerate_triangle_iso():
    # W = 0 and i an isomorphism: the torsion is Det(i)^{-1} on frames
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tri = ExactTriangle(
        U=GradedVectorSpace(3, 0),
        V=GradedVectorSpace(3, 0),
        W=GradedVectorSpace(0, 0),
        i_plus=g,
        i_minus=np.zeros((0, 0)),
        q_plus=np.zeros((0, 3)),
        q_minus=np.zeros((0, 0)),
        d_plus=np.zeros((0, 0)),
        d_minus=np.zeros((3, 0)),
    )
    tor = torsion_of_triangle(tri)
    assert tor == pytest.approx(1.0 / np.linalg.det(g))


def test_not_exact_raises():
    tri = split_triangle(GradedVectorSpace(1, 0), GradedVectorSpace(1, 0))
    tri.q_plus = np.zeros_like(tri.q_plus)
    with pytest.raises(NotExact):
        torsion_of_triangle(tri)


def test_lift_independence_random():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        tri = random_triangle(rng)
        t1 = torsion_of_triangle(tri)
        t2 = torsion_of_triangle(tri, rng=rng)
        assert abs(t1 - t2) <= 1e-9 * abs(t1)
