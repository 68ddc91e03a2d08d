"""Graded determinant lines and triangle torsion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detline.errors import NotExact
from detline import _linalg, graded
from detline.graded import ExactTriangle, swap_epsilon, torsion_of_triangle
from detline.verify import random_triangle


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_swap_sign(n, m):
    assert swap_epsilon(n, m) == (-1) ** (n * m)


def split_triangle(u, w):
    """U -> U + W -> W for U and W given as (dim even, dim odd)."""
    (ue, uo), (we, wo) = u, w

    def inc(big, small):
        m = np.zeros((big, small))
        for i in range(small):
            m[i, i] = 1.0
        return m

    return ExactTriangle(
        i_plus=inc(ue + we, ue),
        i_minus=inc(uo + wo, uo),
        q_plus=np.hstack([np.zeros((we, ue)), np.eye(we)]),
        q_minus=np.hstack([np.zeros((wo, uo)), np.eye(wo)]),
        d_plus=np.zeros((uo, we)),
        d_minus=np.zeros((ue, wo)),
    )


def test_split_triangle_sign():
    # the torsion of the direct-sum triangle carries the documented exponent
    for nu, mu, nw, mw in [(2, 0, 2, 0), (1, 0, 1, 0), (2, 1, 1, 2), (0, 0, 3, 1)]:
        tri = split_triangle((nu, mu), (nw, mw))
        tor = torsion_of_triangle(tri)
        eps = nw * nu + mu * nw
        assert tor == pytest.approx((-1) ** eps)


def test_degenerate_triangle_iso():
    # W = 0 and i an isomorphism: the torsion is Det(i)^{-1} on frames
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tri = ExactTriangle(
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
    tri = split_triangle((1, 0), (1, 0))
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


# Each space with its two maps: (map, axis) pairs, the incoming map's rows
# and the outgoing map's columns.
SPACES = {
    "U+": (("d_minus", 0), ("i_plus", 1)),
    "V+": (("i_plus", 0), ("q_plus", 1)),
    "W+": (("q_plus", 0), ("d_plus", 1)),
    "U-": (("d_plus", 0), ("i_minus", 1)),
    "V-": (("i_minus", 0), ("q_minus", 1)),
    "W-": (("q_minus", 0), ("d_minus", 1)),
}


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("side", [0, 1])
def test_maps_disagreeing_on_a_dimension_raise(space, side):
    # one extra row or column on one of the two maps meeting the space
    name, axis = SPACES[space][side]
    tri = split_triangle((2, 1), (1, 2))
    mat = getattr(tri, name)
    pad = [(0, 0), (0, 0)]
    pad[axis] = (0, 1)
    setattr(tri, name, np.pad(mat, pad))
    with pytest.raises(NotExact, match=space):
        torsion_of_triangle(tri)


def test_wrongly_shaped_map_is_not_reshaped():
    # a 2 x 3 i_plus between U+ = 3 (d_minus rows) and V+ = 3 (q_plus columns)
    tri = split_triangle((3, 0), (0, 0))
    tri.i_plus = np.arange(6.0).reshape(2, 3)
    with pytest.raises(NotExact, match="V\\+"):
        tri.validate()


@given(st.integers(0, 2**32 - 1))
def test_random_triangle_dimensions_are_sums_of_its_rank_pattern(seed):
    tri = random_triangle(np.random.default_rng(seed))
    dims, pivots = tri.validate()
    rank = {name: len(p) for name, p in pivots.items()}
    assert 0 < sum(rank.values()) and max(rank.values()) <= 2
    for space, ((incoming, _), (outgoing, _)) in SPACES.items():
        assert dims[space] == rank[incoming] + rank[outgoing]


def test_torsion_eliminates_each_map_once(monkeypatch):
    eliminated, transposed = [], []
    real_rref, real_pivot_rows = _linalg.rref, _linalg.image_pivot_rows

    def rref(mat):
        eliminated.append(id(mat))
        return real_rref(mat)

    def image_pivot_rows(mat):
        transposed.append(mat)
        return real_pivot_rows(mat)

    monkeypatch.setattr(_linalg, "rref", rref)
    monkeypatch.setattr(_linalg, "image_pivot_rows", image_pivot_rows)
    rng = np.random.default_rng(11)
    for _ in range(40):
        tri = random_triangle(rng)
        eliminated.clear()
        torsion_of_triangle(tri)
        maps = [id(getattr(tri, name)) for name, _, _ in graded._MAPS]
        assert sorted(eliminated) == sorted(maps)
    assert transposed == []
