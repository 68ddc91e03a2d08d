"""Boxes and box unions: canonical forms and containment, as properties."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from detline._intervals import Box, BoxUnion

LO, HI = -3, 3  # every bound drawn lies in [LO, HI]
# One point of every grid cell cut at bounds in [LO, HI] lies in WINDOW.
WINDOW = range(LO - 1, HI + 1)


@st.composite
def intervals(draw, bounded=False):
    lo = draw(st.integers(LO, HI - 1))
    hi = draw(st.integers(lo + 1, HI))
    if not bounded:
        lo = draw(st.sampled_from((lo, None)))
        hi = draw(st.sampled_from((hi, None)))
    return (lo, hi)


def boxes(dim, bounded=False):
    return st.tuples(*(intervals(bounded) for _ in range(dim))).map(Box)


def dims_and_unions(bounded=False):
    """A dimension in 1..3 and two lists of 1-3 boxes of that dimension."""
    return st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), *[st.lists(boxes(d, bounded), min_size=1, max_size=3)] * 2)
    )


def window_points(dim):
    return itertools.product(WINDOW, repeat=dim)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), boxes(d), st.data())))
def test_single_box_union_is_its_own_canonical_form(case):
    dim, box, data = case
    assert BoxUnion(dim, [box]).canonical() == (box.axes,)
    # the multi-box path reaches the same form: a repeated box, and the
    # box cut in two along one axis
    assert BoxUnion(dim, [box, box]).canonical() == (box.axes,)
    ax = data.draw(st.integers(0, dim - 1))
    lo, hi = box.axes[ax]
    cut = data.draw(st.integers(LO - 2, HI + 2))
    if (lo is None or lo < cut) and (hi is None or cut < hi):
        halves = [
            Box(box.axes[:ax] + (part,) + box.axes[ax + 1:]) for part in ((lo, cut), (cut, hi))
        ]
        assert BoxUnion(dim, halves).canonical() == (box.axes,)


@settings(max_examples=150, deadline=None)
@given(dims_and_unions(bounded=True), st.randoms(use_true_random=False))
def test_box_lists_covering_the_same_points_have_equal_canonical_forms(case, rnd):
    dim, first, second = case
    pts = {p for box in first for p in box.points()}
    units = [Box(tuple((x, x + 1) for x in p)) for p in pts]
    rnd.shuffle(units)
    a, b, c = BoxUnion(dim, first), BoxUnion(dim, units), BoxUnion(dim, second)
    assert a.canonical() == b.canonical()
    same = pts == {p for box in second for p in box.points()}
    assert (a.canonical() == c.canonical()) == same


@settings(max_examples=200, deadline=None)
@given(dims_and_unions())
def test_intersection_containment_agrees_with_subtract(case):
    dim, first, second = case
    a, b = BoxUnion(dim, first), BoxUnion(dim, second)
    contained = a.intersect(b) == a
    assert contained == a.subtract(b).is_empty()
    assert contained == all(b.contains(p) for p in window_points(dim) if a.contains(p))
