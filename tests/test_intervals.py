"""Boxes and box unions: canonical forms and containment, as properties."""

import itertools

import numpy as np
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
    assert contained == (not a.subtract(b).canonical())
    assert contained == all(b.contains(p) for p in window_points(dim) if a.contains(p))


# -- seeded unions whose canonical form drops cuts ----------------------------


def _split(box, ax, cut):
    """The box cut in two on one axis, or the box itself if cut misses its inside."""
    lo, hi = box.axes[ax]
    if (lo is not None and cut <= lo) or (hi is not None and cut >= hi):
        return [box]
    return [Box(box.axes[:ax] + (part,) + box.axes[ax + 1:]) for part in ((lo, cut), (cut, hi))]


def _recut(rng, boxes, cuts):
    """The boxes split at one cut per axis, pieces shuffled."""
    pieces = list(boxes)
    for ax, cut in enumerate(cuts):
        pieces = [p for b in pieces for p in _split(b, ax, cut)]
    rng.shuffle(pieces)
    return pieces


def _bounds(canonical, ax):
    return {x for axes in canonical for x in axes[ax] if x is not None}


def test_dim_zero_union_of_two_points_is_one_point():
    assert BoxUnion(0, [Box(()), Box(())]).canonical() == ((),)
    assert BoxUnion(0, []).canonical() == ()


def test_canonical_form_drops_every_cut_where_membership_does_not_change():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3):
        for _ in range(20):
            # a box, possibly unbounded, halved on every axis
            lo = rng.integers(-6, 0, dim).tolist()
            hi = [x + int(rng.integers(3, 6)) for x in lo]
            axes = tuple(
                (None if rng.random() < 0.25 else a, None if rng.random() < 0.25 else b)
                for a, b in zip(lo, hi)
            )
            halves = _recut(rng, [Box(axes)], [int(rng.integers(a + 1, b)) for a, b in zip(lo, hi)])
            assert len(halves) == 2**dim
            assert BoxUnion(dim, halves).canonical() == (axes,)
            # an L: the box minus its upper corner from mid, as one slab per
            # axis, then cut again on every axis where nothing changes
            mid = [int(rng.integers(a + 1, b - 1)) for a, b in zip(lo, hi)]
            box = Box(tuple(zip(lo, hi)))
            ell = [_split(box, ax, m)[0] for ax, m in enumerate(mid)]
            extra = [m + 1 for m in mid]
            form = BoxUnion(dim, ell).canonical()
            assert BoxUnion(dim, _recut(rng, ell, extra)).canonical() == form
            for ax in range(dim):
                keep = {lo[ax], mid[ax]} | ({hi[ax]} if dim > 1 else set())
                assert _bounds(form, ax) == keep and extra[ax] not in keep
            pts = {p for b in ell for p in b.points()}
            assert pts == {p for axes in form for p in Box(axes).points()}


def _random_box(rng, dim):
    axes = []
    for _ in range(dim):
        lo, hi = sorted(rng.choice(np.arange(LO, HI + 1), 2, replace=False).tolist())
        axes.append((None if rng.random() < 0.2 else lo, None if rng.random() < 0.2 else hi))
    return Box(tuple(axes))


def test_canonical_forms_are_equal_exactly_when_the_point_sets_are():
    # WINDOW holds one point of each cell of every grid drawn here, so
    # equal window points mean equal point sets
    rng = np.random.default_rng(29)
    for dim in (1, 2, 3):
        unions = []
        for _ in range(25):
            boxes = [_random_box(rng, dim) for _ in range(int(rng.integers(1, 4)))]
            cuts = rng.integers(LO, HI + 1, dim).tolist()
            unions += [BoxUnion(dim, boxes), BoxUnion(dim, _recut(rng, boxes, cuts))]
        points = [frozenset(p for p in window_points(dim) if u.contains(p)) for u in unions]
        equal = 0
        for (a, pa), (b, pb) in itertools.combinations(zip(unions, points), 2):
            assert (a.canonical() == b.canonical()) == (pa == pb)
            equal += pa == pb
        assert equal >= 25
