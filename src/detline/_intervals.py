"""Half-open integer intervals, boxes and finite unions of boxes on Z^d, and
the grid that cuts Z^d into cells at their bounds.

A bound of ``None`` means unbounded (-inf for a lower bound, +inf for an
upper bound).  All boxes are products of half-open intervals [lo, hi).

A grid is one sorted list of cuts per axis.  Cell i of an axis spans
[cuts[i-1], cuts[i]), unbounded below for i = 0 and above for
i = len(cuts); a cell of the grid is a tuple of per-axis indices.  Arrays
over a grid hold one entry per cell, and cells are listed in their C order
(first axis outermost).  A box whose bounds are cuts covers a block of
cells, given by one slice per axis.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._linalg import memo
from .errors import NotFiniteRank

Bound = "int | None"


def _ivl_intersect(a, b):
    """Intersection of two half-open intervals, None if empty."""
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and lo >= hi:
        return None
    return (lo, hi)


def _ivl_contains(ivl, x: int) -> bool:
    lo, hi = ivl
    return (lo is None or x >= lo) and (hi is None or x < hi)


@dataclass(frozen=True)
class Box:
    """Product of half-open integer intervals, one per axis."""

    axes: tuple  # tuple of (lo, hi) pairs

    def contains(self, pt) -> bool:
        return all(_ivl_contains(iv, x) for iv, x in zip(self.axes, pt))

    def intersect(self, other: "Box"):
        ivls = []
        for a, b in zip(self.axes, other.axes):
            iv = _ivl_intersect(a, b)
            if iv is None:
                return None
            ivls.append(iv)
        return Box(tuple(ivls))

    def is_finite(self) -> bool:
        return all(lo is not None and hi is not None for lo, hi in self.axes)

    def is_empty(self) -> bool:
        return any(
            lo is not None and hi is not None and lo >= hi for lo, hi in self.axes
        )

    def points(self):
        """All lattice points, ordered with the last axis major."""
        if not self.is_finite():
            raise NotFiniteRank("cannot enumerate an unbounded box")
        ranges = [range(lo, hi) for lo, hi in self.axes]
        for rev in itertools.product(*reversed(ranges)):
            yield tuple(reversed(rev))


def full_box(dim: int) -> Box:
    return Box(tuple((None, None) for _ in range(dim)))


class BoxUnion:
    """A finite union of boxes with set semantics and a canonical form."""

    __slots__ = ("dim", "boxes", "_canon", "_hash")

    def __init__(self, dim: int, boxes=()):
        self.dim = dim
        self.boxes = tuple(b for b in boxes if not b.is_empty())
        self._canon = self._hash = None

    @classmethod
    def full(cls, dim: int) -> "BoxUnion":
        return cls(dim, (full_box(dim),))

    def contains(self, pt) -> bool:
        return any(b.contains(pt) for b in self.boxes)

    def intersect(self, other: "BoxUnion") -> "BoxUnion":
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return BoxUnion(self.dim, out)

    def subtract(self, other: "BoxUnion") -> "BoxUnion":
        return memo(_subtract, self.dim, self.boxes, other.boxes)

    def canonical(self):
        """The covered cells of the grid cut only where membership changes,
        as axis tuples in C order: one form per point set."""
        if self._canon is None:
            self._canon = _canonical(self.boxes, self.dim)
        return self._canon

    def canonical_boxes(self):
        return tuple(Box(axes) for axes in self.canonical())

    def __eq__(self, other):
        return (
            isinstance(other, BoxUnion)
            and self.dim == other.dim
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.canonical()))
        return self._hash

    def __repr__(self):
        return f"BoxUnion(dim={self.dim}, cells={self.canonical()!r})"


def _subtract(dim, boxes, others):
    grid = grid_cuts(boxes + others, dim)
    return BoxUnion(dim, marked_cells(grid, cover_mask(grid, boxes) & ~cover_mask(grid, others)))


def _canonical(boxes, dim):
    if len(boxes) <= 1:  # one box is its own canonical form
        return tuple(b.axes for b in boxes)
    grid = list(grid_cuts(boxes, dim))
    mask = cover_mask(grid, boxes)
    for ax in range(dim):  # keep the cuts between cell slabs that differ
        others = tuple(a for a in range(dim) if a != ax)
        changes = np.flatnonzero(np.diff(mask, axis=ax).any(axis=others))
        grid[ax] = [grid[ax][k] for k in changes]
        mask = mask.take(np.append(0, changes + 1), axis=ax)
    return tuple(b.axes for b in marked_cells(grid, mask))


def _cell_rep(cell: Box):
    rep = []
    for lo, hi in cell.axes:
        if lo is not None:
            rep.append(lo)
        elif hi is not None:
            rep.append(hi - 1)
        else:
            rep.append(0)
    return tuple(rep)


# -- the grid ------------------------------------------------------------------


def grid_cuts(boxes, dim):
    """The grid cut at every finite bound of the boxes."""
    return tuple(
        sorted({x for b in boxes for x in b.axes[ax] if x is not None}) for ax in range(dim)
    )


def grid_shape(grid):
    return tuple(len(c) + 1 for c in grid)


def cell_index(cuts, x: int) -> int:
    """Index of the cell of one axis, cut at `cuts`, that holds x."""
    return bisect_right(cuts, x)


def cell_bounds(cuts, i: int):
    """(lo, hi) of cell i of one axis cut at `cuts`."""
    return (cuts[i - 1] if i else None, cuts[i] if i < len(cuts) else None)


def cover(grid, box: Box):
    """Per axis, the slice of the cells inside a box whose bounds are cuts."""
    return tuple(
        slice(
            0 if lo is None else cell_index(c, lo), len(c) + 1 if hi is None else cell_index(c, hi)
        )
        for c, (lo, hi) in zip(grid, box.axes)
    )


def cover_mask(grid, boxes):
    """Per cell, whether one of the boxes covers it."""
    mask = np.zeros(grid_shape(grid), dtype=bool)
    for b in boxes:
        mask[cover(grid, b)] = True
    return mask


def cover_sum(grid, pairs):
    """Per cell, the coefficients of the (coefficient, box) pairs that cover
    it, summed in pair order."""
    total = np.zeros(grid_shape(grid), dtype=complex)
    for c, b in pairs:
        total[cover(grid, b)] += c
    return total


def marked_cells(grid, mask):
    """The box of each cell marked in `mask`, in C order."""
    return [Box(tuple(map(cell_bounds, grid, idx))) for idx in np.argwhere(mask).tolist()]
