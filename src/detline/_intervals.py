"""Half-open integer intervals, boxes and finite unions of boxes on Z^d.

A bound of ``None`` means unbounded (-inf for a lower bound, +inf for an
upper bound).  All boxes are products of half-open intervals [lo, hi).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

    @property
    def dim(self) -> int:
        return len(self.axes)

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

    __slots__ = ("dim", "boxes", "_canon")

    def __init__(self, dim: int, boxes=()):
        self.dim = dim
        self.boxes = tuple(b for b in boxes if not b.is_empty())
        self._canon = None

    @classmethod
    def empty(cls, dim: int) -> "BoxUnion":
        return cls(dim, ())

    @classmethod
    def full(cls, dim: int) -> "BoxUnion":
        return cls(dim, (full_box(dim),))

    def contains(self, pt) -> bool:
        return any(b.contains(pt) for b in self.boxes)

    def is_empty(self) -> bool:
        return not self.canonical()

    def union(self, other: "BoxUnion") -> "BoxUnion":
        return BoxUnion(self.dim, self.boxes + other.boxes)

    def intersect(self, other: "BoxUnion") -> "BoxUnion":
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return BoxUnion(self.dim, out)

    def subtract(self, other: "BoxUnion") -> "BoxUnion":
        cells = []  # cells outside self's hull are outside self
        for cell in _cells(self.boxes + other.boxes, _hull(self.boxes)):
            rep = _cell_rep(cell)
            if self.contains(rep) and not other.contains(rep):
                cells.append(cell)
        return BoxUnion(self.dim, cells)

    def complement(self) -> "BoxUnion":
        return BoxUnion.full(self.dim).subtract(self)

    def breakpoints(self, axis: int):
        return _breakpoints(self.boxes, axis)

    def canonical(self):
        """Canonical slab decomposition (axis 0 outermost)."""
        if self._canon is None:
            self._canon = _slabs(self.boxes, self.dim)
        return self._canon

    def canonical_boxes(self):
        return tuple(Box(axes) for axes in self.canonical())

    def is_finite(self) -> bool:
        return all(Box(axes).is_finite() for axes in self.canonical())

    def points(self):
        """Lattice points of a finite union, sorted last-axis major."""
        pts = set()
        for axes in self.canonical():
            pts.update(Box(axes).points())
        return sorted(pts, key=lambda p: tuple(reversed(p)))

    def size(self) -> int:
        return len(self.points())

    def __eq__(self, other):
        return (
            isinstance(other, BoxUnion)
            and self.dim == other.dim
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.dim, self.canonical()))

    def __repr__(self):
        return f"BoxUnion(dim={self.dim}, cells={self.canonical()!r})"


def _breakpoints(boxes, axis):
    """The finite bounds of the boxes on one axis."""
    pts = set()
    for b in boxes:
        lo, hi = b.axes[axis]
        if lo is not None:
            pts.add(lo)
        if hi is not None:
            pts.add(hi)
    return pts


def _axis_atoms(boxes, axis):
    """Atomic intervals on one axis generated by the boxes' breakpoints."""
    atoms, prev = [], None
    for c in sorted(_breakpoints(boxes, axis)):
        atoms.append((prev, c))
        prev = c
    atoms.append((prev, None))
    return atoms


def _hull(boxes) -> Box:
    """Bounding box of the given boxes; each of its bounds is one of theirs."""
    if len(boxes) == 1:
        return boxes[0]
    axes = []
    for ivls in zip(*(b.axes for b in boxes)):
        los, his = [lo for lo, _ in ivls], [hi for _, hi in ivls]
        axes.append((None if None in los else min(los), None if None in his else max(his)))
    return Box(tuple(axes))


def _cells(boxes, within: Box):
    """Atomic grid cells spanned by all breakpoints of the boxes, inside
    `within`; its bounds must be breakpoints, so no cell straddles them."""
    per_axis = [
        [a for a in _axis_atoms(boxes, ax) if _ivl_intersect(a, iv) == a]
        for ax, iv in enumerate(within.axes)
    ]
    for combo in itertools.product(*per_axis):
        yield Box(combo)


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


def _slabs(boxes, dim):
    """Recursive canonical decomposition: tuple of axis tuples."""
    if len(boxes) <= 1:  # at most one box is its own decomposition
        return tuple(b.axes for b in boxes)
    if dim == 0:
        return ((),)
    out = []
    for atom in _axis_atoms(boxes, 0):
        rep = atom[0] if atom[0] is not None else (atom[1] - 1 if atom[1] is not None else 0)
        inner_boxes = [
            Box(b.axes[1:]) for b in boxes if _ivl_contains(b.axes[0], rep)
        ]
        sub = _slabs(inner_boxes, dim - 1)
        if sub:
            out.append((atom, sub))
    # merge adjacent slabs with identical inner decompositions
    merged = []
    for atom, sub in out:
        if merged and merged[-1][1] == sub:
            plo, phi = merged[-1][0]
            if phi is not None and atom[0] is not None and phi == atom[0]:
                merged[-1] = ((plo, atom[1]), sub)
                continue
        merged.append([atom, sub])
    cells = []
    for atom, sub in merged:
        for inner in sub:
            cells.append((atom,) + tuple(inner))
    return tuple(sorted(cells, key=_slab_key))


def _slab_key(axes):
    def ik(iv):
        lo, hi = iv
        return (lo is not None, lo if lo is not None else 0, hi is None, hi if hi is not None else 0)

    return tuple(ik(iv) for iv in axes)
