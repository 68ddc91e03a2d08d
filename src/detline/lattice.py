"""Exact fiberwise calculus for block operators on l2(Z^d) slots.

Operators here are block matrices between "slot spaces": ordered lists of
slots, each carrying a sub-lattice support (a union of integer boxes).
Every matrix entry is a finite sum of coefficient * box-indicator, so the
operator is block-diagonal over lattice fibers, and its fiber is constant on
each cell of the grid cut at its breakpoints.  Kernels, cokernels, indices,
trace norms and the exceptional fibers of a perturbation reduce to finite
linear algebra once per bounded grid cell plus a certification of the
unbounded cells.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import prod

import numpy as np

from . import _linalg
from ._intervals import Box, BoxUnion, _breakpoints, _cell_rep, _cells, _hull
from .errors import NotFiniteRank, NotFredholm, ShapeMismatch

COEFF_TOL = 1e-12
# |det| at or below which a fiber is singular: an unbounded cell's makes the
# operator non-Fredholm, a bounded cell's is exceptional in a perturbation.
SINGULAR_DET_TOL = 1e-10
# Two fibers are equal when their entries differ by at most this times the
# larger of 1 and the first one's largest entry: the roundoff of box sums.
FIBER_EQ_TOL = 1e-12


def pt_key(pt):
    """Canonical lattice order: last axis major, ascending."""
    return tuple(reversed(pt))


def label_key(label):
    pt, slot = label
    return (pt_key(pt), slot)


@dataclass(frozen=True)
class Slot:
    name: str
    support: BoxUnion


class SlotSpace:
    """Ordered list of labelled sub-lattice supports."""

    def __init__(self, slots):
        self.slots = tuple(Slot(name, sup) for name, sup in slots)
        if self.slots:
            dims = {s.support.dim for s in self.slots}
            if len(dims) != 1:
                raise ShapeMismatch("mixed lattice dimensions in one space")
            self.dim = dims.pop()
        else:
            self.dim = 0

    def __len__(self):
        return len(self.slots)

    def active(self, pt):
        return [i for i, s in enumerate(self.slots) if s.support.contains(pt)]

    def compatible(self, other: "SlotSpace") -> bool:
        if len(self) != len(other):
            return False
        return all(a.support == b.support for a, b in zip(self.slots, other.slots))

    def breakpoints(self, axis):
        pts = set()
        for s in self.slots:
            pts |= s.support.breakpoints(axis)
        return pts

    def __repr__(self):
        return f"SlotSpace({[s.name for s in self.slots]})"


@dataclass
class Presentation:
    """Canonical kernel basis and cokernel representatives of an operator."""

    ker: tuple
    coker: tuple

    @property
    def degree(self) -> int:
        return len(self.ker) - len(self.coker)


def _canonical_cells(pairs, support: BoxUnion):
    """Disjoint (value, box) cells of a coefficient-box sum on a support.

    Only cells inside the hulls of both the support and the pair boxes are
    visited: every other cell lies outside the support or sums to zero.
    """
    sup_boxes = support.canonical_boxes()
    if not pairs or not sup_boxes:
        return ()
    hull = _hull(sup_boxes).intersect(_hull([b for _, b in pairs]))
    if hull is None:
        return ()
    out = []
    for cell in _cells([b for _, b in pairs] + list(sup_boxes), hull):
        rep = _cell_rep(cell)
        if not support.contains(rep):
            continue
        val = sum(c for c, b in pairs if b.contains(rep))
        if abs(val) > COEFF_TOL:
            out.append((complex(val), cell))
    return tuple(out)


def _walk(ops, bounded):
    """(box, point in it, fibers) of each bounded, or else unbounded, joint cell.

    The joint grid cuts each axis at all `ops`' breakpoints; cell i of an
    axis spans [cuts[i-1], cuts[i]), unbounded below for i = 0 and above
    for i = len(cuts).  An operator's own cuts are a subset, so joint cell
    i lies in its own cell bisect_right(own, cuts[i-1]) (0 for i = 0).  That
    map is tabled once per axis; `fibers` holds each op's fiber by cell index.
    """
    cuts = [sorted(set().union(*axes)) for axes in zip(*(op._grid() for op in ops))]
    spans = [range(1, len(c)) if bounded else range(len(c) + 1) for c in cuts]
    if not bounded:  # keep the cells that are unbounded on some axis
        inner = [[0 < i < len(c) for i in s] for c, s in zip(cuts, spans)]
        keep = [not all(f) for f in itertools.product(*inner)]

    def cells(tables):  # one item per walked cell, from one table per axis
        items = itertools.product(*tables)
        return items if bounded else itertools.compress(items, keep)

    bounds = cells(
        [(c[i - 1] if i else None, c[i] if i < len(c) else None) for i in s]
        for c, s in zip(cuts, spans)
    )
    per_op = [
        map(op._cell_fiber, cells(
            [bisect_right(g, c[i - 1]) if i else 0 for i in s]
            for g, c, s in zip(op._grid(), cuts, spans)
        ))
        for op in ops
    ]
    for axes, fibers in zip(bounds, zip(*per_op)):
        box = Box(axes)
        yield box, _cell_rep(box), fibers


def _fibers_agree(a, b) -> bool:
    """Equal shapes, and entries within FIBER_EQ_TOL times max(1, largest |a|)."""
    if a.shape != b.shape:
        return False
    if not a.size:
        return True
    dist = np.abs(a - b).max()
    return dist <= FIBER_EQ_TOL or dist <= FIBER_EQ_TOL * np.abs(a).max()


def _solve_once(solved, a, b):
    """`_linalg.solve_exact(a, b)`, solved once per distinct system in `solved`."""
    key = (a.shape, a.tobytes(), b.tobytes())
    if key not in solved:
        solved[key] = _linalg.solve_exact(a, b)
    return solved[key]


def _box_size(box: Box) -> int:
    return prod(hi - lo for lo, hi in box.axes)


def _index_by_point(vecs):
    """Positions of one-point vectors grouped by their point."""
    out = {}
    for k, vec in enumerate(vecs):
        out.setdefault(next(iter(vec))[0], []).append(k)
    return out


class FiberedLatticeOp:
    """Block operator with box-indicator entries, fiber-diagonal on Z^d."""

    def __init__(self, dom: SlotSpace, cod: SlotSpace, entries):
        if dom.slots and cod.slots and dom.dim != cod.dim:
            raise ShapeMismatch("domain/codomain lattice dimension mismatch")
        self.dom = dom
        self.cod = cod
        self.dim = dom.dim if dom.slots else cod.dim
        ents = {}
        for (i, j), pairs in entries.items():
            if not (0 <= i < len(cod) and 0 <= j < len(dom)):
                raise ShapeMismatch("entry index out of range")
            c_sup, d_sup = cod.slots[i].support, dom.slots[j].support
            sup = c_sup if c_sup == d_sup else c_sup.intersect(d_sup)
            cells = _canonical_cells(list(pairs), sup)
            if cells:
                ents[(i, j)] = cells
        self.entries = ents
        self._pres = None
        self._cuts = None
        self._fibers = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, space: SlotSpace) -> "FiberedLatticeOp":
        entries = {
            (i, i): [(1.0, b) for b in s.support.canonical_boxes()]
            for i, s in enumerate(space.slots)
        }
        return cls(space, space, entries)

    @classmethod
    def inclusion(cls, sub: SlotSpace, sup: SlotSpace, positions) -> "FiberedLatticeOp":
        """Slotwise inclusion mapping sub slot j to sup slot positions[j]."""
        entries = {}
        for j, pos in enumerate(positions):
            source = sub.slots[j].support
            if source.intersect(sup.slots[pos].support) != source:
                raise ShapeMismatch("inclusion target does not contain source")
            entries[(pos, j)] = [(1.0, b) for b in source.canonical_boxes()]
        return cls(sub, sup, entries)

    # -- elementary algebra ---------------------------------------------------

    def fiber(self, pt):
        """Fiber matrix at pt with its active slot index lists; pt's grid cell
        is found by bisecting each axis, where `_walk` reads fibers by index."""
        return self._cell_fiber(tuple(bisect_right(c, x) for c, x in zip(self._grid(), pt)))

    def _cell_fiber(self, idx):
        """Fiber of the own grid cell idx, indexed as in `_walk`; all built on first use."""
        if self._fibers is None:
            self._fibers = self._cell_fibers()
        return self._fibers[idx]

    def _cell_fibers(self):
        """Fiber of every grid cell, keyed by its per-axis bisect index."""
        cuts = self._grid()
        shape = tuple(len(c) + 1 for c in cuts)
        size = prod(shape)

        def cover(box):  # cells inside a box whose bounds are breakpoints
            return tuple(
                slice(
                    0 if lo is None else bisect_right(c, lo),
                    len(c) + 1 if hi is None else bisect_right(c, hi),
                )
                for c, (lo, hi) in zip(cuts, box.axes)
            )

        def active(space):  # per cell, one membership flag per slot
            masks = np.zeros((len(space),) + shape, dtype=bool)
            for k, s in enumerate(space.slots):
                for b in s.support.boxes:
                    masks[(k,) + cover(b)] = True
            return masks.reshape(len(space), size).T.tolist()

        vals = {}
        for key, pairs in self.entries.items():
            v = np.zeros(shape, dtype=complex)
            for c, b in pairs:
                v[cover(b)] += c
            vals[key] = v.ravel().tolist()
        fibers = {}
        cells = zip(np.ndindex(shape), active(self.dom), active(self.cod))
        for n, (idx, dom_in, cod_in) in enumerate(cells):
            dom_a = [j for j, a in enumerate(dom_in) if a]
            cod_a = [i for i, a in enumerate(cod_in) if a]
            mat = np.zeros((len(cod_a), len(dom_a)), dtype=complex)
            for r, i in enumerate(cod_a):
                for cix, j in enumerate(dom_a):
                    if (i, j) in vals:
                        mat[r, cix] = vals[(i, j)][n]
            fibers[idx] = (mat, dom_a, cod_a)
        return fibers

    def compose(self, other: "FiberedLatticeOp") -> "FiberedLatticeOp":
        """self after other (matrix product self @ other)."""
        if not self.dom.compatible(other.cod):
            raise ShapeMismatch("compose: inner slot spaces differ")
        entries = {}
        for (i, j), left in self.entries.items():
            for (jj, k), right in other.entries.items():
                if jj != j:
                    continue
                acc = entries.setdefault((i, k), [])
                for c1, b1 in left:
                    for c2, b2 in right:
                        b = b1.intersect(b2)
                        if b is not None:
                            acc.append((c1 * c2, b))
        return FiberedLatticeOp(other.dom, self.cod, entries)

    def add(self, other: "FiberedLatticeOp") -> "FiberedLatticeOp":
        if not (self.dom.compatible(other.dom) and self.cod.compatible(other.cod)):
            raise ShapeMismatch("add: slot spaces differ")
        entries = {}
        for key in set(self.entries) | set(other.entries):
            entries[key] = list(self.entries.get(key, ())) + list(
                other.entries.get(key, ())
            )
        return FiberedLatticeOp(self.dom, self.cod, entries)

    def scale(self, c) -> "FiberedLatticeOp":
        entries = {
            key: [(c * v, b) for v, b in pairs] for key, pairs in self.entries.items()
        }
        return FiberedLatticeOp(self.dom, self.cod, entries)

    def sub(self, other: "FiberedLatticeOp") -> "FiberedLatticeOp":
        return self.add(other.scale(-1.0))

    def intertwines(self, T1, phi, psi) -> bool:
        """Whether psi T1 == self phi, at one point of every cell of the joint grid."""
        pairs = ((psi.dom, T1.cod), (self.dom, phi.cod), (T1.dom, phi.dom), (psi.cod, self.cod))
        if not all(a.compatible(b) for a, b in pairs):
            raise ShapeMismatch("intertwines: slot spaces differ")
        return all(
            _fibers_agree(p[0] @ t1[0], t2[0] @ f[0])
            for bounded in (True, False)
            for _, _, (t2, t1, f, p) in _walk((self, T1, phi, psi), bounded)
        )

    def finite_difference(self, other: "FiberedLatticeOp") -> bool:
        """Whether self - other vanishes on every unbounded cell of the joint grid."""
        if not (self.dom.compatible(other.dom) and self.cod.compatible(other.cod)):
            raise ShapeMismatch("finite_difference: slot spaces differ")
        return all(
            _fibers_agree(a[0], b[0]) for _, _, (a, b) in _walk((self, other), bounded=False)
        )

    # -- grid cells -----------------------------------------------------------

    def breakpoints(self, axis):
        boxes = [b for pairs in self.entries.values() for _, b in pairs]
        return self.dom.breakpoints(axis) | self.cod.breakpoints(axis) | _breakpoints(boxes, axis)

    def _grid(self):
        """Sorted breakpoints per axis: the cuts of the operator's grid cells."""
        if self._cuts is None:
            self._cuts = tuple(sorted(self.breakpoints(ax)) for ax in range(self.dim))
        return self._cuts

    def certify_fredholm(self):
        """Check that the fiber of every unbounded grid cell is bijective."""
        for _, pt, [(mat, dom_a, cod_a)] in _walk([self], bounded=False):
            if len(dom_a) != len(cod_a):
                raise NotFredholm(f"non-square asymptotic fiber at {pt}")
            if dom_a and abs(_linalg.det(mat)) <= SINGULAR_DET_TOL:
                raise NotFredholm(f"singular asymptotic fiber at {pt}")

    # -- kernel / cokernel ----------------------------------------------------

    def presentation(self) -> Presentation:
        """Kernel basis and cokernel representatives, points in pt_key order.

        The fiber of each bounded grid cell is eliminated once; the points
        of the cell share the result.
        """
        if self._pres is None:
            self.certify_fredholm()
            found = []
            for box, _, [(mat, dom_a, cod_a)] in _walk([self], bounded=True):
                if not dom_a and not cod_a:
                    continue
                ker = [
                    [(dom_a[ix], x) for ix, x in enumerate(v) if abs(x) > COEFF_TOL]
                    for v in _linalg.nullspace(mat)
                ]
                coker = [cod_a[r] for r in _linalg.coker_free_rows(mat)]
                if ker or coker:
                    found.extend((p, ker, coker) for p in box.points())
            found.sort(key=lambda f: pt_key(f[0]))
            self._pres = Presentation(
                tuple({(p, s): x for s, x in v} for p, ker, _ in found for v in ker),
                tuple({(p, s): 1.0 + 0.0j} for p, _, coker in found for s in coker),
            )
        return self._pres

    def index(self) -> int:
        return self.presentation().degree

    # -- vector interface -----------------------------------------------------

    def apply(self, vec):
        out = {}
        by_pt = {}
        for (pt, slot), c in vec.items():
            by_pt.setdefault(pt, {})[slot] = c
        for pt, coords in by_pt.items():
            mat, dom_a, cod_a = self.fiber(pt)
            x = np.array([coords.get(j, 0.0) for j in dom_a], dtype=complex)
            unknown = set(coords) - set(dom_a)
            if unknown:
                raise ShapeMismatch(f"vector uses inactive slots {unknown} at {pt}")
            y = mat @ x if len(dom_a) else np.zeros(len(cod_a), dtype=complex)
            for r, i in enumerate(cod_a):
                if abs(y[r]) > COEFF_TOL:
                    out[(pt, i)] = out.get((pt, i), 0.0) + y[r]
        return out

    def express_in_kernel(self, vecs):
        """Coordinates of the given kernel vectors in the canonical basis."""
        pres = self.presentation()
        out = np.zeros((len(pres.ker), len(vecs)), dtype=complex)
        ker_by_pt = _index_by_point(pres.ker)
        solved = {}
        for cix, v in enumerate(vecs):
            by_pt = {}
            for (pt, slot), c in v.items():
                by_pt.setdefault(pt, {})[(pt, slot)] = c
            for pt, coords in by_pt.items():
                kids = ker_by_pt.get(pt, [])
                labels = sorted(
                    {l for k in kids for l in pres.ker[k]} | set(coords), key=label_key
                )
                if not kids:
                    raise np.linalg.LinAlgError("vector not in kernel (no fiber)")
                kmat = np.array(
                    [[pres.ker[k].get(l, 0.0) for k in kids] for l in labels],
                    dtype=complex,
                )
                rhs = np.array([coords.get(l, 0.0) for l in labels], dtype=complex)
                sol = _solve_once(solved, kmat, rhs)
                for ix, k in enumerate(kids):
                    out[k, cix] += sol[ix]
        return out

    def coker_coords(self, vecs):
        """Cokernel-class coordinates of codomain vectors."""
        pres = self.presentation()
        out = np.zeros((len(pres.coker), len(vecs)), dtype=complex)
        coker_by_pt = _index_by_point(pres.coker)
        solved = {}
        for cix, v in enumerate(vecs):
            by_pt = {}
            for (pt, slot), c in v.items():
                by_pt.setdefault(pt, {})[slot] = c
            for pt, coords in by_pt.items():
                mat, dom_a, cod_a = self.fiber(pt)
                kids = coker_by_pt.get(pt, [])
                rep_mat = np.array(
                    [[pres.coker[k].get((pt, i), 0.0) for k in kids] for i in cod_a],
                    dtype=complex,
                ).reshape(len(cod_a), len(kids))
                aug = np.hstack([mat, rep_mat])
                rhs = np.array([coords.get(i, 0.0) for i in cod_a], dtype=complex)
                sol = _solve_once(solved, aug, rhs)
                for ix, k in enumerate(kids):
                    out[k, cix] += sol[len(dom_a) + ix]
        return out

    # -- perturbation blocks --------------------------------------------------

    @staticmethod
    def label_key(label):
        """Sort key of a (point, slot) label; its first part names the fiber."""
        return label_key(label)

    def pert_labels(self, other: "FiberedLatticeOp", images):
        """Domain and codomain labels of the exceptional fibers of a pair.

        A fiber is exceptional when the two operators differ there, when
        it is not square or singular, or when it carries a kernel or
        cokernel vector of either operator or one of the `images`.  The
        check runs once per bounded cell of the pair's joint grid: on the
        unbounded cells both operators are certified invertible by their
        presentations, and they agree there when they differ by a
        finite-box operator, as `fredlines.perturbation` requires.
        """
        p1, p2 = self.presentation(), other.presentation()
        exceptional = set()
        for box, _, ((m1, d1, c1), (m2, _, _)) in _walk((self, other), bounded=True):
            if (
                not _fibers_agree(m1, m2)
                or len(d1) != len(c1)
                or (d1 and abs(_linalg.det(m1)) < SINGULAR_DET_TOL)
            ):
                exceptional.update(box.points())
        for coll in (p1.ker, p1.coker, p2.ker, p2.coker, images):
            for vec in coll:
                for (pt, _slot) in vec:
                    exceptional.add(pt)
        dom_labels, cod_labels = [], []
        for pt in sorted(exceptional, key=pt_key):
            dom_labels.extend((pt, j) for j in self.dom.active(pt))
            cod_labels.extend((pt, i) for i in self.cod.active(pt))
        return dom_labels, cod_labels

    def block(self, dom_labels, cod_labels):
        """Matrix of the operator between lists of (point, slot) labels."""
        dpos = {l: i for i, l in enumerate(dom_labels)}
        cpos = {l: i for i, l in enumerate(cod_labels)}
        mat = np.zeros((len(cod_labels), len(dom_labels)), dtype=complex)
        for pt in dict.fromkeys(pt for pt, _ in dom_labels):
            m, d_a, c_a = self.fiber(pt)
            for r, i in enumerate(c_a):
                for c, j in enumerate(d_a):
                    mat[cpos[(pt, i)], dpos[(pt, j)]] = m[r, c]
        return mat

    # -- scalar invariants ----------------------------------------------------

    def is_finite_box(self) -> bool:
        return all(
            b.is_finite() for pairs in self.entries.values() for _, b in pairs
        )

    def trace_norm(self) -> float:
        """Sum over bounded grid cells of |cell| times the fiber's singular values."""
        if not self.is_finite_box():
            raise NotFiniteRank("entries not supported on finite boxes")
        total = 0.0
        for box, _, [(mat, _, _)] in _walk([self], bounded=True):
            if mat.size:
                total += _box_size(box) * float(np.sum(np.linalg.svd(mat, compute_uv=False)))
        return total

    def __repr__(self):
        return f"FiberedLatticeOp({len(self.cod)}x{len(self.dom)}, dim={self.dim})"
