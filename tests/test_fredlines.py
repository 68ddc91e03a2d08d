"""Determinant-line isomorphisms: torsion, perturbation, stabilisation."""

import numpy as np
import pytest

from detline import _linalg, fredlines
from detline._intervals import Box, BoxUnion
from detline.errors import (
    NotComplementary,
    NotQuasiIso,
    NotTraceClassDifference,
    ShapeMismatch,
)
from detline.graded import ExactTriangle, GradedVectorSpace, torsion_of_triangle
from detline.lattice import FiberedLatticeOp, SlotSpace
from detline.verify import (
    _well_conditioned,
    random_fibered_op,
    random_finite_box,
    suite_perturbation,
    suite_torsion,
)
from detline.windows import DenseOp


def _probe_points(op):
    """Lattice points up to two past the operator's outermost breakpoints."""
    return list(Box(tuple((c[0] - 2, c[-1] + 2) if c else (0, 1) for c in op._grid())).points())


def half(n):
    return BoxUnion(1, [Box(((n, None),))])


def op_between(n_dom, n_cod, extra=()):
    dom = SlotSpace([("d", half(n_dom))])
    cod = SlotSpace([("c", half(n_cod))])
    ents = [(1.0, Box(((max(n_dom, n_cod), None),)))] + list(extra)
    return FiberedLatticeOp(dom, cod, {(0, 0): ents})


def test_det_line_degrees():
    assert op_between(0, 0).index() == 0
    assert op_between(0, 2).index() == 2
    assert op_between(1, -1).index() == -2


def test_left_right_reductions():
    # composing with an invertible diagonal acts on one wedge factor only
    rng = np.random.default_rng(4)
    T = op_between(0, 2)  # kernel e_0, e_1
    vals = [complex(rng.standard_normal(), rng.standard_normal()) + 3.0 for _ in range(4)]
    sp2 = SlotSpace([("c", half(2))])
    sigma2 = FiberedLatticeOp(sp2, sp2, {(0, 0): [(1.0, Box(((2, None),)))]}).add(
        FiberedLatticeOp(sp2, sp2, {(0, 0): [(vals[k] - 1.0, Box(((2 + k, 3 + k),))) for k in range(4)]})
    )
    # L(S): no cokernel here, so the torsion scalar is 1 on frames
    tm = fredlines.torsion(T, sigma2)
    assert tm == pytest.approx(1.0)

    # R(S): |T| -> |T Sigma1|: kernel pulls back through Sigma1^{-1}
    sp0 = SlotSpace([("d", half(0))])
    sigma1 = FiberedLatticeOp(sp0, sp0, {(0, 0): [(1.0, Box(((0, None),)))]}).add(
        FiberedLatticeOp(sp0, sp0, {(0, 0): [(vals[k] - 1.0, Box(((k, k + 1),))) for k in range(4)]})
    )
    tm2 = fredlines.torsion(sigma1, T)
    # T Sigma1 kernel basis e_k / vals[k]; expressing the old frame gives dets
    assert tm2 == pytest.approx(1.0 / (vals[0] * vals[1]))


def test_quasi_map_identity_and_square():
    T = op_between(0, 1, [(0.5, Box(((0, 1),)))])
    ident = FiberedLatticeOp.identity(T.dom)
    identc = FiberedLatticeOp.identity(T.cod)
    qm = fredlines.quasi_map(ident, identc, T, T)
    assert qm == pytest.approx(1.0)


def test_translation_covariance_of_frames():
    # frames of a conjugated operator are the shifted frames
    from detline.torus import Monomial2, RingIdempotent, SigmaIndex, F_op

    q = RingIdempotent.generator
    lam = SigmaIndex(Monomial2(1.0, 1, 0))
    mu = SigmaIndex(Monomial2(1.0, 3, 0))
    F = F_op(lam, mu, q(Monomial2(1, 0, 2)), q(Monomial2(1, 0, 0)))
    k = Monomial2(2.0, 2, 1)
    F2 = F_op(
        SigmaIndex(k * lam.g), SigmaIndex(k * mu.g), q(k * Monomial2(1, 0, 2)), q(k)
    )
    p1, p2 = F.presentation(), F2.presentation()
    assert len(p1.ker) == len(p2.ker) and len(p1.coker) == len(p2.coker)
    shift = (k.a, k.b)
    for v1, v2 in zip(p1.ker, p2.ker):
        moved = {((pt[0] + shift[0], pt[1] + shift[1]), s): c for (pt, s), c in v1.items()}
        assert moved == v2


def test_perturbation_identity_and_scalar():
    T = op_between(0, 0, [(0.3, Box(((1, 2),)))])
    assert fredlines.perturbation(T, T) == pytest.approx(1.0)
    delta = 0.31 - 0.17j
    sp = SlotSpace([("h", half(0))])
    one = FiberedLatticeOp.identity(sp)
    bumped = one.add(FiberedLatticeOp(sp, sp, {(0, 0): [(delta, Box(((2, 3),)))]}))
    assert fredlines.perturbation(one, bumped) == pytest.approx(1 + delta)


def test_perturbation_requires_finite_difference():
    sp = SlotSpace([("h", half(0))])
    one = FiberedLatticeOp.identity(sp)
    two = one.scale(2.0)
    with pytest.raises(NotTraceClassDifference):
        fredlines.perturbation(one, two)


def test_perturbation_cocycle_transitive_and_inverse():
    rng = np.random.default_rng(31)
    base = random_fibered_op(rng, 0, 1)
    ops = [base.add(random_finite_box(rng, base)) for _ in range(3)]
    p01 = fredlines.perturbation(ops[0], ops[1])
    p12 = fredlines.perturbation(ops[1], ops[2])
    p02 = fredlines.perturbation(ops[0], ops[2])
    assert p01 * p12 == pytest.approx(p02, rel=1e-9)
    p10 = fredlines.perturbation(ops[1], ops[0])
    assert p01 * p10 == pytest.approx(1.0, rel=1e-9)


def test_stabilization_trivial_and_labels():
    T = op_between(0, 1, [(0.2, Box(((1, 2),)))])
    seg = BoxUnion(1, [Box(((-5, -3),))])
    dom = SlotSpace([("d", half(0)), ("g", seg)])
    cod = SlotSpace([("c", half(1)), ("g", seg)])
    ents = {k: list(v) for k, v in T.entries.items()}
    ents[(1, 1)] = [(2.0, Box(((-5, -3),)))]
    big = FiberedLatticeOp(dom, cod, ents)
    sm = fredlines.stabilization(T, big, (0,), (0,))
    assert sm == pytest.approx(1.0)
    # kernel labels are unchanged as labelled sets
    k1 = {lbl for v in T.presentation().ker for lbl in v}
    k2 = {lbl for v in big.presentation().ker for lbl in v}
    assert k1 == k2


def test_property_suites():
    for name, fn, trials in [
        ("torsion", suite_torsion, 25),
        ("perturbation", suite_perturbation, 15),
    ]:
        checks = fn(trials, 20260810)
        for c in checks:
            assert c["passed"], (name, c)


def _completion_independence(trials, seed):
    return next(c for c in suite_perturbation(trials, seed) if c["name"] == "completion_independence")


def test_completion_independence_check_is_not_vacuous(monkeypatch):
    # both operators of every trial have a kernel, so the random images are
    # used; a perturbation map without its cokernel correction fails the check
    real, kernels = fredlines.perturbation, []

    def recorded(T1, T2, images1=None, images2=None):
        if images1 is not None:
            kernels.append((len(T1.presentation().ker), len(T2.presentation().ker)))
        return real(T1, T2, images1, images2)

    monkeypatch.setattr(fredlines, "perturbation", recorded)
    assert _completion_independence(10, 3)["passed"]
    assert len(kernels) == 10 and all(k1 and k2 for k1, k2 in kernels)

    def uncorrected(T1, T2, images1=None, images2=None):
        def c(T, images):
            return _linalg.det(T.coker_coords(images or fredlines._matcher_images(T.presentation())))

        return real(T1, T2, images1, images2) * c(T2, images2) / c(T1, images1)

    monkeypatch.setattr(fredlines, "perturbation", uncorrected)
    assert not _completion_independence(10, 3)["passed"]


def test_dense_backend_matches_fibered_perturbation():
    # same index-zero perturbation computed in both representations
    rng = np.random.default_rng(77)
    base = random_fibered_op(rng, 0, 0)
    t1 = base.add(random_finite_box(rng, base))
    t2 = base.add(random_finite_box(rng, base))
    want = fredlines.perturbation(t1, t2)

    pts = [pt for pt in _probe_points(t1) if t1.dom.active(pt)]
    labels = [(pt, 0) for pt in pts]

    def dense(op):
        mat = np.zeros((len(labels), len(labels)), dtype=complex)
        for i, (pt, _) in enumerate(labels):
            m, _, _ = op.fiber(pt)
            mat[i, i] = m[0, 0]
        return DenseOp(labels, labels, mat)

    got = fredlines.perturbation(dense(t1), dense(t2))
    assert got == pytest.approx(want, rel=1e-9)


def test_torquis_square(inverse):
    # quasi-isomorphisms intertwine the torsion of a composition
    rng = np.random.default_rng(61)

    def diag_invertible(space, lo):
        vals = [complex(rng.standard_normal(), rng.standard_normal()) + 3.0 for _ in range(5)]
        op = FiberedLatticeOp(space, space, {(0, 0): [(1.0, Box(((lo, None),)))]})
        bump = FiberedLatticeOp(
            space, space, {(0, 0): [(vals[k] - 1.0, Box(((lo + k, lo + k + 1),))) for k in range(5)]}
        )
        return op.add(bump)

    T = random_fibered_op(rng, 0, 1)
    S = random_fibered_op(rng, 1, 0)
    phi = diag_invertible(T.dom, 0)
    psi = diag_invertible(T.cod, 1)
    tau = diag_invertible(S.cod, 0)
    T2 = psi.compose(T).compose(inverse(phi))
    S2 = tau.compose(S).compose(inverse(psi))
    q1 = fredlines.quasi_map(phi, psi, T, T2)
    q2 = fredlines.quasi_map(psi, tau, S, S2)
    q3 = fredlines.quasi_map(phi, tau, S.compose(T), S2.compose(T2))
    lhs = q3 * fredlines.torsion(T, S)
    rhs = fredlines.torsion(T2, S2) * q1 * q2
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_percom_dense_backend():
    # torsion/perturbation commutation on windowed dense operators
    rng = np.random.default_rng(91)
    n = 6
    labels_a = [("a", i) for i in range(n)]
    labels_b = [("b", i) for i in range(n)]
    labels_c = [("c", i) for i in range(n)]

    def wc():
        while True:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(m) < 40:
                return m

    def lowrank():
        u = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        return 0.3 * u @ v

    T = DenseOp(labels_a, labels_b, wc())
    S = DenseOp(labels_b, labels_c, wc())
    T2 = DenseOp(labels_a, labels_b, T.matrix + lowrank())
    S2 = DenseOp(labels_b, labels_c, S.matrix + lowrank())
    ST, ST2 = S.compose(T), S2.compose(T2)
    lhs = fredlines.torsion(T, S, ST) * fredlines.perturbation(ST, ST2)
    rhs = (
        fredlines.perturbation(T, T2)
        * fredlines.perturbation(S, S2)
        * fredlines.torsion(T2, S2, ST2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9)


# -- commuting squares, trace-class tests and chain composites ---------------
#
# The references are the checks these replaced: the commuting square was
# decided by building psi T1 - T2 phi, the trace-class test by building
# T1 - T2, and the chain composite was composed again after the torsion.


def _ref_intertwines(T2, T1, phi, psi):
    return not psi.compose(T1).sub(T2.compose(phi)).entries


SEG = BoxUnion(1, [Box(((-5, -3),))])


def _stabilized(T, extra=None):
    """T with a slot on SEG added to both sides, and the slot inclusions."""
    dom = SlotSpace([("d", T.dom.slots[0].support), ("g", SEG)])
    cod = SlotSpace([("c", T.cod.slots[0].support), ("g", SEG)])
    ents = {k: list(v) for k, v in T.entries.items()}
    ents[(1, 1)] = [(2.0, Box(((-5, -3),)))]
    for key, pairs in (extra or {}).items():
        ents[key] = ents.get(key, []) + pairs
    big = FiberedLatticeOp(dom, cod, ents)
    phi = FiberedLatticeOp.inclusion(T.dom, dom, [0])
    psi = FiberedLatticeOp.inclusion(T.cod, cod, [0])
    return big, phi, psi


def test_quasi_map_rejects_square_differing_on_one_cell():
    T = op_between(0, 1, [(0.2, Box(((1, 2),)))])
    bounded = {(0, 0): [(0.5, Box(((3, 4),)))]}  # one bounded cell
    unbounded = {(0, 0): [(0.5, Box(((6, None),)))]}  # one unbounded cell
    for extra in (bounded, unbounded):
        big, phi, psi = _stabilized(T, extra)
        assert not big.intertwines(T, phi, psi)
        assert not _ref_intertwines(big, T, phi, psi)
        with pytest.raises(NotQuasiIso):
            fredlines.quasi_map(phi, psi, T, big)
        with pytest.raises(NotComplementary):
            fredlines.stabilization(T, big, (0,), (0,))
    big, phi, psi = _stabilized(T)
    assert big.intertwines(T, phi, psi)
    # a cell that only the small operator's grid cuts out
    bare, phi, psi = _stabilized(op_between(0, 1))
    bumped = op_between(0, 1, [(0.5, Box(((4, 5),)))])
    assert not bare.intertwines(bumped, phi, psi)
    assert not _ref_intertwines(bare, bumped, phi, psi)


def test_quasi_map_mismatched_slot_spaces_raise():
    T = op_between(0, 1)
    big, phi, psi = _stabilized(T)
    wrong = FiberedLatticeOp.identity(SlotSpace([("d", half(2))]))
    with pytest.raises(ShapeMismatch):
        fredlines.quasi_map(wrong, psi, T, big)
    with pytest.raises(ShapeMismatch):
        fredlines.quasi_map(phi, wrong, T, big)
    with pytest.raises(ShapeMismatch):
        big.intertwines(T, psi, phi)
    # a big operator whose slots do not contain the small one's
    small_big = op_between(3, 3)
    with pytest.raises(NotComplementary):
        fredlines.stabilization(T, small_big, (0,), (0,))
    with pytest.raises(ShapeMismatch):
        T.finite_difference(op_between(1, 1))
    with pytest.raises(ShapeMismatch):
        DenseOp([0, 1], [0, 1], np.eye(2)).finite_difference(DenseOp([0, 2], [0, 2], np.eye(2)))


def test_intertwines_matches_compose_sub_reference():
    rng = np.random.default_rng(8)
    outcomes = set()
    for _ in range(40):
        n_dom, n_cod = (int(x) for x in rng.integers(-2, 3, size=2))
        T = random_fibered_op(rng, n_dom, n_cod)
        lo = max(n_dom, n_cod)
        extra = {}
        kind = int(rng.integers(4))
        if kind:
            key = [(0, 0), (1, 1)][int(rng.integers(2))]  # (1, 1) keeps the square
            start = -5 if key == (1, 1) else lo + int(rng.integers(0, 5))
            hi = start + 1 if kind == 1 or key == (1, 1) else None
            extra[key] = [(0.5 * complex(*rng.standard_normal(2)), Box(((start, hi),)))]
        big, phi, psi = _stabilized(T, extra)
        got = big.intertwines(T, phi, psi)
        assert got == _ref_intertwines(big, T, phi, psi)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_intertwines_on_invertible_squares(inverse):
    # the squares of test_torquis_square, and the same squares perturbed
    rng = np.random.default_rng(62)
    for _ in range(6):
        T = random_fibered_op(rng, 0, 1)
        phi, psi = (
            FiberedLatticeOp.identity(sp).add(random_finite_box(rng, FiberedLatticeOp.identity(sp)))
            for sp in (T.dom, T.cod)
        )
        T2 = psi.compose(T).compose(inverse(phi))
        bumped = T2.add(random_finite_box(rng, T2))
        assert T2.intertwines(T, phi, psi) and _ref_intertwines(T2, T, phi, psi)
        assert not bumped.intertwines(T, phi, psi)
        assert not _ref_intertwines(bumped, T, phi, psi)


def test_perturbation_rejects_difference_unbounded_along_one_axis():
    full = SlotSpace([("h", BoxUnion.full(2))])
    one = FiberedLatticeOp.identity(full)
    for strip in (Box(((0, 1), (None, None))), Box(((None, 2), (3, 5))), Box(((1, 3), (4, None)))):
        bumped = one.add(FiberedLatticeOp(full, full, {(0, 0): [(0.5, strip)]}))
        assert not one.finite_difference(bumped)
        assert not one.sub(bumped).is_finite_box()
        with pytest.raises(NotTraceClassDifference):
            fredlines.perturbation(one, bumped)
    square = one.add(FiberedLatticeOp(full, full, {(0, 0): [(0.5, Box(((0, 2), (1, 3))))]}))
    assert one.finite_difference(square) and one.sub(square).is_finite_box()
    assert fredlines.perturbation(one, square) == pytest.approx(1.5 ** 4)


def _triv_setup(schedule):
    """Indices, base point and starting idempotents of a Context.triv call."""
    from detline.torus import Monomial2, RingIdempotent, SigmaIndex

    q = RingIdempotent.generator
    n = max(max(pair) for pair in schedule) + 1
    lams = [SigmaIndex(Monomial2(1.0, a, b)) for a, b in [(1, 0), (3, 1), (2, 4), (0, 2)][:n]]
    p0, e = q(Monomial2(1.0, 0, 0)), q(Monomial2(1.0, 2, 3))
    ps = [p0] * n
    ps[schedule[0][0]] = e
    return lams, p0, ps


def _triv_steps(schedule):
    """The big_F steps of Context.triv for a schedule, each with the 2-slot
    F block it stabilises and the slot pair the block sits in."""
    from detline.torus import F_op, big_F

    lams, _, ps = _triv_setup(schedule)
    out = []
    for i, j in schedule:
        out.append((F_op(lams[i], lams[j], ps[i], ps[j]), big_F(lams, (i, j), tuple(ps)), (i, j)))
        ps[i], ps[j] = ps[j], ps[i]
    return out


def _ref_torsion_chain(ops):
    scalar = 1.0 + 0.0j
    partial = ops[-1]
    for op in reversed(ops[:-1]):
        scalar *= fredlines.torsion(op, partial)
        partial = partial.compose(op)
    return scalar


def test_torsion_chain_composite_is_the_reduced_composite():
    from functools import reduce

    from detline.coproduct import COMPOSE, TERNARY

    for schedule in (COMPOSE, TERNARY):
        steps = [big for _, big, _ in _triv_steps(schedule)]
        chain, comp = fredlines.torsion_chain(steps)
        ref = reduce(FiberedLatticeOp.compose, reversed(steps))
        assert comp.entries == ref.entries
        assert comp.dom.compatible(ref.dom) and comp.cod.compatible(ref.cod)
        assert chain == _ref_torsion_chain(steps)
        assert comp.presentation().degree == ref.presentation().degree


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(FiberedLatticeOp, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FiberedLatticeOp, name, counted)
    return calls


def test_stabilization_constructs_only_the_inclusions(monkeypatch):
    from detline.coproduct import COMPOSE

    cases = _triv_steps(COMPOSE)
    want = [fredlines.stabilization(small, big, pair, pair) for small, big, pair in cases]
    built = _count_calls(monkeypatch, "__init__")
    for (small, big, pair), scalar in zip(cases, want):
        before = len(built)
        assert fredlines.stabilization(small, big, pair, pair) == scalar
        assert len(built) - before == 2


def test_stabilizations_the_pipeline_skips_are_exactly_one():
    # Context.triv and change_base take each big_F step and each identity
    # extension for the block it stabilises: Gamma is decoupled from the
    # block and the slot order is kept, so the line map is 1, not roughly 1
    from detline.coproduct import COMPOSE, COMPOSE_DAGGER, TERNARY, TERNARY_DAGGER, Context
    from detline.torus import Monomial2, RingIdempotent, SigmaIndex

    one = 1.0 + 0.0j
    for schedule in (COMPOSE, COMPOSE_DAGGER, TERNARY, TERNARY_DAGGER):
        for small, big, pair in _triv_steps(schedule):
            assert fredlines.stabilization(small, big, pair, pair) == one
        lams, p0, ps = _triv_setup(schedule)
        ctx = Context(p0)
        _, comp = ctx._chain(lams, ps, schedule)
        big = ctx._extend(comp, lams, [(k, k) for k in range(len(lams))])
        slots = list(range(len(lams)))
        assert fredlines.stabilization(comp, big, slots, slots) == one
    # the half of change_base, on both sides of a move between base points
    q = RingIdempotent.generator
    lam, mu = SigmaIndex(Monomial2(1.2, 1, 1)), SigmaIndex(Monomial2(2.0, 3, 0))
    p, r = q(Monomial2(1.0, 5, 2)), q(Monomial2(1.0, 2, 1))
    for base in (q(Monomial2(1.0, 4, 2)), q(Monomial2.one())):
        ctx = Context(base)
        lams = (lam, mu, mu)
        _, comp = ctx._chain(lams, (p, r, base), ((0, 2), (0, 1)))
        big = ctx._extend(comp, lams, [(1, 2)])
        assert fredlines.stabilization(comp, big, [0, 1, 2], [0, 1, 2]) == one


def test_stabilization_with_swapped_slots_is_a_sign():
    # two index-1 slots, each with a one-vector kernel: including them in
    # swapped order swaps the kernel frame, so the map is -1
    dom = SlotSpace([("a", half(0)), ("b", half(0))])
    cod = SlotSpace([("a", half(1)), ("b", half(1))])
    ents = {(k, k): [(1.0, Box(((1, None),)))] for k in (0, 1)}
    T = FiberedLatticeOp(dom, cod, ents)
    assert T.index() == 2
    big_dom = SlotSpace([*((s.name, s.support) for s in dom.slots), ("g", SEG)])
    big_cod = SlotSpace([*((s.name, s.support) for s in cod.slots), ("g", SEG)])
    big = FiberedLatticeOp(big_dom, big_cod, {**ents, (2, 2): [(2.0, Box(((-5, -3),)))]})
    assert fredlines.stabilization(T, big, (0, 1), (0, 1)) == 1.0
    assert fredlines.stabilization(T, big, (1, 0), (1, 0)) == -1.0


def test_torsion_chain_composes_once_per_step(monkeypatch):
    from detline.coproduct import TERNARY

    steps = [big for _, big, _ in _triv_steps(TERNARY)]
    composed = _count_calls(monkeypatch, "compose")
    for n in (2, 3, 4):
        before = len(composed)
        fredlines.torsion_chain(steps[:n])
        assert len(composed) - before == n - 1


# -- the padded-operator route for index != 0 --------------------------------
#
# The reference is the route `perturbation` replaced: both operators got |d|
# zero-mapped auxiliary coordinates, the index-zero map ran between the
# padded pair, and the torsions t1, t2 of the split triangles
# I(T_i) -> I(T_i + 0) -> I(0_{m,n}) corrected it by t2 / t1.


def _ref_pad_fibered(T1, T2, n_dom, n_cod):
    base = max(c[-1] + 4 if c else 1 for op in (T1, T2) for c in op._grid())
    aux_pts = [tuple(base + 2 * k for _ in range(T1.dim)) for k in range(max(n_dom, n_cod))]
    aux = [BoxUnion(T1.dim, [Box(tuple((x, x + 1) for x in pt))]) for pt in aux_pts]
    out = []
    for T in (T1, T2):
        dom_slots = [(s.name, s.support) for s in T.dom.slots]
        cod_slots = [(s.name, s.support) for s in T.cod.slots]
        dom_slots += [(f"_auxd{k}", aux[k]) for k in range(n_dom)]
        cod_slots += [(f"_auxc{k}", aux[k]) for k in range(n_cod)]
        entries = {key: list(pairs) for key, pairs in T.entries.items()}
        out.append(FiberedLatticeOp(SlotSpace(dom_slots), SlotSpace(cod_slots), entries))
    aux_dom = [(aux_pts[k], len(T1.dom) + k) for k in range(n_dom)]
    aux_cod = [(aux_pts[k], len(T1.cod) + k) for k in range(n_cod)]
    return out[0], out[1], aux_dom, aux_cod


def _ref_pad_dense(T1, T2, n_dom, n_cod):
    aux_dom = [("auxd", k) for k in range(n_dom)]
    aux_cod = [("auxc", k) for k in range(n_cod)]
    out = []
    for T in (T1, T2):
        mat = np.zeros((len(T.cod_labels) + n_cod, len(T.dom_labels) + n_dom), dtype=complex)
        mat[: len(T.cod_labels), : len(T.dom_labels)] = T.matrix
        out.append(DenseOp(T.dom_labels + aux_dom, T.cod_labels + aux_cod, mat))
    return out[0], out[1], aux_dom, aux_cod


def _ref_completed(T, dom_labels, cod_labels, kers, images):
    mat = T.block(dom_labels, cod_labels)
    dpos = {l: i for i, l in enumerate(dom_labels)}
    cpos = {l: i for i, l in enumerate(cod_labels)}
    chis = fredlines._chi_functionals(T, kers) if kers else []
    for j, img in enumerate(images):
        for rl, rv in img.items():
            for cl, cv in chis[j].items():
                mat[cpos[rl], dpos[cl]] += rv * cv
    return mat


def _ref_pert_index0(T1, T2):
    p1, p2 = T1.presentation(), T2.presentation()
    images1, images2 = [dict(r) for r in p1.coker], [dict(r) for r in p2.coker]
    c1 = _linalg.det(T1.coker_coords(images1))
    c2 = _linalg.det(T2.coker_coords(images2))
    dom_labels, cod_labels = T1.pert_labels(T2, [*images1, *images2])
    assert len(dom_labels) == len(cod_labels)
    d1 = _linalg.det(_ref_completed(T1, dom_labels, cod_labels, p1.ker, images1))
    d2 = _linalg.det(_ref_completed(T2, dom_labels, cod_labels, p2.ker, images2))
    return d2 / d1 * c1 / c2


def _ref_split_triangle_scalar(T, padded, aux_dom, aux_cod):
    pT, pP = T.presentation(), padded.presentation()
    q_plus = np.array(
        [[kv.get(al, 0.0) for kv in pP.ker] for al in aux_dom], dtype=complex
    ).reshape(len(aux_dom), len(pP.ker))
    q_minus = np.array(
        [[rv.get(al, 0.0) for rv in pP.coker] for al in aux_cod], dtype=complex
    ).reshape(len(aux_cod), len(pP.coker))
    return torsion_of_triangle(
        ExactTriangle(
            U=GradedVectorSpace(len(pT.ker), len(pT.coker)),
            V=GradedVectorSpace(len(pP.ker), len(pP.coker)),
            W=GradedVectorSpace(len(aux_dom), len(aux_cod)),
            i_plus=padded.express_in_kernel(list(pT.ker)),
            i_minus=padded.coker_coords(list(pT.coker)),
            q_plus=q_plus,
            q_minus=q_minus,
            d_plus=np.zeros((len(pT.coker), len(aux_dom))),
            d_minus=np.zeros((len(pT.ker), len(aux_cod))),
        )
    )


def _ref_perturbation(T1, T2):
    """The old map |T1| -> |T2|, its padded index-zero factor and t2 / t1."""
    idx = T1.index()
    if idx == 0:
        value = _ref_pert_index0(T1, T2)
        return value, value, 1.0
    pad = _ref_pad_dense if isinstance(T1, DenseOp) else _ref_pad_fibered
    P1, P2, aux_dom, aux_cod = pad(T1, T2, max(0, -idx), max(0, idx))
    t1 = _ref_split_triangle_scalar(T1, P1, aux_dom, aux_cod)
    t2 = _ref_split_triangle_scalar(T2, P2, aux_dom, aux_cod)
    padded = _ref_pert_index0(P1, P2)
    return t2 * padded / t1, padded, t2 / t1


def _fibered_pairs(rng):
    """Single-slot pairs with a trace-class difference and index in [-5, 5]."""
    pairs = []
    for idx in range(-5, 6):
        n_dom = int(rng.integers(-2, 3))
        T1 = random_fibered_op(rng, n_dom, n_dom + idx)
        pairs.append((T1, T1.add(random_finite_box(rng, T1))))
        # a zero fiber beyond the random boxes: one more kernel and cokernel vector
        tip = max(n_dom, n_dom + idx) + 4
        zero = {(0, 0): [(-1.0, Box(((tip, tip + 1),)))]}
        pairs.append((T1, T1.add(FiberedLatticeOp(T1.dom, T1.cod, zero))))
    return pairs


def _two_slot_pair():
    """Two coupled slots of index 3 - 1 = 2; the fiber at 2 holds two kernel vectors."""
    dom = SlotSpace([("d", half(0)), ("e", half(2))])
    cod = SlotSpace([("c", half(3)), ("f", half(1))])
    ents = {
        (0, 0): [(1.0, Box(((3, None),)))],
        (1, 1): [(1.0, Box(((2, None),)))],
        (1, 0): [(0.5 - 0.2j, Box(((1, 4),)))],
    }
    bump = {(0, 1): [(0.4 + 0.3j, Box(((3, 5),)))], (1, 1): [(-0.6j, Box(((2, 4),)))]}
    T1 = FiberedLatticeOp(dom, cod, ents)
    return T1, T1.add(FiberedLatticeOp(dom, cod, bump))


def test_perturbation_matches_the_padded_route_on_fibered_pairs():
    pairs = _fibered_pairs(np.random.default_rng(15))
    assert {T1.index() for T1, _ in pairs} == set(range(-5, 6))
    assert any(len(T1.presentation().ker) != len(T2.presentation().ker) for T1, T2 in pairs)
    for T1, T2 in pairs:
        want, padded, ratio = _ref_perturbation(T1, T2)
        got = fredlines.perturbation(T1, T2)
        assert got == want == padded and ratio == 1
    # Two kernel vectors in one fiber: the split-triangle torsions are +-1
    # only up to roundoff, which the padded block no longer picks up.
    T1, T2 = _two_slot_pair()
    want, padded, ratio = _ref_perturbation(T1, T2)
    got = fredlines.perturbation(T1, T2)
    assert got == padded
    assert ratio == pytest.approx(1, rel=1e-15, abs=1e-15)
    assert got == pytest.approx(want, rel=1e-15)


def test_perturbation_matches_the_padded_route_on_dense_pairs():
    rng = np.random.default_rng(16)
    for idx in range(-3, 4):
        for _ in range(3):
            n_cod = int(rng.integers(3, 6))
            n_dom = n_cod + idx
            dom, cod = [("s", 0, i) for i in range(n_dom)], [("s", 1, i) for i in range(n_cod)]
            rank = int(rng.integers(0, min(n_dom, n_cod) + 1))
            core = np.zeros((n_cod, n_dom), dtype=complex)
            core[range(rank), range(rank)] = 1.0
            mat = _well_conditioned(rng, n_cod) @ core @ _well_conditioned(rng, n_dom)
            low = rng.standard_normal((n_cod, 1)) @ rng.standard_normal((1, n_dom))
            T1, T2 = DenseOp(dom, cod, mat), DenseOp(dom, cod, mat + 0.3 * low)
            want = _ref_perturbation(T1, T2)[0]
            assert fredlines.perturbation(T1, T2) == pytest.approx(want, rel=1e-12)
