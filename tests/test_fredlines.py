"""Determinant-line isomorphisms: torsion, perturbation, stabilisation."""

import numpy as np
import pytest

from detline import fredlines
from detline._intervals import Box, BoxUnion
from detline.errors import (
    NotComplementary,
    NotQuasiIso,
    NotTraceClassDifference,
    ShapeMismatch,
)
from detline.lattice import FiberedLatticeOp, SlotSpace
from detline.verify import (
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
    assert fredlines.det_line(op_between(0, 0)).degree == 0
    assert fredlines.det_line(op_between(0, 2)).degree == 2
    assert fredlines.det_line(op_between(1, -1)).degree == -2


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
    assert tm.scalar == pytest.approx(1.0)

    # R(S): |T| -> |T Sigma1|: kernel pulls back through Sigma1^{-1}
    sp0 = SlotSpace([("d", half(0))])
    sigma1 = FiberedLatticeOp(sp0, sp0, {(0, 0): [(1.0, Box(((0, None),)))]}).add(
        FiberedLatticeOp(sp0, sp0, {(0, 0): [(vals[k] - 1.0, Box(((k, k + 1),))) for k in range(4)]})
    )
    tm2 = fredlines.torsion(sigma1, T)
    # T Sigma1 kernel basis e_k / vals[k]; expressing the old frame gives dets
    assert tm2.scalar == pytest.approx(1.0 / (vals[0] * vals[1]))


def test_quasi_map_identity_and_square():
    T = op_between(0, 1, [(0.5, Box(((0, 1),)))])
    ident = FiberedLatticeOp.identity(T.dom)
    identc = FiberedLatticeOp.identity(T.cod)
    qm = fredlines.quasi_map(ident, identc, T, T)
    assert qm.scalar == pytest.approx(1.0)


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
    assert fredlines.perturbation(T, T).scalar == pytest.approx(1.0)
    delta = 0.31 - 0.17j
    sp = SlotSpace([("h", half(0))])
    one = FiberedLatticeOp.identity(sp)
    bumped = one.add(FiberedLatticeOp(sp, sp, {(0, 0): [(delta, Box(((2, 3),)))]}))
    assert fredlines.perturbation(one, bumped).scalar == pytest.approx(1 + delta)


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
    p01 = fredlines.perturbation(ops[0], ops[1]).scalar
    p12 = fredlines.perturbation(ops[1], ops[2]).scalar
    p02 = fredlines.perturbation(ops[0], ops[2]).scalar
    assert p01 * p12 == pytest.approx(p02, rel=1e-9)
    p10 = fredlines.perturbation(ops[1], ops[0]).scalar
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
    assert sm.scalar == pytest.approx(1.0)
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


def test_dense_backend_matches_fibered_perturbation():
    # same index-zero perturbation computed in both representations
    rng = np.random.default_rng(77)
    base = random_fibered_op(rng, 0, 0)
    t1 = base.add(random_finite_box(rng, base))
    t2 = base.add(random_finite_box(rng, base))
    want = fredlines.perturbation(t1, t2).scalar

    pts = [pt for pt in _probe_points(t1) if t1.dom.active(pt)]
    labels = [(pt, 0) for pt in pts]

    def dense(op):
        mat = np.zeros((len(labels), len(labels)), dtype=complex)
        for i, (pt, _) in enumerate(labels):
            m, _, _ = op.fiber(pt)
            mat[i, i] = m[0, 0]
        return DenseOp(labels, labels, mat)

    got = fredlines.perturbation(dense(t1), dense(t2)).scalar
    assert got == pytest.approx(want, rel=1e-9)


def test_torquis_square():
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
    T2 = psi.compose(T).compose(phi.inverse())
    S2 = tau.compose(S).compose(psi.inverse())
    q1 = fredlines.quasi_map(phi, psi, T, T2)
    q2 = fredlines.quasi_map(psi, tau, S, S2)
    q3 = fredlines.quasi_map(phi, tau, S.compose(T), S2.compose(T2))
    lhs = q3.scalar * fredlines.torsion(T, S).scalar
    rhs = fredlines.torsion(T2, S2).scalar * q1.scalar * q2.scalar
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
    lhs = fredlines.torsion(T, S, ST).scalar * fredlines.perturbation(ST, ST2).scalar
    rhs = (
        fredlines.perturbation(T, T2).scalar
        * fredlines.perturbation(S, S2).scalar
        * fredlines.torsion(T2, S2, ST2).scalar
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
        fredlines.stabilization(T, small_big)
    with pytest.raises(ShapeMismatch):
        T.finite_difference(op_between(1, 1))
    with pytest.raises(ShapeMismatch):
        DenseOp.identity([0, 1]).finite_difference(DenseOp.identity([0, 2]))


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


def test_intertwines_on_invertible_squares():
    # the squares of test_torquis_square, and the same squares perturbed
    rng = np.random.default_rng(62)
    for _ in range(6):
        T = random_fibered_op(rng, 0, 1)
        phi, psi = (
            FiberedLatticeOp.identity(sp).add(random_finite_box(rng, FiberedLatticeOp.identity(sp)))
            for sp in (T.dom, T.cod)
        )
        T2 = psi.compose(T).compose(phi.inverse())
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
    assert fredlines.perturbation(one, square).scalar == pytest.approx(1.5 ** 4)


def _triv_steps(schedule):
    """The F blocks and big_F steps that Context.triv builds for a schedule."""
    from detline.torus import Monomial2, RingIdempotent, SigmaIndex, F_op, big_F

    q = RingIdempotent.generator
    n = max(max(pair) for pair in schedule) + 1
    lams = [SigmaIndex(Monomial2(1.0, a, b)) for a, b in [(1, 0), (3, 1), (2, 4), (0, 2)][:n]]
    p0, e = q(Monomial2(1.0, 0, 0)), q(Monomial2(1.0, 2, 3))
    ps = [p0] * n
    ps[schedule[0][0]] = e
    out = []
    for i, j in schedule:
        out.append((F_op(lams[i], lams[j], ps[i], ps[j]), big_F(lams, (i, j), tuple(ps)), (i, j)))
        ps[i], ps[j] = ps[j], ps[i]
    return out


def _ref_torsion_chain(ops):
    scalar = 1.0 + 0.0j
    partial = ops[-1]
    for op in reversed(ops[:-1]):
        scalar *= fredlines.torsion(op, partial).scalar
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
        assert chain.scalar == _ref_torsion_chain(steps)
        assert chain.degree_out == ref.presentation().degree


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
    want = [fredlines.stabilization(small, big, pair, pair).scalar for small, big, pair in cases]
    built = _count_calls(monkeypatch, "__init__")
    for (small, big, pair), scalar in zip(cases, want):
        before = len(built)
        assert fredlines.stabilization(small, big, pair, pair).scalar == scalar
        assert len(built) - before == 2


def test_torsion_chain_composes_once_per_step(monkeypatch):
    from detline.coproduct import TERNARY

    steps = [big for _, big, _ in _triv_steps(TERNARY)]
    composed = _count_calls(monkeypatch, "compose")
    for n in (2, 3, 4):
        before = len(composed)
        fredlines.torsion_chain(steps[:n])
        assert len(composed) - before == n - 1
