"""Hom-line categories: duality, composition, base change, group action."""

import numpy as np
import pytest

from detline import _linalg
from detline import coproduct as cp
from detline.errors import IdealViolation
from detline.lattice import FiberedLatticeOp, SlotSpace, label_key
from detline.torus import (
    F_op,
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    big_F,
    big_Omega,
    idem_key,
    lam_key,
    sigma_region,
)
from detline.verify import random_monomial, suite_category

E = Monomial2.one()
q = RingIdempotent.generator


def mono(mu, a, b):
    return Monomial2(mu, a, b)


@pytest.fixture(scope="module")
def ctx():
    return cp.Context(q(E))


def omega_labels(n, m, t, s):
    return [((x1, x2), 0) for x2 in range(s, t) for x1 in range(m, n)]


def test_duality_phi_explicit(ctx):
    # the duality element is the omega-wedge pair on canonical frames
    for n1, m1, r2 in [(3, 1, 2), (2, 0, 3), (4, 2, 1), (1, 1, 4)]:
        lam = SigmaIndex(mono(1.3, m1, 1))
        mu = SigmaIndex(mono(0.7, n1, 2))
        s = ctx.phi(lam, mu, q(mono(1.0, 6, r2)))
        assert s == pytest.approx(1.0)
        deg_dual = ctx.line_deg(lam, mu, ctx.p0, q(mono(1.0, 6, r2)))
        deg_line = ctx.line_deg(lam, mu, q(mono(1.0, 6, r2)), ctx.p0)
        assert deg_dual == (n1 - m1) * r2 and deg_line == -(n1 - m1) * r2


def test_duality_identity_object(ctx):
    lam = SigmaIndex(mono(2.0, 2, 2))
    assert ctx.phi(lam, lam, q(mono(1, 3, 1))) == pytest.approx(1.0)


def test_zigzag(ctx):
    rng = np.random.default_rng(12)
    for _ in range(6):
        lam, mu = SigmaIndex(random_monomial(rng)), SigmaIndex(random_monomial(rng))
        e = q(random_monomial(rng))
        assert ctx.phi(lam, mu, e) * ctx.psi(lam, mu, e) == pytest.approx(1.0)


def test_unit_composition(ctx):
    u = cp.unit(ctx, q(mono(1, 1, 1)), q(mono(1, 2, 2)), SigmaIndex(mono(1.5, 2, 1)))
    assert cp.compose(u, u).coeff == pytest.approx(1.0)


def test_explicit_composition_sign(ctx, perm_sign_by_key):
    # frame composition carries the documented sign and shuffle factors
    for n1, m1, l1, s2, t2 in [(3, 2, 1, 1, 2), (2, 1, 0, 0, 2), (4, 2, 1, 2, 3), (3, 2, 0, 2, 1)]:
        kk = SigmaIndex(mono(1.1, l1, 0))
        hh = SigmaIndex(mono(0.9, m1, 1))
        gg = SigmaIndex(mono(1.7, n1, 2))
        qv, qu = q(mono(1, 0, s2)), q(mono(1, 9, t2))
        x = cp.HomElement(ctx, qv, qu, kk, hh, 1.0)
        y = cp.HomElement(ctx, qv, qu, hh, gg, 1.0)
        z = cp.compose(x, y)
        sign = (-1) ** ((n1 - m1) * (m1 - l1) * t2 * (t2 - s2))
        sh_s = perm_sign_by_key(omega_labels(m1, l1, s2, 0) + omega_labels(n1, m1, s2, 0), label_key)
        sh_t = perm_sign_by_key(omega_labels(m1, l1, t2, 0) + omega_labels(n1, m1, t2, 0), label_key)
        assert z.coeff == pytest.approx(sign * sh_s * sh_t)


def test_associativity_and_ternary(ctx):
    rng = np.random.default_rng(30)
    for _ in range(30):
        p, qq = q(random_monomial(rng)), q(random_monomial(rng))
        sigs = [SigmaIndex(random_monomial(rng)) for _ in range(4)]
        x = cp.HomElement(ctx, p, qq, sigs[0], sigs[1], complex(rng.standard_normal(), rng.standard_normal()))
        y = cp.HomElement(ctx, p, qq, sigs[1], sigs[2], complex(rng.standard_normal(), rng.standard_normal()))
        z = cp.HomElement(ctx, p, qq, sigs[2], sigs[3], complex(rng.standard_normal(), rng.standard_normal()))
        a1 = cp.compose(cp.compose(x, y), z)
        a2 = cp.compose(x, cp.compose(y, z))
        a3 = cp.ternary_compose(x, y, z)
        assert a1.coeff == pytest.approx(a2.coeff, rel=1e-9)
        assert a1.coeff == pytest.approx(a3.coeff, rel=1e-9)


def test_triv_schedule_is_the_adjacent_pairs_then_the_outer_pair():
    assert cp.triv_schedule(2) == ((0, 1), (1, 2), (0, 2))
    assert cp.triv_schedule(3) == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert cp.triv_schedule(3)[::-1] == ((0, 3), (2, 3), (1, 2), (0, 1))


def test_ternary_compose_rejects_morphisms_of_another_hom_category(ctx):
    # z lies in the hom category of another p or q: composing it with x and y
    # is undefined, whether nested or three-fold
    p, qq, other = q(mono(1, 1, 1)), q(mono(1, 2, 2)), q(mono(1, 3, 2))
    l1, l2, l3, l4 = (SigmaIndex(mono(1.0, a, 1)) for a in range(4))
    x = cp.HomElement(ctx, p, qq, l1, l2)
    y = cp.HomElement(ctx, p, qq, l2, l3)
    for z in (cp.HomElement(ctx, other, qq, l3, l4), cp.HomElement(ctx, p, other, l3, l4)):
        with pytest.raises(IdealViolation):
            cp.compose(cp.compose(x, y), z)
        with pytest.raises(IdealViolation):
            cp.ternary_compose(x, y, z)
    with pytest.raises(IdealViolation):
        cp.compose(x)


def test_explicit_base_change_sign(ctx):
    for n1, m1, t2, s2, r2 in [(3, 1, 2, 1, 1), (2, 0, 3, 2, 2), (4, 2, 3, 1, 1), (3, 2, 1, 2, 1)]:
        hh = SigmaIndex(mono(1.2, m1, 1))
        gg = SigmaIndex(mono(2.0, n1, 0))
        qu, qv = q(mono(1, 5, t2)), q(mono(1, 2, s2))
        ctx_w = cp.Context(q(mono(1.0, 4, r2)))
        x = cp.HomElement(ctx_w, qu, qv, hh, gg, 1.0)
        y = cp.change_base(x, q(E))
        assert y.coeff == pytest.approx((-1) ** ((n1 - m1) * (t2 - s2) * r2))


def test_base_change_equivalence_relation(ctx):
    rng = np.random.default_rng(9)
    x = cp.HomElement(
        ctx, q(random_monomial(rng)), q(random_monomial(rng)),
        SigmaIndex(random_monomial(rng)), SigmaIndex(random_monomial(rng)), 1.5 + 0.5j,
    )
    assert cp.change_base(x, ctx.p0).coeff == pytest.approx(x.coeff)
    w1, w2 = q(random_monomial(rng)), q(random_monomial(rng))
    two_step = cp.change_base(cp.change_base(x, w1), w2)
    one_step = cp.change_base(x, w2)
    assert two_step.coeff == pytest.approx(one_step.coeff, rel=1e-9)


def test_extend_rejects_a_mismatched_complement(ctx):
    # change_base extends its composite from dom slot 2 to cod slot 1; the
    # two complements in pi_mu(1) must agree
    lams = (SigmaIndex(mono(1, 1, 0)), SigmaIndex(mono(1, 3, 0)), SigmaIndex(mono(1, 3, 0)))

    def zero(dom_ps, cod_ps):
        def space(ps):
            return SlotSpace([(f"s{k}", sigma_region(l, p)) for k, (l, p) in enumerate(zip(lams, ps))])

        return FiberedLatticeOp(space(dom_ps), space(cod_ps), {})

    p, r = q(mono(1, 0, 1)), q(mono(1, 0, 3))
    big = ctx._extend(zero((p, p, p), (p, p, p)), lams, [(1, 2)])
    full = sigma_region(lams[1], RingIdempotent.unit())
    assert big.dom.slots[2].support == big.cod.slots[1].support == full
    assert big.dom.slots[1].support == sigma_region(lams[1], p)
    assert list(big.entries) == [(1, 2)]
    with pytest.raises(IdealViolation):
        ctx._extend(zero((p, p, p), (p, r, p)), lams, [(1, 2)])


def test_group_action_explicit(ctx):
    for n1, m1, t2, s2, l1, l2 in [(3, 1, 2, 1, 1, 1), (2, 0, 1, 2, 2, 1), (2, 1, 3, 0, 0, 2)]:
        kap = 1.3 - 0.6j
        hh = SigmaIndex(mono(1.2, m1, 2))
        gg = SigmaIndex(mono(0.8, n1, 1))
        qu, qv = q(mono(1, 5, t2)), q(mono(1, 2, s2))
        x = cp.HomElement(ctx, qu, qv, hh, gg, 1.0)
        y = cp.group_act(mono(kap, l1, l2), x)
        expected = (-1) ** ((n1 - m1) * (t2 - s2) * l2) * kap ** ((n1 - m1) * (s2 - t2))
        assert y.coeff == pytest.approx(expected)
        assert y.lam.g.a == m1 + l1 and y.mu.g.a == n1 + l1


def test_group_action_unit_and_homomorphism(ctx):
    rng = np.random.default_rng(44)
    x = cp.HomElement(
        ctx, q(random_monomial(rng)), q(random_monomial(rng)),
        SigmaIndex(random_monomial(rng)), SigmaIndex(random_monomial(rng)), 0.9 + 0.2j,
    )
    assert cp.group_act(E, x).coeff == pytest.approx(x.coeff)
    g1, h1 = random_monomial(rng), random_monomial(rng)
    lhs = cp.group_act(h1, cp.group_act(g1, x))
    rhs = cp.group_act(h1 * g1, x)
    assert lhs.coeff == pytest.approx(rhs.coeff, rel=1e-9)


def test_category_suite():
    for c in suite_category(30, 20260810):
        assert c["passed"], c


def test_coproduct_of_unit_is_unit_pair(ctx):
    lam = SigmaIndex(mono(1.4, 2, 1))
    u = cp.unit(ctx, q(mono(1, 1, 2)), q(mono(1, 3, 1)), lam)
    pair = cp.coproduct(u, q(mono(1, 0, 2)))
    assert pair.coeff == pytest.approx(1.0)
    for leg in pair.legs:
        assert leg.coeff == pytest.approx(1.0)
        assert leg.lam == leg.mu == lam


def test_module_level_duality_wrappers(ctx):
    lam, mu = SigmaIndex(mono(1, 1, 0)), SigmaIndex(mono(1, 3, 2))
    e = q(mono(1, 2, 2))
    assert ctx.phi(lam, mu, e) * cp.duality_psi(ctx, e, lam, mu) == pytest.approx(1.0)


# -- the Context's memo table ---------------------------------------------------


def _category_round(ctx):
    """A few category operations: compositions, a coproduct, a base change
    and a group action, all on ctx."""
    lams = [SigmaIndex(mono(1.0, a, b)) for a, b in ((0, 1), (1, 1), (2, 0))]
    p, r, e = q(mono(1.0, 1, 2)), q(mono(1.0, 2, 1)), q(mono(1.0, 3, 2))
    x = cp.HomElement(ctx, p, r, lams[0], lams[1], 1.5)
    y = cp.HomElement(ctx, p, r, lams[1], lams[2], 0.5j)
    return (
        cp.compose(x, y).coeff,
        cp.coproduct(x, e).overall(),
        cp.change_base(x, q(mono(1.0, 1, 1))).coeff,
        cp.group_act(mono(2.0, 1, 0), y).coeff,
    )


def _counted_eliminations(monkeypatch):
    """Calls of the two per-fiber eliminations, by fiber bytes."""
    seen = []
    for name in ("nullspace", "coker_free_rows"):
        real = getattr(_linalg, name)

        def counted(mat, real=real, name=name):
            seen.append((name, mat.shape, mat.tobytes()))
            return real(mat)

        monkeypatch.setattr(_linalg, name, counted)
    return seen


def test_each_context_eliminates_each_fiber_once(monkeypatch):
    seen = _counted_eliminations(monkeypatch)
    first = _category_round(cp.Context(q(E)))
    once = list(seen)
    assert once and len(once) == len(set(once))
    # a fresh Context keeps nothing of the last one: it eliminates as often
    seen.clear()
    assert _category_round(cp.Context(q(E))) == first
    assert seen == once


def test_memoised_results_are_shared_and_read_only():
    ctx = cp.Context(q(E))
    mat = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    rhs = np.array([1.0, 2.0], dtype=complex)

    def build():
        return [_linalg.memo(_linalg.nullspace, mat) for _ in range(2)] + [
            _linalg.memo(_linalg.solve_exact, mat.copy(), rhs)
        ]

    kern, again, sol = ctx._get("probe", build)
    assert kern is again and len(kern) == 1 and len(ctx._memo) == 2
    for arr in (kern[0], sol):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # outside a builder the kernel runs and its result stays writable
    fresh = _linalg.memo(_linalg.nullspace, mat)
    fresh[0][0] = 0.0
    assert len(ctx._memo) == 2


def test_paths_outside_a_context_store_nothing():
    from detline import circle as ci

    ctx = cp.Context(q(E))
    _category_round(ctx)
    stored = dict(ctx._memo)
    assert stored and _linalg.MEMO.get() is None
    assert ci.cres_cochain_base(ci.Loop.monomial(2.0, 1), ci.Loop.monomial(0.5j, 2)) != 0
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    assert ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), v, 32) != 0
    assert ctx._memo.keys() == stored.keys() and _linalg.MEMO.get() is None


def test_a_window_pairing_inside_a_builder_stores_nothing_in_the_context():
    from detline import circle as ci

    ctx = cp.Context(q(E))
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    value = ctx._get("probe", lambda: ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), v, 32))
    # the window chains run under tables of their own, which end with them
    assert repr(value) == repr(ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), v, 32))
    assert ctx._memo == {} and _linalg.MEMO.get() is None


# -- what a Context key holds ---------------------------------------------------


def _twin_lam(rng, lam):
    """lam with a fresh g.b and scalar: the same `lam_key`."""
    return SigmaIndex(mono(complex(rng.uniform(0.5, 2)), lam.g.a, int(rng.integers(-3, 4))))


def _twin_idem(rng, p):
    """p with a fresh u.a and scalar: the same `idem_key`."""
    if p.is_unit:
        return p
    return q(mono(complex(rng.uniform(0.5, 2), 1), int(rng.integers(-3, 4)), p.u.b))


def _content(build):
    """Slots and entries of the operator build() returns, or the error it raises."""
    try:
        op = build()
    except IdealViolation as err:
        return str(err)
    return op.dom.slots, op.cod.slots, op.entries


def test_key_equal_indices_and_idempotents_build_equal_blocks():
    # the invariant a Context key rests on: of each index the blocks read only
    # lam_key, and of each idempotent only idem_key
    rng = np.random.default_rng(41)
    ctx, unit = cp.Context(q(E)), RingIdempotent.unit()
    built = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        rest, diag = [(k, k) for k in range(n) if k not in (i, j)], [(k, k) for k in range(n)]

        def blocks(lams, ps):
            def F():
                return big_F(lams, (i, j), tuple(ps))

            def Om():  # Omega^{ij} needs equal idempotents at i and j
                return big_Omega(lams, (i, j), (*ps[:j], ps[i], *ps[j + 1 :]))

            return [
                [sigma_region(lam, p) for lam in lams for p in (*ps, unit)],
                _content(F),
                _content(Om),
                _content(lambda: ctx._extend(F(), lams, rest)),
                _content(lambda: ctx._extend(Om(), lams, diag)),
            ]

        lams = [SigmaIndex(random_monomial(rng, 3, -3)) for _ in range(n)]
        pool = [unit if rng.random() < 0.25 else q(random_monomial(rng, 3, -3)) for _ in range(2)]
        twin_pool = [_twin_idem(rng, p) for p in pool]
        picks = rng.integers(0, 2, n)
        ps, twin_ps = [pool[k] for k in picks], [twin_pool[k] for k in picks]
        twin_lams = [_twin_lam(rng, lam) for lam in lams]
        assert [*map(lam_key, lams), *map(idem_key, ps)] == [
            *map(lam_key, twin_lams),
            *map(idem_key, twin_ps),
        ]
        got = blocks(lams, ps)
        assert got == blocks(twin_lams, twin_ps)
        built += sum(not isinstance(c, str) for c in got[1:])
    assert built > 600, built


def test_a_context_shares_blocks_between_key_equal_elements(monkeypatch):
    # indices that differ only in g.b and idempotents that differ only in u.a
    # and the scalar share every block, and every value is what a fresh
    # Context computes, bit for bit
    builds, real_F = [], cp.Context.F

    def checked_F(self, lam, mu, p, r):
        op = real_F(self, lam, mu, p, r)
        assert _content(lambda: op) == _content(lambda: F_op(lam, mu, p, r))
        return op

    def counted(*args):
        builds.append(args)
        return F_op(*args)

    def elements(ctx, k):
        lams = [SigmaIndex(mono(1.0 + k, a, b + k)) for a, b in ((0, 1), (1, -1), (3, 2))]
        p, r = q(mono(1j**k, 1 - k, 2)), q(mono(2.0 ** -k, 2 + k, -1))
        x = cp.HomElement(ctx, p, r, lams[0], lams[1], 1.5)
        return x, cp.HomElement(ctx, p, r, lams[1], lams[2], 0.5j)

    def values(ctx, k):
        x, y = elements(ctx, k)
        return cp.compose(x, y).coeff, cp.change_base(x, q(mono(1.0, k, 1))).coeff

    monkeypatch.setattr(cp, "F_op", counted)
    monkeypatch.setattr(cp.Context, "F", checked_F)
    ctx = cp.Context(q(E))
    first = values(ctx, 0)
    n_builds, n_entries = len(builds), len(ctx._cache)
    assert n_builds and len({(*map(lam_key, b[:2]), *map(idem_key, b[2:])) for b in builds}) == n_builds
    for k in range(4):
        shared = values(ctx, k)
        assert repr(shared) == repr(values(cp.Context(q(E)), k)) == repr(first)
    assert len(ctx._cache) == n_entries


def test_compose_rejects_an_index_that_differs_only_in_g_b(ctx):
    # composability compares all of (a, b), though no cache key holds g.b
    p, r = q(mono(1, 1, 1)), q(mono(1, 2, 2))
    l1, l2, l3, l4 = (SigmaIndex(mono(1.0, a, 1)) for a in range(4))
    l2b = SigmaIndex(mono(1.0, 1, 5))
    assert lam_key(l2b) == lam_key(l2)
    x, y = cp.HomElement(ctx, p, r, l1, l2), cp.HomElement(ctx, p, r, l2b, l3)
    z = cp.HomElement(ctx, p, r, l3, l4)
    with pytest.raises(IdealViolation):
        cp.compose(x, y)
    with pytest.raises(IdealViolation):
        cp.ternary_compose(x, y, z)
