"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from detline import circle as ci
from detline import cocycle3 as c3
from detline import coproduct as cp
from detline._intervals import Box, BoxUnion
from detline.lattice import FiberedLatticeOp, SlotSpace, label_key
from detline.torus import (
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    assumption_check,
    big_Omega,
    commutator_trace_norm,
    indicator_op,
    quadrant,
    sigma_region,
    F_op,
)
from detline.verify import (
    random_monomial,
    run_suite,
    suite_category,
)

E = Monomial2.one()
q = RingIdempotent.generator
Z1, Z2 = Monomial2(1, 1, 0), Monomial2(1, 0, 1)


def mono(mu, a, b):
    return Monomial2(mu, a, b)


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {name} {detail}")
    assert passed, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def ctx():
    return c3._context()


def test_criterion_01_nontriviality(ctx):
    worst = 0.0
    slowest = 0.0
    for lam in (2.0, -3.0, 1 + 1j):
        lc = mono(lam, 0, 0)
        cases = [
            ((lc, Z1, Z2), lam),
            ((Z1, Z2, lc), 1.0),
            ((Z2, Z1, lc), 1.0),
            ((lc, Z2, Z1), 1.0),
            ((Z1, lc, Z2), 1.0),
            ((Z2, lc, Z1), 1.0),
        ]
        for triple, want in cases:
            t0 = time.perf_counter()
            got = c3.cocycle_c(*triple, ctx)
            slowest = max(slowest, time.perf_counter() - t0)
            worst = max(worst, abs(got - want) / abs(want))
    report(
        1,
        "cocycle nontriviality on (z1, z2, lambda) permutations",
        worst <= 1e-9 and slowest < 1.0,
        f"max_rel_err={worst:.2e} slowest={slowest:.3f}s",
    )


def test_criterion_02_closed_form_oracle(ctx):
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        g, h, k = (random_monomial(rng, 4) for _ in range(3))
        cc = c3.cocycle_c(g, h, k, ctx)
        cf = c3.closed_form(g, h, k)
        worst = max(worst, abs(cc - cf) / abs(cf))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "closed-form oracle on 50 seeded triples (exponents <= 4)",
        worst <= 1e-9 and elapsed < 30.0,
        f"max_rel_err={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_03_twisted_relation(ctx):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(25):
        g, h, k, l = (random_monomial(rng, 3) for _ in range(4))
        worst = max(worst, c3.verify_relation(g, h, k, l, ctx)["residual"])
    report(
        3,
        "twisted 3-cocycle relation on 25 seeded quadruples",
        worst <= 1e-9,
        f"max_residual={worst:.2e}",
    )


def test_criterion_04_homology_pairing(ctx):
    worst = 0.0
    for lam in (2.0, -3.0, 1 + 1j):
        val = c3.pair_homology(c3.HomologyCycle3.alternating(Z1, Z2, mono(lam, 0, 0)), ctx)
        ra, rb = c3.class_representative(val), c3.class_representative(lam)
        worst = max(worst, abs(ra - rb) / abs(rb))
    report(4, "homology pairing equals [lambda]", worst <= 1e-9, f"max_rel_err={worst:.2e}")


def _crux_operator(lam, mu, nu, w):
    lams = [lam, lam, lam, mu, nu]
    p0s = tuple(q(w) for _ in lams)
    pairs = [(0, 3), (1, 3), (3, 4), (1, 4), (2, 4), (3, 4), (2, 3), (0, 3)]
    prod = None
    for pr in pairs:
        om = big_Omega(lams, pr, p0s)
        prod = om if prod is None else prod.compose(om)
    dom_slots, entries = [], {k: list(v) for k, v in prod.entries.items()}
    for kix, lamx in enumerate(lams):
        full = sigma_region(lamx, RingIdempotent.unit())
        dom_slots.append((f"s{kix}", full))
        comp = full.subtract(prod.dom.slots[kix].support)
        if comp.canonical():
            entries.setdefault((kix, kix), [])
            entries[(kix, kix)] = entries[(kix, kix)] + [
                (1.0, b) for b in comp.canonical_boxes()
            ]
    sp = SlotSpace(dom_slots)
    return FiberedLatticeOp(sp, sp, entries)


def test_criterion_05_crux_determinant(fredholm_det, inverse):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        lam, mu, nu = (SigmaIndex(random_monomial(rng)) for _ in range(3))
        w = random_monomial(rng)
        A = _crux_operator(lam, mu, nu, E)
        Ap = _crux_operator(lam, mu, nu, w)
        det = fredholm_det(Ap.compose(inverse(A)))
        worst = max(worst, abs(det - 1))
    report(
        5,
        "five-block determinant quotient equals one (10 seeded configs)",
        worst <= 1e-9,
        f"max_|det-1|={worst:.2e}",
    )


def _omega_labels(n, m, t, s):
    return [((x1, x2), 0) for x2 in range(s, t) for x1 in range(m, n)]


def test_criterion_06_explicit_values(ctx, fredholm_det, perm_sign_by_key):
    # kernel/cokernel closed forms
    worst_cases = []
    for n1 in range(5):
        for m1 in range(n1 + 1):
            for t2 in range(5):
                for s2 in range(t2 + 1):
                    F = F_op(
                        SigmaIndex(mono(1.5, m1, 1)),
                        SigmaIndex(mono(2.0, n1, 2)),
                        q(mono(1, 3, s2)),
                        q(mono(1, 8, t2)),
                    )
                    pres = F.presentation()
                    expect = sorted(
                        (((x1, x2), 0) for x1 in range(m1, n1) for x2 in range(s2, t2)),
                        key=label_key,
                    )
                    ok = not pres.coker and [next(iter(k)) for k in pres.ker] == expect
                    worst_cases.append(ok)
    kercoker_ok = all(worst_cases)

    # duality element
    dual_ok = True
    for n1 in range(5):
        for m1 in range(n1 + 1):
            for r2 in range(5):
                s = ctx.phi(
                    SigmaIndex(mono(1.3, m1, 1)), SigmaIndex(mono(0.7, n1, 2)), q(mono(1, 6, r2))
                )
                dual_ok = dual_ok and abs(s - 1.0) <= 1e-9

    # base-change sign
    base_ok = True
    for n1 in range(5):
        for m1 in range(n1 + 1):
            for r2 in range(3):
                for t2 in range(r2, 5):
                    for s2 in range(r2, 5):
                        ctx_w = cp.Context(q(mono(1.0, 4, r2)))
                        x = cp.HomElement(
                            ctx_w,
                            q(mono(1, 5, t2)),
                            q(mono(1, 2, s2)),
                            SigmaIndex(mono(1.2, m1, 1)),
                            SigmaIndex(mono(2.0, n1, 0)),
                            1.0,
                        )
                        want = (-1) ** ((n1 - m1) * (t2 - s2) * r2)
                        got = cp.change_base(x, q(E)).coeff
                        base_ok = base_ok and abs(got - want) <= 1e-9

    # composition sign and shuffles
    comp_ok = True
    for n1 in range(5):
        for m1 in range(n1 + 1):
            for l1 in range(m1 + 1):
                for s2, t2 in [(0, 2), (1, 3), (2, 4), (3, 1), (4, 4)]:
                    kk = SigmaIndex(mono(1.1, l1, 0))
                    hh = SigmaIndex(mono(0.9, m1, 1))
                    gg = SigmaIndex(mono(1.7, n1, 2))
                    x = cp.HomElement(ctx, q(mono(1, 0, s2)), q(mono(1, 9, t2)), kk, hh, 1.0)
                    y = cp.HomElement(ctx, q(mono(1, 0, s2)), q(mono(1, 9, t2)), hh, gg, 1.0)
                    got = cp.compose(x, y).coeff
                    want = (
                        (-1) ** ((n1 - m1) * (m1 - l1) * t2 * (t2 - s2))
                        * perm_sign_by_key(
                            _omega_labels(m1, l1, s2, 0) + _omega_labels(n1, m1, s2, 0), label_key
                        )
                        * perm_sign_by_key(
                            _omega_labels(m1, l1, t2, 0) + _omega_labels(n1, m1, t2, 0), label_key
                        )
                    )
                    comp_ok = comp_ok and abs(got - want) <= 1e-9

    # the inner determinant of the composition proof
    sigma_ok = True
    for n1 in range(5):
        for m1 in range(n1 + 1):
            for l1 in range(m1 + 1):
                for s2 in range(5):
                    gam = indicator_op(BoxUnion(2, [Box(((m1, n1), (0, s2)))]))
                    Ql = quadrant(a=l1, b=0)
                    Qm = quadrant(a=m1, b=0)
                    Qn = quadrant(a=n1, b=0)
                    sp = SlotSpace([("a", Ql), ("b", Qm), ("c", Qn)])
                    gcells = gam.entries.get((0, 0), ())
                    ents = {
                        (0, 0): [(1.0, b) for b in Ql.canonical_boxes()]
                        + [(-v, b) for v, b in gcells],
                        (0, 1): list(gcells),
                        (1, 0): list(gcells),
                        (1, 1): [(1.0, b) for b in Qm.canonical_boxes()]
                        + [(-v, b) for v, b in gcells],
                        (2, 2): [(1.0, b) for b in Qn.canonical_boxes()],
                    }
                    siginv = FiberedLatticeOp(sp, sp, ents)
                    det = fredholm_det(siginv)
                    sigma_ok = sigma_ok and abs(det - (-1) ** ((n1 - m1) * s2)) <= 1e-9

    report(
        6,
        "explicit values grid (kernels, duality, base change, composition, inner det)",
        kercoker_ok and dual_ok and base_ok and comp_ok and sigma_ok,
        f"kercoker={kercoker_ok} dual={dual_ok} base={base_ok} comp={comp_ok} det={sigma_ok}",
    )


def test_criterion_07_line_axioms():
    rep_t = run_suite("torsion", 100, 20260810)
    rep_p = run_suite("perturbation", 40, 20260810)
    ok = rep_t["passed"] and rep_p["passed"]
    detail = "; ".join(
        f"{c['name']}={c['max_err']:.1e}" for c in rep_t["checks"] + rep_p["checks"]
    )
    report(7, "determinant-line axioms (torsion/perturbation/stabilisation)", ok, detail)


def test_criterion_08_category_axioms():
    checks = suite_category(30, 20260810)
    ok = all(c["passed"] for c in checks)
    detail = "; ".join(f"{c['name']}={c['max_err']:.1e}" for c in checks)
    report(8, "category axioms on 30 seeded monomial instances", ok, detail)


def test_criterion_09_bipolarisation():
    worst = 0.0
    for n in range(-4, 5):
        for m in range(-4, 5):
            worst = max(worst, abs(commutator_trace_norm(n, m) - abs(n) * abs(m)))
    rng = np.random.default_rng(99)
    triples = [
        (
            SigmaIndex(random_monomial(rng)),
            SigmaIndex(random_monomial(rng)),
            SigmaIndex(random_monomial(rng)),
            random_monomial(rng),
            random_monomial(rng),
        )
        for _ in range(20)
    ]
    finite = assumption_check(triples)
    report(
        9,
        "trace-norm table |n||m| and representation conditions",
        worst == 0.0 and finite,
        f"max_table_err={worst:.1e} conditions_finite={finite}",
    )


def test_criterion_10_circle_cross_check():
    z = ci.Loop.monomial(1.0, 1)
    probes = [
        ci.Loop.monomial(2.0, 0),
        ci.Loop.monomial(1 + 1j, 0),
        ci.Loop.laurent([2.0, 1.0], 0),
    ]
    s = ci.convention_exponent(64)
    worst = 0.0
    for v in probes:
        pairing = ci.steinberg_pairing(z, v, window_n=64, certify=True)
        tame = ci.tame_symbol_formula(z, v)
        want = tame**s
        worst = max(worst, abs(pairing - want) / abs(want))
    report(
        10,
        "steinberg pairing matches the tame-symbol integral (N=64, certified)",
        worst <= 1e-6,
        f"max_rel_err={worst:.2e} convention_exponent={s}",
    )
