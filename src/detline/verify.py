"""Seeded property-verification suites over the whole calculus.

Each suite returns a list of check dicts (name, passed, max_err) and is
deterministic for a fixed seed.  The CLI exposes these as `detline
verify --suite ...`; the test suite drives the same code.
"""

from __future__ import annotations

import numpy as np

from . import cocycle3 as c3
from . import coproduct as cp
from . import fredlines
from ._intervals import Box, BoxUnion
from .graded import ExactTriangle, GradedVectorSpace, swap_epsilon, torsion_of_triangle
from .lattice import FiberedLatticeOp, SlotSpace
from .torus import (
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    assumption_check,
    commutator_trace_norm,
    sigma_apply,
)
from .windows import DenseOp


def _run_trials(fn, trials, seed):
    """Evaluate fn(trial_rng) per trial, returning the max error."""
    seeds = np.random.SeedSequence(seed).spawn(max(trials, 0))
    return max((fn(np.random.default_rng(s)) for s in seeds), default=0.0)


# Largest error a check passes with: each compares complex values that went
# through a few dozen double-precision eliminations, which err by ~1e-14.
CHECK_TOL = 1e-9


def _check(name, err):
    return {"name": name, "passed": bool(err <= CHECK_TOL), "max_err": float(err)}


# --------------------------------------------------------------------------
# random generators
# --------------------------------------------------------------------------


def random_triangle(rng) -> ExactTriangle:
    """Random exact triangle built from a rank pattern and conjugation: each
    map has rank at most 2, so each space has dimension at most 4."""
    r = rng.integers(0, 3, size=6)
    while not r.any():
        r = rng.integers(0, 3, size=6)
    dims = {
        "U+": r[5] + r[0],
        "V+": r[0] + r[1],
        "W+": r[1] + r[2],
        "U-": r[2] + r[3],
        "V-": r[3] + r[4],
        "W-": r[4] + r[5],
    }

    def std(rows, cols, rank, row_off, col_off):
        m = np.zeros((rows, cols), dtype=complex)
        for i in range(rank):
            m[row_off + i, col_off + i] = 1.0
        return m

    # standard-form maps: each space splits as incoming + outgoing
    i_p = std(dims["V+"], dims["U+"], r[0], 0, dims["U+"] - r[0])
    q_p = std(dims["W+"], dims["V+"], r[1], 0, dims["V+"] - r[1])
    d_p = std(dims["U-"], dims["W+"], r[2], 0, dims["W+"] - r[2])
    i_m = std(dims["V-"], dims["U-"], r[3], 0, dims["U-"] - r[3])
    q_m = std(dims["W-"], dims["V-"], r[4], 0, dims["V-"] - r[4])
    d_m = std(dims["U+"], dims["W-"], r[5], 0, dims["W-"] - r[5])

    g = {k: _well_conditioned(rng, v) for k, v in dims.items()}

    def conj(mat, target, source):
        return g[target] @ mat @ np.linalg.inv(g[source])

    return ExactTriangle(
        U=GradedVectorSpace(dims["U+"], dims["U-"]),
        V=GradedVectorSpace(dims["V+"], dims["V-"]),
        W=GradedVectorSpace(dims["W+"], dims["W-"]),
        i_plus=conj(i_p, "V+", "U+"),
        i_minus=conj(i_m, "V-", "U-"),
        q_plus=conj(q_p, "W+", "V+"),
        q_minus=conj(q_m, "W-", "V-"),
        d_plus=conj(d_p, "U-", "W+"),
        d_minus=conj(d_m, "U+", "W-"),
    )


def random_dense_chain(rng, sizes=None):
    """Composable finite-matrix Fredholm operators with tame spectra."""
    if sizes is None:
        sizes = [int(rng.integers(2, 5)) for _ in range(4)]

    def mk(dom, cod):
        n_in, n_out = len(dom), len(cod)
        r = int(min(n_in, n_out) if rng.random() < 0.5 else rng.integers(0, min(n_in, n_out) + 1))
        core = np.zeros((n_out, n_in), dtype=complex)
        for i in range(r):
            core[i, i] = 1.0
        a = _well_conditioned(rng, n_in)
        b = _well_conditioned(rng, n_out)
        return DenseOp(dom, cod, b @ core @ a)

    labels = [[("s", k, i) for i in range(n)] for k, n in enumerate(sizes)]
    return [mk(labels[k], labels[k + 1]) for k in range(len(sizes) - 1)]


def _well_conditioned(rng, n):
    while True:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n == 0 or np.linalg.cond(m) < 50:
            return m


def _half1(n) -> BoxUnion:
    return BoxUnion(1, [Box(((n, None),))])


def random_fibered_op(rng, n_dom, n_cod, width=4) -> FiberedLatticeOp:
    """Shift-free d=1 operator: identity tail plus a random finite box."""
    dom = SlotSpace([("d", _half1(n_dom))])
    cod = SlotSpace([("c", _half1(n_cod))])
    ents = [(1.0, Box(((max(n_dom, n_cod), None),)))]
    for k in range(min(n_dom, n_cod), min(n_dom, n_cod) + width):
        ents.append(
            (0.45 * complex(rng.standard_normal(), rng.standard_normal()), Box(((k, k + 1),)))
        )
    return FiberedLatticeOp(dom, cod, {(0, 0): ents})


def random_finite_box(rng, op: FiberedLatticeOp, width=3) -> FiberedLatticeOp:
    lo = min(op.breakpoints(0))
    ents = []
    for k in range(lo, lo + width):
        ents.append(
            (0.3 * complex(rng.standard_normal(), rng.standard_normal()), Box(((k, k + 1),)))
        )
    return FiberedLatticeOp(op.dom, op.cod, {(0, 0): ents})


def random_monomial(rng, emax=3, lo=0) -> Monomial2:
    r = rng.uniform(0.5, 2.0)
    ph = rng.uniform(0, 2 * np.pi)
    return Monomial2(
        r * np.exp(1j * ph), int(rng.integers(lo, emax + 1)), int(rng.integers(lo, emax + 1))
    )


# --------------------------------------------------------------------------
# torsion suite
# --------------------------------------------------------------------------


def suite_torsion(trials, seed):
    checks = []

    def lift_independence(rng):
        tri = random_triangle(rng)
        t1 = torsion_of_triangle(tri)
        t2 = torsion_of_triangle(tri, rng=rng)
        return abs(t1 - t2) / abs(t1)

    checks.append(_check("lift_independence", _run_trials(lift_independence, trials, seed)))

    def naturality(rng):
        tri = random_triangle(rng)
        iso = {
            k: _well_conditioned(rng, d)
            for k, d in {
                "U+": tri.U.dim_even, "U-": tri.U.dim_odd,
                "V+": tri.V.dim_even, "V-": tri.V.dim_odd,
                "W+": tri.W.dim_even, "W-": tri.W.dim_odd,
            }.items()
        }
        tri2 = ExactTriangle(
            U=tri.U, V=tri.V, W=tri.W,
            i_plus=iso["V+"] @ tri.i_plus @ np.linalg.inv(iso["U+"]),
            i_minus=iso["V-"] @ tri.i_minus @ np.linalg.inv(iso["U-"]),
            q_plus=iso["W+"] @ tri.q_plus @ np.linalg.inv(iso["V+"]),
            q_minus=iso["W-"] @ tri.q_minus @ np.linalg.inv(iso["V-"]),
            d_plus=iso["U-"] @ tri.d_plus @ np.linalg.inv(iso["W+"]),
            d_minus=iso["U+"] @ tri.d_minus @ np.linalg.inv(iso["W-"]),
        )
        t = torsion_of_triangle(tri)
        t2 = torsion_of_triangle(tri2)

        def dets(key_p, key_m):
            return np.linalg.det(iso[key_p]) / np.linalg.det(iso[key_m])

        lhs = t * dets("U+", "U-") * dets("W+", "W-")
        rhs = dets("V+", "V-") * t2
        return abs(lhs - rhs) / abs(rhs)

    checks.append(_check("naturality", _run_trials(naturality, trials, seed + 1)))

    def commutativity(rng):
        nU = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        nW = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        U, W = GradedVectorSpace(*nU), GradedVectorSpace(*nW)
        V = GradedVectorSpace(U.dim_even + W.dim_even, U.dim_odd + W.dim_odd)

        def block(rows, cols, kind):
            m = np.zeros((rows, cols), dtype=complex)
            if kind == "top":
                for i in range(cols):
                    m[i, i] = 1.0
            else:
                for i in range(cols):
                    m[rows - cols + i, i] = 1.0
            return m

        d1 = ExactTriangle(
            U=U, V=V, W=W,
            i_plus=block(V.dim_even, U.dim_even, "top"),
            i_minus=block(V.dim_odd, U.dim_odd, "top"),
            q_plus=np.hstack([np.zeros((W.dim_even, U.dim_even)), np.eye(W.dim_even)]),
            q_minus=np.hstack([np.zeros((W.dim_odd, U.dim_odd)), np.eye(W.dim_odd)]),
            d_plus=np.zeros((U.dim_odd, W.dim_even)),
            d_minus=np.zeros((U.dim_even, W.dim_odd)),
        )
        d2 = ExactTriangle(
            U=W, V=V, W=U,
            i_plus=block(V.dim_even, W.dim_even, "bot"),
            i_minus=block(V.dim_odd, W.dim_odd, "bot"),
            q_plus=np.hstack([np.eye(U.dim_even), np.zeros((U.dim_even, W.dim_even))]),
            q_minus=np.hstack([np.eye(U.dim_odd), np.zeros((U.dim_odd, W.dim_odd))]),
            d_plus=np.zeros((W.dim_odd, U.dim_even)),
            d_minus=np.zeros((W.dim_even, U.dim_odd)),
        )
        t1 = torsion_of_triangle(d1)
        t2 = torsion_of_triangle(d2)
        eps = swap_epsilon(nU[0] - nU[1], nW[0] - nW[1])
        return abs(t1 * eps - t2)

    checks.append(_check("commutativity", _run_trials(commutativity, trials, seed + 2)))

    def associativity(rng):
        # the corner lines of the diagram are shared operator instances
        ops = random_dense_chain(rng)
        t, s, r = ops[0], ops[1], ops[2]
        st, rs = s.compose(t), r.compose(s)
        rst = r.compose(st)
        left = fredlines.torsion(t, s, st) * fredlines.torsion(st, r, rst)
        right = fredlines.torsion(s, r, rs) * fredlines.torsion(t, rs, rst)
        return abs(left - right) / abs(right)

    checks.append(_check("associativity", _run_trials(associativity, trials, seed + 3)))

    def assotors_fibered(rng):
        a = random_fibered_op(rng, 0, int(rng.integers(-1, 2)))
        b = random_fibered_op(rng, a.cod.slots[0].support.canonical()[0][0][0], int(rng.integers(-1, 2)))
        c = random_fibered_op(rng, b.cod.slots[0].support.canonical()[0][0][0], int(rng.integers(-1, 2)))
        ba, cb = b.compose(a), c.compose(b)
        cba = c.compose(ba)
        left = fredlines.torsion(a, b, ba) * fredlines.torsion(ba, c, cba)
        right = fredlines.torsion(b, c, cb) * fredlines.torsion(a, cb, cba)
        return abs(left - right) / abs(right)

    checks.append(_check("assotors_fibered", _run_trials(assotors_fibered, trials, seed + 4)))
    return checks


# --------------------------------------------------------------------------
# perturbation suite
# --------------------------------------------------------------------------


def suite_perturbation(trials, seed):
    checks = []

    def transitivity(rng):
        base = random_fibered_op(rng, 0, int(rng.integers(-1, 2)))
        t1 = base.add(random_finite_box(rng, base))
        t2 = base.add(random_finite_box(rng, base))
        t3 = base.add(random_finite_box(rng, base))
        p12 = fredlines.perturbation(t1, t2)
        p23 = fredlines.perturbation(t2, t3)
        p13 = fredlines.perturbation(t1, t3)
        p21 = fredlines.perturbation(t2, t1)
        e1 = abs(p12 * p23 - p13) / abs(p13)
        e2 = abs(p12 * p21 - 1)
        return max(e1, e2)

    checks.append(_check("cocycle_conditions", _run_trials(transitivity, trials, seed)))

    def completion_independence(rng):
        base = random_fibered_op(rng, 0, 0)

        def singular_at_0(op):  # cancel the fiber at 0: a kernel and a cokernel there
            cancel = [(-op.fiber((0,))[0][0, 0], Box(((0, 1),)))]
            return op.add(FiberedLatticeOp(op.dom, op.cod, {(0, 0): cancel}))

        t1 = singular_at_0(base.add(random_finite_box(rng, base)))
        t2 = singular_at_0(base.add(random_finite_box(rng, base)))
        ref = fredlines.perturbation(t1, t2)

        def rand_images(op):
            pres = op.presentation()
            k = len(pres.ker)
            mix = _well_conditioned(rng, k)
            images = []
            for j in range(k):
                img = {}
                for i, rep in enumerate(pres.coker):
                    for lbl, val in rep.items():
                        img[lbl] = img.get(lbl, 0.0) + mix[i, j] * val
                images.append(img)
            return images

        alt = fredlines.perturbation(t1, t2, rand_images(t1), rand_images(t2))
        return abs(ref - alt) / abs(ref)

    checks.append(
        _check("completion_independence", _run_trials(completion_independence, trials, seed + 1))
    )

    def percom(rng):
        t = random_fibered_op(rng, 0, int(rng.integers(-1, 2)))
        mid = t.cod.slots[0].support.canonical()[0][0][0]
        s = random_fibered_op(rng, mid, int(rng.integers(-1, 2)))
        dt = random_finite_box(rng, t)
        ds = random_finite_box(rng, s)
        t2, s2 = t.add(dt), s.add(ds)
        st, st2 = s.compose(t), s2.compose(t2)
        lhs = fredlines.torsion(t, s, st) * fredlines.perturbation(st, st2)
        rhs = (
            fredlines.perturbation(t, t2)
            * fredlines.perturbation(s, s2)
            * fredlines.torsion(t2, s2, st2)
        )
        return abs(lhs - rhs) / abs(rhs)

    checks.append(_check("perturbation_commutes_torsion", _run_trials(percom, trials, seed + 2)))

    def torsta_persta(rng):
        # disjoint second slot carrying an invertible operator
        t = random_fibered_op(rng, 0, int(rng.integers(-1, 2)))
        mid = t.cod.slots[0].support.canonical()[0][0][0]
        s = random_fibered_op(rng, mid, int(rng.integers(-1, 2)))
        seg = BoxUnion(1, [Box(((-8, -4),))])
        gamma = complex(rng.standard_normal(), rng.standard_normal()) + 3.0

        def stab(op):
            dom = SlotSpace([(op.dom.slots[0].name, op.dom.slots[0].support), ("g", seg)])
            cod = SlotSpace([(op.cod.slots[0].name, op.cod.slots[0].support), ("g", seg)])
            ents = {k: list(v) for k, v in op.entries.items()}
            ents[(1, 1)] = [(gamma, Box(((-8, -4),)))]
            return FiberedLatticeOp(dom, cod, ents)

        tb, sb = stab(t), stab(s)
        s_t = fredlines.stabilization(t, tb, (0,), (0,))
        s_s = fredlines.stabilization(s, sb, (0,), (0,))
        stb = s.compose(t)
        stb_big = sb.compose(tb)
        s_st = fredlines.stabilization(stb, stb_big, (0,), (0,))
        lhs = fredlines.torsion(t, s, stb) * s_st
        rhs = s_t * s_s * fredlines.torsion(tb, sb, stb_big)
        e1 = abs(lhs - rhs) / abs(rhs)
        # perturbation commutes with stabilisation
        dt = random_finite_box(rng, t)
        t2 = t.add(dt)
        t2b = stab(t2)
        lhs2 = fredlines.perturbation(t, t2) * fredlines.stabilization(t2, t2b, (0,), (0,))
        rhs2 = s_t * fredlines.perturbation(tb, t2b)
        e2 = abs(lhs2 - rhs2) / abs(rhs2)
        return max(e1, e2)

    checks.append(_check("stabilisation_commutes", _run_trials(torsta_persta, trials, seed + 3)))

    def torsign(rng):
        # two operators on disjoint slot regions of one lattice space
        a1, b1 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        dq = int(rng.integers(-1, 2))
        e_reg = BoxUnion(1, [Box(((a1, None),))])
        f_reg = BoxUnion(1, [Box(((b1, None),))])
        p_reg = BoxUnion(1, [Box(((-20, -10),))])
        q_reg = BoxUnion(1, [Box(((-20, -10 + dq),))])
        T = random_fibered_op(rng, a1, b1)
        ents = []
        for k in range(-20, -10 + min(0, dq)):
            ents.append((1.0, Box(((k, k + 1),))))
        for k in range(-20, -16):
            ents.append((0.4 * complex(rng.standard_normal(), rng.standard_normal()), Box(((k, k + 1),))))
        S = FiberedLatticeOp(
            SlotSpace([("p", p_reg)]), SlotSpace([("q", q_reg)]), {(0, 0): ents}
        )

        def plus(x, y, dom_regions, cod_regions):
            dom = SlotSpace([("a", dom_regions[0]), ("b", dom_regions[1])])
            cod = SlotSpace([("a", cod_regions[0]), ("b", cod_regions[1])])
            ents2 = {(0, 0): list(x.entries.get((0, 0), []))}
            ents2[(1, 1)] = list(y.entries.get((0, 0), []))
            return FiberedLatticeOp(dom, cod, ents2)

        idp = FiberedLatticeOp.identity(SlotSpace([("p", p_reg)]))
        idf = FiberedLatticeOp.identity(SlotSpace([("f", f_reg)]))
        ide = FiberedLatticeOp.identity(SlotSpace([("e", e_reg)]))
        idq = FiberedLatticeOp.identity(SlotSpace([("q", q_reg)]))
        # path 1: stabilise T by p, S by f; compose
        T_p = plus(T, idp, (e_reg, p_reg), (f_reg, p_reg))
        S_f = plus(idf, S, (f_reg, p_reg), (f_reg, q_reg))
        s1 = fredlines.stabilization(T, T_p, (0,), (0,))
        s2 = fredlines.stabilization(S, S_f, (1,), (1,))
        path1 = s1 * s2 * fredlines.torsion(T_p, S_f)
        # path 2: swap, stabilise S by e and T by q
        S_e = plus(ide, S, (e_reg, p_reg), (e_reg, q_reg))
        T_q = plus(T, idq, (e_reg, q_reg), (f_reg, q_reg))
        s3 = fredlines.stabilization(S, S_e, (1,), (1,))
        s4 = fredlines.stabilization(T, T_q, (0,), (0,))
        path2 = s3 * s4 * fredlines.torsion(S_e, T_q)
        degT = T.presentation().degree
        degS = S.presentation().degree
        eps = -1.0 if (degT * degS) % 2 else 1.0
        return abs(path1 - eps * path2) / abs(path1)

    checks.append(_check("torsion_sign_disjoint", _run_trials(torsign, trials, seed + 4)))
    return checks


# --------------------------------------------------------------------------
# category suite
# --------------------------------------------------------------------------


def _ctx():
    return cp.Context(RingIdempotent.generator(Monomial2.one()))


def suite_category(trials, seed):
    checks = []
    ctx = _ctx()

    def rsig(rng):
        return SigmaIndex(random_monomial(rng))

    def rq(rng):
        return RingIdempotent.generator(random_monomial(rng))

    def unit_assoc(rng):
        p, q = rq(rng), rq(rng)
        l1, l2, l3, l4 = rsig(rng), rsig(rng), rsig(rng), rsig(rng)
        x = cp.HomElement(ctx, p, q, l1, l2, complex(rng.standard_normal(), rng.standard_normal()))
        y = cp.HomElement(ctx, p, q, l2, l3, complex(rng.standard_normal(), rng.standard_normal()))
        z = cp.HomElement(ctx, p, q, l3, l4, complex(rng.standard_normal(), rng.standard_normal()))
        a1 = cp.compose(cp.compose(x, y), z)
        a2 = cp.compose(x, cp.compose(y, z))
        a3 = cp.ternary_compose(x, y, z)
        lu = cp.compose(cp.unit(ctx, p, q, l1), x)
        e1 = abs(a1.coeff - a2.coeff) / abs(a1.coeff)
        e2 = abs(a1.coeff - a3.coeff) / abs(a1.coeff)
        e3 = abs(lu.coeff - x.coeff) / abs(x.coeff)
        return max(e1, e2, e3)

    checks.append(_check("unitality_associativity_ternary", _run_trials(unit_assoc, trials, seed)))

    def dualcomp(rng):
        p = rq(rng)
        l1, l2, l3 = rsig(rng), rsig(rng), rsig(rng)
        lhs = ctx.psi(l2, l3, p) * ctx.psi(l1, l2, p)
        rhs = ctx.M_p(l1, l2, l3, p) * ctx.M_q_dagger(l1, l2, l3, p) * ctx.psi(l1, l3, p)
        return abs(lhs - rhs) / abs(lhs)

    checks.append(_check("dual_composition", _run_trials(dualcomp, trials, seed + 1)))

    def coprod(rng):
        p, q, e_id, f_id = rq(rng), rq(rng), rq(rng), rq(rng)
        l1, l2, l3 = rsig(rng), rsig(rng), rsig(rng)
        x = cp.HomElement(ctx, p, q, l1, l2, 1.1 - 0.3j)
        y = cp.HomElement(ctx, p, q, l2, l3, 0.4 + 0.8j)
        # coassociativity
        le = cp.coproduct(x, e_id)
        l_in = cp.coproduct(le.legs[1], f_id)
        rf = cp.coproduct(x, f_id)
        r_in = cp.coproduct(rf.legs[0], e_id)
        e1 = abs(le.coeff * l_in.coeff - rf.coeff * r_in.coeff)
        # functoriality of the coproduct
        lhs = cp.coproduct(cp.compose(x, y), e_id)
        rhs = cp.compose_tensor(cp.coproduct(x, e_id), cp.coproduct(y, e_id))
        e2 = abs(lhs.overall() - rhs.overall()) / abs(lhs.overall())
        return max(e1, e2)

    checks.append(_check("coproduct_functorial", _run_trials(coprod, trials, seed + 2)))

    def basechange(rng):
        p0n = rq(rng)
        p, q = rq(rng), rq(rng)
        l1, l2, l3 = rsig(rng), rsig(rng), rsig(rng)
        x = cp.HomElement(ctx, p, q, l1, l2, 1.3 - 0.4j)
        y = cp.HomElement(ctx, p, q, l2, l3, 0.7 + 0.9j)
        lhs = cp.change_base(cp.compose(x, y), p0n)
        rhs = cp.compose(cp.change_base(x, p0n), cp.change_base(y, p0n))
        e1 = abs(lhs.coeff - rhs.coeff) / abs(lhs.coeff)
        pair = cp.coproduct(x, rq(rng))
        e_id = pair.legs[0].q
        lhs2 = cp.coproduct(cp.change_base(x, p0n), e_id)
        legs2 = tuple(cp.change_base(leg, p0n) for leg in pair.legs)
        lv = lhs2.coeff * lhs2.legs[0].coeff * lhs2.legs[1].coeff
        rv = pair.coeff * legs2[0].coeff * legs2[1].coeff
        e2 = abs(lv - rv) / abs(lv)
        return max(e1, e2)

    checks.append(_check("base_change_morphism", _run_trials(basechange, trials, seed + 3)))

    def action(rng):
        p, q = rq(rng), rq(rng)
        l1, l2 = rsig(rng), rsig(rng)
        x = cp.HomElement(ctx, p, q, l1, l2, 0.9 + 0.2j)
        g1, h1 = random_monomial(rng), random_monomial(rng)
        lhs = cp.group_act(h1, cp.group_act(g1, x))
        rhs = cp.group_act(h1 * g1, x)
        return abs(lhs.coeff - rhs.coeff) / abs(rhs.coeff)

    checks.append(_check("group_action_homomorphism", _run_trials(action, trials, seed + 4)))
    return checks


# --------------------------------------------------------------------------
# cocycle suite
# --------------------------------------------------------------------------


def _class_err(a, b):
    """Relative distance of the classes of a and b in C^*/{+-1}."""
    ra, rb = c3.class_representative(a), c3.class_representative(b)
    return abs(ra - rb) / abs(rb)


def suite_cocycle(trials, seed):
    checks = []
    ctx = c3._context()

    def oracle(rng):
        g, h, k = (random_monomial(rng, 4) for _ in range(3))
        cc = c3.cocycle_c(g, h, k, ctx)
        cf = c3.closed_form(g, h, k)
        return abs(cc - cf) / abs(cf)

    checks.append(_check("closed_form_oracle", _run_trials(oracle, trials, seed)))

    def relation(rng):
        g, h, k, l = (random_monomial(rng, 3) for _ in range(4))
        return c3.verify_relation(g, h, k, l, ctx)["residual"]

    checks.append(_check("twisted_relation", _run_trials(relation, max(1, trials // 2), seed + 1)))

    def degree(rng):
        g, h = random_monomial(rng, 4), random_monomial(rng, 4)
        got = c3.beta_degree(g, h, ctx)
        return float(abs(got - g.a * h.b))

    checks.append(_check("beta_degree", _run_trials(degree, trials, seed + 2)))

    err = 0.0
    for lam in (2.0, -3.0, 1 + 1j):
        cyc = c3.HomologyCycle3.alternating(
            Monomial2(1, 1, 0), Monomial2(1, 0, 1), Monomial2(lam, 0, 0)
        )
        err = max(err, _class_err(c3.pair_homology(cyc, ctx), lam))
    checks.append(_check("homology_pairing", err))

    def symbol(rng):
        # the pairing and its closed form agree in C^*/{+-1}, for signed exponents
        f, g, h = (random_monomial(rng, 3, -3) for _ in range(3))
        val = c3.pair_homology(c3.HomologyCycle3.alternating(f, g, h), ctx)
        return _class_err(val, c3.triple_symbol(f, g, h))

    checks.append(_check("triple_symbol", _run_trials(symbol, trials, seed + 3)))
    return checks


# --------------------------------------------------------------------------
# bipolar suite
# --------------------------------------------------------------------------


def suite_bipolar(trials, seed):
    checks = []
    err = 0.0
    table = []
    for n in range(-4, 5):
        for m in range(-4, 5):
            tn = commutator_trace_norm(n, m)
            table.append({"n": n, "m": m, "trace_norm": tn})
            err = max(err, abs(tn - abs(n) * abs(m)))
    checks.append(_check("trace_norm_table", err))

    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(max(trials, 1)):
        triples.append(
            (
                SigmaIndex(random_monomial(rng)),
                SigmaIndex(random_monomial(rng)),
                SigmaIndex(random_monomial(rng)),
                random_monomial(rng),
                random_monomial(rng),
            )
        )
    checks.append(_check("representation_conditions", 0.0 if assumption_check(triples) else 1.0))

    def sigma_props(rng):
        k, u = random_monomial(rng), random_monomial(rng)
        op = sigma_apply(k, RingIdempotent.generator(u))
        sq = op.compose(op).sub(op)
        e1 = 0.0 if not sq.entries else 1.0
        # equivariance through relabeling: the support shifts with the actor
        from .torus import sigma_region

        def shift_axis0(box):
            (lo, hi), rest = box.axes[0], box.axes[1:]
            lo2 = None if lo is None else lo + 1
            hi2 = None if hi is None else hi + 1
            return Box(((lo2, hi2),) + rest)

        r1 = sigma_region(SigmaIndex(Monomial2(1, k.a + 1, k.b)), RingIdempotent.generator(u))
        r2 = sigma_region(SigmaIndex(k), RingIdempotent.generator(u))
        shifted = BoxUnion(2, [shift_axis0(b) for b in r2.canonical_boxes()])
        e2 = 0.0 if r1 == shifted else 1.0
        return max(e1, e2)

    checks.append(_check("sigma_projections", _run_trials(sigma_props, trials, seed + 1)))
    checks[0]["table"] = table
    return checks


SUITES = {
    "torsion": suite_torsion,
    "perturbation": suite_perturbation,
    "category": suite_category,
    "cocycle": suite_cocycle,
    "bipolar": suite_bipolar,
}


def run_suite(name, trials, seed):
    if name not in SUITES:
        raise KeyError(name)
    checks = SUITES[name](trials, seed)
    return {
        "suite": name,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
