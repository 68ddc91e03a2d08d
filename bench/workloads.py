"""The benchmark's workloads: seeded inputs, operations and oracles.

Each workload builds its inputs from a seed, runs them as a fixed round of
operations (one caller, closed loop, a fresh ``Context`` per round) and
checks every result against an oracle written here, apart from the
program.  A result that raises is a failed operation; a result that
disagrees with its oracle makes the run incorrect.

The cost of an operation is set by its exponents (they fix the lattice
regions, fibers and cache keys); the scalars only change the values.  So
the exponent structure of a round is a fixed design drawn once from
DESIGN_SEED, and the run's seed draws every scalar: the values the oracles
check change with the seed while the work per round does not, and the
spread between runs is the machine's.
"""

from __future__ import annotations

import random
import time

import numpy as np

from detline import circle as ci
from detline import cocycle3 as c3
from detline import coproduct as cp
from detline.torus import Monomial2, RingIdempotent, SigmaIndex

# Every pipeline value agrees with its oracle to ~1e-13 or better.
REL_TOL = 1e-9
DESIGN_SEED = 0


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _scalar(rng: random.Random) -> complex:
    """A nonzero scalar with modulus in [0.5, 2] and uniform phase."""
    return rng.uniform(0.5, 2.0) * complex(np.exp(2j * np.pi * rng.random()))


def _fresh_context() -> cp.Context:
    return cp.Context(RingIdempotent.generator(Monomial2.one()))


class Workload:
    """A fixed list of operations; subclasses fill in `ops` and `bad_ops`."""

    ops: list  # argument tuples, one per operation

    def warmup(self) -> None:
        raise NotImplementedError

    def new_round(self):
        """Per-round state shared by the round's operations."""
        return None

    def call(self, state, args):
        raise NotImplementedError

    def run_round(self):
        """Run every operation once; returns (wall_s, op_seconds, results)."""
        clock = time.perf_counter
        start = clock()
        state = self.new_round()
        times, results = [], []
        for args in self.ops:
            t0 = clock()
            try:
                res = self.call(state, args)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = exc
            times.append(clock() - t0)
            results.append(res)
        return clock() - start, times, results

    def bad_ops(self, results) -> set:
        """Indices of operations whose result disagrees with its oracle."""
        raise NotImplementedError

    def self_test(self, results) -> bool:
        """Every checker counts a failure when one result is perturbed."""
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                continue
            perturbed = list(results)
            perturbed[i] = _perturb(res)
            if i not in self.bad_ops(perturbed):
                return False
        return True


def _perturb(res):
    if isinstance(res, tuple):
        return (_perturb(res[0]),) + res[1:]
    return res * (1.0 + 1e-6j)


# ---------------------------------------------------------------------------
# cocycle3: the 3-cocycle sweep
# ---------------------------------------------------------------------------


def closed_form_sign_mu(g: Monomial2, h: Monomial2, k: Monomial2) -> complex:
    """The 3-cochain on nonnegative exponents, written out from the exponents."""
    n1, n2, m1, m2, l1, l2 = g.a, g.b, h.a, h.b, k.a, k.b
    eps = (
        (n1 * m2 + n1 * m1 + n2 * m1) * l2
        + n1 * n2 * m1 * l2
        + n1 * m1 * (n2 + m2 - 1) * (n2 + m2) // 2
        + n1 * m1 * (n2 + m2 + l2 - 1) * (n2 + m2 + l2) // 2
    )
    return g.mu ** (m1 * l2) * (-1) ** (eps % 2)


class Cocycle3(Workload):
    """Seeded monomial triples against the closed form, plus twisted relations.

    Triples have exponents in [0, 4]; each of the six exponent positions
    takes every value once over the round.  Relation quadruples
    have signed exponents in [-2, 2] and cost five evaluations each.
    """

    TRIPLES = 5
    QUADRUPLES = 2

    def __init__(self, seed: int):
        rng, design = random.Random(seed), random.Random(DESIGN_SEED)
        cols = [design.sample(range(5), self.TRIPLES) for _ in range(6)]
        self.ops = []
        self.triples = []
        for i in range(self.TRIPLES):
            g, h, k = (
                Monomial2(_scalar(rng), cols[2 * j][i], cols[2 * j + 1][i]) for j in range(3)
            )
            self.triples.append((len(self.ops), closed_form_sign_mu(g, h, k)))
            self.ops.append((g, h, k))
        self.quadruples = []
        for _ in range(self.QUADRUPLES):
            g, h, k, l = (
                Monomial2(_scalar(rng), design.randint(-2, 2), design.randint(-2, 2))
                for _ in range(4)
            )
            # beta_{g,h} has degree a(g) b(h); the relation carries the product parity
            sign = -1.0 if (g.a * h.b * k.a * l.b) % 2 else 1.0
            first = len(self.ops)
            self.quadruples.append((first, sign))
            self.ops += [(g * h, k, l), (g, h, k * l), (h, k, l), (g, h * k, l), (g, h, k)]

    def warmup(self) -> None:
        g = Monomial2(1.5, 2, 1)
        h = Monomial2(-1.0, 1, 2)
        k = Monomial2(1j, 2, 2)
        c3.cocycle_c(g, h, k, _fresh_context())

    def new_round(self):
        return _fresh_context()

    def call(self, ctx, args):
        return c3.cocycle_c(*args, ctx)

    def bad_ops(self, results) -> set:
        bad = set()
        for i, expected in self.triples:
            got = results[i]
            if not isinstance(got, Exception) and _rel(got, expected) > REL_TOL:
                bad.add(i)
        for first, sign in self.quadruples:
            vals = results[first : first + 5]
            if any(isinstance(v, Exception) for v in vals):
                continue
            lhs = sign * vals[0] * vals[1]
            rhs = vals[2] * vals[3] * vals[4]
            if _rel(lhs, rhs) > REL_TOL:
                bad.update(range(first, first + 5))
        return bad


# ---------------------------------------------------------------------------
# category: the hom-category axioms
# ---------------------------------------------------------------------------


def _unit_assoc(ctx, p, q, l1, l2, l3, l4, c1, c2, c3_):
    x = cp.HomElement(ctx, p, q, l1, l2, c1)
    y = cp.HomElement(ctx, p, q, l2, l3, c2)
    z = cp.HomElement(ctx, p, q, l3, l4, c3_)
    a1 = cp.compose(cp.compose(x, y), z).coeff
    a2 = cp.compose(x, cp.compose(y, z)).coeff
    a3 = cp.ternary_compose(x, y, z).coeff
    left_unit = cp.compose(cp.unit(ctx, p, q, l1), x).coeff
    return a1, a2, a3, left_unit, x.coeff


def _unit_assoc_ok(r) -> bool:
    a1, a2, a3, left_unit, xc = r
    return max(_rel(a1, a2), _rel(a1, a3), _rel(left_unit, xc)) <= REL_TOL


def _dual_composition(ctx, p, l1, l2, l3):
    lhs = cp.duality_psi(ctx, p, l2, l3) * cp.duality_psi(ctx, p, l1, l2)
    rhs = ctx.M_p(l1, l2, l3, p) * ctx.M_q_dagger(l1, l2, l3, p) * cp.duality_psi(ctx, p, l1, l3)
    return lhs, rhs


def _dual_composition_ok(r) -> bool:
    return _rel(*r) <= REL_TOL


def _coproduct_functorial(ctx, p, q, e, f, l1, l2, l3, c1, c2):
    x = cp.HomElement(ctx, p, q, l1, l2, c1)
    y = cp.HomElement(ctx, p, q, l2, l3, c2)
    # coassociativity: split along e then f, and along f then e
    le = cp.coproduct(x, e)
    l_in = cp.coproduct(le.legs[1], f)
    rf = cp.coproduct(x, f)
    r_in = cp.coproduct(rf.legs[0], e)
    # functoriality: the coproduct of a composite is the composite of coproducts
    lhs = cp.coproduct(cp.compose(x, y), e).overall()
    rhs = cp.compose_tensor(cp.coproduct(x, e), cp.coproduct(y, e)).overall()
    return le.coeff * l_in.coeff, rf.coeff * r_in.coeff, lhs, rhs


def _coproduct_functorial_ok(r) -> bool:
    return max(_rel(r[0], r[1]), _rel(r[2], r[3])) <= REL_TOL


def _base_change(ctx, p0_new, p, q, e, l1, l2, l3, c1, c2):
    x = cp.HomElement(ctx, p, q, l1, l2, c1)
    y = cp.HomElement(ctx, p, q, l2, l3, c2)
    lhs = cp.change_base(cp.compose(x, y), p0_new).coeff
    rhs = cp.compose(cp.change_base(x, p0_new), cp.change_base(y, p0_new)).coeff
    # base change commutes with the coproduct
    pair = cp.coproduct(x, e)
    moved = cp.coproduct(cp.change_base(x, p0_new), pair.legs[0].q)
    legs = [cp.change_base(leg, p0_new).coeff for leg in pair.legs]
    lv = moved.coeff * moved.legs[0].coeff * moved.legs[1].coeff
    rv = pair.coeff * legs[0] * legs[1]
    return lhs, rhs, lv, rv


def _base_change_ok(r) -> bool:
    return max(_rel(r[0], r[1]), _rel(r[2], r[3])) <= REL_TOL


def _group_action(ctx, p, q, l1, l2, g, h, c):
    x = cp.HomElement(ctx, p, q, l1, l2, c)
    lhs = cp.group_act(h, cp.group_act(g, x)).coeff
    rhs = cp.group_act(h * g, x).coeff
    return lhs, rhs


def _group_action_ok(r) -> bool:
    return _rel(*r) <= REL_TOL


class Category(Workload):
    """Seeded instances of the five hom-category axioms on one Context.

    Monomials have exponents in [0, 3]; one operation is one instance of
    one axiom, and the round cycles through the axioms.
    """

    # (operation, checker, arguments: "p" idempotent generator, "l" sigma
    # index, "m" monomial, "c" scalar)
    AXIOMS = (
        (_unit_assoc, _unit_assoc_ok, "ppllllccc"),
        (_dual_composition, _dual_composition_ok, "plll"),
        (_coproduct_functorial, _coproduct_functorial_ok, "pppplllcc"),
        (_base_change, _base_change_ok, "pppplllcc"),
        (_group_action, _group_action_ok, "ppllmmc"),
    )
    INSTANCES = 3

    def __init__(self, seed: int):
        rng, design = random.Random(seed), random.Random(DESIGN_SEED)

        def mono():
            return Monomial2(_scalar(rng), design.randint(0, 3), design.randint(0, 3))

        draw = {
            "p": lambda: RingIdempotent.generator(mono()),
            "l": lambda: SigmaIndex(mono()),
            "m": mono,
            "c": lambda: _scalar(rng),
        }
        self.ops = []
        for _ in range(self.INSTANCES):
            for kind, (_, _, sig) in enumerate(self.AXIOMS):
                self.ops.append((kind, tuple(draw[s]() for s in sig)))

    def warmup(self) -> None:
        ctx = _fresh_context()
        p = RingIdempotent.generator(Monomial2(1.0, 1, 2))
        q = RingIdempotent.generator(Monomial2(1.0, 2, 1))
        l1, l2, l3, l4 = (SigmaIndex(Monomial2(1.0, a, b)) for a, b in ((0, 1), (1, 1), (2, 0), (1, 2)))
        _unit_assoc(ctx, p, q, l1, l2, l3, l4, 1.0, 1j, -1.0)

    def new_round(self):
        return _fresh_context()

    def call(self, ctx, args):
        kind, inputs = args
        return self.AXIOMS[kind][0](ctx, *inputs)

    def bad_ops(self, results) -> set:
        bad = set()
        for i, ((kind, _), res) in enumerate(zip(self.ops, results)):
            if not isinstance(res, Exception) and not self.AXIOMS[kind][1](res):
                bad.add(i)
        return bad


# ---------------------------------------------------------------------------
# window: certified windowed Steinberg pairings
# ---------------------------------------------------------------------------


def geometric_mean(coeffs, k_min: int, grid: int = 1 << 12) -> complex:
    """Szegő geometric mean exp(mean log v) of a winding-zero Laurent loop.

    The argument is unwrapped along the grid, so the logarithm is
    continuous; the mean of a periodic analytic function on a uniform grid
    converges geometrically in the grid size.
    """
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    vals = sum(c * z ** (k_min + i) for i, c in enumerate(coeffs))
    logs = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    return complex(np.exp(np.mean(logs)))


class Window(Workload):
    """u = mu z^n against a seeded winding-zero Laurent loop v, both orders.

    v = c0 (1 + sum_{0<|k|<=2} a_k z^k) with sum |a_k| <= 1/2, so its
    winding number is 0 by Rouché.  Every n in {±1, ±2, ±3} runs at
    N = 64; one n of each modulus, with a seeded sign, also runs at
    N = 128.  Oracle: pairing(u, v) = G(v)^(-n s) with G the Szegő
    geometric mean and s the convention exponent fixed by the (z, 2)
    probe, and pairing(u, v) pairing(v, u) = 1.
    """

    WINDOWS = (64, 128)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pairs = []
        for n in (1, -1, 2, -2, 3, -3):
            c0 = rng.uniform(1.5, 3.0) * complex(np.exp(2j * np.pi * rng.random()))
            weights = [rng.random() for _ in range(4)]
            scale = 0.5 / sum(weights)
            side = [scale * w * complex(np.exp(2j * np.pi * rng.random())) for w in weights]
            coeffs = [c0 * a for a in side[:2]] + [c0] + [c0 * a for a in side[2:]]
            u = ci.Loop.monomial(_scalar(rng), n)
            v = ci.Loop.laurent(coeffs, -2)
            pairs.append((n, u, v, geometric_mean(coeffs, -2)))
        large = {m: rng.choice((m, -m)) for m in (1, 2, 3)}
        self.ops = []
        self.expect = []  # (index of pairing(u, v), index of pairing(v, u), n, G(v))
        for window in self.WINDOWS:
            for n, u, v, g in pairs:
                if window != self.WINDOWS[0] and large[abs(n)] != n:
                    continue
                self.expect.append((len(self.ops), len(self.ops) + 1, n, g))
                self.ops += [(u, v, window), (v, u, window)]
        self.s = None

    def warmup(self) -> None:
        self.s = ci.convention_exponent(self.WINDOWS[0])
        # the probe itself: pairing(z, 2) is 2^(-s) for either orientation
        probe = ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), ci.Loop.monomial(2.0, 0))
        if _rel(probe, 2.0 ** (-self.s)) > REL_TOL:
            raise RuntimeError(f"convention probe gave {probe} for s = {self.s}")
        v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
        ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), v, self.WINDOWS[0], certify=True)

    def call(self, state, args):
        u, v, window = args
        return ci.steinberg_pairing(u, v, window, certify=True)

    def bad_ops(self, results) -> set:
        bad = set()
        for i, j, n, g in self.expect:
            uv, vu = results[i], results[j]
            if not isinstance(uv, Exception) and _rel(uv, g ** (-n * self.s)) > REL_TOL:
                bad.add(i)
            if not isinstance(vu, Exception) and _rel(vu, g ** (n * self.s)) > REL_TOL:
                bad.add(j)
            if not (isinstance(uv, Exception) or isinstance(vu, Exception)):
                if abs(uv * vu - 1.0) > REL_TOL:
                    bad.update((i, j))
        return bad


WORKLOADS = {"cocycle3": Cocycle3, "category": Category, "window": Window}
