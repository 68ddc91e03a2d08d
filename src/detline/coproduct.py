"""Graded hom-line categories over idempotent pairs and their coproducts.

The hom space between two representation indices consists of a pair of
determinant lines (one for the idempotent on each side of a base point).
Elements are stored as a single coefficient relative to the canonical
frames of the two lines; the composition, coproduct, change-of-base-point
and group-action operations all reduce to scalar bookkeeping through the
torsion / perturbation / stabilisation calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import mul

from . import fredlines
from .errors import IdealViolation
from .lattice import FiberedLatticeOp, SlotSpace
from .torus import (
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    big_F,
    big_Omega,
    sigma_region,
)


# Transposition schedules of Context.triv: binary composition, its dual,
# and the ternary composition with its dual.
COMPOSE = ((0, 1), (1, 2), (0, 2))
COMPOSE_DAGGER = ((0, 2), (1, 2), (0, 1))
TERNARY = ((0, 1), (1, 2), (2, 3), (0, 3))
TERNARY_DAGGER = ((0, 3), (2, 3), (1, 2), (0, 1))


def _idem_key(p: RingIdempotent):
    return None if p.is_unit else (p.u.a, p.u.b)


def _lam_key(lam: SigmaIndex):
    return (lam.g.a, lam.g.b)


class Context:
    """All hom-line computations relative to one base-point idempotent."""

    def __init__(self, p0: RingIdempotent, cache=None):
        if p0.is_unit:
            raise IdealViolation("the base point must be a generator idempotent")
        self.p0 = p0
        self._cache = cache if cache is not None else {}

    # -- cached operator constructors ------------------------------------------

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def F(self, lam, mu, p, q) -> FiberedLatticeOp:
        key = ("F", _lam_key(lam), _lam_key(mu), _idem_key(p), _idem_key(q))
        from .torus import F_op

        return self._get(key, lambda: F_op(lam, mu, p, q))

    def line_deg(self, lam, mu, p, q) -> int:
        return self.F(lam, mu, p, q).presentation().degree

    def _extend_full(self, T, lams):
        """T plus the identity on the slotwise complements of pi(1)."""
        slots, extra = [], {}
        for k, lam in enumerate(lams):
            full = sigma_region(lam, RingIdempotent.unit())
            slots.append((f"s{k}", full))
            comp_d = full.subtract(T.dom.slots[k].support)
            comp_c = full.subtract(T.cod.slots[k].support)
            if comp_d != comp_c:
                raise IdealViolation("complement mismatch in stabilisation")
            if not comp_d.is_empty():
                extra[(k, k)] = [(1.0, b) for b in comp_d.canonical_boxes()]
        entries = {key: list(pairs) for key, pairs in T.entries.items()}
        for key, pairs in extra.items():
            entries[key] = entries.get(key, []) + pairs
        space = SlotSpace(slots)
        return FiberedLatticeOp(space, space, entries)

    # -- duality ---------------------------------------------------------------

    def phi(self, lam, mu, e) -> complex:
        """Scalar of phi(1) relative to the frames of |F(p0,e)| (x) |F(e,p0)|."""
        key = ("phi", _lam_key(lam), _lam_key(mu), _idem_key(e), _idem_key(self.p0))

        def build():
            Fe = self.F(lam, mu, e, self.p0)
            Fd = self.F(lam, mu, self.p0, e)
            comp = Fe.compose(Fd)
            ident = FiberedLatticeOp.identity(Fd.dom)
            pert = fredlines.perturbation(ident, comp)
            tors = fredlines.torsion(Fd, Fe, comp)
            return pert.scalar / tors.scalar

        return self._get(key, build)

    def psi(self, lam, mu, e) -> complex:
        """Scalar of psi on the frames of |F(e,p0)| (x) |F(p0,e)|."""
        key = ("psi", _lam_key(lam), _lam_key(mu), _idem_key(e), _idem_key(self.p0))

        def build():
            Fe = self.F(lam, mu, e, self.p0)
            Fd = self.F(lam, mu, self.p0, e)
            comp = Fd.compose(Fe)
            ident = FiberedLatticeOp.identity(Fe.dom)
            tors = fredlines.torsion(Fe, Fd, comp)
            pert = fredlines.perturbation(comp, ident)
            return tors.scalar * pert.scalar

        return self._get(key, build)

    # -- trivialisations of chains of F blocks ---------------------------------

    def triv(self, lams, e, schedule) -> complex:
        """Scalar trivialising |F^(n)| (x) ... (x) |F^(1)| against the Omega chain.

        The idempotent e starts in slot schedule[0][0], every other slot
        holds p0, and e moves across each transposition (i, j) of the
        schedule.  Step k is big_F(lams, (i, j), ps), stabilised from
        F(lam_i, lam_j)(p_i, p_j); the chain's composite, extended by the
        identity to the full slots, is compared by perturbation with the
        Omega chain of the reversed schedule at the base point.
        """
        key = (
            "triv",
            schedule,
            tuple(_lam_key(lam) for lam in lams),
            _idem_key(e),
            _idem_key(self.p0),
        )

        def build():
            p0 = self.p0
            ps = [p0] * len(lams)
            ps[schedule[0][0]] = e
            factors, steps = [], []
            for i, j in schedule:
                step = big_F(list(lams), (i, j), tuple(ps))
                small = self.F(lams[i], lams[j], ps[i], ps[j])
                factors.append(fredlines.stabilization(small, step, (i, j), (i, j)).scalar)
                steps.append(step)
                ps[i], ps[j] = ps[j], ps[i]
            chain, comp = fredlines.torsion_chain(steps)
            factors.append(chain.scalar)
            big = self._extend_full(comp, lams)
            factors.append(fredlines.stabilization(comp, big).scalar)
            p0s = tuple(p0 for _ in lams)
            omegas = [big_Omega(list(lams), pair, p0s) for pair in reversed(schedule)]
            target = self._extend_full(reduce(FiberedLatticeOp.compose, omegas), lams)
            factors.append(fredlines.perturbation(big, target).scalar)
            return reduce(mul, factors)

        return self._get(key, build)

    # -- frame compositions ------------------------------------------------------

    def M_p(self, lam, mu, nu, p) -> complex:
        """Frame scalar of the composition in the p-indexed line category."""
        return self.phi(lam, nu, p) * self.triv((lam, mu, nu), p, COMPOSE)

    def M_q_dagger(self, lam, mu, nu, q) -> complex:
        """Frame scalar of the dual composition (arguments mu->nu, lam->mu)."""
        return self.phi(lam, nu, q) * self.triv((lam, mu, nu), q, COMPOSE_DAGGER)


def duality_phi(ctx: Context, e: RingIdempotent, lam: SigmaIndex, mu: SigmaIndex) -> complex:
    """Frame scalar of the duality element for the idempotent e."""
    return ctx.phi(lam, mu, e)


def duality_psi(ctx: Context, e: RingIdempotent, lam: SigmaIndex, mu: SigmaIndex) -> complex:
    """Frame scalar of the dual trivialisation for the idempotent e."""
    return ctx.psi(lam, mu, e)


@dataclass(frozen=True)
class HomElement:
    """Element of a hom line, as coefficient times the canonical frames."""

    ctx: Context
    p: RingIdempotent
    q: RingIdempotent
    lam: SigmaIndex
    mu: SigmaIndex
    coeff: complex = 1.0 + 0.0j

    @property
    def deg_p(self) -> int:
        return self.ctx.line_deg(self.lam, self.mu, self.p, self.ctx.p0)

    @property
    def deg_q(self) -> int:
        return self.ctx.line_deg(self.lam, self.mu, self.ctx.p0, self.q)

    @property
    def degree(self) -> int:
        return self.deg_p + self.deg_q

    def scaled(self, c) -> "HomElement":
        return replace(self, coeff=self.coeff * c)


def unit(ctx, p, q, lam) -> HomElement:
    return HomElement(ctx, p, q, lam, lam, 1.0 + 0.0j)


def compose(x: HomElement, y: HomElement) -> HomElement:
    """Composition of x: lam -> mu with y: mu -> nu in the hom category."""
    if (
        _idem_key(x.ctx.p0) != _idem_key(y.ctx.p0)
        or _idem_key(x.p) != _idem_key(y.p)
        or _idem_key(x.q) != _idem_key(y.q)
        or _lam_key(x.mu) != _lam_key(y.lam)
    ):
        raise IdealViolation("morphisms are not composable")
    ctx = x.ctx
    sign = -1.0 if (x.deg_q * (y.deg_p + y.deg_q)) % 2 else 1.0
    scalar = (
        sign
        * ctx.M_p(x.lam, x.mu, y.mu, x.p)
        * ctx.M_q_dagger(x.lam, x.mu, y.mu, x.q)
        * x.coeff
        * y.coeff
    )
    return HomElement(ctx, x.p, x.q, x.lam, y.mu, scalar)


def invert(x: HomElement) -> HomElement:
    """The two-sided inverse of an isomorphism in the hom category."""
    probe = HomElement(x.ctx, x.p, x.q, x.mu, x.lam, 1.0 + 0.0j)
    s = compose(x, probe).coeff
    return probe.scaled(1.0 / s)


@dataclass(frozen=True)
class TensorElement:
    """Element of a graded tensor product of hom categories."""

    legs: tuple
    coeff: complex = 1.0 + 0.0j

    def overall(self) -> complex:
        c = self.coeff
        for leg in self.legs:
            c *= leg.coeff
        return c


def coproduct(x: HomElement, e: RingIdempotent) -> TensorElement:
    """Decompose a hom element along an intermediate idempotent."""
    ctx = x.ctx
    phi_s = ctx.phi(x.lam, x.mu, e)
    left = HomElement(ctx, x.p, e, x.lam, x.mu, 1.0 + 0.0j)
    right = HomElement(ctx, e, x.q, x.lam, x.mu, 1.0 + 0.0j)
    return TensorElement((left, right), x.coeff * phi_s)


def compose_tensor(xs: TensorElement, ys: TensorElement) -> TensorElement:
    """Pairwise composition in a graded tensor product of hom categories."""
    if len(xs.legs) != len(ys.legs):
        raise IdealViolation("tensor lengths differ")
    sign = 1.0
    degs_x = [leg.degree for leg in xs.legs]
    degs_y = [leg.degree for leg in ys.legs]
    for i in range(len(ys.legs)):
        swap = degs_y[i] * sum(degs_x[i + 1 :])
        if swap % 2:
            sign = -sign
    legs = tuple(compose(a, b) for a, b in zip(xs.legs, ys.legs))
    return TensorElement(legs, sign * xs.coeff * ys.coeff)


def ternary_compose(x: HomElement, y: HomElement, z: HomElement) -> HomElement:
    """Three-fold composition through the four-index trivialisation."""
    ctx = x.ctx
    if _lam_key(x.mu) != _lam_key(y.lam) or _lam_key(y.mu) != _lam_key(z.lam):
        raise IdealViolation("morphisms are not composable")
    sign_exp = x.deg_q * (y.deg_p + y.deg_q + z.deg_p + z.deg_q) + y.deg_q * (
        z.deg_p + z.deg_q
    )
    sign = -1.0 if sign_exp % 2 else 1.0
    lams = (x.lam, x.mu, y.mu, z.mu)
    mu4 = ctx.triv(lams, x.p, TERNARY)
    mu4d = ctx.triv(lams, x.q, TERNARY_DAGGER)
    phi_p = ctx.phi(x.lam, z.mu, x.p)
    phi_q = ctx.phi(x.lam, z.mu, x.q)
    scalar = sign * phi_p * mu4 * phi_q * mu4d * x.coeff * y.coeff * z.coeff
    return HomElement(ctx, x.p, x.q, x.lam, z.mu, scalar)


def change_base(x: HomElement, p0_new: RingIdempotent) -> HomElement:
    """Move a hom element to the category built over another base point."""
    ctx_new = Context(p0_new, cache=x.ctx._cache)
    lam, mu, p, q = x.lam, x.mu, x.p, x.q

    def half(ctx):
        p0 = ctx.p0
        lams = (lam, mu, mu)
        T13 = big_F(list(lams), (0, 2), (p, q, p0))
        T12 = big_F(list(lams), (0, 1), (p0, q, p))
        s1 = fredlines.stabilization(ctx.F(lam, mu, p, p0), T13, (0, 2), (0, 2)).scalar
        s2 = fredlines.stabilization(ctx.F(lam, mu, p0, q), T12, (0, 1), (0, 1)).scalar
        comp = T12.compose(T13)
        tors = fredlines.torsion(T13, T12, comp)
        full = sigma_region(mu, RingIdempotent.unit())
        comp_region = full.subtract(comp.dom.slots[2].support)
        dom_slots = [(s.name, s.support) for s in comp.dom.slots]
        cod_slots = [(s.name, s.support) for s in comp.cod.slots]
        dom_slots[2] = (dom_slots[2][0], full)
        cod_slots[1] = (cod_slots[1][0], full)
        entries = {key: list(pairs) for key, pairs in comp.entries.items()}
        entries.setdefault((1, 2), [])
        entries[(1, 2)] = entries[(1, 2)] + [
            (1.0, b) for b in comp_region.canonical_boxes()
        ]
        big = FiberedLatticeOp(SlotSpace(dom_slots), SlotSpace(cod_slots), entries)
        s3 = fredlines.stabilization(comp, big).scalar
        return s1 * s2 * tors.scalar * s3, big

    s_old, big_old = half(x.ctx)
    s_new, big_new = half(ctx_new)
    pert = fredlines.perturbation(big_old, big_new)
    return HomElement(
        ctx_new, p, q, lam, mu, x.coeff * s_old * pert.scalar / s_new
    )


def _beta(k: Monomial2, p: RingIdempotent) -> RingIdempotent:
    return p if p.is_unit else RingIdempotent.generator(k * p.u)


def translate(k: Monomial2, x: HomElement) -> HomElement:
    """The conjugation isomorphism: relabel lattice data and rescale."""
    ctx_t = Context(_beta(k, x.ctx.p0), cache=x.ctx._cache)
    mult = k.mu ** (x.deg_p + x.deg_q)
    return HomElement(
        ctx_t,
        _beta(k, x.p),
        _beta(k, x.q),
        x.lam.act(k),
        x.mu.act(k),
        x.coeff * mult,
    )


def group_act(k: Monomial2, x: HomElement) -> HomElement:
    """The group action: conjugation followed by change of base point."""
    moved = translate(k, x)
    return change_base(moved, x.ctx.p0)
