"""Graded hom-line categories over idempotent pairs and their coproducts.

The hom space between two representation indices consists of a pair of
determinant lines (one for the idempotent on each side of a base point).
Elements are stored as a single coefficient relative to the canonical
frames of the two lines; the composition, coproduct, change-of-base-point
and group-action operations all reduce to scalar bookkeeping through the
torsion and perturbation maps; the stabilisations between an F block and
its padded step are 1 on canonical frames (see `Context._chain`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

from . import _linalg, fredlines
from .errors import IdealViolation
from .lattice import FiberedLatticeOp, SlotSpace
from .torus import (
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    F_op,
    big_F,
    big_Omega,
    idem_key,
    lam_key,
    sigma_region,
)


def triv_schedule(n: int) -> tuple:
    """Transposition schedule of Context.triv for an n-fold composition: the
    adjacent pairs (k, k + 1), then (0, n).  Its reverse is the dual's."""
    return tuple((k, k + 1) for k in range(n)) + ((0, n),)


class Context:
    """All hom-line computations relative to one base-point idempotent.

    `_get` keeps what it builds in `_cache`, keyed by what the blocks read
    (`torus.lam_key`, `torus.idem_key`), and builds under
    `_linalg.memo_table(_memo)`, the fibered kernel results by content (see
    `lattice`).  Both live as long as this Context and those made `like` it."""

    def __init__(self, p0: RingIdempotent, like=None):
        if p0.is_unit:
            raise IdealViolation("the base point must be a generator idempotent")
        self.p0 = p0
        self._cache, self._memo = (like._cache, like._memo) if like else ({}, {})

    # -- cached operator constructors ------------------------------------------

    def _get(self, key, builder):
        if key not in self._cache:
            with _linalg.memo_table(self._memo):
                self._cache[key] = builder()
        return self._cache[key]

    def F(self, lam, mu, p, q) -> FiberedLatticeOp:
        key = ("F", lam_key(lam), lam_key(mu), idem_key(p), idem_key(q))
        return self._get(key, lambda: F_op(lam, mu, p, q))

    def line_deg(self, lam, mu, p, q) -> int:
        key = ("deg", lam_key(lam), lam_key(mu), idem_key(p), idem_key(q))
        return self._get(key, lambda: self.F(lam, mu, p, q).presentation().degree)

    def _extend(self, T, lams, pairs):
        """T plus, for each (i, j) in pairs, the identity from the complement
        of dom slot j in pi_{lam_j}(1) to that of cod slot i in pi_{lam_i}(1)."""
        dom = [(s.name, s.support) for s in T.dom.slots]
        cod = [(s.name, s.support) for s in T.cod.slots]
        entries = {key: list(cells) for key, cells in T.entries.items()}
        unit = RingIdempotent.unit()
        for i, j in pairs:
            full_c, full_d = (sigma_region(lams[k], unit) for k in (i, j))
            comp = full_d.subtract(dom[j][1])
            if comp != full_c.subtract(cod[i][1]):
                raise IdealViolation("complement mismatch in stabilisation")
            dom[j], cod[i] = (dom[j][0], full_d), (cod[i][0], full_c)
            extra = [(1.0, b) for b in comp.canonical_boxes()]
            entries[(i, j)] = entries.get((i, j), []) + extra
        return FiberedLatticeOp(SlotSpace(dom), SlotSpace(cod), entries)

    # -- duality ---------------------------------------------------------------

    def phi(self, lam, mu, e) -> complex:
        """Scalar of phi(1) relative to the frames of |F(p0,e)| (x) |F(e,p0)|."""
        key = ("phi", lam_key(lam), lam_key(mu), idem_key(e), idem_key(self.p0))

        def build():
            Fe = self.F(lam, mu, e, self.p0)
            Fd = self.F(lam, mu, self.p0, e)
            comp = Fe.compose(Fd)
            ident = FiberedLatticeOp.identity(Fd.dom)
            pert = fredlines.perturbation(ident, comp)
            tors = fredlines.torsion(Fd, Fe, comp)
            return pert / tors

        return self._get(key, build)

    def psi(self, lam, mu, e) -> complex:
        """Scalar of psi on the frames of |F(e,p0)| (x) |F(p0,e)|."""
        key = ("psi", lam_key(lam), lam_key(mu), idem_key(e), idem_key(self.p0))

        def build():
            Fe = self.F(lam, mu, e, self.p0)
            Fd = self.F(lam, mu, self.p0, e)
            comp = Fd.compose(Fe)
            ident = FiberedLatticeOp.identity(Fe.dom)
            tors = fredlines.torsion(Fe, Fd, comp)
            pert = fredlines.perturbation(comp, ident)
            return tors * pert

        return self._get(key, build)

    # -- trivialisations of chains of F blocks ---------------------------------

    def _chain(self, lams, ps, schedule):
        """Torsion and composite of the F steps of a transposition schedule.

        Slot k starts with the idempotent ps[k]; the idempotents of slots i
        and j swap after each transposition (i, j).  Step k is
        big_F(lams, (i, j), ps): F(lam_i, lam_j)(p_i, p_j) in slots i < j
        plus the identity on the other slots, which shares no row or column
        with it.  So |F| -> |step|, like the extensions of `_extend`, is 1 on
        canonical frames (`fredlines.stabilization`): steps stand in for F.
        """
        ps, steps = list(ps), []
        for i, j in schedule:
            steps.append(big_F(list(lams), (i, j), tuple(ps)))
            ps[i], ps[j] = ps[j], ps[i]
        return fredlines.torsion_chain(steps)

    def triv(self, lams, e, schedule) -> complex:
        """Scalar trivialising |F^(n)| (x) ... (x) |F^(1)| against the Omega chain.

        The idempotent e starts in slot schedule[0][0] and every other slot
        holds p0 (see `_chain`).  The chain's composite, extended by the
        identity to the full slots, is compared by perturbation with the
        Omega chain of the reversed schedule at the base point.
        """
        key = ("triv", schedule, *map(lam_key, lams), idem_key(e), idem_key(self.p0))

        def build():
            p0s = tuple(self.p0 for _ in lams)
            ps = list(p0s)
            ps[schedule[0][0]] = e
            chain, comp = self._chain(lams, ps, schedule)
            diag = [(k, k) for k in range(len(lams))]
            big = self._extend(comp, lams, diag)
            omegas = [big_Omega(list(lams), pair, p0s) for pair in reversed(schedule)]
            target = self._extend(reduce(FiberedLatticeOp.compose, omegas), lams, diag)
            return chain * fredlines.perturbation(big, target)

        return self._get(key, build)

    # -- frame compositions ------------------------------------------------------

    def _frame(self, lams, e, schedule) -> complex:
        return self.phi(lams[0], lams[-1], e) * self.triv(lams, e, schedule)

    def M_p(self, lam, mu, nu, p) -> complex:
        """Frame scalar of the composition in the p-indexed line category."""
        return self._frame((lam, mu, nu), p, triv_schedule(2))

    def M_q_dagger(self, lam, mu, nu, q) -> complex:
        """Frame scalar of the dual composition (arguments mu->nu, lam->mu)."""
        return self._frame((lam, mu, nu), q, triv_schedule(2)[::-1])


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


def compose(*xs: HomElement) -> HomElement:
    """Composition of a chain x1: lam_0 -> lam_1, ..., xn: lam_{n-1} -> lam_n,
    n >= 2, of morphisms between one pair of idempotents (p, q).

    The scalar is M_p * M_q^dagger over the n-fold schedule, with the Koszul
    sign of moving each deg_q(x_i) past every later x_j.
    """
    # composability compares all of (a, b), not only what a cache key holds
    ab = [[None if z.is_unit else (z.u.a, z.u.b) for z in (y.ctx.p0, y.p, y.q)] for y in xs]
    if (
        len(xs) < 2
        or any(k != ab[0] for k in ab)
        or any((a.mu.g.a, a.mu.g.b) != (b.lam.g.a, b.lam.g.b) for a, b in zip(xs, xs[1:]))
    ):
        raise IdealViolation("morphisms are not composable")
    x = xs[0]
    ctx, schedule = x.ctx, triv_schedule(len(xs))
    lams = (x.lam, *(y.mu for y in xs))
    sign_exp = sum(a.deg_q * b.degree for i, a in enumerate(xs) for b in xs[i + 1 :])
    scalar = (
        (-1.0 if sign_exp % 2 else 1.0)
        * ctx._frame(lams, x.p, schedule)
        * ctx._frame(lams, x.q, schedule[::-1])
    )
    for y in xs:
        scalar *= y.coeff
    return HomElement(ctx, x.p, x.q, x.lam, lams[-1], scalar)


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
    """Three-fold composition; `compose(x, y, z)` under the name the bench times."""
    return compose(x, y, z)


def change_base(x: HomElement, p0_new: RingIdempotent) -> HomElement:
    """Move a hom element to the category built over another base point."""
    ctx_new = Context(p0_new, like=x.ctx)
    lam, mu, p, q = x.lam, x.mu, x.p, x.q

    def half(ctx):
        lams = (lam, mu, mu)
        chain, comp = ctx._chain(lams, (p, q, ctx.p0), ((0, 2), (0, 1)))
        return chain, ctx._extend(comp, lams, [(1, 2)])

    def build():
        (s_old, big_old), (s_new, big_new) = half(x.ctx), half(ctx_new)
        return s_old, fredlines.perturbation(big_old, big_new), s_new

    key = ("base", lam_key(lam), lam_key(mu), *map(idem_key, (p, q, x.ctx.p0, p0_new)))
    s_old, pert, s_new = x.ctx._get(key, build)
    return HomElement(ctx_new, p, q, lam, mu, x.coeff * s_old * pert / s_new)


def _beta(k: Monomial2, p: RingIdempotent) -> RingIdempotent:
    return p if p.is_unit else RingIdempotent.generator(k * p.u)


def translate(k: Monomial2, x: HomElement) -> HomElement:
    """The conjugation isomorphism: relabel lattice data and rescale."""
    ctx_t = Context(_beta(k, x.ctx.p0), like=x.ctx)
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
