"""The group 3-cochain on invertible monomials of the 2-torus.

The categorical pipeline computes the cochain value from the chosen
objects and connecting isomorphisms via coproduct, group action and
composition; the closed form is the independent oracle for nonnegative
exponents, and the triple symbol is the oracle of the homology pairing
for all exponents.  Values are compared either exactly in C^* or in the
quotient C^*/{+-1} via a canonical representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coproduct as cp
from .errors import ExponentRange
from .torus import Monomial2, RingIdempotent, SigmaIndex

_E = Monomial2.one()


def _q(u: Monomial2) -> RingIdempotent:
    return RingIdempotent.generator(u)


def _context() -> cp.Context:
    return cp.Context(_q(_E))


@dataclass(frozen=True)
class BetaChoice:
    """The connecting element b_{g,h}: canonical frames, coefficient one."""

    g: Monomial2
    h: Monomial2

    def element(self, ctx: cp.Context) -> cp.HomElement:
        return cp.HomElement(
            ctx, _q(self.g), _q(self.g * self.h), SigmaIndex(_E), SigmaIndex(self.g)
        )

    def degree(self, ctx: cp.Context) -> int:
        return self.element(ctx).degree


def beta_degree(g: Monomial2, h: Monomial2, ctx=None) -> int:
    """Degree of the connecting isomorphism beta_{g,h}."""
    ctx = ctx or _context()
    return BetaChoice(g, h).degree(ctx)


def cocycle_c(g: Monomial2, h: Monomial2, k: Monomial2, ctx=None) -> complex:
    """Value of the 3-cochain through the categorical pipeline."""
    ctx = ctx or _context()
    b_gh = BetaChoice(g, h).element(ctx)
    b_ghk = BetaChoice(g * h, k).element(ctx)
    b_ghk_big = BetaChoice(g, h * k).element(ctx)
    b_hk = BetaChoice(h, k).element(ctx)

    # decompose b_{g,hk} along q_{gh}; its first leg is b_{g,h} on the nose
    pair = cp.coproduct(b_ghk_big, _q(g * h))
    middle = pair.legs[1].scaled(pair.coeff / b_gh.coeff)

    # commute b_{g,h} past the inverse of b_{gh,k}
    sign = -1.0 if (b_gh.degree * b_ghk.degree) % 2 else 1.0

    ga = cp.group_act(g, b_hk)
    loop = cp.compose(cp.compose(cp.invert(b_ghk), middle), ga)
    if loop.lam != loop.mu:
        raise RuntimeError("pipeline did not return an automorphism")
    return complex(sign * loop.coeff)


def closed_form(g: Monomial2, h: Monomial2, k: Monomial2) -> complex:
    """Direct formula for the cochain, valid for nonnegative exponents."""
    n1, n2 = g.a, g.b
    m1, m2 = h.a, h.b
    l1, l2 = k.a, k.b
    if min(n1, n2, m1, m2, l1, l2) < 0:
        raise ExponentRange("closed form requires nonnegative exponents")
    eps = (
        (n1 * m2 + n1 * m1 + n2 * m1) * l2
        + n1 * n2 * m1 * l2
        + n1 * m1 * (n2 + m2 - 1) * (n2 + m2) // 2
        + n1 * m1 * (n2 + m2 + l2 - 1) * (n2 + m2 + l2) // 2
    )
    return complex(g.mu ** (m1 * l2) * (-1) ** (eps % 2))


def class_representative(z: complex) -> complex:
    """Canonical representative of a class in C^*/{+-1}."""
    z = complex(z)
    scale = abs(z)
    if scale == 0:
        raise ValueError("class representative of zero")
    if z.real < -1e-12 * scale:
        return -z
    if abs(z.real) <= 1e-12 * scale and z.imag < 0:
        return -z
    return z


def verify_relation(
    g: Monomial2, h: Monomial2, k: Monomial2, l: Monomial2, ctx=None
) -> dict:
    """Twisted 3-cocycle relation with the explicit graded sign."""
    ctx = ctx or _context()
    sign_exponent = (beta_degree(g, h, ctx) * beta_degree(k, l, ctx)) % 2
    sign = (-1.0) ** sign_exponent
    lhs = sign * cocycle_c(g * h, k, l, ctx) * cocycle_c(g, h, k * l, ctx)
    rhs = (
        cocycle_c(h, k, l, ctx)
        * cocycle_c(g, h * k, l, ctx)
        * cocycle_c(g, h, k, ctx)
    )
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "sign_exponent": sign_exponent,
        "residual": residual,
        "passed": residual <= 1e-9,
    }


@dataclass(frozen=True)
class HomologyCycle3:
    """Formal integer combination of ordered triples of monomials."""

    terms: tuple  # tuple of (coefficient, (g, h, k))

    @classmethod
    def alternating(cls, f: Monomial2, g: Monomial2, h: Monomial2) -> "HomologyCycle3":
        """The six-term alternating cycle attached to three commuting elements."""
        return cls(
            (
                (1, (f, g, h)),
                (-1, (f, h, g)),
                (1, (h, f, g)),
                (-1, (h, g, f)),
                (1, (g, h, f)),
                (-1, (g, f, h)),
            )
        )


def pair_homology(cycle: HomologyCycle3, ctx=None) -> complex:
    """Pairing of the cochain with a homology cycle, one factor per term."""
    ctx = ctx or _context()
    value = 1.0 + 0.0j
    for coeff, (a, b, c) in cycle.terms:
        if coeff == 0:
            continue
        value *= cocycle_c(a, b, c, ctx) ** coeff
    return value


def triple_symbol(f: Monomial2, g: Monomial2, h: Monomial2) -> complex:
    """Closed form of the alternating pairing on f, g, h, up to sign.

    mu_f^det(g,h) mu_g^det(h,f) mu_h^det(f,g) with det(x, y) = x.a y.b - x.b y.a:
    a Parshin-type symbol, the 2-torus analogue of the tame symbol.  It equals
    pair_homology(HomologyCycle3.alternating(f, g, h)) in C^*/{+-1}.
    """

    def det(x, y):
        return x.a * y.b - x.b * y.a

    return complex(f.mu ** det(g, h) * g.mu ** det(h, f) * h.mu ** det(f, g))
