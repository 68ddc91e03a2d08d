"""Bipolarized data on Z^2: monomials, quadrant indicators and F/Omega ops.

Group elements are invertible monomials mu * z1^a * z2^b acting on
l2(Z^2) by multiplication; the two polarizing projections are the
coordinate half-plane indicators.  On the monomial subgroup every
operator in sight is an exact indicator operator, so the whole calculus
stays fiber-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._intervals import Box, BoxUnion
from .errors import IdealViolation, OutOfRange
from .lattice import FiberedLatticeOp, SlotSpace


@dataclass(frozen=True)
class Monomial2:
    """Invertible monomial mu * z1^a * z2^b on the 2-torus."""

    mu: complex
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "mu", OutOfRange.check(self.mu, "monomial scalar"))

    def __mul__(self, other: "Monomial2") -> "Monomial2":
        return Monomial2(self.mu * other.mu, self.a + other.a, self.b + other.b)

    @classmethod
    def one(cls) -> "Monomial2":
        return cls(1.0, 0, 0)


@dataclass(frozen=True)
class RingIdempotent:
    """Either the ring unit or a generator q_u of the free idempotent ring."""

    u: "Monomial2 | None"  # None encodes the unit 1

    @classmethod
    def unit(cls) -> "RingIdempotent":
        return cls(None)

    @classmethod
    def generator(cls, u: Monomial2) -> "RingIdempotent":
        return cls(u)

    @property
    def is_unit(self) -> bool:
        return self.u is None


@dataclass(frozen=True)
class SigmaIndex:
    """Index (g, sigma) with the canonical admissible family implicit."""

    g: Monomial2

    def act(self, k: Monomial2) -> "SigmaIndex":
        return SigmaIndex(k * self.g)


def quadrant(a=None, b=None) -> BoxUnion:
    """Indicator region {x1 >= a} cap {x2 >= b} (None drops a constraint)."""
    lo1 = (a, None) if a is not None else (None, None)
    lo2 = (b, None) if b is not None else (None, None)
    return BoxUnion(2, [Box((lo1, lo2))])


def sigma_region(lam: SigmaIndex, x: RingIdempotent) -> BoxUnion:
    """Support of sigma_k(x): P_{z1^l1} for the unit, P_{z1^l1} Q_{z2^t2} else."""
    if x.is_unit:
        return quadrant(a=lam.g.a)
    return quadrant(a=lam.g.a, b=x.u.b)


def lam_key(lam: SigmaIndex) -> int:
    """All of lam that `sigma_region`, so every F and Omega block, reads."""
    return lam.g.a


def idem_key(x: RingIdempotent):
    """All of x that `sigma_region`, so every F and Omega block, reads."""
    return None if x.is_unit else x.u.b


def indicator_op(region: BoxUnion, coeff=1.0) -> FiberedLatticeOp:
    """coeff times the indicator of region, as a one-slot diagonal operator."""
    space = SlotSpace([("h", BoxUnion.full(2))])
    return FiberedLatticeOp(space, space, {(0, 0): _region_pairs(region, coeff)})


def sigma_apply(k: Monomial2, x: RingIdempotent) -> FiberedLatticeOp:
    """The canonical admissible representation on generators and the unit."""
    return indicator_op(sigma_region(SigmaIndex(k), x))


def _region_pairs(region: BoxUnion, coeff=1.0):
    return [(coeff, b) for b in region.canonical_boxes()]


def _check_ideal(p: RingIdempotent, q: RingIdempotent):
    if p.is_unit != q.is_unit:
        raise IdealViolation("idempotents do not differ by an ideal element")


def _slot_pair(lams, pair):
    i, j = pair
    if not (0 <= i < j < len(lams)):
        raise ValueError("need 0 <= i < j < n")
    return i, j


def _omega_entries(lams, pair, ps, A, B):
    """Entries of the n-slot Omega^{ij} block on regions A (slot i), B (slot j).

    The swap on A cap B, +1 on A minus B, -1 on B minus A, and the identity
    on every other slot k, supported on pi_{lam_k}(p_k).
    """
    i, j = pair
    inter = A.intersect(B)
    entries = {
        (i, i): _region_pairs(A.subtract(inter)),
        (i, j): _region_pairs(inter),
        (j, i): _region_pairs(inter),
        (j, j): _region_pairs(B.subtract(inter), -1.0),
    }
    for k in range(len(lams)):
        if k != i and k != j:
            entries[(k, k)] = _region_pairs(sigma_region(lams[k], ps[k]))
    return entries


def F_op(
    lam: SigmaIndex, mu: SigmaIndex, p: RingIdempotent, q: RingIdempotent
) -> FiberedLatticeOp:
    """F(lam,mu)(p,q): pi_lam(p)H + pi_mu(q)H -> pi_lam(q)H + pi_mu(p)H."""
    return big_F((lam, mu), (0, 1), (p, q))


def big_F(lams, pair, ps) -> FiberedLatticeOp:
    """n-slot F^{ij}: the (i,j) block is F(lam_i,lam_j)(p_i,p_j), rest diagonal."""
    i, j = _slot_pair(lams, pair)
    _check_ideal(ps[i], ps[j])
    n = len(lams)
    tau = list(range(n))
    tau[i], tau[j] = j, i
    dom = SlotSpace(
        [(f"s{k}", sigma_region(lams[k], ps[k])) for k in range(n)]
    )
    cod = SlotSpace(
        [(f"s{k}", sigma_region(lams[k], ps[tau[k]])) for k in range(n)]
    )
    A = sigma_region(lams[i], RingIdempotent.unit())
    B = sigma_region(lams[j], RingIdempotent.unit())
    return FiberedLatticeOp(dom, cod, _omega_entries(lams, pair, ps, A, B))


def big_Omega(lams, pair, ps) -> FiberedLatticeOp:
    """n-slot Omega^{ij} on +_k pi_{lam_k}(p_k)H with p_i = p_j."""
    i, j = _slot_pair(lams, pair)
    if ps[i] != ps[j]:
        raise IdealViolation("Omega^{ij} needs equal idempotents at i and j")
    dom = SlotSpace([(f"s{k}", sigma_region(lams[k], ps[k])) for k in range(len(lams))])
    A = sigma_region(lams[i], ps[i])
    B = sigma_region(lams[j], ps[j])
    return FiberedLatticeOp(dom, dom, _omega_entries(lams, pair, ps, A, B))


def commutator_trace_norm(n: int, m: int) -> float:
    """Trace norm of (P - P_{z1^n})(Q - Q_{z2^m})."""
    p_diff = indicator_op(
        quadrant(a=min(0, n)).subtract(quadrant(a=max(0, n))), 1.0 if n >= 0 else -1.0
    )
    q_diff = indicator_op(
        quadrant(b=min(0, m)).subtract(quadrant(b=max(0, m))), 1.0 if m >= 0 else -1.0
    )
    return p_diff.compose(q_diff).trace_norm()


def assumption_check(triples) -> bool:
    """Whether both representation-family conditions hold on finite boxes.

    `triples` is an iterable of (lam, mu, nu, u, v) with SigmaIndex lam,
    mu, nu and Monomial2 generators u, v.
    """
    one = RingIdempotent.unit()
    for lam, mu, nu, u, v in triples:
        qu = RingIdempotent.generator(u)
        qv = RingIdempotent.generator(v)
        d1 = sigma_apply(lam.g, qu).compose(sigma_apply(mu.g, one)).sub(
            sigma_apply(lam.g, one).compose(sigma_apply(mu.g, qu))
        )
        ideal = sigma_apply(lam.g, qu).sub(sigma_apply(lam.g, qv))
        d2 = ideal.compose(sigma_apply(mu.g, one)).compose(
            sigma_apply(nu.g, one)
        ).sub(ideal.compose(sigma_apply(nu.g, one)))
        if not (d1.is_finite_box() and d2.is_finite_box()):
            return False
    return True
