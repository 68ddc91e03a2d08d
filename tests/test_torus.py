"""Torus projections, admissible representations and F/Omega operators."""

import numpy as np
import pytest

from detline.errors import IdealViolation
from detline.lattice import FiberedLatticeOp, Presentation, label_key
from detline.torus import (
    F_op,
    Monomial2,
    RingIdempotent,
    SigmaIndex,
    assumption_check,
    big_F,
    big_Omega,
    commutator_trace_norm,
    indicator_op,
    sigma_apply,
    sigma_region,
    quadrant,
)

E = Monomial2.one()
q = RingIdempotent.generator


def mono(mu, a, b):
    return Monomial2(mu, a, b)


def test_monomial_group_law():
    g = mono(2.0, 1, -2)
    h = mono(0.5j, 3, 1)
    gh = g * h
    assert (gh.mu, gh.a, gh.b) == (1.0j, 4, -1)
    with pytest.raises(ValueError):
        Monomial2(0.0, 1, 1)


def test_projections_and_commutation():
    P1 = indicator_op(quadrant(a=0))
    assert P1.entries[(0, 0)][0][1].axes[0] == (0, None)
    P3 = indicator_op(quadrant(a=3))
    assert P3.entries[(0, 0)][0][1].axes[0] == (3, None)
    Q2 = indicator_op(quadrant(b=2))
    comm = P3.compose(Q2).sub(Q2.compose(P3))
    assert not comm.entries


def test_sigma_special_values():
    # the canonical family on the unit and on generators
    assert sigma_region(SigmaIndex(E), q(E)) == quadrant(a=0, b=0)
    assert sigma_region(SigmaIndex(mono(1, 1, 0)), q(mono(1, 0, 1))) == quadrant(a=1, b=1)
    op = sigma_apply(mono(2.0, 1, 7), q(mono(3.0, 5, 2)))
    sq = op.compose(op).sub(op)
    assert not sq.entries


def test_omega_squares_to_projection():
    lam, mu = SigmaIndex(mono(1, 2, 0)), SigmaIndex(mono(1, 0, 3))
    p = q(mono(1, 1, 1))
    om = big_Omega((lam, mu), (0, 1), (p, p))
    ident = FiberedLatticeOp.identity(om.dom)
    assert not om.compose(om).sub(ident).entries


def test_F_parametrix_and_swap():
    lam, mu = SigmaIndex(mono(1, 2, 1)), SigmaIndex(mono(1, 0, 2))
    pu, pv = q(mono(1, 4, 1)), q(mono(1, 1, 3))
    F = F_op(lam, mu, pu, pv)
    G = F_op(lam, mu, pv, pu)
    diff = G.compose(F).sub(FiberedLatticeOp.identity(F.dom))
    assert diff.is_finite_box()
    swap = F_op(lam, lam, pu, pv)
    assert swap.presentation() == Presentation((), ())
    with pytest.raises(IdealViolation):
        F_op(lam, mu, RingIdempotent.unit(), pu)


@pytest.mark.parametrize("n1,m1", [(n1, m1) for n1 in range(5) for m1 in range(n1 + 1)])
def test_kernel_cokernel_closed_form_grid(n1, m1):
    # kernel of F((h,s),(g,s))(q_v,q_u) is the box [m1,n1) x [s2,t2), slot 0
    for t2, s2 in [(2, 0), (3, 1), (4, 4), (1, 0)]:
        if t2 < s2:
            continue
        g, h = mono(1.5, n1, 9), mono(2.5, m1, 7)
        u, v = mono(1, 3, t2), mono(1, 8, s2)
        F = F_op(SigmaIndex(h), SigmaIndex(g), q(v), q(u))
        pres = F.presentation()
        ker = pres.ker
        expect = sorted(
            (((x1, x2), 0) for x1 in range(m1, n1) for x2 in range(s2, t2)),
            key=label_key,
        )
        assert pres.coker == ()
        assert [next(iter(k)) for k in ker] == expect
        assert all(len(k) == 1 and abs(next(iter(k.values())) - 1) < 1e-12 for k in ker)
        assert F.index() == (n1 - m1) * (t2 - s2)
        # the adjoint-side operator has the same data as a cokernel
        Fadj = F_op(SigmaIndex(h), SigmaIndex(g), q(u), q(v))
        adj = Fadj.presentation()
        assert adj.ker == () and [next(iter(r)) for r in adj.coker] == expect


def test_big_F_block_layout():
    lams = [SigmaIndex(mono(1, 1, 0)), SigmaIndex(mono(1, 2, 0)), SigmaIndex(mono(1, 0, 1))]
    ps = (q(mono(1, 0, 1)), q(mono(1, 0, 0)), q(mono(1, 0, 2)))
    F = big_F(lams, (0, 2), ps)
    assert len(F.dom) == 3 and len(F.cod) == 3
    # untouched middle slot acts as the identity indicator
    assert F.entries[(1, 1)][0][0] == 1.0


def test_trace_norm_identity():
    for n in range(-4, 5):
        for m in range(-4, 5):
            assert commutator_trace_norm(n, m) == pytest.approx(abs(n) * abs(m))


def test_assumption_check_samples():
    rng = np.random.default_rng(6)

    def rmono():
        return mono(
            rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            int(rng.integers(0, 4)),
            int(rng.integers(0, 4)),
        )

    triples = [
        (SigmaIndex(rmono()), SigmaIndex(rmono()), SigmaIndex(rmono()), rmono(), rmono())
        for _ in range(20)
    ]
    rep = assumption_check(triples)
    assert rep["all_finite"]
    # the unit case is exactly zero
    lam, mu = SigmaIndex(rmono()), SigmaIndex(rmono())
    one = RingIdempotent.unit()
    d = sigma_apply(lam.g, one).compose(sigma_apply(mu.g, one)).sub(
        sigma_apply(mu.g, one).compose(sigma_apply(lam.g, one))
    )
    assert not d.entries


def test_equivariance_of_F():
    # conjugation data equals the relabelled construction
    lam, mu = SigmaIndex(mono(1, 1, 2)), SigmaIndex(mono(1, 3, 0))
    pu, pv = q(mono(1, 2, 1)), q(mono(1, 5, 2))
    k = mono(3.0, 2, 3)
    F1 = F_op(lam, mu, pu, pv)
    F2 = F_op(
        SigmaIndex(k * lam.g),
        SigmaIndex(k * mu.g),
        q(k * pu.u),
        q(k * pv.u),
    )
    p1, p2 = F1.presentation(), F2.presentation()
    assert len(p1.ker) == len(p2.ker) and len(p1.coker) == len(p2.coker)
    for v1, v2 in zip(p1.ker, p2.ker):
        moved = {((pt[0] + k.a, pt[1] + k.b), s): c for (pt, s), c in v1.items()}
        assert moved == v2
