"""The monomial 3-cochain, its oracle, the twisted relation and pairings."""

import numpy as np
import pytest

from detline import cocycle3 as c3
from detline.errors import ExponentRange
from detline.torus import Monomial2
from detline.verify import random_monomial

Z1 = Monomial2(1, 1, 0)
Z2 = Monomial2(1, 0, 1)


def mono(mu, a, b):
    return Monomial2(mu, a, b)


@pytest.fixture(scope="module")
def ctx():
    return c3._context()


@pytest.mark.parametrize("lam", [2.0, -3.0, 1 + 1j])
def test_nontriviality_values(lam, ctx):
    lc = mono(lam, 0, 0)
    assert c3.cocycle_c(lc, Z1, Z2, ctx) == pytest.approx(lam)
    for triple in [(Z1, Z2, lc), (Z2, Z1, lc), (lc, Z2, Z1), (Z1, lc, Z2), (Z2, lc, Z1)]:
        assert c3.cocycle_c(*triple, ctx) == pytest.approx(1.0)


def test_closed_form_values():
    assert c3.closed_form(mono(2, 0, 0), Z1, Z2) == pytest.approx(2.0)
    assert c3.closed_form(mono(5, 0, 0), mono(1, 0, 0), mono(1, 0, 0)) == pytest.approx(1.0)
    assert c3.closed_form(mono(2, 1, 1), mono(3, 1, 1), Z2) == pytest.approx(2.0)
    with pytest.raises(ExponentRange):
        c3.closed_form(mono(1, -1, 0), Z1, Z2)


def test_oracle_agreement_sample(ctx):
    rng = np.random.default_rng(314)
    for _ in range(10):
        g, h, k = (random_monomial(rng, 4) for _ in range(3))
        assert c3.cocycle_c(g, h, k, ctx) == pytest.approx(
            c3.closed_form(g, h, k), rel=1e-9
        )


def test_negative_exponents_compute(ctx):
    val = c3.cocycle_c(mono(2.0, -1, 0), Z1, Z2, ctx)
    assert val != 0 and np.isfinite(val.real) and np.isfinite(val.imag)
    with pytest.raises(ExponentRange):
        c3.closed_form(mono(2.0, -1, 0), Z1, Z2)


def test_beta_degree(ctx):
    rng = np.random.default_rng(7)
    for _ in range(8):
        g, h = random_monomial(rng, 4), random_monomial(rng, 4)
        assert c3.beta_degree(g, h, ctx) == g.a * h.b


def test_relation_trivial_and_specific(ctx):
    one = Monomial2.one()
    rep = c3.verify_relation(one, Z1, Z2, mono(2, 1, 1), ctx)
    assert rep["passed"]
    rep = c3.verify_relation(Z1, Z2, mono(2, 0, 0), Z1, ctx)
    assert rep["passed"] and rep["residual"] <= 1e-9


def test_relation_random(ctx):
    rng = np.random.default_rng(2718)
    for _ in range(5):
        g, h, k, l = (random_monomial(rng, 3) for _ in range(4))
        rep = c3.verify_relation(g, h, k, l, ctx)
        assert rep["passed"], rep


def test_class_representative():
    assert c3.class_representative(-2.0) == pytest.approx(2.0)
    assert c3.class_representative(2.0) == pytest.approx(2.0)
    assert c3.class_representative(-1j) == pytest.approx(1j)
    with pytest.raises(ValueError):
        c3.class_representative(0.0)


@pytest.mark.parametrize("lam", [2.0, -3.0, 1 + 1j])
def test_pair_homology(lam, ctx):
    cyc = c3.HomologyCycle3.alternating(Z1, Z2, mono(lam, 0, 0))
    rep = c3.class_representative
    assert rep(c3.pair_homology(cyc, ctx)) == pytest.approx(rep(lam), rel=1e-9)


def test_pair_homology_trivial_cycle(ctx):
    t = (Z1, Z1, Z1)
    cyc = c3.HomologyCycle3(((0, t), (0, t)))
    assert c3.pair_homology(cyc, ctx) == pytest.approx(1.0)


def test_triple_symbol(ctx):
    def pairing(f, g, h):
        return c3.pair_homology(c3.HomologyCycle3.alternating(f, g, h), ctx)

    # constants only: both sides are one
    lam = mono(1.7, 0, 0)
    assert pairing(lam, lam, lam) == pytest.approx(1.0)
    assert c3.triple_symbol(lam, lam, lam) == pytest.approx(1.0)
    # (z1, z2, lam) pairs to lam
    assert pairing(Z1, Z2, mono(2.0, 0, 0)) == pytest.approx(2.0)
    assert c3.triple_symbol(Z1, Z2, mono(2.0, 0, 0)) == pytest.approx(2.0)
    # with signed exponents the two agree in C^*/{+-1}, not always exactly
    f, g, h = mono(2.0, -1, -1), mono(3.0, -1, 2), mono(5.0, 0, -1)
    assert c3.triple_symbol(f, g, h) == pytest.approx(2 / 375)
    assert pairing(f, g, h) == pytest.approx(-2 / 375)
    rng = np.random.default_rng(31)
    rep = c3.class_representative
    for _ in range(6):
        f, g, h = (random_monomial(rng, 3, -3) for _ in range(3))
        assert rep(pairing(f, g, h)) == pytest.approx(rep(c3.triple_symbol(f, g, h)), rel=1e-9)


# (a, b_g, b_h): the slice exponent and the two loop windings; the first
# row is (z1, z2, z2) itself, with both scalars 1
KM_SLICES = [(1, 1, 1), (1, 1, -1), (1, 0, 1), (-1, 1, 2), (2, 1, 1), (1, 2, -1), (-1, -1, 1),
             (3, 1, 0), (1, -2, 1), (2, -1, -1), (-1, 2, 0), (1, 3, -1), (-2, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize("slice_var", ["z1", "z2"])
def test_kac_moody_reduction(slice_var, ctx):
    # on the slice z1^a the alternating pairing is the ungraded circle
    # commutator to the power a: the Steinberg pairing times the Koszul sign
    # (-1)^{a b_g b_h}; on z2^a the exponent is det(e2, e1) a = -a
    from detline import circle as ci

    rng = np.random.default_rng(47)
    for i, (a, bg, bh) in enumerate(KM_SLICES):
        mg, mh = (complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in "gh")
        if i == 0:
            mg = mh = 1.0
        if slice_var == "z1":
            f, g, h, e = mono(1, a, 0), mono(mg, 0, bg), mono(mh, 0, bh), a
        else:
            f, g, h, e = mono(1, 0, a), mono(mg, bg, 0), mono(mh, bh, 0), -a
        got = c3.pair_homology(c3.HomologyCycle3.alternating(f, g, h), ctx)
        pairing = ci.steinberg_pairing(ci.Loop.monomial(mg, bg), ci.Loop.monomial(mh, bh))
        want = pairing**e * (-1) ** (a * bg * bh)
        assert abs(got - want) <= 1e-12 * abs(want), (a, bg, bh)
    assert ci.steinberg_pairing(ci.Loop.monomial(1.0, 1), ci.Loop.monomial(1.0, 1)) == -1.0


def test_mu_law(ctx):
    # the scalars enter only as mu_g^{h.a k.b}: c(g, h, k) = c(g1, h1, k1) mu_g^{h.a k.b},
    # with x1 the monomial x with its scalar set to 1
    rng = np.random.default_rng(53)
    for _ in range(20):
        g, h, k = (random_monomial(rng, 2, -2) for _ in range(3))
        g1, h1, k1 = (mono(1.0, x.a, x.b) for x in (g, h, k))
        got = c3.cocycle_c(g, h, k, ctx)
        want = c3.cocycle_c(g1, h1, k1, ctx) * g.mu ** (h.a * k.b)
        assert abs(got - want) <= c3.AGREE_TOL * abs(want), (g, h, k)
