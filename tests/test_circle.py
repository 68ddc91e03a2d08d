"""Circle loops: winding, the restricted cocycle, pairings, tame symbols."""

from dataclasses import dataclass

import numpy as np
import pytest

from detline import circle as ci
from detline import _linalg, fredlines
from detline._intervals import Box, BoxUnion
from detline.errors import OutOfRange, Uncertified, Unstable
from detline.lattice import FiberedLatticeOp, SlotSpace
from detline.windows import DenseOp

Z = ci.Loop.monomial(1.0, 1)
ONE = ci.Loop.monomial(1.0, 0)


def test_winding_numbers():
    assert ci.winding_number(ci.Loop.monomial(2.0, 3)) == 3
    assert ci.winding_number(ci.Loop.laurent([2.0, 1.0], 0)) == 0
    assert ci.winding_number(ci.Loop.monomial(1 + 1j, 0)) == 0
    assert ci.winding_number(ci.Loop.laurent([1.0, 3.0], 0)) == 1


def test_nonvanishing_certificate():
    with pytest.raises(Uncertified):
        ci.Loop.laurent([1.0, -1.0], 0)  # vanishes at z = 1


def test_loop_product_and_symbols():
    u = ci.Loop.laurent([2.0, 1.0], 0)
    w = u * Z
    assert ci.winding_number(w) == 1
    coeffs, tail = ci.symbol_coeffs(Z, ONE, band=4)
    assert coeffs[1] == pytest.approx(1.0) and abs(coeffs[0]) < 1e-12
    assert tail < 1e-10


def test_loop_product_refuses_exponents_past_the_fft_grid():
    # the GRID-point transform reads exponents in [1 - GRID/2, GRID/2] only:
    # 3000..3002 came back as -1096..-1094
    with pytest.raises(OutOfRange, match=r"exponents 3000\.\.3002 .*GRID = 4096"):
        ci.Loop.laurent([1, 0.5], 3000) * ci.Loop.laurent([1, 0.25], 0)
    with pytest.raises(OutOfRange, match=r"exponents -2048\.\.-2046"):
        ci.Loop.monomial(1.0, -2048) * ci.Loop.laurent([1, 0.5, 0.25], 0)
    # the end bins read right
    for k_min, lo in ((2046, 2046), (-2047, -2047)):
        prod = ci.Loop.laurent([1, 0.5], k_min) * ci.Loop.laurent([1, 0.25], 0)
        assert [k for k, _ in prod.coeffs] == [lo, lo + 1, lo + 2]
        assert [c for _, c in prod.coeffs] == pytest.approx([1, 0.75, 0.125])


def test_symbol_tail_matches_generator_reference():
    # the tail is the largest |coefficient| outside the band, as the
    # generator over each out-of-band frequency computed it
    u = ci.Loop.laurent([0.3, 2.0, 0.1], 0)
    v = ci.Loop.laurent([0.5, 3.0], -1)
    c = np.fft.fft(u.samples * v.inverse_samples()) / ci.GRID
    for band in (48, 6, 31, 40):
        _, tail = ci.symbol_coeffs(u, v, band)
        ref = max((abs(c[k % ci.GRID]) for k in range(band + 1, ci.GRID - band)), default=0.0)
        assert tail == float(ref)


def test_monomial_cocycle_values():
    lam = ci.Loop.monomial(0.8 + 0.7j, 0)
    assert ci.cres_cocycle(Z, lam) == pytest.approx(1.0)
    assert ci.cres_cocycle(lam, Z) == pytest.approx(1.0 / lam.mu)
    assert ci.cres_cocycle(ONE, ONE) == pytest.approx(1.0)


def test_monomial_cocycle_relation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (ci.Loop.monomial(_random_scalar(rng), int(rng.integers(-3, 4))) for _ in "abc")
        lhs = ci.cres_cocycle(a, b) * ci.cres_cocycle(a * b, c)
        rhs = ci.cres_cocycle(a, b * c) * ci.cres_cocycle(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_window_matches_monomial_pairing():
    pairs = [
        (Z, ci.Loop.monomial(0.8 + 0.7j, 0)),
        (ci.Loop.monomial(2.0, 2), ci.Loop.monomial(0.5, -1)),
    ]
    for u, v in pairs:
        pf = ci.cres_cochain_base(u, v) / ci.cres_cochain_base(v, u)
        pw = ci._cres_window(u, v, 48) / ci._cres_window(v, u, 48)
        assert pw == pytest.approx(pf, rel=1e-7)


WINDING_PAIRS = [(2, -1), (2, -2), (3, -1), (-2, 3)]


@pytest.mark.parametrize("n", [32, 40, 48, 56, 64, 80])
@pytest.mark.parametrize("wu,wv", WINDING_PAIRS)
def test_window_pairing_pinned_to_monomial_mode(wu, wv, n):
    # kernels and cokernels of dimension >= 2 occur here; their frames must
    # not depend on the window size (a drift check between two wrong
    # windows would not notice, so every window is pinned to the oracle)
    u, v = ci.Loop.monomial(2.0, wu), ci.Loop.monomial(0.5, wv)
    pf = ci.cres_cochain_base(u, v) / ci.cres_cochain_base(v, u)
    pw = ci._cres_window(u, v, n) / ci._cres_window(v, u, n)
    assert pw == pytest.approx(pf, rel=1e-7)


def test_window_pairing_independent_of_blas_threads():
    import os
    import subprocess
    import sys

    import detline

    src = os.path.dirname(os.path.dirname(os.path.abspath(detline.__file__)))
    code = (
        "from detline import circle as ci\n"
        "u, v = ci.Loop.monomial(2.0, 2), ci.Loop.monomial(0.5, -1)\n"
        "print(repr(ci._cres_window(u, v, 80) / ci._cres_window(v, u, 80)))\n"
    )
    u, v = ci.Loop.monomial(2.0, 2), ci.Loop.monomial(0.5, -1)
    exact = ci.cres_cochain_base(u, v) / ci.cres_cochain_base(v, u)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert run.returncode == 0, run.stderr
        assert complex(run.stdout.strip()) == pytest.approx(exact, rel=1e-7)


def test_completion_sends_kernel_frame_to_cokernel_frame():
    # the matcher must pair the j-th kernel frame vector with the j-th
    # cokernel representative, whatever the frames' inner products
    from detline.windows import DenseOp

    rng = np.random.default_rng(2)
    n, r = 6, 4
    a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
        rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    )
    labels = list(range(n))
    op = DenseOp(labels, labels, a)
    pres = op.presentation()
    kmat = np.array([[k.get(l, 0.0) for k in pres.ker] for l in labels])
    rmat = np.array([[c.get(l, 0.0) for c in pres.coker] for l in labels])
    full = fredlines.completed(op, labels, labels, pres.ker, pres.coker)
    assert np.allclose(full @ kmat, rmat, atol=1e-9)
    # off the kernel the completion is the operator itself
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x -= kmat @ np.linalg.lstsq(kmat, x, rcond=None)[0]
    assert np.allclose(full @ x, a @ x, atol=1e-9)


def _toeplitz_det(coeffs, k_min, n):
    """det of the n x n Toeplitz matrix (c_{j-k}) of the loop sum_i coeffs[i]
    z^(k_min + i), indexed with numpy alone: it shares no code with the
    pipeline."""
    c = np.zeros(2 * n - 1, dtype=complex)  # c_{1-n} .. c_{n-1}
    for i, x in enumerate(coeffs):
        if abs(k_min + i) < n:
            c[k_min + i + n - 1] = x
    return np.linalg.det(c[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1])


def test_analytic_window_cocycle_is_a_toeplitz_determinant_ratio():
    # on analytic index-zero loops the window cochain is
    # det T_N(gh) / (det T_N(g) det T_N(h)); T_N(gh) = T_N(g) T_N(h) for
    # analytic symbols, so both read 1 up to roundoff
    g_c, h_c = [2.0, 1.0], [3.0, 0.5 + 0.2j]
    g, h = ci.Loop.laurent(g_c, 0), ci.Loop.laurent(h_c, 0)
    cw = ci.cres_cocycle(g, h, window_n=64)
    dets = [_toeplitz_det(c, 0, 64) for c in (np.convolve(g_c, h_c), g_c, h_c)]
    assert cw == pytest.approx(dets[0] / (dets[1] * dets[2]), rel=1e-7)


def _from_roots(c, w, inner, outer):
    """The Laurent loop c z^w prod(1 - a/z) prod(1 - z/b)."""
    poly = np.poly1d([c])
    for a in inner:
        poly = poly * np.poly1d([1.0, -a])
    for b in outer:
        poly = poly * np.poly1d([-1.0 / b, 1.0])
    return ci.Loop.laurent(list(poly.coeffs[::-1]), w - len(inner))


def _tame_power(u, v):
    return ci.tame_symbol_formula(u, v) ** ci.CONVENTION_EXPONENT


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_window_certification():
    # every value the root bound certifies agrees with the window 16 wider and
    # with the tame symbol; seeded mixed pairs, a third with a repeated root
    rng = np.random.default_rng(11)
    certified, drifting_refused = 0, 0
    for case in range(16):
        def root(lo, hi):
            return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())

        inner = [root(0.1, 0.95) for _ in range(rng.integers(1, 3))]
        outer = [1 / root(0.1, 0.95) for _ in range(rng.integers(1, 3))]
        if case % 3 == 0:
            inner.append(inner[0])
        v = _from_roots(root(0.5, 2.0), int(rng.integers(-1, 2)), inner, outer)
        u = ci.Loop.monomial(root(0.5, 2.0), int(rng.choice([1, -1, 2, -2, 3])))
        n = int(rng.choice([16, 32, 48]))
        val = ci.steinberg_pairing(u, v, n, certify=False)
        try:
            assert ci.steinberg_pairing(u, v, n) == val
        except Unstable:
            drifting_refused += _rel(val, _tame_power(u, v)) > ci.WINDOW_DRIFT_REL
            continue
        certified += 1
        assert _rel(val, ci.steinberg_pairing(u, v, n + 16, certify=False)) <= ci.WINDOW_DRIFT_REL
        assert _rel(val, _tame_power(u, v)) <= ci.WINDOW_DRIFT_REL
    # the bound certifies most pairs and refuses some that really drift
    assert certified >= 8 and drifting_refused >= 2, (certified, drifting_refused)


def test_certificate_asks_for_the_window_that_certifies():
    # u = z, v = (1 - 0.9/z)(1 - 0.9z): rho = 0.81 and the pairing is 1
    v = ci.Loop.laurent([-0.9, 1.81, -0.9], -1)
    with pytest.raises(Unstable, match="a window of 123 or more certifies"):
        ci.steinberg_pairing(Z, v, 64)
    assert abs(ci.steinberg_pairing(Z, v, 123) - 1.0) <= 1e-10
    assert abs(ci.steinberg_pairing(Z, v, 128) - 1.0) <= 5e-13
    # z v against z^-3: the smallest window, N - 1, is in the chain of c(z v, z^-3)
    with pytest.raises(Unstable, match="a window of 123 or more certifies"):
        ci.steinberg_pairing(ci.Loop.monomial(1.0, -3), ci.Loop.laurent([-0.9, 1.81, -0.9], 0), 64)
    # an analytic loop has rho = 0: its finite sections compose exactly
    assert abs(ci.steinberg_pairing(Z, ci.Loop.laurent([1.0, -0.95], 0), 16) - 1.0) <= 1e-14


def test_certificate_comes_after_the_winding_check():
    v = ci.Loop.laurent([-0.9, 1.81, -0.9], -1)  # Unstable at any small window
    with pytest.raises(Uncertified, match="smaller than a winding number"):
        ci.steinberg_pairing(ci.Loop.monomial(1.0, 5), v, 3)


def test_window_computed_only_after_the_certificate(monkeypatch):
    calls = []
    monkeypatch.setattr(ci, "_cres_window", lambda g, h, n: calls.append(n))
    with pytest.raises(Unstable):
        ci.steinberg_pairing(Z, ci.Loop.laurent([-0.9, 1.81, -0.9], -1), 64)
    assert calls == []


def test_window_linear_algebra_failure_is_unstable(monkeypatch):
    def fail(g, h, n):
        raise np.linalg.LinAlgError("inconsistent system")

    monkeypatch.setattr(ci, "_cres_window", fail)
    with pytest.raises(Unstable, match="window linear algebra failed"):
        ci.steinberg_pairing(Z, ci.Loop.laurent([2.0, 1.0], 0), 64)


def test_band_keeps_symbol_terms_past_it():
    # v^{-1} has terms 0.85^k k past the band; cut at BAND they moved the
    # pairing by 1e-4 at N = 52, which the root bound certifies
    v = _from_roots(1.0, -1, [-0.85, -0.85], [1.75])
    u = ci.Loop.monomial(1.0, 2)
    assert _rel(ci.steinberg_pairing(u, v, 52), _tame_power(u, v)) <= 1e-13


def test_tame_symbol_examples():
    lam = ci.Loop.monomial(0.8 + 0.7j, 0)
    assert ci.tame_symbol_formula(Z, lam) == pytest.approx(1.0 / lam.mu)
    assert ci.tame_symbol_formula(lam, Z) == pytest.approx(lam.mu, rel=1e-9)
    two_z = ci.Loop.laurent([2.0, 1.0], 0)
    assert ci.tame_symbol_formula(Z, two_z) == pytest.approx(0.5, rel=1e-6)


def _values(loop, z):
    if loop.is_monomial:
        return loop.mu * z**loop.n
    return sum(c * z**k for k, c in loop.coeffs)


def _contour_tame(u, v, q):
    """The paper's contour integral exp((1/2 pi i) int log(u) dv/v) v(1)^{-w(u)}
    by the trapezoid rule on q + 1 points, log u tracked along the circle."""
    t = np.linspace(0.0, 1.0, q + 1)
    z = np.exp(2j * np.pi * t)
    uv, vv = _values(u, z), _values(v, z)
    steps = np.log(uv[1:] / uv[:-1])
    assert np.max(np.abs(steps.imag)) <= np.pi / 2, "log u jumps a branch: refine q"
    logu = np.log(uv[0]) + np.concatenate([[0.0], np.cumsum(steps)])
    w_u = int(round((logu[-1] - logu[0]).imag / (2 * np.pi)))
    if v.is_monomial:
        dlogv = np.full(len(t), 2j * np.pi * v.n)
    else:
        dv = sum(k * c * z ** (k - 1) for k, c in v.coeffs)
        dlogv = dv * (2j * np.pi * z) / vv
    integral = np.trapezoid(logu * dlogv, t)
    return complex(np.exp(integral / (2j * np.pi)) * _values(v, 1.0) ** (-w_u))


def _loop_from_roots(rng, w, n_in, n_out):
    """c z^w prod(1 - a/z) prod(1 - z/b) with seeded roots |a| < 0.8, |b| > 1.25."""
    inner = rng.uniform(0.1, 0.8, n_in) * np.exp(2j * np.pi * rng.random(n_in))
    outer = rng.uniform(1.25, 3.0, n_out) * np.exp(2j * np.pi * rng.random(n_out))
    c = _random_scalar(rng)
    # z^(w - n_in) prod(z - a) prod(1 - z/b), coefficients lowest power first
    poly = np.polynomial.polynomial
    coeffs = poly.polyfromroots(inner) if n_in else np.ones(1)
    for b in outer:
        coeffs = poly.polymul(coeffs, [1.0, -1.0 / b])
    return ci.Loop.laurent(list(c * coeffs), w - n_in), (c, w, inner, outer)


def test_factors_recover_the_roots():
    rng = np.random.default_rng(61)
    for w in (-2, -1, 0, 1, 2):
        loop, (c, _, inner, outer) = _loop_from_roots(rng, w, 2, 2)
        got_c, got_w, got_in, got_out = loop.factors
        assert got_w == w == ci.winding_number(loop)
        assert got_c == pytest.approx(c, rel=1e-12)
        assert np.sort_complex(got_in) == pytest.approx(np.sort_complex(inner), rel=1e-12)
        assert np.sort_complex(got_out) == pytest.approx(np.sort_complex(outer), rel=1e-12)
    mono = ci.Loop.monomial(0.8 + 0.7j, -3)
    assert mono.factors[:2] == (0.8 + 0.7j, -3)
    assert ci.winding_number(mono) == -3


def _seeded_tame_pairs():
    # every sign combination of the two windings, seeded roots on both sides
    rng = np.random.default_rng(23)
    for wu in (-1, 0, 1):
        for wv in (-1, 0, 1):
            u, _ = _loop_from_roots(rng, wu, int(rng.integers(0, 3)), int(rng.integers(1, 3)))
            v, _ = _loop_from_roots(rng, wv, int(rng.integers(0, 3)), int(rng.integers(1, 3)))
            yield u, v


def test_root_form_matches_the_contour_integral():
    # where w(u) = 0 the integrand is periodic and the rule is exact to
    # roundoff; otherwise it converges algebraically, and the gap to the
    # root form is the rule's own error, falling as q grows
    for u, v in _seeded_tame_pairs():
        closed = ci.tame_symbol_formula(u, v)
        if ci.winding_number(u) == 0:
            assert abs(_contour_tame(u, v, 4096) - closed) <= 1e-12 * abs(closed)
        else:
            gaps = [abs(_contour_tame(u, v, 2**e) - closed) for e in (14, 15, 16, 17)]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
            assert gaps[-1] <= 1e-6 * abs(closed)


def test_root_form_bimultiplicative_and_graded():
    pairs = list(_seeded_tame_pairs())
    tame = ci.tame_symbol_formula
    for (u, v), (u2, _) in zip(pairs, pairs[1:] + pairs[:1]):
        assert tame(u * u2, v) == pytest.approx(tame(u, v) * tame(u2, v), rel=1e-10)
        assert tame(v, u * u2) == pytest.approx(tame(v, u) * tame(v, u2), rel=1e-10)
        assert tame(u, v) * tame(v, u) == pytest.approx(1.0, rel=1e-12)
        assert tame(u, u) == pytest.approx((-1.0) ** ci.winding_number(u), rel=1e-12)


@pytest.mark.parametrize("r", [0.5, 0.7, 0.8, 0.85, 0.9, 0.95])
def test_root_form_exact_on_analytic_loops(r):
    # {z, 1 - r z} = 1: v(0) = 1 and v has no zero in the disc; the contour
    # rule at 4096 points is off by 3.9e-7 to 7.5e-5 over this table
    v = ci.Loop.laurent([1.0, -r], 0)
    assert abs(ci.tame_symbol_formula(Z, v) - 1.0) <= 4e-16


def test_root_on_the_circle_is_uncertified():
    # the zero sits between two points of the 4096-point sampling grid
    with pytest.raises(Uncertified):
        ci.Loop.laurent([1.0, -np.exp(1j * np.pi / 4096)], 0)
    with pytest.raises(Uncertified):
        ci.Loop.laurent([1.0, -1.0 - 1e-7], 0)
    assert ci.winding_number(ci.Loop.laurent([1.0, -0.99999], 0)) == 0  # root 1.00001
    assert ci.winding_number(ci.Loop.laurent([1.0, -1.00001], 0)) == 1  # root 0.99999


def test_convention_probe_and_agreement():
    # the constant orientation: on (z, 2) the pairing is 2 and the tame symbol
    # 1/2, exactly in the monomial mode and to roundoff in the window mode
    s = ci.convention_exponent()
    two = ci.Loop.monomial(2.0, 0)
    assert ci.steinberg_pairing(Z, two) == 2.0 and ci.tame_symbol_formula(Z, two) == 0.5 == 2.0**s
    window = ci.steinberg_pairing(ci.Loop.laurent([0.0, 1.0], 0), ci.Loop.laurent([2.0], 0))
    assert window == pytest.approx(2.0, rel=1e-12)
    for v in [ci.Loop.monomial(2.0, 0), ci.Loop.monomial(1 + 1j, 0), ci.Loop.laurent([2.0, 1.0], 0)]:
        pairing = ci.steinberg_pairing(Z, v, window_n=64)
        tame = ci.tame_symbol_formula(Z, v)
        assert pairing == pytest.approx(tame**s, rel=1e-6)


def test_pairing_bimultiplicative_and_antisymmetric():
    lam2 = ci.Loop.monomial(2.0, 0)
    p1 = ci.steinberg_pairing(Z, lam2)
    for a in (1, 2, 3):
        za = ci.Loop.monomial(1.0, a)
        assert ci.steinberg_pairing(za, lam2) == pytest.approx(p1**a, rel=1e-9)
    u, v = ci.Loop.monomial(1.5, 1), ci.Loop.monomial(0.7 + 0.2j, 2)
    assert ci.steinberg_pairing(u, v) * ci.steinberg_pairing(v, u) == pytest.approx(1.0)
    # constants pair trivially
    c1, c2 = ci.Loop.monomial(2.0, 0), ci.Loop.monomial(1 + 2j, 0)
    assert ci.steinberg_pairing(c1, c2) == pytest.approx(1.0)


def _agrees_with_tame_symbol(u, v):
    want = ci.tame_symbol_formula(u, v) ** ci.convention_exponent()
    return abs(ci.steinberg_pairing(u, v) - want) <= ci.PAIRING_REL_TOL * abs(want)


def test_pairing_carries_the_koszul_sign_of_odd_windings():
    # the lines are Z/2-graded by winding, so {u, u} = (-1)^{w(u)}: the
    # plain ratio c(u,v)/c(v,u) misses the sign when w(u) w(v) is odd
    rng = np.random.default_rng(19)
    for m in range(-3, 4):
        for n in range(-3, 4):
            mu, nu = (complex(*rng.uniform(0.5, 2.0, 2)) for _ in range(2))
            assert _agrees_with_tame_symbol(ci.Loop.monomial(mu, m), ci.Loop.monomial(nu, n))
    assert ci.steinberg_pairing(Z, Z) == -1.0
    assert _agrees_with_tame_symbol(Z, ci.Loop.laurent([0.3, 2.0], 0))


def test_cohomologous_stability():
    # an alternative base object changes the cochain by the coboundary of
    # the connecting one-cochain
    rng = np.random.default_rng(17)
    for t in range(6):
        g, h = (ci.Loop.monomial(_random_scalar(rng), int(rng.integers(-2, 3))) for _ in "gh")
        base = int(rng.integers(-2, 3))
        tw = _twist(100 + t)
        c0 = ci.cres_cochain_base(g, h)
        c1 = _ref_cres_cochain_base(g, h, base, tw)
        b = lambda x: _ref_base_change_cochain(x, base, tw)
        assert c0 / c1 == pytest.approx(b(g) * b(h) / b(g * h), rel=1e-9)


def _term_by_term(loop):
    z = np.exp(2j * np.pi * (np.arange(ci.GRID) / ci.GRID))
    if loop.is_monomial:
        return loop.mu * z**loop.n
    vals = np.zeros(ci.GRID, dtype=complex)
    for k, c in loop.coeffs:
        vals += c * z**k
    return vals


def test_loop_samples_cached_bit_for_bit_and_read_only():
    for loop in (ci.Loop.laurent([0.3, 2.0, 0.5 + 0.1j], -1), ci.Loop.monomial(0.8 + 0.7j, 3)):
        vals = loop.samples
        assert vals.tobytes() == _term_by_term(loop).tobytes()
        assert loop.samples is vals
        with pytest.raises(ValueError):
            vals[0] = 0.0


def test_loop_equality_ignores_cached_samples():
    a = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    b = ci.Loop(1.0, 0, a.coeffs)
    a.samples
    assert "samples" in vars(a) and "samples" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_window_cache_tells_apart_loops_equal_to_six_digits():
    # 1.000004 and the unit loop print alike to six significant digits; the
    # pairing must see the first one, (1.000004)^(w(v) s)
    u = ci.Loop.monomial(1.000004, 0)
    v = ci.Loop.laurent([0.3, 2.0, 0.5], 0)
    want = ci.tame_symbol_formula(u, v) ** ci.convention_exponent()
    assert abs(ci.steinberg_pairing(u, v, 64) - want) <= ci.PAIRING_REL_TOL * abs(want)


def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_each_composition_composes_once(monkeypatch):
    from detline.lattice import FiberedLatticeOp
    from detline.windows import DenseOp

    ctx = ci.WindowContext()
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    x, y = ci._win_alpha(ctx, ONE, Z, 64), ci._win_alpha(ctx, Z, v, 63)
    composed = _count_calls(monkeypatch, DenseOp, "compose")
    ci._compose(ctx.toeplitz, x, y)
    assert len(composed) == 1

    composed = _count_calls(monkeypatch, FiberedLatticeOp, "compose")
    ci._compose(ci._mor_op, ci._mono(0, 1, 1.0), ci._mono(1, 3, 2.0))
    assert len(composed) == 1


def test_pairing_decomposes_each_window_operator_once(monkeypatch, svd_flags):
    from detline.windows import DenseOp

    decomposed = _count_calls(monkeypatch, DenseOp, "_decompose")
    ci.steinberg_pairing(Z, ci.Loop.laurent([0.3, 2.0, 0.5], -1), 64, certify=False)
    # each cochain's last composition reuses the one of inverting alpha_g
    assert len(decomposed) == 22
    # an SVD only where a kernel or cokernel exists: 7 rectangles and 3
    # rank-deficient squares of the 22; the other squares are certified
    assert svd_flags == [True] * 10


def test_pairing_composes_each_window_pair_once_per_context(monkeypatch):
    pairs, real = [], DenseOp.compose

    def compose(S, T):
        pairs.append((S, T))  # keeps both alive, so no id is reused
        return real(S, T)

    monkeypatch.setattr(DenseOp, "compose", compose)
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    ci.steinberg_pairing(Z, v, 64, certify=False)
    # three per cochain: the last step reuses the composition of inverting alpha_g
    assert len(pairs) == 6
    assert len({(id(S), id(T)) for S, T in pairs}) == 6

    # an active table keeps the factors of each composition, bit for bit
    pairs.clear()
    ctx, table = ci.WindowContext(), {}
    x = ci._win_alpha(ctx, ONE, v, 64)
    with _linalg.memo_table(table):
        once = ci._invert(ctx.toeplitz, x)
        again = ci._invert(ctx.toeplitz, x)
    assert len(pairs) == 1 and [k[0] for k in table].count(ci._compose_factors) == 1
    assert repr(once) == repr(again) == repr(ci._invert(ci.WindowContext().toeplitz, x))
    assert len(pairs) == 2  # with no active table it composes again


def test_a_window_chain_that_raises_leaves_no_table_active(monkeypatch):
    real = ci._win_alpha

    def fails_on_the_second(ctx, u, v, n):
        if ctx._ops:
            raise np.linalg.LinAlgError("injected")
        return real(ctx, u, v, n)

    monkeypatch.setattr(ci, "_win_alpha", fails_on_the_second)
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    with pytest.raises(Unstable, match="injected"):
        ci.cres_cocycle(Z, v, 64, certify=False)
    assert _linalg.MEMO.get() is None


BAND2 = ci.Loop.laurent([0.2 - 0.1j, 0.3, 2.5, 0.4j, 0.1 + 0.2j], -2)


@pytest.mark.parametrize("window", [64, 128])
@pytest.mark.parametrize("n", [1, -1, 2, -2, 3, -3])
def test_window_pipeline_bit_for_bit_with_full_svds(n, window, monkeypatch, full_svd_decompose):
    u = ci.Loop.monomial(1.3 - 0.4j, n)
    got = ci.steinberg_pairing(u, BAND2, window, certify=True)
    monkeypatch.setattr(DenseOp, "_decompose", full_svd_decompose)
    assert repr(got) == repr(ci.steinberg_pairing(u, BAND2, window, certify=True))


def test_readme_tame_pair_bit_for_bit_with_full_svds(monkeypatch, full_svd_decompose):
    from detline.cli import parse_loop

    u, v = parse_loop("z"), parse_loop("(2,0):(1,0)@0")
    got = ci.steinberg_pairing(u, v, 64, certify=True)
    monkeypatch.setattr(DenseOp, "_decompose", full_svd_decompose)
    assert repr(got) == repr(ci.steinberg_pairing(u, v, 64, certify=True))


def _ref_loop_from_fft(coeffs, rel_tol=1e-12):
    # the per-coefficient loop the vectorised filter replaced
    n = len(coeffs)
    tol = rel_tol * max(abs(c) for c in coeffs)
    pairs = []
    for i, c in enumerate(coeffs):
        k = i if i <= n // 2 else i - n
        if abs(c) > tol:
            pairs.append((k, complex(c)))
    pairs.sort()
    return ci.Loop(1.0, 0, tuple(pairs))


def test_loop_from_fft_matches_the_loop_reference():
    rng = np.random.default_rng(17)
    spectra = []
    for _ in range(12):
        k_min = int(rng.integers(-5, 3))
        n = int(rng.integers(1, 6))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[int(rng.integers(len(c)))] += 6.0  # a dominant term keeps the loop nonvanishing
        u = ci.Loop.laurent(list(c), k_min)
        spectra.append(np.fft.fft(u.samples * Z.samples) / ci.GRID)
    single = np.zeros(ci.GRID, dtype=complex)
    single[ci.GRID - 6] = 0.5 - 2j  # the lone coefficient of z^-6
    near_tol = np.array(spectra[0])
    peak = np.abs(near_tol).max()
    # kept, dropped at tol, dropped
    near_tol[[7, 9, ci.GRID - 9]] = 2e-12 * peak, 1e-12 * peak, 5e-13 * peak
    nyquist = np.zeros(ci.GRID, dtype=complex)
    nyquist[[0, ci.GRID // 2, ci.GRID // 2 + 1]] = 3.0, 0.5, 0.25j  # z^0, z^2048, z^-2047
    for coeffs in spectra + [single, near_tol, nyquist]:
        assert repr(ci._loop_from_fft(coeffs)) == repr(_ref_loop_from_fft(coeffs))
    assert ci._loop_from_fft(single).coeffs == ((-6, 0.5 - 2j),)
    u, v = ci.Loop.laurent([0.3, 2.0, 0.1], -1), ci.Loop.laurent([0.5, 3.0], -1)
    assert repr(u * v) == repr(_ref_loop_from_fft(np.fft.fft(u.samples * v.samples) / ci.GRID))


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_product_keeps_its_span_at_any_scale(scale):
    # FFT roundoff is relative to the product's largest coefficient
    u = ci.Loop.laurent([scale, 0.5 * scale], 0)
    v = ci.Loop.laurent([0.2 * scale, 2.0 * scale], -1)
    prod = u * v
    assert [k for k, _ in prod.coeffs] == [-1, 0, 1]
    want = np.array([0.2, 2.1, 1.0]) * scale**2
    assert np.array([c for _, c in prod.coeffs]) == pytest.approx(want, rel=1e-12)


def test_product_factors_are_the_operands_factors():
    # the product carries its operands' roots; factoring it afresh agrees
    for u, v in list(_seeded_tame_pairs()) + [(Z, _random_laurent(np.random.default_rng(3)))]:
        prod = u * v
        c, w, inner, outer = prod.factors
        fresh = ci.Loop(1.0, 0, prod.coeffs).factors
        assert w == fresh[1] == ci.winding_number(u) + ci.winding_number(v)
        assert c == pytest.approx(fresh[0], rel=1e-10)
        assert np.sort_complex(inner) == pytest.approx(np.sort_complex(fresh[2]), rel=1e-9)
        assert np.sort_complex(outer) == pytest.approx(np.sort_complex(fresh[3]), rel=1e-9)


# The two per-mode copies of the morphism calculus that the shared `_Mor`,
# `_compose` and `_invert` replaced, kept as the reference they must match
# bit for bit.


def _ref_mor_op(nu, nv):
    half = lambda n: BoxUnion(1, [Box(((n, None),))])  # noqa: E731
    dom = SlotSpace([("u", half(nu))])
    cod = SlotSpace([("v", half(nv))])
    return FiberedLatticeOp(dom, cod, {(0, 0): [(1.0, Box(((max(nu, nv), None),)))]})


@dataclass(frozen=True)
class _MonoMor:
    nu: int
    nv: int
    coeff: complex

    def op(self):
        return _ref_mor_op(self.nu, self.nv)


def _mono_compose(x, y):
    assert x.nv == y.nu
    T, S = x.op(), y.op()
    comp = S.compose(T)
    tors = fredlines.torsion(T, S, comp)
    pert = fredlines.perturbation(comp, _ref_mor_op(x.nu, y.nv))
    return _MonoMor(x.nu, y.nv, x.coeff * y.coeff * tors * pert)


def _mono_invert(x):
    s = _mono_compose(x, _MonoMor(x.nv, x.nu, 1.0 + 0.0j)).coeff
    return _MonoMor(x.nv, x.nu, 1.0 / s)


def _mono_act(g, x):
    deg = x.op().presentation().degree
    return _MonoMor(x.nu + g.n, x.nv + g.n, x.coeff * g.mu**deg)


def _ref_cres_cochain_base(g, h, base, twist=None):
    tw = twist or (lambda _g: 1.0)
    gh = g * h
    a_gh = _MonoMor(base, base + gh.n, tw(gh))
    a_h = _MonoMor(base, base + h.n, tw(h))
    a_g = _MonoMor(base, base + g.n, tw(g))
    gah_inv = _mono_act(g, _mono_invert(a_h))
    loop = _mono_compose(_mono_compose(a_gh, gah_inv), _mono_invert(a_g))
    assert loop.nu == base and loop.nv == base
    return complex(loop.coeff)


def _ref_base_change_cochain(g, base, twist=None):
    tw = twist or (lambda _g: 1.0)
    phi = _MonoMor(0, base, 1.0 + 0.0j)
    beta_g = _MonoMor(base, base + g.n, tw(g))
    g_phi_inv = _mono_act(g, _mono_invert(phi))
    a_g_inv = _mono_invert(_MonoMor(0, g.n, 1.0 + 0.0j))
    loop = _mono_compose(_mono_compose(_mono_compose(phi, beta_g), g_phi_inv), a_g_inv)
    assert loop.nu == 0 and loop.nv == 0
    return complex(loop.coeff)


@dataclass(frozen=True)
class _WinMor:
    u: object
    v: object
    dom_n: int
    coeff: complex


def _win_compose(ctx, x, y):
    T = ctx.toeplitz(x.u, x.v, x.dom_n)
    S = ctx.toeplitz(y.u, y.v, y.dom_n)
    assert S.dom_labels == T.cod_labels
    comp = S.compose(T)
    tors = fredlines.torsion(T, S, comp)
    pert = fredlines.perturbation(comp, ctx.toeplitz(x.u, y.v, x.dom_n))
    return _WinMor(x.u, y.v, x.dom_n, x.coeff * y.coeff * tors * pert)


def _win_alpha(ctx, u, v, dom_n):
    op = ctx.toeplitz(u, v, dom_n)
    if ci.winding_number(u) == ci.winding_number(v):
        sym = ctx.toeplitz(v, u, dom_n)
        pres = sym.presentation()
        full = fredlines.completed(sym, sym.dom_labels, sym.cod_labels, pres.ker, pres.coker)
        inv = DenseOp(op.dom_labels, op.cod_labels, np.linalg.inv(full))
        return _WinMor(u, v, dom_n, fredlines.perturbation(inv, op))
    return _WinMor(u, v, dom_n, 1.0 + 0.0j)


def _win_invert(ctx, x):
    shift = ci.winding_number(x.u) - ci.winding_number(x.v)
    probe = _WinMor(x.v, x.u, x.dom_n + shift, 1.0 + 0.0j)
    s = _win_compose(ctx, x, probe).coeff
    return _WinMor(probe.u, probe.v, probe.dom_n, 1.0 / s)


def _ref_cres_window(g, h, n):
    ctx = ci.WindowContext()
    one = ci.Loop.monomial(1.0, 0)
    gh = g * h
    a_gh = _win_alpha(ctx, one, gh, n)
    g_ah = _win_alpha(ctx, g, gh, n - ci.winding_number(g))
    step1 = _win_compose(ctx, a_gh, _win_invert(ctx, g_ah))
    a_g = _win_alpha(ctx, one, g, n)
    return complex(_win_compose(ctx, step1, _win_invert(ctx, a_g)).coeff)


def _random_scalar(rng):
    return complex(rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _random_laurent(rng):
    # a dominant coefficient keeps the loop nonvanishing; its place sets the winding
    k_min, size = int(rng.integers(-2, 1)), int(rng.integers(1, 4))
    c = 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    c[int(rng.integers(size))] += _random_scalar(rng) * 4.0
    return ci.Loop.laurent(list(c), k_min)


def _twist(seed):
    def tw(x):
        r = np.random.default_rng((seed, x.n & 0xFFFF, int(abs(x.mu) * 1e6) & 0xFFFFFF))
        return _random_scalar(r)

    return tw


def test_monomial_calculus_matches_the_per_mode_reference():
    rng = np.random.default_rng(41)
    for t in range(10):
        g, h = (ci.Loop.monomial(_random_scalar(rng), int(rng.integers(-3, 4))) for _ in "gh")
        base = int(rng.integers(-2, 3))
        assert repr(ci.cres_cochain_base(g, h)) == repr(_ref_cres_cochain_base(g, h, 0))
        x, y = ci._mono(base, g.n, 1.5 - 0.5j), ci._mono(g.n, h.n, _random_scalar(rng))
        ref_x, ref_y = _MonoMor(base, g.n, 1.5 - 0.5j), _MonoMor(g.n, h.n, y.coeff)
        assert repr(ci._compose(ci._mor_op, x, y).coeff) == repr(_mono_compose(ref_x, ref_y).coeff)
        got = ci._mono_act(h, ci._invert(ci._mor_op, x))
        ref = _mono_act(h, _mono_invert(ref_x))
        assert (got.u.n, got.v.n, repr(got.coeff)) == (ref.nu, ref.nv, repr(ref.coeff))


@pytest.mark.parametrize("n", [32, 64])
def test_window_calculus_matches_the_per_mode_reference(n):
    rng = np.random.default_rng(43 + n)
    pairs = []
    for _ in range(3):
        mono = ci.Loop.monomial(_random_scalar(rng), int(rng.integers(-2, 3)))
        pairs += [(mono, _random_laurent(rng)), (_random_laurent(rng), mono)]
        pairs.append((_random_laurent(rng), _random_laurent(rng)))
    for g, h in pairs:
        assert repr(ci._cres_window(g, h, n)) == repr(_ref_cres_window(g, h, n))
        ctx, ref_ctx = ci.WindowContext(), ci.WindowContext()
        x = ci._invert(ctx.toeplitz, ci._win_alpha(ctx, g, h, n))
        ref = _win_invert(ref_ctx, _win_alpha(ref_ctx, g, h, n))
        assert (x.u, x.v, x.dom_n, repr(x.coeff)) == (ref.u, ref.v, ref.dom_n, repr(ref.coeff))


def test_certificate_refuses_a_pair_whose_widom_constant_is_dropped():
    # u = z - 0.5 has an inner root, v = 2 + z an outer one: E(v, u) = 1.25,
    # which the window chain drops (it would read 2, the tame symbol gives 2.5)
    u, v = ci.Loop.laurent([-0.5, 1.0], 0), ci.Loop.laurent([2.0, 1.0], 0)
    for args in ((u, v), (v, u)):
        with pytest.raises(Unstable, match="Widom constant"):
            ci.steinberg_pairing(*args)
        with pytest.raises(Unstable, match="Widom constant"):
            ci.cres_cocycle(*args)
    # roots on one side only leave E = 1, and the value still certifies
    w = ci.Loop.laurent([-0.3, 1.0], 0)
    want = ci.tame_symbol_formula(u, w) ** ci.CONVENTION_EXPONENT
    assert abs(ci.steinberg_pairing(u, w) - want) <= ci.PAIRING_REL_TOL * abs(want)


def test_winding_zero_pairing_is_a_ratio_of_toeplitz_determinants():
    # on winding-zero v the window pairing of mu z^k with v at window N is
    # det T_N(v) / det T_{N-k}(v) exactly, with `_toeplitz_det` the oracle
    rng = np.random.default_rng(3)

    def polar(r):
        return r * np.exp(2j * np.pi * rng.random())

    for i in range(12):
        inner = [polar(rng.uniform(0.5, 0.8)) for _ in range(2)]
        outer = [polar(rng.uniform(1.3, 2.0)) for _ in range(2)]
        # c prod(1 - a/z) prod(1 - z/b), ascending from z^-2
        poly_out = np.poly(outer)[::-1] * np.prod(-1.0 / np.array(outer))
        coeffs = polar(rng.uniform(0.5, 2.0)) * np.convolve(np.poly(inner)[::-1], poly_out)
        v = ci.Loop.laurent(list(coeffs), -2)
        assert ci.winding_number(v) == 0
        k, mu = 1 + i % 3, polar(rng.uniform(0.5, 2.0))
        for n in (20, 28):
            got = ci.steinberg_pairing(ci.Loop.monomial(mu, k), v, n, certify=False)
            want = _toeplitz_det(coeffs, -2, n) / _toeplitz_det(coeffs, -2, n - k)
            assert abs(got - want) <= 1e-12 * abs(want), (i, k, n)


def test_laurent_keeps_a_numpy_lowest_exponent_as_an_int():
    # a numpy k_min made the windings numpy ints, and the formula's
    # c_v ** (-m) raised on integers to a negative power
    u, v = ci.Loop.laurent([1, 0.3], np.int64(-1)), ci.Loop.monomial(2.0, 1)
    tame = ci.tame_symbol_formula(u, v)
    assert tame == pytest.approx(-2.0, rel=1e-12)
    assert ci.steinberg_pairing(u, v) == pytest.approx(1 / tame, rel=1e-12)
    assert type(u.coeffs[0][0]) is int and type(ci.winding_number(u)) is int


# Largest relative gap between a certified window pairing and the tame
# symbol's power on the sweep below; its worst pair is 7.3e-11 off.
SWEEP_REL_TOL = 1e-10


def _sweep_loop(rng, n_in, n_out, r_in, r_out):
    """c z^w prod(1 - a/z) prod(1 - z/b) with |c| in [0.5, 2], w in [-2, 2],
    |a| in r_in, |b| in r_out and seeded phases."""
    inner = [rng.uniform(*r_in) * np.exp(2j * np.pi * rng.random()) for _ in range(n_in)]
    outer = [rng.uniform(*r_out) * np.exp(2j * np.pi * rng.random()) for _ in range(n_out)]
    return _from_roots(_random_scalar(rng), int(rng.integers(-2, 3)), inner, outer)


def _sweep_pair(rng, kind):
    """Kind 0: inner roots only on both sides; 1: outer roots only; 2: one root
    of each kind against a monomial, in either order."""
    if kind == 2:
        loop = _sweep_loop(rng, 1, 1, (0.1, 0.6), (1.7, 4.0))
        mono = ci.Loop.monomial(_random_scalar(rng), int(rng.integers(-3, 4)))
        return (loop, mono) if rng.random() < 0.5 else (mono, loop)
    n_in, n_out = (1, 0) if kind == 0 else (0, 1)

    def draw():  # 1-2 roots, all on one side of the circle
        k = int(rng.integers(1, 3))
        return _sweep_loop(rng, k * n_in, k * n_out, (0.1, 0.7), (1.5, 4.0))

    return draw(), draw()


def test_certified_pairings_match_the_tame_symbol_on_a_seeded_sweep():
    # every pair of kinds that the Widom guard admits certifies, and agrees
    # with tame_symbol ** CONVENTION_EXPONENT
    rng = np.random.default_rng(11)
    for i in range(300):
        u, v = _sweep_pair(rng, i % 3)
        n = int(rng.choice([32, 48, 64]))
        got, want = ci.steinberg_pairing(u, v, n), _tame_power(u, v)
        assert _rel(got, want) <= SWEEP_REL_TOL, (i, n, got, want)
