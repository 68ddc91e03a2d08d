"""Circle loops: winding, the restricted cocycle, pairings, tame symbols."""

import numpy as np
import pytest

from detline import circle as ci
from detline.errors import BranchJump, Uncertified
from detline.windows import certify_stable
from detline.errors import Unstable

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


def test_symbol_tail_matches_generator_reference():
    # the tail is the largest |coefficient| outside the band, as the
    # generator over each out-of-band frequency computed it
    u = ci.Loop.laurent([0.3, 2.0, 0.1], 0)
    v = ci.Loop.laurent([0.5, 3.0], -1)
    for band, grid in ((48, ci.GRID), (6, 64), (31, 64), (40, 64)):
        _, tail = ci.symbol_coeffs(u, v, band, grid)
        c = np.fft.fft(u.samples(grid) * v.inverse_samples(grid)) / grid
        ref = max((abs(c[k % grid]) for k in range(band + 1, grid - band)), default=0.0)
        assert tail == float(ref)


def test_monomial_cocycle_values():
    lam = ci.Loop.monomial(0.8 + 0.7j, 0)
    assert ci.cres_cocycle(Z, lam) == pytest.approx(1.0)
    assert ci.cres_cocycle(lam, Z) == pytest.approx(1.0 / lam.mu)
    assert ci.cres_cocycle(ONE, ONE) == pytest.approx(1.0)


def test_monomial_cocycle_relation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        def rl():
            return ci.Loop.monomial(
                rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                int(rng.integers(-3, 4)),
            )

        a, b, c = rl(), rl(), rl()
        lhs = ci.cres_cocycle(a, b) * ci.cres_cocycle(a * b, c)
        rhs = ci.cres_cocycle(a, b * c) * ci.cres_cocycle(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_window_matches_monomial_pairing():
    pairs = [
        (Z, ci.Loop.monomial(0.8 + 0.7j, 0)),
        (ci.Loop.monomial(2.0, 2), ci.Loop.monomial(0.5, -1)),
    ]
    for u, v in pairs:
        pf = ci.cres_cochain_base(u, v, 0) / ci.cres_cochain_base(v, u, 0)
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
    pf = ci.cres_cochain_base(u, v, 0) / ci.cres_cochain_base(v, u, 0)
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
    exact = ci.cres_cochain_base(u, v, 0) / ci.cres_cochain_base(v, u, 0)
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
    full = ci.WindowContext(n).completed(op)
    assert np.allclose(full @ kmat, rmat, atol=1e-9)
    # off the kernel the completion is the operator itself
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x -= kmat @ np.linalg.lstsq(kmat, x, rcond=None)[0]
    assert np.allclose(full @ x, a @ x, atol=1e-9)


def test_m_uni_cross_check():
    g = ci.Loop.laurent([2.0, 1.0], 0)
    h = ci.Loop.laurent([3.0, 0.5 + 0.2j], 0)
    cw = ci.cres_cocycle(g, h, window_n=64)
    assert cw == pytest.approx(ci.m_uni(g, h, 64), rel=1e-7)


def test_window_certification():
    g = ci.Loop.laurent([2.0, 1.0], 0)
    v1 = ci._cres_window(Z, g, 64)
    v2 = ci._cres_window(Z, g, 80)
    certify_stable(((), [v1]), ((), [v2]))
    with pytest.raises(Unstable):
        certify_stable(((0,), [1.0]), ((1,), [1.0]))


def test_tame_symbol_examples():
    lam = ci.Loop.monomial(0.8 + 0.7j, 0)
    assert ci.tame_symbol_formula(Z, lam) == pytest.approx(1.0 / lam.mu)
    assert ci.tame_symbol_formula(lam, Z) == pytest.approx(lam.mu, rel=1e-9)
    two_z = ci.Loop.laurent([2.0, 1.0], 0)
    assert ci.tame_symbol_formula(Z, two_z) == pytest.approx(0.5, rel=1e-6)


def test_branch_refinement():
    fast = ci.Loop.monomial(1.0, 2)
    with pytest.raises(BranchJump):
        ci.tame_symbol_formula(fast, Z, q_points=4)
    ci.tame_symbol_formula(fast, Z, q_points=512)


def test_convention_probe_and_agreement():
    s = ci.convention_exponent()
    assert s in (1, -1)
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


def test_cohomologous_stability():
    # an alternative base object changes the cochain by the coboundary of
    # the connecting one-cochain
    rng = np.random.default_rng(17)

    def mktwist(seed):
        def tw(x):
            r = np.random.default_rng((seed, x.n & 0xFFFF, int(abs(x.mu) * 1e6) & 0xFFFFFF))
            return complex(r.uniform(0.5, 2) * np.exp(1j * r.uniform(0, 2 * np.pi)))

        return tw

    for t in range(6):
        def rl():
            return ci.Loop.monomial(
                rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                int(rng.integers(-2, 3)),
            )

        g, h = rl(), rl()
        base = int(rng.integers(-2, 3))
        tw = mktwist(100 + t)
        c0 = ci.cres_cochain_base(g, h, 0)
        c1 = ci.cres_cochain_base(g, h, base, tw)
        b = lambda x: ci.base_change_cochain(x, base, tw)
        assert c0 / c1 == pytest.approx(b(g) * b(h) / b(g * h), rel=1e-9)


def _term_by_term(loop, grid):
    z = np.exp(2j * np.pi * (np.arange(grid) / grid))
    if loop.is_monomial:
        return loop.mu * z**loop.n
    vals = np.zeros(grid, dtype=complex)
    for k, c in loop.coeffs:
        vals += c * z**k
    return vals


def test_loop_samples_cached_bit_for_bit_and_read_only():
    for loop in (ci.Loop.laurent([0.3, 2.0, 0.5 + 0.1j], -1), ci.Loop.monomial(0.8 + 0.7j, 3)):
        vals = loop.samples()
        assert vals.tobytes() == _term_by_term(loop, ci.GRID).tobytes()
        assert loop.samples() is vals
        with pytest.raises(ValueError):
            vals[0] = 0.0


def test_other_grids_compute_fresh():
    # z^600 + 0.1 turns 600 times; on 1024 points each step is more than
    # half a turn, so the sampled argument runs backwards
    fast = ci.Loop.laurent([0.1] + [0.0] * 599 + [1.0], 0)
    assert ci.winding_number(fast) == 600
    assert ci.winding_number(fast, grid=1024) == 600 - 1024
    coarse = fast.samples(grid=1024)
    assert coarse.tobytes() == _term_by_term(fast, 1024).tobytes()
    coarse[0] = 0.0  # a fresh array, not the cached one
    assert fast.samples()[0] != 0.0


def test_loop_equality_ignores_cached_samples():
    a = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    b = ci.Loop(1.0, 0, a.coeffs, a.k_min)
    ci.winding_number(a)
    assert "_samples" in vars(a) and "_samples" not in vars(b)
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

    ctx = ci.WindowContext(64)
    v = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    x, y = ci._win_alpha(ctx, ONE, Z, 64), ci._win_alpha(ctx, Z, v, 63)
    composed = _count_calls(monkeypatch, DenseOp, "compose")
    ci._win_compose(ctx, x, y)
    assert len(composed) == 1

    composed = _count_calls(monkeypatch, FiberedLatticeOp, "compose")
    ci._mono_compose(ci._MonoMor(0, 1, 1.0), ci._MonoMor(1, 3, 2.0))
    assert len(composed) == 1


def test_pairing_decomposes_each_window_operator_once(monkeypatch):
    from detline.windows import DenseOp

    fresh = []
    real = DenseOp._decompose

    def counted(self):
        if self._svd is None:
            fresh.append(1)
        return real(self)

    monkeypatch.setattr(DenseOp, "_decompose", counted)
    ci.steinberg_pairing(Z, ci.Loop.laurent([0.3, 2.0, 0.5], -1), 64, certify=False)
    assert len(fresh) == 26
