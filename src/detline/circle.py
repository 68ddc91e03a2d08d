"""Loops on the circle: restricted-GL 2-cocycle and the tame symbol.

Monomial loops are handled exactly by the fibered d=1 calculus (Hardy
projections become half-line indicators).  General nonvanishing Laurent
loops run through windowed Toeplitz compressions in the translation
gauge.  Both modes share one morphism calculus; only the factory that
builds a morphism's operator differs.  A window chain runs under a fresh
`_linalg.memo_table`, so it composes each pair of its windows once.

A Laurent loop is its roots, c z^w prod(1 - a/z) prod(1 - z/b) with |a| < 1 < |b|:
they certify nonvanishing, give the winding w and the tame symbol in closed form,
and certify a window a priori: the drift of a window value is bounded by the
decay rate of the Borodin-Okounkov remainder, read off the roots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _linalg, fredlines
from ._intervals import Box, BoxUnion
from .errors import OutOfRange, Uncertified, Unstable
from .lattice import FiberedLatticeOp, SlotSpace
from .windows import DenseOp

GRID = 4096
# A root this close to the circle counts as on it: paired with a root as close
# on the other side, it gives rho = 1 - 2e-6, and the window certificate would
# ask for windows of order 1e7, which no window computes.
NONVANISH_TOL = 1e-6
# Largest relative drift of a window value that the window certificate
# admits.  A certified value moves between windows by roundoff only (at most
# 2.3e-13 over a seed-1 round of the bench `window` workload), so this
# leaves a wide margin; it matches SVD_TOL, the window's own relative cut.
WINDOW_DRIFT_REL = 1e-8
# The constant C of the window certificate C (n + 1)^(d - 1) rho^n.  Over a
# seeded sweep of 600 pairs mu z^k x Laurent loop (rho up to 0.93, N from 16
# to 96, 253 with a repeated root) the pairing's error was at most
# 0.051 (n + 1)^(d - 1) rho^n, though up to 121 rho^n: the polynomial factor
# carries the repeated roots, and C = 10 leaves a factor of 200 on it.
DRIFT_C = 10.0
# Relative agreement required between the Steinberg pairing and the
# tame symbol by `detline tame`.
PAIRING_REL_TOL = 1e-6
# FFT coefficients of a product of loops at or below this times the largest
# coefficient are roundoff of the GRID-point transform, not terms of the
# product: the threshold is relative, as that roundoff scales with the product.
FFT_COEFF_TOL = 1e-12
# Half-width of the Toeplitz band kept from a window symbol v^{-1} u whose
# coefficients past it are roundoff, at most FFT_COEFF_TOL times the largest.
# The largest coefficient it drops was at most 2.2e-12 over seed 1-3 rounds
# of the bench `window` workload, and 8.9e-16 on (z, 2 + z).
# A symbol with larger terms past the band keeps every coefficient its window
# reaches: cutting them moved the pairing of z^2 with z^-1 (1 + 0.85/z)^2
# (1 - z/1.75) by 1e-4 at N = 52, a value the window certificate admits.
BAND = 48


@dataclass(frozen=True)
class Loop:
    """Invertible loop: monomial mu z^n or a certified Laurent polynomial."""

    mu: complex = 1.0
    n: int = 0
    coeffs: tuple = ()  # ((k, c), ...) for Laurent mode; empty for monomial

    @classmethod
    def monomial(cls, mu, n=0) -> "Loop":
        return cls(OutOfRange.check(mu, "monomial scalar"), int(n))

    @classmethod
    def laurent(cls, coeffs, k_min=0) -> "Loop":
        pairs = tuple(
            (int(k_min) + i, complex(c)) for i, c in enumerate(coeffs) if abs(c) > 0
        )
        if not pairs:
            raise Uncertified("the zero loop is not invertible")
        loop = cls(1.0, 0, pairs)
        roots = np.concatenate(loop.factors[2:])
        if np.any(np.abs(np.abs(roots) - 1.0) <= NONVANISH_TOL):
            raise Uncertified("loop not certified nonvanishing: root on the circle")
        return loop

    @property
    def is_monomial(self) -> bool:
        return not self.coeffs

    @cached_property
    def factors(self):
        """(c, w, inner, outer) with self = c z^w prod(1 - a/z) prod(1 - z/b)
        over the roots a inside the unit disc and b outside it."""
        if self.is_monomial:
            return self.mu, self.n, np.zeros(0), np.zeros(0)
        k_lo, k_hi = self.coeffs[0][0], self.coeffs[-1][0]
        poly = np.zeros(k_hi - k_lo + 1, dtype=complex)
        for k, c in self.coeffs:
            poly[k_hi - k] = c
        try:
            roots = np.roots(poly)
        except np.linalg.LinAlgError as exc:  # a coefficient ratio overflowed
            raise OutOfRange(f"loop coefficients span more than the float range: {exc}") from exc
        inside = np.abs(roots) < 1.0
        outer = roots[~inside]
        c = poly[0] * np.prod(-outer)
        return complex(c), k_lo + int(np.count_nonzero(inside)), roots[inside], outer

    @cached_property
    def samples(self):
        """Values on GRID equispaced points, computed once per loop, read-only."""
        t = np.arange(GRID) / GRID
        z = np.exp(2j * np.pi * t)
        if self.is_monomial:
            vals = self.mu * z**self.n
        else:
            vals = np.zeros(GRID, dtype=complex)
            for k, c in self.coeffs:
                vals += c * z**k
        vals.flags.writeable = False
        return vals

    def inverse_samples(self):
        return 1.0 / self.samples

    def __mul__(self, other: "Loop") -> "Loop":
        if self.is_monomial and other.is_monomial:
            return Loop.monomial(self.mu * other.mu, self.n + other.n)
        lo, hi = (sum(x.coeffs[e][0] if x.coeffs else x.n for x in (self, other)) for e in (0, -1))
        if lo <= -GRID // 2 or hi > GRID // 2:  # past the exponents that FFT bins read
            raise OutOfRange(f"the product's exponents {lo}..{hi} leave [{1 - GRID // 2}, "
                             f"{GRID // 2}], those of a GRID = {GRID}-point transform")
        a, b = self.samples, other.samples
        prod = _loop_from_fft(np.fft.fft(a * b) / len(a))
        # a product of certified loops is nonvanishing and its roots are theirs
        (ca, wa, ia, oa), (cb, wb, ib, ob) = self.factors, other.factors
        factors = ca * cb, wa + wb, np.concatenate([ia, ib]), np.concatenate([oa, ob])
        object.__setattr__(prod, "factors", factors)
        return prod


def _loop_from_fft(coeffs):
    """The Laurent loop of the FFT coefficients above FFT_COEFF_TOL times the
    largest (index i > n/2 is i - n), built without the root certificate: its
    factors are computed only if read."""
    mags = np.abs(coeffs)
    idx = np.flatnonzero(mags > FFT_COEFF_TOL * mags.max())
    ks = np.where(idx <= len(coeffs) // 2, idx, idx - len(coeffs))
    order = np.argsort(ks)
    return Loop(1.0, 0, tuple((int(k), complex(c)) for k, c in zip(ks[order], coeffs[idx][order])))


def winding_number(u: Loop) -> int:
    """The winding number: the lowest exponent plus the roots inside the disc."""
    return u.factors[1]


def symbol_coeffs(u: Loop, v: Loop, band: int):
    """Fourier coefficients of v^{-1} u on [-band, band] with tail report."""
    vals = u.samples * v.inverse_samples()
    c = np.fft.fft(vals) / GRID
    out = {k: complex(c[k % GRID]) for k in range(-band, band + 1)}
    tail = np.max(np.abs(c[band + 1 : GRID - band]), initial=0.0)
    return out, float(tail)


# --------------------------------------------------------------------------
# Morphism calculus, shared by both modes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Mor:
    """Morphism u -> v, coefficient relative to the frame of op(u, v, dom_n)
    for the mode's operator factory: `_mor_op` or `WindowContext.toeplitz`."""

    u: Loop
    v: Loop
    dom_n: int
    coeff: complex


def _compose_factors(op, u: Loop, v: Loop, w: Loop, dom_n: int, mid_n: int):
    """The torsion of composing op(u, v, dom_n) with op(v, w, mid_n), and the
    perturbation from that composition to op(u, w, dom_n)."""
    T, S = op(u, v, dom_n), op(v, w, mid_n)
    comp = S.compose(T)
    return fredlines.torsion(T, S, comp), fredlines.perturbation(comp, op(u, w, dom_n))


def _compose(op, x: _Mor, y: _Mor) -> _Mor:
    """y o x, scaled by the torsion of the composition and its perturbation:
    `_compose_factors`, computed once per memo table for each pair of maps."""
    assert x.v == y.u
    tors, pert = _linalg.memo(_compose_factors, op, x.u, x.v, y.v, x.dom_n, y.dom_n)
    return _Mor(x.u, y.v, x.dom_n, x.coeff * y.coeff * tors * pert)


def _invert(op, x: _Mor) -> _Mor:
    """The inverse v -> u; its domain window is the codomain window of x."""
    probe = _Mor(x.v, x.u, x.dom_n + winding_number(x.u) - winding_number(x.v), 1.0 + 0.0j)
    return replace(probe, coeff=1.0 / _compose(op, x, probe).coeff)


# --------------------------------------------------------------------------
# Exact fibered mode (monomial loops)
# --------------------------------------------------------------------------


def _mor_op(u: Loop, v: Loop, dom_n: int = 0) -> FiberedLatticeOp:
    """P_v P_u : Im P_u -> Im P_v for monomial objects; dom_n is unused."""
    nu, nv = u.n, v.n
    dom = SlotSpace([("u", BoxUnion(1, [Box(((nu, None),))]))])
    cod = SlotSpace([("v", BoxUnion(1, [Box(((nv, None),))]))])
    return FiberedLatticeOp(dom, cod, {(0, 0): [(1.0, Box(((max(nu, nv), None),)))]})


def _mono(nu: int, nv: int, coeff) -> _Mor:
    """Morphism z^nu -> z^nv of the exact circle category."""
    return _Mor(Loop.monomial(1.0, nu), Loop.monomial(1.0, nv), 0, coeff)


def _mono_act(g: Loop, x: _Mor) -> _Mor:
    """Conjugation: shift the lattice labels and scale by the degree power."""
    deg = _mor_op(x.u, x.v).presentation().degree
    return _mono(x.u.n + g.n, x.v.n + g.n, x.coeff * g.mu**deg)


def cres_cochain_base(g: Loop, h: Loop) -> complex:
    """The monomial-mode cochain on the base object z^0: the value of the
    loop alpha_g^{-1} o g(alpha_h^{-1}) o alpha_gh."""
    a_gh, a_h, a_g = (_mono(0, x.n, 1.0) for x in (g * h, h, g))
    gah_inv = _mono_act(g, _invert(_mor_op, a_h))
    loop = _compose(_mor_op, _compose(_mor_op, a_gh, gah_inv), _invert(_mor_op, a_g))
    assert loop.u == loop.v == Loop.monomial(1.0, 0)
    return complex(loop.coeff)


# --------------------------------------------------------------------------
# Windowed mode (Laurent loops), computed in the translation gauge
# --------------------------------------------------------------------------


class WindowContext:
    """Windowed Toeplitz compressions with chained rectangular windows, each
    built once per context."""

    def __init__(self):
        self._ops = {}

    def toeplitz(self, u: Loop, v: Loop, dom_n: int) -> DenseOp:
        """Compression of v^{-1} u between Hardy windows [0, dom_n) and
        [0, dom_n + w(u) - w(v)), cut to the band |j - k| <= BAND unless the
        cut would drop a coefficient above FFT_COEFF_TOL times the largest."""
        key = (u, v, dom_n)
        if key not in self._ops:
            cod_n = dom_n + winding_number(u) - winding_number(v)
            band = BAND
            coeffs, tail = symbol_coeffs(u, v, band)
            if tail > FFT_COEFF_TOL * max(map(abs, coeffs.values())):
                # a term of the symbol, not roundoff: keep every one the window reaches
                band = max(BAND, min(max(dom_n, cod_n), GRID // 2 - 1))
                coeffs, _ = symbol_coeffs(u, v, band)
            sym = np.array([coeffs[k] for k in range(-band, band + 1)])
            offset = np.subtract.outer(np.arange(cod_n), np.arange(dom_n))
            inside = np.abs(offset) <= band
            mat = np.zeros((cod_n, dom_n), dtype=complex)
            mat[inside] = sym[offset[inside] + band]
            self._ops[key] = DenseOp(list(range(dom_n)), list(range(cod_n)), mat)
        return self._ops[key]


def _win_alpha(ctx: WindowContext, u: Loop, v: Loop, dom_n: int) -> _Mor:
    """The chosen isomorphism u -> v evaluated in its window line.

    Index-zero case: perturbation from the inverse of the compression of
    u^{-1} v completed by its canonical kernel-to-cokernel matcher; otherwise
    the canonical frame element.
    """
    op = ctx.toeplitz(u, v, dom_n)
    if winding_number(u) == winding_number(v):
        sym = ctx.toeplitz(v, u, dom_n)  # compression of u^{-1} v
        pres = sym.presentation()
        full = fredlines.completed(sym, sym.dom_labels, sym.cod_labels, pres.ker, pres.coker)
        inv = DenseOp(op.dom_labels, op.cod_labels, np.linalg.inv(full))
        return _Mor(u, v, dom_n, fredlines.perturbation(inv, op))
    return _Mor(u, v, dom_n, 1.0 + 0.0j)


def _smallest_window(g: Loop, h: Loop, n: int) -> int:
    """The smallest window of the chain 1 -> gh -> g -> 1 of c(g, h) at n."""
    n_min = min(n, n - winding_number(g), n - winding_number(g) - winding_number(h))
    if n_min < 0:
        raise Uncertified(f"window {n} is smaller than a winding number")
    return n_min


def _certify_window(u: Loop, v: Loop, window_n: int, n_min: int) -> None:
    """Raise Unstable unless DRIFT_C (n + 1)^(d - 1) rho^n <= WINDOW_DRIFT_REL at
    the smallest window n = n_min of the chains on u and v, where d counts the
    roots of both loops and rho = max |inner root| / min |outer root| over them.

    A window value differs from its limit by the Borodin-Okounkov remainder
    det(I - Q_n H(b) H(c~) Q_n), which pairs the outer roots of one Wiener-Hopf
    factor with the inner roots of the other: it decays like rho^n, times a
    polynomial in n for repeated roots.  With no inner or no outer root the
    finite sections compose exactly.

    Until the window chain stops multiplying finite sections, a pair whose
    Widom constant E(u, v) / E(v, u) is not 1 (one loop has an inner root,
    the other an outer root) also raises Unstable: the chain drops it.
    """
    (_, _, inner_u, outer_u), (_, _, inner_v, outer_v) = u.factors, v.factors
    if (inner_u.size and outer_v.size) or (outer_u.size and inner_v.size):
        raise Unstable(
            "the window pipeline drops the Widom constant E(u, v) / E(v, u) of a pair "
            "where one loop has a root inside the unit circle and the other one outside it"
        )
    inner = np.abs(np.concatenate([inner_u, inner_v]))
    outer = np.abs(np.concatenate([outer_u, outer_v]))
    if not (inner.size and outer.size):
        return
    rho = inner.max() / outer.min()
    log_rho, d = np.log(rho), inner.size + outer.size

    def excess(n):  # log(bound(n) / WINDOW_DRIFT_REL)
        return np.log(DRIFT_C / WINDOW_DRIFT_REL) + (d - 1) * np.log(n + 1) + n * log_rho

    # the bound meets WINDOW_DRIFT_REL at n = (log(C / tol) + (d - 1) log(n + 1)) / -log(rho);
    # iterating that map from n_min rises to the smallest n that certifies
    n = n_min
    while excess(n) > 0:
        n = max(n + 1, int(np.ceil(n - excess(n) / log_rho)))
    if n > n_min:
        raise Unstable(
            f"window drift bound {DRIFT_C:g}*(n+1)^{d - 1}*{rho:.4g}^n is "
            f"{WINDOW_DRIFT_REL * np.exp(excess(n_min)):.2g} at the smallest window n = {n_min}, "
            f"above {WINDOW_DRIFT_REL:g}; a window of {window_n + n - n_min} or more certifies"
        )


def _cres_window(g: Loop, h: Loop, n: int) -> complex:
    """The window cochain, its chain run under a fresh `_linalg.memo_table`."""
    ctx = WindowContext()
    op = ctx.toeplitz
    one = Loop.monomial(1.0, 0)
    gh = g * h
    _smallest_window(g, h, n)  # Uncertified below a winding number
    with _linalg.memo_table():
        # chain 1 -> gh -> g -> 1 with matching windows
        a_gh = _win_alpha(ctx, one, gh, n)
        # Known defect: on winding-zero pairs every window is N x N and `_compose`
        # multiplies finite sections, whose Widom far-corner term W_N H(a~)H(b) W_N
        # mirrors the true one: the cochain is symmetric and the pairing reads 1.
        g_ah = _win_alpha(ctx, g, gh, n - winding_number(g))
        step1 = _compose(op, a_gh, _invert(op, g_ah))
        # the last step repeats the composition of inverting alpha_g: memo hit
        loop = _compose(op, step1, _invert(op, _win_alpha(ctx, one, g, n)))
    assert loop.u == loop.v == one
    return complex(loop.coeff)


# --------------------------------------------------------------------------
# Public cocycle / pairing / tame symbol
# --------------------------------------------------------------------------


def cres_cocycle(g: Loop, h: Loop, window_n: int = 64, certify: bool = True) -> complex:
    """Group 2-cochain of the restricted linear category on two loops; a
    windowed value is certified by `_certify_window` first, unless `certify`
    is false."""
    if g.is_monomial and h.is_monomial:
        return cres_cochain_base(g, h)
    if certify:
        _certify_window(g, h, window_n, _smallest_window(g, h, window_n))
    try:
        return _cres_window(g, h, window_n)
    except np.linalg.LinAlgError as exc:
        raise Unstable(f"window linear algebra failed: {exc}") from exc


def steinberg_pairing(u: Loop, v: Loop, window_n: int = 64, certify: bool = True) -> complex:
    """(-1)^{w(u) w(v)} c(u,v) / c(v,u): the lines are Z/2-graded by winding,
    so swapping u and v carries the Koszul sign, and {u, u} = (-1)^{w(u)}.
    Both cochains are certified at once, before either window is computed."""
    if certify and not (u.is_monomial and v.is_monomial):
        n_min = min(_smallest_window(u, v, window_n), _smallest_window(v, u, window_n))
        _certify_window(u, v, window_n, n_min)
    ratio = cres_cocycle(u, v, window_n, False) / cres_cocycle(v, u, window_n, False)
    return -ratio if winding_number(u) * winding_number(v) % 2 else ratio


def _widom(a: Loop, b: Loop) -> complex:
    """Widom's constant E(a, b) = prod over outer roots b_j of a and inner
    roots a_i of b of (1 - a_i/b_j)^{-1}."""
    return complex(1.0 / np.prod(1.0 - np.divide.outer(b.factors[2], a.factors[3])))


def tame_symbol_formula(u: Loop, v: Loop) -> complex:
    """The tame symbol {u, v}, equal to the paper's contour integral
    exp((1/2 pi i) int log(u) dv/v) v(1)^{-w(u)}, in closed form from the
    roots: (-1)^{mn} c_u^n c_v^{-m} E(v, u) / E(u, v) with m, n the windings."""
    (cu, m), (cv, n) = u.factors[:2], v.factors[:2]
    return complex((-1) ** (m * n) * cu**n * cv ** (-m) * _widom(v, u) / _widom(u, v))


# The exponent s with steinberg_pairing = tame_symbol^s.  On the pair
# (z, 2) the exact monomial mode gives the pairing 2 and the tame symbol
# 1/2, and neither mode's orientation depends on its inputs or window.
CONVENTION_EXPONENT = -1


def convention_exponent(window_n: int = 64) -> int:
    """CONVENTION_EXPONENT; `window_n` is unused.  The signature stays for
    bench/workloads.py, which calls it."""
    return CONVENTION_EXPONENT
