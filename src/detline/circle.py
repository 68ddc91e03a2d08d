"""Loops on the circle: restricted-GL 2-cocycle and the tame symbol.

Monomial loops are handled exactly by the fibered d=1 calculus (Hardy
projections become half-line indicators).  General nonvanishing Laurent
loops run through windowed Toeplitz compressions in the translation
gauge, certified by re-running at a larger window.  Both modes share one
morphism calculus; only the factory that builds a morphism's operator differs.

A Laurent loop is its roots, c z^w prod(1 - a/z) prod(1 - z/b) with |a| < 1 < |b|:
they certify nonvanishing and give the winding w and the tame symbol in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fredlines
from ._intervals import Box, BoxUnion
from .errors import OutOfRange, Uncertified, Unstable
from .lattice import FiberedLatticeOp, SlotSpace
from .windows import DenseOp, certify_stable

GRID = 4096
# A root this close to the circle counts as on it: such a loop would need
# windows of order 1e6 for its window drift to fall below WINDOW_DRIFT_REL,
# so the pipeline could never certify it anyway.
NONVANISH_TOL = 1e-6
# Relative agreement required between the Steinberg pairing and the
# tame symbol by `detline tame`.
PAIRING_REL_TOL = 1e-6
# FFT coefficients of a product of loops at or below this are roundoff of
# the GRID-point transform, not terms of the product.
FFT_COEFF_TOL = 1e-12
# Half-width of the Toeplitz band kept from a window symbol v^{-1} u.  The
# largest coefficient it drops is `WindowContext.tail`: at most 2.2e-12 over
# seed 1-3 rounds of the bench `window` workload, 8.9e-16 on (z, 2 + z).
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
            (k_min + i, complex(c)) for i, c in enumerate(coeffs) if abs(c) > 0
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
        a, b = self.samples, other.samples
        prod = _loop_from_fft(np.fft.fft(a * b) / len(a))
        # a product of certified loops is nonvanishing and its roots are theirs
        (ca, wa, ia, oa), (cb, wb, ib, ob) = self.factors, other.factors
        factors = ca * cb, wa + wb, np.concatenate([ia, ib]), np.concatenate([oa, ob])
        object.__setattr__(prod, "factors", factors)
        return prod


def _loop_from_fft(coeffs):
    """The Laurent loop of the FFT coefficients above FFT_COEFF_TOL (index
    i > n/2 is i - n), built without the root certificate: its factors are
    computed only if read."""
    idx = np.flatnonzero(np.abs(coeffs) > FFT_COEFF_TOL)
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


def _compose(op, x: _Mor, y: _Mor) -> _Mor:
    """y o x, scaled by the torsion of the composition and its perturbation."""
    assert x.v == y.u
    T, S = op(x.u, x.v, x.dom_n), op(y.u, y.v, y.dom_n)
    comp = S.compose(T)
    tors = fredlines.torsion(T, S, comp)
    pert = fredlines.perturbation(comp, op(x.u, y.v, x.dom_n))
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


def cres_cochain_base(g: Loop, h: Loop, base: int, twist=None) -> complex:
    """The monomial-mode cochain from an alternative base object z^base.

    `twist` optionally rescales the chosen isomorphisms, g -> C^*.
    """
    tw = twist or (lambda _g: 1.0)
    gh = g * h
    a_gh = _mono(base, base + gh.n, tw(gh))
    a_h = _mono(base, base + h.n, tw(h))
    a_g = _mono(base, base + g.n, tw(g))
    gah_inv = _mono_act(g, _invert(_mor_op, a_h))
    loop = _compose(_mor_op, _compose(_mor_op, a_gh, gah_inv), _invert(_mor_op, a_g))
    assert loop.u == loop.v == Loop.monomial(1.0, base)
    return complex(loop.coeff)


def base_change_cochain(g: Loop, base: int, twist=None) -> complex:
    """One-cochain comparing the base-object choices z^0 and z^base.

    Computed as the value of alpha_g^{-1} o g(phi^{-1}) o beta_g o phi,
    an automorphism of the unit object; `twist` rescales beta_g.
    """
    tw = twist or (lambda _g: 1.0)
    phi = _mono(0, base, 1.0 + 0.0j)
    beta_g = _mono(base, base + g.n, tw(g))
    g_phi_inv = _mono_act(g, _invert(_mor_op, phi))
    a_g_inv = _invert(_mor_op, _mono(0, g.n, 1.0 + 0.0j))
    loop = phi
    for x in (beta_g, g_phi_inv, a_g_inv):
        loop = _compose(_mor_op, loop, x)
    assert loop.u == loop.v == Loop.monomial(1.0, 0)
    return complex(loop.coeff)


# --------------------------------------------------------------------------
# Windowed mode (Laurent loops), computed in the translation gauge
# --------------------------------------------------------------------------


class WindowContext:
    """Windowed Toeplitz compressions with chained rectangular windows."""

    def __init__(self):
        self._ops = {}
        self.tail = 0.0

    def toeplitz(self, u: Loop, v: Loop, dom_n: int) -> DenseOp:
        """Compression of v^{-1} u between Hardy windows [0, dom_n) and
        [0, dom_n + w(u) - w(v)), cut to the band |j - k| <= BAND."""
        key = (u, v, dom_n)
        if key not in self._ops:
            coeffs, tail = symbol_coeffs(u, v, BAND)
            self.tail = max(self.tail, tail)
            cod_n = dom_n + winding_number(u) - winding_number(v)
            sym = np.array([coeffs[k] for k in range(-BAND, BAND + 1)])
            offset = np.subtract.outer(np.arange(cod_n), np.arange(dom_n))
            inside = np.abs(offset) <= BAND
            mat = np.zeros((cod_n, dom_n), dtype=complex)
            mat[inside] = sym[offset[inside] + BAND]
            self._ops[key] = DenseOp(list(range(dom_n)), list(range(cod_n)), mat)
        return self._ops[key]

    def completed(self, op: DenseOp):
        """op plus the canonical kernel-to-cokernel matcher, as a matrix.

        The matcher sends the j-th kernel frame vector to the j-th cokernel
        representative through the dual functionals of the kernel frame.
        """
        pres = op.presentation()
        return fredlines.completed(op, op.dom_labels, op.cod_labels, pres.ker, pres.coker)


def _win_alpha(ctx: WindowContext, u: Loop, v: Loop, dom_n: int) -> _Mor:
    """The chosen isomorphism u -> v evaluated in its window line.

    Index-zero case: perturbation from the inverse of the completed
    compression of v^{-1} u; otherwise the canonical frame element.
    """
    op = ctx.toeplitz(u, v, dom_n)
    if winding_number(u) == winding_number(v):
        sym = ctx.toeplitz(v, u, dom_n)  # compression of u^{-1} v
        inv = DenseOp(op.dom_labels, op.cod_labels, np.linalg.inv(ctx.completed(sym)))
        return _Mor(u, v, dom_n, fredlines.perturbation(inv, op))
    return _Mor(u, v, dom_n, 1.0 + 0.0j)


def _cres_window(g: Loop, h: Loop, n: int) -> complex:
    ctx = WindowContext()
    op = ctx.toeplitz
    one = Loop.monomial(1.0, 0)
    gh = g * h
    if min(n, n - winding_number(g), n - winding_number(gh)) < 0:
        raise Uncertified(f"window {n} is smaller than a winding number")
    # chain 1 -> gh -> g -> 1 with matching windows
    a_gh = _win_alpha(ctx, one, gh, n)
    # Known defect: on winding-zero pairs every window is N x N and `_compose`
    # multiplies finite sections, whose Widom far-corner term W_N H(a~)H(b) W_N
    # mirrors the true one: the cochain is symmetric and the pairing reads 1.
    g_ah = _win_alpha(ctx, g, gh, n - winding_number(g))
    step1 = _compose(op, a_gh, _invert(op, g_ah))
    loop = _compose(op, step1, _invert(op, _win_alpha(ctx, one, g, n)))
    assert loop.u == loop.v == one
    return complex(loop.coeff)


def m_uni(g: Loop, h: Loop, n: int) -> complex:
    """Fredholm-determinant cocycle for index-zero loops on a window; its square
    sections carry `_cres_window`'s far-corner defect unless g, h are analytic."""
    if winding_number(g) or winding_number(h):
        raise Uncertified("the determinant formula needs index-zero loops")
    ctx = WindowContext()
    one = Loop.monomial(1.0, 0)
    Dg = ctx.completed(ctx.toeplitz(g, one, n))
    Dh = ctx.completed(ctx.toeplitz(h, one, n))
    Dgh = ctx.completed(ctx.toeplitz(g * h, one, n))
    val = np.linalg.det(Dgh @ np.linalg.inv(Dh) @ np.linalg.inv(Dg))
    return complex(val)


# --------------------------------------------------------------------------
# Public cocycle / pairing / tame symbol
# --------------------------------------------------------------------------


def cres_cocycle(g: Loop, h: Loop, window_n: int = 64, certify: bool = True) -> complex:
    """Group 2-cochain of the restricted linear category on two loops."""
    if g.is_monomial and h.is_monomial:
        return cres_cochain_base(g, h, 0)
    try:
        val = _cres_window(g, h, window_n)
        if certify:
            certify_stable(val, _cres_window(g, h, window_n + 16))
    except np.linalg.LinAlgError as exc:
        raise Unstable(f"window linear algebra failed: {exc}") from exc
    return val


def steinberg_pairing(u: Loop, v: Loop, window_n: int = 64, certify: bool = True) -> complex:
    """(-1)^{w(u) w(v)} c(u,v) / c(v,u): the lines are Z/2-graded by winding,
    so swapping u and v carries the Koszul sign, and {u, u} = (-1)^{w(u)}."""
    ratio = cres_cocycle(u, v, window_n, certify) / cres_cocycle(v, u, window_n, certify)
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
    """The exponent s with steinberg_pairing = tame_symbol^s; `window_n` is unused."""
    return CONVENTION_EXPONENT
