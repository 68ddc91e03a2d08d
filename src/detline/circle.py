"""Loops on the circle: restricted-GL 2-cocycle and the tame symbol.

Monomial loops are handled exactly by the fibered d=1 calculus (Hardy
projections become half-line indicators).  General nonvanishing Laurent
loops run through windowed Toeplitz compressions in the translation
gauge, certified by re-running at a larger window.  Both modes share one
morphism calculus; only the factory that builds a morphism's operator differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fredlines
from ._intervals import Box, BoxUnion
from .errors import BranchJump, Uncertified, Unstable
from .lattice import FiberedLatticeOp, SlotSpace
from .windows import DenseOp, certify_stable

GRID = 4096
NONVANISH_TOL = 1e-6
# Relative agreement required between the Steinberg pairing and the
# tame-symbol integral, by the convention probe and by `detline tame`.
PAIRING_REL_TOL = 1e-6


@dataclass(frozen=True)
class Loop:
    """Invertible loop: monomial mu z^n or a certified Laurent polynomial."""

    mu: complex = 1.0
    n: int = 0
    coeffs: tuple = ()  # ((k, c), ...) for Laurent mode; empty for monomial
    k_min: int = 0

    @classmethod
    def monomial(cls, mu, n=0) -> "Loop":
        if mu == 0:
            raise Uncertified("monomial scalar must be nonzero")
        return cls(complex(mu), int(n))

    @classmethod
    def laurent(cls, coeffs, k_min=0) -> "Loop":
        pairs = tuple(
            (k_min + i, complex(c)) for i, c in enumerate(coeffs) if abs(c) > 0
        )
        loop = cls(1.0, 0, pairs, k_min)
        if loop.min_modulus() <= NONVANISH_TOL:
            raise Uncertified("loop not certified nonvanishing on the grid")
        return loop

    @property
    def is_monomial(self) -> bool:
        return not self.coeffs

    def samples(self, grid=GRID):
        """Values on `grid` equispaced points; the default grid is computed once
        per loop and returned read-only."""
        return self._samples if grid == GRID else self._sample(grid)

    @cached_property
    def _samples(self):
        vals = self._sample(GRID)
        vals.flags.writeable = False
        return vals

    @cached_property
    def _winding(self) -> int:
        return _winding_of(self._samples)

    def _sample(self, grid):
        t = np.arange(grid) / grid
        z = np.exp(2j * np.pi * t)
        if self.is_monomial:
            return self.mu * z**self.n
        vals = np.zeros(grid, dtype=complex)
        for k, c in self.coeffs:
            vals += c * z**k
        return vals

    def min_modulus(self, grid=GRID) -> float:
        return float(np.min(np.abs(self.samples(grid))))

    def at(self, z) -> complex:
        if self.is_monomial:
            return self.mu * z**self.n
        return sum(c * z**k for k, c in self.coeffs)

    def inverse_samples(self, grid=GRID):
        return 1.0 / self.samples(grid)

    def __mul__(self, other: "Loop") -> "Loop":
        if self.is_monomial and other.is_monomial:
            return Loop.monomial(self.mu * other.mu, self.n + other.n)
        a, b = self.samples(), other.samples()
        coeffs = np.fft.fft(a * b) / len(a)
        return _loop_from_fft(coeffs)

    def __str__(self):
        if self.is_monomial:
            return f"({self.mu.real:g},{self.mu.imag:g})*z^{self.n}"
        return ":".join(f"({c.real:g},{c.imag:g})" for _, c in self.coeffs) + f"@{self.coeffs[0][0]}"


def _loop_from_fft(coeffs, tol=1e-12):
    """The Laurent loop of the FFT coefficients above tol (index i > n/2 is i - n)."""
    idx = np.flatnonzero(np.abs(coeffs) > tol)
    ks = np.where(idx <= len(coeffs) // 2, idx, idx - len(coeffs))
    seq = np.zeros(ks.max() - ks.min() + 1, dtype=complex)
    seq[ks - ks.min()] = coeffs[idx]
    return Loop.laurent(seq, int(ks.min()))


def winding_number(u: Loop, grid=GRID) -> int:
    """Total argument increment over one turn, as an integer."""
    if u.is_monomial:
        return u.n
    return u._winding if grid == GRID else _winding_of(u.samples(grid))


def _winding_of(vals) -> int:
    if np.min(np.abs(vals)) <= NONVANISH_TOL:
        raise Uncertified("loop not certified nonvanishing")
    ratios = np.roll(vals, -1) / vals
    total = np.sum(np.angle(ratios))
    return int(round(total / (2 * np.pi)))


def symbol_coeffs(u: Loop, v: Loop, band: int, grid=GRID):
    """Fourier coefficients of v^{-1} u on [-band, band] with tail report."""
    vals = u.samples(grid) * v.inverse_samples(grid)
    c = np.fft.fft(vals) / grid
    out = {k: complex(c[k % grid]) for k in range(-band, band + 1)}
    tail = np.max(np.abs(c[band + 1 : grid - band]), initial=0.0)
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
    return _Mor(x.u, y.v, x.dom_n, x.coeff * y.coeff * tors.scalar * pert.scalar)


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

    def __init__(self, n: int, band: int = 48):
        self.n = n
        self.band = band
        self._ops = {}
        self.tail = 0.0

    def toeplitz(self, u: Loop, v: Loop, dom_n: int) -> DenseOp:
        """Compression of v^{-1} u between Hardy windows [0, dom_n) and
        [0, dom_n + w(u) - w(v))."""
        key = (u, v, dom_n)
        if key not in self._ops:
            coeffs, tail = symbol_coeffs(u, v, self.band)
            self.tail = max(self.tail, tail)
            cod_n = dom_n + winding_number(u) - winding_number(v)
            sym = np.array([coeffs[k] for k in range(-self.band, self.band + 1)])
            offset = np.subtract.outer(np.arange(cod_n), np.arange(dom_n))
            inside = np.abs(offset) <= self.band
            mat = np.zeros((cod_n, dom_n), dtype=complex)
            mat[inside] = sym[offset[inside] + self.band]
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
        pert = fredlines.perturbation(inv, op)
        return _Mor(u, v, dom_n, pert.scalar)
    return _Mor(u, v, dom_n, 1.0 + 0.0j)


def _cres_window(g: Loop, h: Loop, n: int) -> complex:
    ctx = WindowContext(n)
    op = ctx.toeplitz
    one = Loop.monomial(1.0, 0)
    gh = g * h
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
    ctx = WindowContext(n)
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
    val = _cres_window(g, h, window_n)
    if certify:
        val2 = _cres_window(g, h, window_n + 16)
        certify_stable(((), [val]), ((), [val2]))
    return val


def steinberg_pairing(u: Loop, v: Loop, window_n: int = 64, certify: bool = True) -> complex:
    """Antisymmetrised cocycle ratio c(u,v) / c(v,u)."""
    return cres_cocycle(u, v, window_n, certify) / cres_cocycle(v, u, window_n, certify)


def tame_symbol_formula(u: Loop, v: Loop, q_points: int = GRID) -> complex:
    """Contour-integral formula exp((1/2 pi i) int log(u) dv/v) v(1)^{-w(u)}."""
    t = np.linspace(0.0, 1.0, q_points + 1)
    z = np.exp(2j * np.pi * t)
    uv = np.array([u.at(zz) for zz in z])
    vv = np.array([v.at(zz) for zz in z])
    if np.min(np.abs(uv)) <= NONVANISH_TOL or np.min(np.abs(vv)) <= NONVANISH_TOL:
        raise Uncertified("loops must be nonvanishing")
    logu = np.empty(len(t), dtype=complex)
    logu[0] = np.log(uv[0])
    for i in range(1, len(t)):
        step = np.log(uv[i] / uv[i - 1])
        if abs(step.imag) > np.pi / 2:
            raise BranchJump("refine q_points")
        logu[i] = logu[i - 1] + step
    # v'(z) z'(t) / v(z)
    if v.is_monomial:
        dlogv = np.full(len(t), 2j * np.pi * v.n)
    else:
        dv = np.array(
            [sum(k * c * zz ** (k - 1) for k, c in v.coeffs) for zz in z]
        )
        dlogv = dv * (2j * np.pi * z) / vv
    integral = np.trapezoid(logu * dlogv, t)
    w_u = winding_number(u)
    return complex(np.exp(integral / (2j * np.pi)) * v.at(1.0) ** (-w_u))


_CONVENTION = {}


def convention_exponent(window_n: int = 64) -> int:
    """The exponent s with steinberg_pairing = tame_symbol^s, fixed once."""
    if "s" not in _CONVENTION:
        probe_u, probe_v = Loop.monomial(1.0, 1), Loop.monomial(2.0, 0)
        pairing = steinberg_pairing(probe_u, probe_v, window_n)
        tame = tame_symbol_formula(probe_u, probe_v)
        if abs(pairing - tame) <= PAIRING_REL_TOL * abs(tame):
            _CONVENTION["s"] = 1
        elif abs(pairing - 1.0 / tame) <= PAIRING_REL_TOL * abs(tame):
            _CONVENTION["s"] = -1
        else:
            raise Unstable(f"convention probe failed: {pairing} vs {tame}")
    return _CONVENTION["s"]
