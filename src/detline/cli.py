"""Command-line front end: batch evaluation and JSON verification reports.

Exit codes: 0 success, 1 verification failure/mismatch, 2 invalid input,
3 numerical failure (window certification failed, or a value overflowed or
underflowed the float range).  The CLI runs OpenBLAS on one thread, so its
output does not depend on the machine's core count.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import circle as ci
from . import cocycle3 as c3
from .errors import DetlineError, OutOfRange, ParseError, Uncertified, Unstable
from .torus import Monomial2
from .verify import SUITES, run_suite

_SCALAR = r"\(\s*([\d.eE+-]+)\s*,\s*([\d.eE+-]+)\s*\)"

# Longest coefficient list a loop may have.  Certifying a loop runs np.roots
# over its whole span, at a cost cubic in the span (0.04 s at 128, 0.22 s at
# 256, 1.3 s at 512).  A product of two capped loops also spans less than
# circle.GRID // 2, past which its GRID-point FFT coefficients alias.
MAX_LOOP_COEFFS = 256


def _num(z: complex) -> dict:
    z = OutOfRange.check(z, "value")
    return {"re": float(f"{z.real:.17g}"), "im": float(f"{z.imag:.17g}")}


def _dump(payload) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")


def parse_scalar(text: str) -> complex:
    m = re.fullmatch(_SCALAR, text.strip())
    try:
        z = complex(float(m.group(1)), float(m.group(2))) if m else complex(float(text))
    except ValueError as exc:
        raise ParseError(f"bad scalar {text!r}") from exc
    if not cmath.isfinite(z):
        raise ParseError(f"scalar {text!r} is not finite")
    return z


def _parse_factors(text: str, names) -> tuple:
    """Parse a product "(re,im)*x^k*..." into its scalar and the exponent of
    each variable in `names`; the scalar and any variable may be absent."""
    parts = [p.strip() for p in text.strip().split("*") if p.strip()]
    if not parts:
        raise ParseError("empty monomial")
    mu, powers, seen_scalar = 1.0 + 0.0j, dict.fromkeys(names, 0), False
    for p in parts:
        m = re.fullmatch(r"(\w+)(?:\^(-?\d+))?", p)
        if m and m.group(1) in powers:
            powers[m.group(1)] += int(m.group(2) or 1)
            continue
        if seen_scalar:
            raise ParseError(f"unexpected factor {p!r} in {text!r}")
        mu = parse_scalar(p)
        seen_scalar = True
    if mu == 0:
        raise ParseError("monomial scalar must be nonzero")
    return (mu, *powers.values())


def parse_monomial2(text: str) -> Monomial2:
    """Parse "(re,im)*z1^a*z2^b"; the scalar and either factor may be absent."""
    return Monomial2(*_parse_factors(text, ("z1", "z2")))


def format_monomial2(m: Monomial2) -> str:
    return f"({m.mu.real:.17g},{m.mu.imag:.17g})*z1^{m.a}*z2^{m.b}"


def parse_loop(text: str) -> ci.Loop:
    """Parse "(re,im)*z^n" or a coefficient list "c0:c1:...@kmin"."""
    text = text.strip()
    if "@" in text or ":" in text:
        body, _, kmin = text.partition("@")
        try:
            k_min = int(kmin) if kmin else 0
        except ValueError as exc:
            raise ParseError(f"bad lowest exponent {kmin!r}") from exc
        coeffs = [parse_scalar(c) for c in body.split(":") if c.strip()]
        if not coeffs:
            raise ParseError("empty coefficient list")
        if len(coeffs) > MAX_LOOP_COEFFS:
            raise ParseError(f"{len(coeffs)} coefficients, more than {MAX_LOOP_COEFFS}")
        try:
            return ci.Loop.laurent(coeffs, k_min)
        except Uncertified as exc:
            raise ParseError(str(exc)) from exc
    return ci.Loop.monomial(*_parse_factors(text, ("z",)))


def cmd_cocycle3(args) -> int:
    g = parse_monomial2(args.g)
    h = parse_monomial2(args.h)
    k = parse_monomial2(args.k)
    value = c3.cocycle_c(g, h, k)
    payload = {
        "g": format_monomial2(g),
        "h": format_monomial2(h),
        "k": format_monomial2(k),
        "value": _num(value),
    }
    if min(g.a, g.b, h.a, h.b, k.a, k.b) >= 0:
        cf = c3.closed_form(g, h, k)
        agree = abs(value - cf) <= c3.AGREE_TOL * max(abs(cf), 1e-300)
        payload["closed_form"] = _num(cf)
        payload["agree"] = bool(agree)
    else:
        payload["closed_form"] = None
        payload["agree"] = None
    _dump(payload)
    return 0 if payload["agree"] is not False else 1


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.trials, args.seed)
    _dump(report)
    return 0 if report["passed"] else 1


def cmd_pair(args) -> int:
    f = parse_monomial2(args.f)
    g = parse_monomial2(args.g)
    h = parse_monomial2(args.h)
    cyc = c3.HomologyCycle3.alternating(f, g, h)
    val = c3.pair_homology(cyc)
    _dump(
        {
            "pairing": _num(val),
            "class_rep": _num(c3.class_representative(val)),
        }
    )
    return 0


def cmd_tame(args) -> int:
    u = parse_loop(args.u)
    v = parse_loop(args.v)
    if args.numeric < 1:
        raise ParseError(f"window size must be positive, got {args.numeric}")
    s = ci.CONVENTION_EXPONENT
    pairing = ci.steinberg_pairing(u, v, window_n=args.numeric)
    integral = ci.tame_symbol_formula(u, v)
    payload = {
        "determinant_pipeline": _num(pairing),
        "integral_formula": _num(integral),
        "convention_exponent": s,
    }
    want = OutOfRange.check(integral**s, "tame symbol power")
    _dump(payload)
    return 0 if abs(pairing - want) <= ci.PAIRING_REL_TOL * abs(want) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="detline",
        description="Determinant-line calculus: cocycles, pairings, tame symbols.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cocycle3", help="evaluate the 3-cochain on a monomial triple")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("k")
    p.set_defaults(fn=cmd_cocycle3)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pair", help="pair the cochain with the alternating 3-cycle")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("tame", help="compare the pairing with the tame symbol")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--numeric", type=int, default=64, metavar="N")
    p.set_defaults(fn=cmd_tame)
    return ap


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread: with more, its kernels sum
    in another order and the window pipeline's last digits move (0.8 reads
    0.7999999999999997 on one thread and 0.8000000000000073 on two)."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _one_blas_thread()
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Unstable as exc:
        print(f"window instability: {exc}", file=sys.stderr)
        return 3
    except (OutOfRange, ArithmeticError) as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return 3
    except DetlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
