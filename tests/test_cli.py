"""Command-line interface: parsing, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detline import circle as ci
from detline.cli import main, parse_loop, parse_monomial2, parse_scalar
from detline.errors import ParseError

GOLDEN = Path(__file__).parent / "golden"
# A child `python -m detline.cli` imports detline from this checkout's src/.
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_monomial_roundtrip():
    m = parse_monomial2("(2,-1)*z1^3*z2^-2")
    assert (m.mu, m.a, m.b) == (2 - 1j, 3, -2)
    assert parse_monomial2("(2,0)").a == 0
    assert parse_monomial2("z1").a == 1
    with pytest.raises(ParseError):
        parse_monomial2("(0,0)*z1")
    with pytest.raises(ParseError):
        parse_monomial2("nope")


def test_parse_loop():
    u = parse_loop("(1,0)*z^2")
    assert u.is_monomial and u.n == 2
    v = parse_loop("(2,0):(1,0)@0")
    assert not v.is_monomial
    with pytest.raises(ParseError):
        parse_loop("(1,0):(-1,0)@0")  # vanishes on the circle


def test_cocycle3_command(capsys):
    code, out = run(capsys, "cocycle3", "(2,0)", "(1,0)*z1", "(1,0)*z2")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"]["re"] == pytest.approx(2.0)
    assert payload["agree"] is True

    code, out = run(capsys, "cocycle3", "(1,0)", "(1,0)", "(1,0)")
    assert code == 0 and json.loads(out)["value"]["re"] == pytest.approx(1.0)

    code, out = run(capsys, "cocycle3", "(2,0)*z1^-1", "(1,0)*z1", "(1,0)*z2")
    payload = json.loads(out)
    assert code == 0 and payload["closed_form"] is None and payload["agree"] is None


def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "cocycle3", "junk", "(1,0)", "(1,0)")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tame", "(2,0)*(3,0)*z", "(2,0)"], "unexpected factor '(3,0)'"),
        (["tame", "", "(2,0)"], "empty monomial"),
        (["pair", "(2,0)*(3,0)*z1", "z2", "(1,1)"], "unexpected factor '(3,0)'"),
        (["pair", "", "z2", "(1,1)"], "empty monomial"),
        (["tame", "(1,0):(3,0)@x", "z"], "bad lowest exponent 'x'"),
        (["tame", "(0,0):(0,0)@0", "z"], "the zero loop is not invertible"),
    ],
    ids=[
        "tame-two-scalars",
        "tame-empty",
        "pair-two-scalars",
        "pair-empty",
        "tame-bad-kmin",
        "tame-zero-loop",
    ],
)
def test_malformed_loops_and_monomials_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_scalar_parts_take_signed_exponents(capsys):
    assert parse_scalar("(1e-3,-2.5E-1)") == complex(0.001, -0.25)
    code, out = run(capsys, "pair", "(1e-3,0)*z1", "z2", "(1,1)")
    assert code == 0 and out == run(capsys, "pair", "(0.001,0)*z1", "z2", "(1,1)")[1]
    with pytest.raises(ParseError):
        parse_scalar("(1-2,0)")


def test_pair_command(capsys):
    code, out = run(capsys, "pair", "(1,0)*z1", "(1,0)*z2", "(2,0)")
    payload = json.loads(out)
    assert code == 0
    assert payload["pairing"]["re"] == pytest.approx(2.0)
    assert payload["class_rep"]["re"] == pytest.approx(2.0)

    code, out = run(capsys, "pair", "(2,0)", "(3,0)", "(4,0)")
    assert code == 0 and json.loads(out)["pairing"]["re"] == pytest.approx(1.0)


def test_tame_command(capsys):
    code, out = run(capsys, "tame", "z", "(2,0)", "--numeric", "48")
    payload = json.loads(out)
    assert code == 0
    assert payload["convention_exponent"] in (-1, 1)
    assert payload["integral_formula"]["re"] == pytest.approx(0.5, rel=1e-6)


def test_tame_command_laurent_pair(capsys):
    # kernels of dimension >= 2 in the window pipeline; the pairing must
    # match the tame-symbol integral under the probed orientation
    code, out = run(capsys, "tame", "(2,0):(1,0)@2", "(0.5,0):(0.1,0)@-1", "--numeric", "48")
    assert code == 0
    payload = json.loads(out)
    pipe = complex(payload["determinant_pipeline"]["re"], payload["determinant_pipeline"]["im"])
    integral = complex(payload["integral_formula"]["re"], payload["integral_formula"]["im"])
    want = integral ** payload["convention_exponent"]
    assert abs(pipe - want) <= 1e-6 * abs(want)


def test_tame_command_constant_close_to_one(capsys):
    # 1.000004 and 1 agree to six significant digits, and must not share
    # a windowed operator
    code, out = run(capsys, "tame", "(1.000004,0)", "(0.3,0):(2,0):(0.5,0)@0", "--numeric", "64")
    assert code == 0
    pipe = json.loads(out)["determinant_pipeline"]
    assert complex(pipe["re"], pipe["im"]) == pytest.approx(1 / 1.000004, rel=1e-9)


def test_tame_command_exits_1_on_oracle_mismatch(capsys, monkeypatch):
    formula = ci.tame_symbol_formula
    monkeypatch.setattr(ci, "tame_symbol_formula", lambda u, v: formula(u, v) * (1 + 1e-4))
    code, out = run(capsys, "tame", "z", "(2,0)", "--numeric", "48")
    assert code == 1
    assert set(json.loads(out)) == {"determinant_pipeline", "integral_formula", "convention_exponent"}


@pytest.mark.parametrize("r", ["0.7", "0.8", "0.9", "0.95"])
def test_tame_command_accepts_analytic_loops(capsys, r):
    # {z, 1 - r z} = 1; the contour rule the oracle once used failed these
    code, out = run(capsys, "tame", "z", f"(1,0):(-{r},0)@0", "--numeric", "64")
    assert code == 0
    integral = json.loads(out)["integral_formula"]
    assert abs(complex(integral["re"], integral["im"]) - 1.0) <= 4e-16


_ON_CIRCLE = f"(1,0):({-math.cos(math.pi / 4096)!r},{-math.sin(math.pi / 4096)!r})@0"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["tame", "z", "(2,0):(1,0)@0", "--numeric", "0"], 2, "window size must be positive"),
        (["tame", "z", "(2,0):(1,0)@0", "--numeric", "-4"], 2, "window size must be positive"),
        (["tame", "z^5", "(2,0):(1,0)@0", "--numeric", "3"], 2, "smaller than a winding number"),
        (["tame", "(1e400,0)*z", "z"], 2, "not finite"),
        (["tame", "nan", "z"], 2, "not finite"),
        (["tame", "inf*z", "z"], 2, "not finite"),
        (["cocycle3", "(1e400,0)*z1", "z2", "z1"], 2, "not finite"),
        (["tame", "z", _ON_CIRCLE], 2, "root on the circle"),
        (["tame", "z", "(-0.95,0):(1.9025,0):(-0.95,0)@-1", "--numeric", "64"], 3, "linear algebra failed"),
        # values that leave the float range: NaN, a traceback or an exit 2 before
        (["tame", "(1e200,0)*z^2", "(1e200,0)"], 3, "numerical overflow"),
        (["tame", "(1e200,0)*z^2", "(1e-200,0)"], 3, "numerical overflow"),
        (["tame", "(1e-200,0)*z^2", "(1e-200,0)"], 3, "numerical overflow"),
        (["pair", "z1^2", "z2^2", "(1e200,0)"], 3, "numerical overflow"),
        (["cocycle3", "(1e200,0)", "z1^2", "z2^2"], 3, "numerical overflow"),
    ],
)
def test_bad_input_ends_in_a_documented_exit_code(capsys, argv, code, message):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cocycle3", ["cocycle3", "(2,0)", "(1,0)*z1", "(1,0)*z2"]),
        ("pair", ["pair", "(1,0)*z1", "(1,0)*z2", "(1,1)"]),
        ("verify_bipolar", ["verify", "--suite", "bipolar", "--trials", "20", "--seed", "0"]),
    ],
)
def test_readme_commands_match_golden_bytes(name, argv):
    # stdout of the README examples that do not depend on LAPACK rounding
    res = subprocess.run(
        [sys.executable, "-m", "detline.cli", *argv], capture_output=True, env=CHILD_ENV
    )
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_tame_stdout_does_not_depend_on_the_blas_thread_count():
    argv = ["tame", "(1.3,0.2)*z^2", "(2,0):(0.4,0.1):(0.3,0)@-1", "--numeric", "128"]
    outs = [
        subprocess.run(
            [sys.executable, "-m", "detline.cli", *argv],
            capture_output=True,
            env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


def test_verify_command_and_determinism(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "bipolar", "--trials", "4", "--seed", "3")
    code2, out2 = run(capsys, "verify", "--suite", "bipolar", "--trials", "4", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] and payload["seed"] == 3

    code, out = run(capsys, "verify", "--suite", "torsion", "--trials", "0", "--seed", "1")
    assert code == 0  # vacuous pass


def test_cross_process_determinism():
    cmd = [sys.executable, "-m", "detline.cli", "verify", "--suite", "cocycle", "--trials", "3", "--seed", "12"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV)
    b = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# The CLI grammar on bounded inputs: exponents in [-2, 2], windows 1-24, at
# most 4 coefficients, scalar moduli from 1e-250 to 1e250.
def _scalar_text(exponent, phase):
    z = 10.0**exponent * complex(math.cos(phase), math.sin(phase))
    return f"({z.real!r},{z.imag!r})"


_scalars = st.builds(_scalar_text, st.floats(-250, 250), st.floats(0, 2 * math.pi))
_exponents = st.integers(-2, 2)


@st.composite
def _monomial2(draw):
    parts = [draw(st.one_of(st.none(), _scalars))]
    parts += [f"{v}^{draw(_exponents)}" if draw(st.booleans()) else None for v in ("z1", "z2")]
    parts = [p for p in parts if p] or [draw(_scalars)]
    return "*".join(parts)


@st.composite
def _loop(draw):
    if draw(st.booleans()):
        return f"{draw(_scalars)}*z^{draw(_exponents)}"
    coeffs = draw(st.lists(_scalars, min_size=1, max_size=4))
    return ":".join(coeffs) + f"@{draw(_exponents)}"


_argv = st.one_of(
    st.tuples(st.just("cocycle3"), _monomial2(), _monomial2(), _monomial2()).map(list),
    st.tuples(st.just("pair"), _monomial2(), _monomial2(), _monomial2()).map(list),
    st.tuples(st.just("tame"), _loop(), _loop(), st.integers(1, 24)).map(
        lambda t: [*t[:3], "--numeric", str(t[3])]
    ),
    st.tuples(
        st.sampled_from(["torsion", "perturbation", "category", "cocycle", "bipolar"]),
        st.integers(0, 1),
        st.integers(0, 2**32 - 1),
    ).map(lambda t: ["verify", "--suite", t[0], "--trials", str(t[1]), "--seed", str(t[2])]),
)


def _reject_constant(name):
    raise ValueError(f"{name} in stdout")


# Derandomized: the same 60 inputs on every run, about 5 s.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(_argv)
def test_cli_grammar_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
