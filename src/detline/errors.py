"""Exception types shared across the package."""

import cmath


class DetlineError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(DetlineError):
    """Operator domains/codomains are not compatible."""


class NotExact(DetlineError):
    """A six-term sequence failed its exactness rank conditions."""


class NotFredholm(DetlineError):
    """An asymptotic fiber matrix is singular or non-square."""


class NotFiniteRank(DetlineError):
    """Operator entries are not supported on finite boxes."""


class NotTraceClassDifference(DetlineError):
    """Difference of two operators is not finitely supported."""


class IndexMismatch(DetlineError):
    """Two operators that should share a Fredholm index do not."""


class NotComplementary(DetlineError):
    """Stabilisation data does not live on complementary slots."""


class NotQuasiIso(DetlineError):
    """Induced kernel/cokernel maps are not invertible."""


class IdealViolation(DetlineError):
    """Idempotent arguments do not differ by an ideal element."""


class Uncertified(DetlineError):
    """A loop is not certified nonvanishing, or a window is below a winding."""


class Unstable(DetlineError):
    """Window-stability certification failed."""


class OutOfRange(DetlineError, ValueError):
    """A value of C^* is zero or not finite in double precision: it overflowed
    or underflowed."""

    @classmethod
    def check(cls, z, what: str) -> complex:
        """complex(z), which must lie in C^*; raises if it left the float range."""
        z = complex(z)
        if z == 0 or not cmath.isfinite(z):
            raise cls(f"{what} {z} is outside the float range of C^*")
        return z


class ExponentRange(DetlineError):
    """Closed-form formula asked for outside its exponent range."""


class ParseError(DetlineError):
    """Malformed textual input (CLI monomial/loop syntax)."""
