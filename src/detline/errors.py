"""Exception types shared across the package."""


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


class ExponentRange(DetlineError):
    """Closed-form formula asked for outside its exponent range."""


class ParseError(DetlineError):
    """Malformed textual input (CLI monomial/loop syntax)."""
