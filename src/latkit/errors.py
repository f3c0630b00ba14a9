"""Exception types shared across the toolkit."""


class LatkitError(Exception):
    """Base class for all toolkit errors."""


class DependentInput(LatkitError):
    """Vectors that were required to be linearly independent are not."""


class SingularMatrix(LatkitError):
    """A matrix that must be invertible has determinant zero."""


class NonSquare(LatkitError):
    """A square matrix was required."""


class NotSPD(LatkitError):
    """A symmetric positive definite matrix was required."""


class LengthMismatch(LatkitError):
    """Dimensions or lengths of the arguments do not agree."""


class IndexOutOfRange(LatkitError):
    """A coordinate index falls outside the valid range."""


class DegenerateFixedVector(LatkitError):
    """The fixed vector of an instance is zero."""


class DegenerateResidual(LatkitError):
    """A residual that must be nonzero vanished (dependent input)."""


class ParseError(LatkitError):
    """Malformed input text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class RankError(LatkitError):
    """Parsed input does not have the rank required downstream."""
