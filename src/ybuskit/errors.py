"""Exception types shared across the package."""


class YbusError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(YbusError, ValueError):
    """Malformed data: bad node references, dimension mismatches, bad permutations."""


class SizeLimitError(StructuralError):
    """A dense matrix would exceed the documented size limit."""


class HypothesisError(YbusError, ValueError):
    """A branch violates the nonzero-admittance modeling hypothesis."""


class PreconditionError(YbusError):
    """A theorem precondition (connectivity, shunt presence, ...) does not hold."""


class SingularMatrixError(YbusError):
    """LU factorization hit an exactly zero pivot.

    ``pivot_index`` is the 0-based position of the zero diagonal entry of U.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NotReducibleError(YbusError):
    """The elimination block is singular or too ill-conditioned to certify."""


class NotSolvableError(YbusError):
    """The hybrid solve block is singular or too ill-conditioned to certify."""


class NumericalError(YbusError):
    """A numerical routine failed to converge."""


class FileFormatError(YbusError, ValueError):
    """A network or matrix file does not follow the documented schema."""
