"""Exception types shared by the library and the CLI."""


class DimensionMismatchError(ValueError):
    """Operands live on truncated spaces of different sizes."""


class ResourceLimitError(RuntimeError):
    """A computation was refused because it would exceed a size guard."""


class PrecisionLossError(ValueError):
    """Truncation is too coarse for the requested closed-form evaluation."""

    def __init__(self, message: str, required_dim: int | None = None):
        super().__init__(message)
        self.required_dim = required_dim


class ConstraintError(ValueError):
    """A code's words are not orthonormal, or a multiplier is not positive semidefinite;
    ``residual`` is the Gram defect or what the multiplier's factor leaves."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SupportError(ValueError):
    """An operator fed to a restricted map is not supported on its subspace."""
