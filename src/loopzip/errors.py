"""Exception types shared across the package."""


class LoopZipError(Exception):
    """Base class for all package-specific errors."""


class SpecMismatch(LoopZipError):
    """Operands belong to different field specifications."""


class NotAUnit(LoopZipError):
    """Inversion of an element that is provably not invertible."""


class InsufficientPrecision(LoopZipError):
    """The stored precision window is too small to decide the question."""


class NotIntegral(LoopZipError):
    """A negative-valuation term is present where an integral element is required."""


class NotInvertible(LoopZipError):
    """Matrix inversion or decomposition of a non-invertible matrix."""


class WrongCell(LoopZipError):
    """The matrix does not lie in the diagonal cell requested by the caller."""


class NotInParabolic(LoopZipError):
    """Levi projection applied to a matrix outside both parabolic subgroups."""


class NotMinimalRep(LoopZipError):
    """A permutation outside the set of minimal-length coset representatives."""


class ConventionError(LoopZipError):
    """A twisted coset order failed the partial-order axioms."""


class BudgetExceeded(LoopZipError):
    """An exhaustive enumeration was requested beyond the supported size."""


def check_budget(fits: bool, engine: str, size: str, caps: str) -> None:
    """Refuse a request that does not fit: the message names the engine, the
    requested size and the caps."""
    if not fits:
        raise BudgetExceeded(f"{engine} at {size}; the caps are {caps}")
