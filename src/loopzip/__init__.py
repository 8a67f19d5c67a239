"""Exact loop-group double-coset arithmetic over small finite fields."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConventionError,
    InsufficientPrecision,
    LoopZipError,
    NotAUnit,
    NotInParabolic,
    NotIntegral,
    NotInvertible,
    NotMinimalRep,
    SpecMismatch,
    WrongCell,
)
from .gf import FieldSpec
from .grpdata import Cocharacter
from .matring import Mat
from .series import LaurentElt
from .witt import WittCtx, WittFraction

__all__ = [
    "BudgetExceeded",
    "Cocharacter",
    "ConventionError",
    "FieldSpec",
    "InsufficientPrecision",
    "LaurentElt",
    "LoopZipError",
    "Mat",
    "NotAUnit",
    "NotInParabolic",
    "NotIntegral",
    "NotInvertible",
    "NotMinimalRep",
    "SpecMismatch",
    "WittCtx",
    "WittFraction",
    "WrongCell",
]
