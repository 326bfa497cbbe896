"""Exterior algebraic shifting of simplicial complexes over a prime field.

The shift of a complex is a canonical "shifted" complex with the same
face counts and reduced homology ranks; this package computes it, checks
it against matrix-free combinatorial rules for unions, gluings, cones and
joins, and exposes kernel-dimension oracles that decide membership
without running the shift itself.

The names below are the library API; everything else stays importable
from its module (``shiftkit.complexes``, ``shiftkit.operators``, ...).
"""

from .complexes import Face, SimplicialComplex
from .engine import (
    ShiftResult,
    ValidationFailure,
    exterior_shift,
    kernel_intersection_dim,
    membership_via_kernels,
    shifted,
)
from .field import DEFAULT_PRIME, BlockGenericSpec, ExplicitSpec, GenericSpec
from .homology import betti_from_shifted

__version__ = "0.1.0"

__all__ = [
    "BlockGenericSpec",
    "DEFAULT_PRIME",
    "ExplicitSpec",
    "Face",
    "GenericSpec",
    "ShiftResult",
    "SimplicialComplex",
    "ValidationFailure",
    "betti_from_shifted",
    "exterior_shift",
    "kernel_intersection_dim",
    "membership_via_kernels",
    "shifted",
]
