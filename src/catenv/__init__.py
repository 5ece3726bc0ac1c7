"""catenv: computational toolkit for operator algebras of small categories."""

from .categories import (
    AlignmentUnavailable,
    CategoryPresentation,
    DirectProduct,
    FiniteTable,
    FreeMonoid,
    GraphPath,
    KGraph,
    MalformedPresentation,
    Morphism,
    NkMonoid,
    ValidationReport,
)
from .gpd import FiniteGroupoid, FreeAbelianTarget, pair_groupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection, ZERO

__all__ = [
    "AlignmentUnavailable", "CategoryPresentation", "DirectProduct", "FiniteTable",
    "FreeMonoid", "GraphPath", "KGraph", "MalformedPresentation", "Morphism",
    "NkMonoid", "ValidationReport", "FiniteGroupoid", "FreeAbelianTarget",
    "pair_groupoid", "HullClosure", "InverseHull",
    "PiecewiseBijection", "ZERO",
]
