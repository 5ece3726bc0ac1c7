"""Programmatic constructors for the fixture corpus used in tests and scripts."""

from __future__ import annotations

import numpy as np

from .categories import FiniteTable, FreeMonoid, GraphPath, KGraph, NkMonoid
from .gpd import pair_groupoid


def fix_edge():
    """Path category of the single edge e: w → v."""
    return GraphPath(objects=("v", "w"), edges=[("e", "w", "v")])


def fix_two():
    """Path category with vertices u, v, w and edges e: v → u, f: w → u."""
    return GraphPath(objects=("u", "v", "w"),
                     edges=[("e", "v", "u"), ("f", "w", "u")])


def fix_free2():
    return FreeMonoid(("a", "b"))


def fix_n2():
    return NkMonoid(2)


def fix_kgraph_acyclic():
    """Acyclic 2-graph with one factorization square e·f = fp·ep (all z → x)."""
    return KGraph(
        objects=("x", "y", "yp", "z"),
        edges=[("e", "y", "x", 0), ("ep", "z", "yp", 0),
               ("f", "z", "y", 1), ("fp", "yp", "x", 1)],
        squares=[("e", "f", "fp", "ep")],
        k=2)


def fix_flip_monoid():
    """Single-vertex 2-graph that fails right LCM: align(e1, f1) has two pairs."""
    return KGraph(
        objects=("*",),
        edges=[("e1", "*", "*", 0), ("e2", "*", "*", 0),
               ("f1", "*", "*", 1), ("f2", "*", "*", 1)],
        squares=[("e1", "f1", "f1", "e1"), ("e1", "f2", "f1", "e2"),
                 ("e2", "f1", "f2", "e1"), ("e2", "f2", "f2", "e2")],
        k=2)


def fix_broken_table():
    """FiniteTable with a planted left-cancellation violation: c·x = c·y, x ≠ y."""
    return FiniteTable(
        objects=("u",),
        element_endpoints=[("c", ("u", "u")), ("x", ("u", "u")),
                           ("y", ("u", "u")), ("z", ("u", "u"))],
        table={("c", "x"): "z", ("c", "y"): "z", ("c", "c"): "z",
               ("c", "z"): "z", ("x", "x"): "z", ("x", "y"): "z",
               ("x", "c"): "z", ("x", "z"): "z", ("y", "x"): "z",
               ("y", "y"): "z", ("y", "c"): "z", ("y", "z"): "z",
               ("z", "x"): "z", ("z", "y"): "z", ("z", "c"): "z",
               ("z", "z"): "z"})


def fix_two_mce_category():
    """Finite cancellative category where p𝔠 ∩ q𝔠 needs two principal pieces."""
    return FiniteTable(
        objects=("u", "v", "w"),
        element_endpoints=[("p", ("v", "u")), ("q", ("v", "u")),
                           ("x", ("w", "v")), ("y", ("w", "v")),
                           ("m1", ("w", "u")), ("m2", ("w", "u"))],
        table={("p", "x"): "m1", ("p", "y"): "m2",
               ("q", "x"): "m2", ("q", "y"): "m1"})


def pair_gpd_12():
    return pair_groupoid((1, 2))


def fix_trivial_monoid():
    """The one-object category with only its identity."""
    return GraphPath(objects=("*",), edges=[])


# -- graded-algebra fixtures for the coaction lab ------------------------------


def t2_graded():
    """Upper-triangular 2×2 matrices graded by ℤ/2: diagonal in degree 0, E12 in 1."""
    e11 = np.zeros((2, 2), complex); e11[0, 0] = 1
    e22 = np.zeros((2, 2), complex); e22[1, 1] = 1
    e12 = np.zeros((2, 2), complex); e12[0, 1] = 1
    return {0: [e11, e22], 1: [e12]}, 2


def t3_graded():
    """Upper-triangular 3×3 matrices graded by ℤ/3 via column − row mod 3."""
    comps = {0: [], 1: [], 2: []}
    for i in range(3):
        for j in range(i, 3):
            m = np.zeros((3, 3), complex)
            m[i, j] = 1
            comps[(j - i) % 3].append(m)
    return comps, 3
