"""Presentation classes: composition, division, alignment, enumeration.

The alignment and division oracles are cross-checked against brute-force set
computations on enumerated balls.
"""

import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenv.categories import (DirectProduct, FiniteTable, FreeMonoid, GraphPath,
                               GroupoidSub, KGraph, MalformedPresentation, Morphism,
                               NkMonoid)
from catenv.fixtures import (fix_broken_table, fix_edge, fix_flip_monoid,
                             fix_free2, fix_kgraph_acyclic, fix_n2,
                             fix_two_mce_category)
from catenv.gpd import pair_groupoid
from catenv.parsing import load_path
from oracles import kgraph_ball_by_degrees

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fix_pair_sub():
    """The whole pair groupoid on {1, 2} as a groupoid subcategory."""
    g = pair_groupoid((1, 2))
    return GroupoidSub(g, g.elements)


def ideal_members(pres, gen, ball):
    """Brute-force c𝔠 inside a ball."""
    return {m for m in ball if pres.divide_left(gen, m) is not None}


def by_word(pres, word):
    for m in pres.ball(5):
        if m.word == word:
            return m
    raise KeyError(word)


# -- validation ------------------------------------------------------------


def test_edge_valid_and_cancellative_exhaustively():
    p = fix_edge()
    rep = p.validate()
    assert rep.ok and rep.left_cancellative and rep.right_cancellative
    # independent oracle: check cancellation over all composable pairs directly
    ball = p.ball(None)
    assert len(ball) == 3
    for c in ball:
        seen = {}
        for x in ball:
            m = p.compose(c, x)
            if m is not None:
                assert seen.setdefault(m, x) == x
    for c, d, e in itertools.product(ball, repeat=3):
        if c.dom == d.tgt and d.dom == e.tgt:
            assert p.compose(p.compose(c, d), e) == p.compose(c, p.compose(d, e))


def test_planted_left_cancellation_violation_reported():
    rep = fix_broken_table().validate()
    assert rep.left_cancellative is False
    assert any("left cancellation" in f for f in rep.failures)


def test_free_monoid_certified_structurally():
    rep = fix_free2().validate()
    assert rep.ok and rep.left_cancellative and rep.right_cancellative \
        and rep.mode == "structural"


def test_zero_object_category_rejected():
    with pytest.raises(MalformedPresentation):
        GraphPath(objects=(), edges=[])


def test_dangling_edge_rejected():
    with pytest.raises(MalformedPresentation):
        GraphPath(objects=("v",), edges=[("e", "v", "q")])


def test_graph_path_duplicate_generator_rejected():
    with pytest.raises(MalformedPresentation, match="'e' listed twice"):
        GraphPath(objects=("v", "w"), edges=[("e", "v", "w"), ("e", "w", "v")])


def test_free_monoid_duplicate_generator_rejected():
    with pytest.raises(MalformedPresentation, match="'a' listed twice"):
        FreeMonoid(("a", "b", "a"))


def test_kgraph_duplicate_generator_rejected():
    with pytest.raises(MalformedPresentation, match="'e' listed twice"):
        KGraph(objects=("*",), edges=[("e", "*", "*", 0), ("e", "*", "*", 1)],
               squares=[], k=2)


def test_finite_table_duplicate_generator_rejected():
    with pytest.raises(MalformedPresentation, match="'c' listed twice"):
        FiniteTable(objects=("u", "v"),
                    element_endpoints=[("c", ("u", "v")), ("c", ("v", "u"))], table={})


# -- composition and division -----------------------------------------------


def test_edge_composition_table():
    p = fix_edge()
    e = by_word(p, ("e",))
    v, w = p.identity("v"), p.identity("w")
    assert p.compose(e, w) == e
    assert p.compose(v, e) == e
    assert p.compose(e, v) is None
    assert p.divide_left(e, e) == w
    assert p.divide_left(e, v) is None


def test_free2_division():
    p = fix_free2()
    assert p.divide_left(p.word("a"), p.word("ab")) == p.word("b")
    assert p.divide_left(p.word("a"), p.word("ba")) is None
    assert p.divide_left(p.word("a"), p.word("a")) == p.identity("*")


def test_divide_left_inverts_composition():
    for p, n in ((fix_free2(), 3), (fix_n2(), 3), (fix_kgraph_acyclic(), None)):
        ball = p.ball(n)
        for c in ball:
            for x in ball:
                m = p.compose(c, x)
                if m is not None and (n is None or len(m.word) <= n + 3):
                    assert p.divide_left(c, m) == x


def test_nk_memo_shares_morphisms_and_vector_still_validates():
    p = fix_n2()
    a, b = p.vector((2, 1)), p.vector((1, 3))
    ab = p.compose(a, b)
    assert ab is p.compose(b, a) is p.vector((3, 4))
    assert p.divide_left(a, ab) is b and p.divide_left(b, ab) is a
    assert p.divide_left(ab, a) is None
    assert p.identity() is p.vector((0, 0)) is p.divide_left(a, a)
    (x, y), = p.align_raw(a, b)
    assert x is p.vector((0, 2)) and y is p.vector((1, 0))
    ball = p.ball(6)
    assert all(p.vector(m.degree) is m for m in ball)  # the memo is full up to 6
    for bad in ((-1, 0), (0, -2), (1,), (1, 2, 3), ()):
        with pytest.raises(MalformedPresentation):
            p.vector(bad)


@pytest.mark.parametrize("make,radius", [(fix_edge, None), (fix_free2, 3), (fix_n2, 3),
                                         (fix_two_mce_category, None), (fix_pair_sub, None)])
def test_presentations_return_shared_morphisms(make, radius):
    p = make()
    ball = p.ball(radius)
    shared = {m: m for m in ball}
    assert len(shared) == len(ball)
    for c in ball:
        assert p.identity(c.dom) is p.identity(c.dom)
        for d in ball:
            cd = p.compose(c, d)
            if cd is None:
                continue
            assert cd is p.compose(c, d) and shared.get(cd, cd) is cd
            assert p.divide_left(c, cd) is d


# -- alignment ---------------------------------------------------------------


def test_alignment_examples():
    p = fix_free2()
    assert p.align(p.word("a"), p.word("b")) == ()
    n2 = fix_n2()
    pairs = n2.align(n2.vector((1, 0)), n2.vector((0, 1)))
    assert pairs == ((n2.vector((0, 1)), n2.vector((1, 0))),)
    edge = fix_edge()
    v = edge.identity("v")
    e = by_word(edge, ("e",))
    assert edge.align(v, e) == ((e, edge.identity("w")),)


def test_alignment_complete_and_minimal_on_ball():
    cases = [(fix_edge(), None), (fix_free2(), 4), (fix_n2(), 3),
             (fix_kgraph_acyclic(), None), (fix_two_mce_category(), None)]
    for p, n in cases:
        ball = p.ball(n)
        small = [m for m in ball if len(m.word) <= 2]
        for c in small:
            for d in small:
                pairs = p.align(c, d)
                covered = set()
                for x, y in pairs:
                    assert p.compose(c, x) == p.compose(d, y)
                    covered |= ideal_members(p, p.compose(c, x), ball)
                intersection = ideal_members(p, c, ball) & ideal_members(p, d, ball)
                assert covered == intersection
                # minimality: no alignment ideal inside another
                for (x1, _), (x2, _) in itertools.combinations(pairs, 2):
                    m1, m2 = p.compose(c, x1), p.compose(c, x2)
                    assert p.divide_left(m1, m2) is None
                    assert p.divide_left(m2, m1) is None


def test_two_mce_category_has_two_element_alignment():
    p = fix_two_mce_category()
    rep = p.validate()
    assert rep.left_cancellative and rep.right_cancellative
    ms = {m.word: m for m in p.ball(None)}
    pairs = p.align(ms[("p",)], ms[("q",)])
    assert len(pairs) == 2


def test_flip_monoid_alignment_two_pairs():
    p = fix_flip_monoid()
    e1 = p.path(["e1"])
    f1 = p.path(["f1"])
    assert len(p.align(e1, f1)) == 2


# -- ball enumeration ---------------------------------------------------------


def test_ball_contents():
    p = fix_edge()
    assert [m.label() for m in p.ball(5)] == ["id:v", "id:w", "e"]
    f2 = fix_free2()
    assert [m.label() for m in f2.ball(2)] == \
        ["id:*", "a", "b", "a*a", "a*b", "b*a", "b*b"]
    n2 = fix_n2()
    assert [tuple(m.degree) for m in n2.ball(1)] == [(0, 0), (1, 0), (0, 1)]


def test_ball_deterministic_and_graded():
    p = fix_free2()
    b1 = p.ball(3)
    b2 = p.ball(3)
    assert b1 == b2
    lengths = [len(m.word) for m in b1]
    assert lengths == sorted(lengths)


# -- k-graphs ------------------------------------------------------------------


def test_kgraph_normal_form_and_division():
    p = fix_kgraph_acyclic()
    m = p.compose(p.path(["fp"]), p.path(["ep"]))
    assert m.word == ("e", "f")  # color-ascending normal form
    assert m == p.compose(p.path(["e"]), p.path(["f"]))
    assert p.divide_left(p.path(["fp"]), m) == p.path(["ep"])
    assert p.divide_left(p.path(["e"]), m) == p.path(["f"])
    assert p.divide_left(p.path(["f"]), m) is None


def test_kgraph_square_bijection_enforced():
    with pytest.raises(MalformedPresentation):
        KGraph(objects=("*",),
               edges=[("e1", "*", "*", 0), ("f1", "*", "*", 1)],
               squares=[], k=2)  # missing the (e1, f1) square


def three_graph(sigma, tau):
    edges = [("a", "*", "*", 0), ("b", "*", "*", 1)] + \
            [(f"t{i}", "*", "*", 2) for i in (1, 2, 3)]
    squares = [("a", "b", "b", "a")]
    for i in (1, 2, 3):
        squares.append(("a", f"t{i}", f"t{sigma[i]}", "a"))
        squares.append(("b", f"t{i}", f"t{tau[i]}", "b"))
    return KGraph(("*",), edges, squares, k=3)


def test_rank_three_confluence_check():
    ident = {1: 1, 2: 2, 3: 3}
    good = three_graph(ident, ident)
    rep = good.validate()
    assert rep.ok and rep.mode == "bounded(8)"
    m = good.compose(good.path(["t2"]), good.compose(good.path(["b"]),
                                                     good.path(["a"])))
    assert m.word == ("a", "b", "t2")
    # non-commuting color permutations break the triple-color associativity
    bad = three_graph({1: 2, 2: 1, 3: 3}, {1: 3, 2: 2, 3: 1})
    rep_bad = bad.validate()
    assert not rep_bad.ok and any("non-confluent" in f for f in rep_bad.failures)


def test_kgraph_unique_factorization_on_ball():
    p = fix_flip_monoid()
    for m in p.ball(3):
        for split in itertools.product(range(m.degree[0] + 1),
                                       range(m.degree[1] + 1)):
            want = split
            factors = [x for x in p.ball(3)
                       if tuple(x.degree) == want and
                       p.divide_left(x, m) is not None]
            # unique left factor of each degree below deg(m)
            assert len(factors) == 1


def kgraph_grid(rows, cols, cyclic=False):
    """The 2-graph of a rows × cols grid: color-0 edges step the row, color-1
    edges the column, and each unit square commutes. Acyclic, or on the torus
    ℤ/rows × ℤ/cols (infinite) when `cyclic`."""
    def node(i, j):
        return f"{i % rows}.{j % cols}"

    steps = range(rows if cyclic else rows - 1), range(cols if cyclic else cols - 1)
    edges = [(f"h{i}.{j}", node(i, j), node(i + 1, j), 0) for i in steps[0] for j in range(cols)]
    edges += [(f"v{i}.{j}", node(i, j), node(i, j + 1), 1) for i in range(rows) for j in steps[1]]
    squares = [(f"h{i}.{(j + 1) % cols}", f"v{i}.{j}", f"v{(i + 1) % rows}.{j}", f"h{i}.{j}")
               for i in steps[0] for j in steps[1]]
    return KGraph([node(i, j) for i in range(rows) for j in range(cols)], edges, squares)


@pytest.mark.parametrize("make, finite", [
    (fix_kgraph_acyclic, True), (fix_flip_monoid, False),
    (lambda: load_path(os.path.join(FIXTURES, "kgraph-acyclic.cat"))[1], True),
    (lambda: kgraph_grid(2, 3), True), (lambda: kgraph_grid(2, 3, cyclic=True), False),
    (lambda: three_graph({1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3}), False),
], ids=["acyclic", "flip", "acyclic-file", "grid", "torus", "three-graph"])
def test_kgraph_ball_matches_the_enumeration_of_every_degree(make, finite):
    """`ball` stops at the first total with no path; the enumeration walks
    every total up to the size bound. They agree at every radius and, on a
    finite k-graph, on the whole category."""
    g = make()
    assert g.is_finite == finite
    for radius in [0, 1, 2, 3] + ([None] if finite else []):
        assert g.ball(radius) == kgraph_ball_by_degrees(g, radius)


# -- products -------------------------------------------------------------------


def test_direct_product_roundtrip():
    prod = DirectProduct(NkMonoid(1), FreeMonoid(("a", "b")))
    n1, f2 = prod.left, prod.right
    m = prod.pair(n1.vector((2,)), f2.word("ab"))
    c1, c2 = prod.split(m)
    assert c1 == n1.vector((2,)) and c2 == f2.word("ab")
    m2 = prod.compose(m, prod.pair(n1.vector((1,)), f2.word("b")))
    assert prod.split(m2)[1] == f2.word("abb")
    assert prod.divide_left(m, m2) == prod.pair(n1.vector((1,)), f2.word("b"))


def test_direct_product_alignment_crosses_factors():
    prod = DirectProduct(NkMonoid(1), FreeMonoid(("a", "b")))
    a = prod.pair(prod.left.vector((1,)), prod.right.identity("*"))
    b = prod.pair(prod.left.vector((0,)), prod.right.word("a"))
    pairs = prod.align(a, b)
    assert len(pairs) == 1
    x, y = pairs[0]
    assert prod.compose(a, x) == prod.compose(b, y)
    disjoint = prod.align(prod.pair(prod.left.vector((0,)), prod.right.word("a")),
                          prod.pair(prod.left.vector((0,)), prod.right.word("b")))
    assert disjoint == ()


# -- property: composition associativity where defined ----------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=5),
       st.lists(st.sampled_from(["a", "b"]), max_size=5),
       st.lists(st.sampled_from(["a", "b"]), max_size=5))
def test_free_monoid_associativity(w1, w2, w3):
    p = fix_free2()
    m1, m2, m3 = (p.word("".join(w)) for w in (w1, w2, w3))
    assert p.compose(p.compose(m1, m2), m3) == p.compose(m1, p.compose(m2, m3))
