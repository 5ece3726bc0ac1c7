"""Inverse hull arithmetic, closure generation, fixed points, separation.

The piecewise calculus is cross-checked against a pointwise partial-function
oracle evaluated on enumerated balls.
"""

import gc
import itertools
import os
import random
import sys
import weakref
from collections import Counter
from functools import partial

import pytest

from catenv import cli
from catenv.categories import (CategoryPresentation, DirectProduct, FreeMonoid, GraphPath,
                               GroupoidSub, NkMonoid)
from catenv.fixtures import (fix_edge, fix_flip_monoid, fix_free2, fix_kgraph_acyclic,
                             fix_n2, fix_trivial_monoid, fix_two, fix_two_mce_category)
from catenv.gpd import cyclic_groupoid, pair_groupoid
from catenv.hull import InconsistentPieces, InverseHull, PiecewiseBijection, ZERO
from catenv.lcm import OreGroup, starling_report
from catenv.pipeline import analyze_category
from oracles import (ExplicitBijection, GivenClosure, fix_set, hcompose, hinverse,
                     hull_closure_by_full_scan, hull_product_by_definition,
                     separation_by_fixed_sets)


def graph_of(hull, s, ball):
    """Pointwise oracle: the graph of s on a ball."""
    return {x: hull.apply(s, x) for x in ball if hull.apply(s, x) is not None}


def compose_graphs(g1, g2):
    return {x: g1[y] for x, y in g2.items() if y in g1}


@pytest.fixture(scope="module")
def edge_hull():
    hull = InverseHull(fix_edge())
    return hull, hull.generate()


def e_map(hull):
    p = hull.p
    e = [m for m in p.ball(None) if m.word == ("e",)][0]
    return hull.from_morphism(e)


# -- constructors --------------------------------------------------------------


def test_from_morphism_graphs(edge_hull):
    hull, _ = edge_hull
    p = hull.p
    ball = p.ball(None)
    s = e_map(hull)
    assert graph_of(hull, s, ball) == {p.identity("w"): by_word(p, ("e",))}
    v_id = hull.from_morphism(p.identity("v"))
    assert graph_of(hull, v_id, ball) == {m: m for m in ball if m.tgt == "v"}


def by_word(p, word):
    return [m for m in p.ball(5) if m.word == word][0]


def test_free_shift_piece():
    p = fix_free2()
    hull = InverseHull(p)
    s = hull.from_morphism(p.word("a"))
    assert s.pieces == ((p.word("a"), p.identity("*")),)
    assert hull.apply(s, p.word("ba")) == p.word("aba")


# -- composition and inversion ---------------------------------------------------


def test_hcompose_examples(edge_hull):
    hull, h = edge_hull
    p = hull.p
    s = e_map(hull)
    sinv = hinverse(hull, s)
    idw = hull.idempotent([p.identity("w")])
    assert hcompose(hull, sinv, s) == idw
    assert hcompose(hull, s, idw) == s
    assert hinverse(hull, hinverse(hull, s)) == s
    assert hinverse(hull, ZERO) == ZERO


def test_hcompose_zero_in_free_monoid():
    p = fix_free2()
    hull = InverseHull(p)
    a_inv = hinverse(hull, hull.from_morphism(p.word("a")))
    b = hull.from_morphism(p.word("b"))
    assert hcompose(hull, a_inv, b).is_zero


def test_hcompose_matches_pointwise_oracle():
    for p, bound, radius in ((fix_edge(), None, None), (fix_two(), None, None),
                             (fix_n2(), 2, 4), (fix_two_mce_category(), None, None)):
        hull = InverseHull(p)
        h = hull.generate(bound)
        ball = p.ball(radius if radius else None)
        els = h.nonzero()
        for s in els:
            for t in els:
                st = hcompose(hull, s, t)
                for x in ball:
                    y = hull.apply(t, x)
                    expected = hull.apply(s, y) if y is not None else None
                    assert hull.apply(st, x) == expected


def test_canonical_equality_matches_pointwise_equality(edge_hull):
    hull, h = edge_hull
    ball = hull.p.ball(None)
    for s, t in itertools.combinations(h.nonzero(), 2):
        assert (s == t) == (graph_of(hull, s, ball) == graph_of(hull, t, ball))


@pytest.mark.parametrize("extra", [[], ["w"]], ids=["one-piece", "two-piece"])
def test_a_piece_with_mismatched_domains_is_refused(edge_hull, extra):
    """A piece (a, b) maps b·t to a·t, so a and b need one domain."""
    hull, _ = edge_hull
    p = hull.p
    bad = (by_word(p, ("e",)), p.identity("v"))  # e starts at w
    with pytest.raises(InconsistentPieces, match="mismatched domains"):
        hull.canonical([(p.identity(o), p.identity(o)) for o in extra] + [bad])


# -- closure generation -----------------------------------------------------------


def test_edge_hull_has_six_elements(edge_hull):
    hull, h = edge_hull
    assert len(h) == 6 and h.complete
    assert hull.contains_zero(h)
    idempotents = [s for s in h.nonzero() if hull.is_idempotent(s)]
    assert len(idempotents) == 3  # identities on v𝔠, w𝔠, e𝔠


@pytest.mark.parametrize("fixture,bound", [
    *[(fix_free2, d) for d in (3, 4, 5, 6)], *[(fix_n2, d) for d in (3, 4, 5, 6)],
    (fix_edge, None), (fix_two, None), (fix_kgraph_acyclic, None),
    (fix_two_mce_category, None), (fix_trivial_monoid, None),
    (fix_edge, 1), (fix_edge, 8), (fix_two, 1), (fix_kgraph_acyclic, 2),
    (fix_two_mce_category, 2), (fix_two_mce_category, 12)])
def test_generate_matches_full_scan(fixture, bound):
    fast = InverseHull(fixture()).generate(bound)
    full = hull_closure_by_full_scan(InverseHull(fixture()), bound)
    assert fast.elements == full.elements
    assert fast.complete == full.complete


def layered_dag(seed):
    """Path category of a 5-object DAG in 3 layers; each arc between adjacent layers
    is present with chance 0.7."""
    rng = random.Random(seed)
    objects = [f"o{i}" for i in range(5)]
    cut1 = rng.randint(1, 3)
    cut2 = rng.randint(cut1 + 1, 4)
    layers = [objects[:cut1], objects[cut1:cut2], objects[cut2:]]
    arcs = [(d, t) for lo, hi in zip(layers, layers[1:]) for d in lo for t in hi
            if rng.random() < 0.7] or [(layers[0][0], layers[1][0])]
    return GraphPath(objects=objects,
                     edges=[(f"e{i}", d, t) for i, (d, t) in enumerate(arcs)])


class SkewedKey(DirectProduct):
    """A path category times ℤ/2, whose sort key puts (c, g) before (c, 1) for
    a path c of one arc and after it for any other c. A one-piece product's
    domain b·u, with b and u each least in its class, is then not always least
    in its ideal, so the product needs the canonical-generator step."""

    def sort_key(self, m):
        arcs = sum(w.startswith("L:") for w in m.word)
        unit = any(w.startswith("R:") for w in m.word)
        return arcs, unit != (arcs == 1), super().sort_key(m)


def skewed_chain():
    z2 = cyclic_groupoid(2)
    return SkewedKey(GraphPath(objects=["o0", "o1", "o2", "o3"],
                               edges=[("e0", "o0", "o1"), ("e1", "o1", "o2"),
                                      ("e2", "o2", "o3")]),
                     GroupoidSub(z2, z2.elements))


@pytest.mark.parametrize("make,bound", [
    *[pytest.param(partial(layered_dag, seed), b, id=f"dag{seed}-{b}")
      for seed in range(5) for b in (None, 2)],
    *[pytest.param(partial(GroupoidSub, g, g.elements), None, id=name)
      for name, g in (("pair12", pair_groupoid((1, 2))), ("z2", cyclic_groupoid(2)),
                      ("z3", cyclic_groupoid(3)))],
    *[pytest.param(partial(DirectProduct, NkMonoid(1), FreeMonoid(("a", "b"))), b,
                   id=f"n1xfree2-{b}") for b in (3, 4)],
    *[pytest.param(partial(DirectProduct, fix_edge(), fix_two()), b, id=f"edgextwo-{b}")
      for b in (None, 2)],
    *[pytest.param(fix_flip_monoid, b, id=f"flip-{b}") for b in (3, 4)],
    pytest.param(fix_two, 3, id="two-3"),
    pytest.param(partial(DirectProduct, FreeMonoid(("a",)), fix_two_mce_category()), 2,
                 id="free1xtwo-mce-2")])
def test_generate_matches_full_scan_on_generated_inputs(make, bound):
    """Same elements as the pair loop at every bound. `complete` is sound: the walk
    claims it only for the whole hull, and whenever the pair loop claims it; on
    `two` at bound 3 it reaches all 10 elements, which the pair loop calls
    incomplete because it pairs elements of cost 2."""
    fast = InverseHull(make()).generate(bound)
    full = hull_closure_by_full_scan(InverseHull(make()), bound)
    assert fast.elements == full.elements
    if fast.complete:
        assert fast.elements == hull_closure_by_full_scan(InverseHull(make())).elements
    if full.complete:
        assert fast.complete


@pytest.mark.parametrize("make,bound", [
    pytest.param(fix_free2, 4, id="free2-4"), pytest.param(fix_n2, 4, id="n2-4"),
    pytest.param(fix_two, None, id="two"),
    pytest.param(fix_kgraph_acyclic, None, id="kgraph-acyclic"),
    *[pytest.param(partial(layered_dag, seed), None, id=f"dag{seed}") for seed in range(3)],
    # a finite table, whose ideals can need two principal pieces
    pytest.param(fix_two_mce_category, None, id="two-mce"),
    # a groupoid: invertible morphisms besides identities
    pytest.param(partial(GroupoidSub, pair_groupoid((1, 2)), pair_groupoid((1, 2)).elements),
                 None, id="pair12"),
    # direct products build a fresh morphism per result: found by value, not by id()
    pytest.param(partial(DirectProduct, NkMonoid(1), FreeMonoid(("a", "b"))), 3,
                 id="n1xfree2-3"),
    pytest.param(partial(DirectProduct, FreeMonoid(("a",)), fix_two_mce_category()), 2,
                 id="free1xtwo-mce-2"),
    # one-piece factors whose alignment has two pairs: the general fill
    pytest.param(fix_flip_monoid, 3, id="flip-3"),
    # isotropy: one-piece products with units besides identities
    pytest.param(partial(GroupoidSub, cyclic_groupoid(3), cyclic_groupoid(3).elements),
                 None, id="z3"),
    # one-piece products whose domain is not the least generator of its ideal
    pytest.param(skewed_chain, None, id="skewed-key")])
def test_hcompose_matches_product_by_definition(make, bound):
    """The cached product of interned elements equals the product formed from the
    pieces on every pair of the closure; equal elements are one object, also when
    the product is asked of an equal copy that was never interned."""
    hull = InverseHull(make())
    els = hull.generate(bound).elements
    interned = {s: s for s in els}
    assert len(interned) == len(els)
    for s in els:
        assert hull.canonical(s.pieces) is s and hinverse(hull, hinverse(hull, s)) is s
        for t in els:
            st = hcompose(hull, s, t)
            assert st == hull_product_by_definition(hull, s, t)
            assert interned.get(st, st) is st and hull.canonical(st.pieces) is st
        copy = PiecewiseBijection(s.pieces)
        assert hcompose(hull, copy, s) is hcompose(hull, s, s)
        assert hinverse(hull, copy) is hinverse(hull, s)


def test_two_mce_has_no_units_but_identities():
    """What `FiniteTable.trivial_units_only` claims, and the oracle above
    reads, checked on the table itself: no non-identity morphism of two-MCE is
    invertible, and the scan of the ball for the least generator of b𝔠 finds
    b alone."""
    p = fix_two_mce_category()
    ball = p.ball(None)
    for b in ball:
        assert b.is_identity or not any(
            p.compose(b, y) == p.identity(b.tgt) and p.compose(y, b) == p.identity(b.dom)
            for y in ball)
        assert [m for m in ball if p.in_ideal(b, m) and p.in_ideal(m, b)] == [b]


def walk_and_starling(make):
    hull = InverseHull(make())
    hull.generate(8)
    starling_report(hull.p, bound=4, hull=hull)
    return hull


@pytest.mark.parametrize("run,general", [
    pytest.param(partial(walk_and_starling, fix_free2), False, id="free2"),
    pytest.param(partial(walk_and_starling, fix_n2), False, id="n2"),
    pytest.param(lambda: analyze_category(fix_kgraph_acyclic()).context["hull"], False,
                 id="kgraph-acyclic"),
    pytest.param(lambda: analyze_category(layered_dag(0)).context["hull"], False, id="dag0"),
    # two-element alignments: products that take the general fill
    pytest.param(lambda: InverseHull(fix_two_mce_category()).generate().hull, True,
                 id="two-mce")])
def test_right_lcm_products_skip_the_general_fill(monkeypatch, run, general):
    """Under right LCM an alignment has at most one pair, so the product of two
    one-piece elements is one piece or 0, and `_fill_product` interns it with
    no `_canonical` call: in the walk, the LCM cocycle loop and the germ
    groupoid's product table alike. Two-MCE still reaches the general fill."""
    callers, canonical = Counter(), InverseHull._canonical

    def counted(self, raw):
        callers[sys._getframe(1).f_code.co_name] += 1
        return canonical(self, raw)
    monkeypatch.setattr(InverseHull, "_canonical", counted)
    hull = run()
    assert len(hull._products) > 100
    assert (callers["_fill_product"] > 0) == general


@pytest.mark.parametrize("name", ["free2", "n2"])
def test_bounded_thesis_builds_one_hull_and_asks_each_pair_once(monkeypatch, capsys, name):
    """The LCM chain of a bounded `thesis` walks the thesis hull again, to
    bound 4, so one run builds one hull. That hull asks the presentation for
    each composite and each alignment at most once per argument pair."""
    built = []
    init = InverseHull.__init__

    def counting_init(self, pres):
        built.append(pres)
        init(self, pres)

    monkeypatch.setattr(InverseHull, "__init__", counting_init)
    calls = Counter()
    for owner, oracle in ((GraphPath, "compose"), (NkMonoid, "compose"),
                          (CategoryPresentation, "align")):
        def counted(self, c, d, fn=getattr(owner, oracle), oracle=oracle):
            if sys._getframe(1).f_globals["__name__"] == "catenv.hull":
                calls[oracle, c, d] += 1
            return fn(self, c, d)
        monkeypatch.setattr(owner, oracle, counted)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", f"{name}.cat")
    assert cli.main(["thesis", fixture, "--depth", "6"]) == 3  # bounded evidence
    capsys.readouterr()
    assert len(built) == 1
    assert {oracle for oracle, _, _ in calls} == {"compose", "align"}
    assert max(calls.values()) == 1


def test_a_dropped_hull_is_freed_by_reference_counting():
    """The hull's caches hold the hull weakly, so they make no cycle: a
    dropped hull is freed at once, not at the next collection."""
    hull = InverseHull(fix_free2())
    hull.generate(3)
    freed = weakref.ref(hull)
    gc.disable()
    try:
        del hull
        assert freed() is None
    finally:
        gc.enable()


def test_a_dropped_closure_and_its_hull_are_freed_by_reference_counting():
    """A closure holds its hull, and the hull holds no closure: dropping both
    frees the hull at once."""
    hull = InverseHull(fix_free2())
    closure = hull.generate(3)
    assert closure.nonzero()
    freed = weakref.ref(hull)
    gc.disable()
    try:
        del hull, closure
        assert freed() is None
    finally:
        gc.enable()


def built(hull):
    """How many element objects the hull has built."""
    return sum(s is not None for s in hull._elements)


def test_size_and_zero_of_a_closure_build_no_element():
    """The walk runs on element numbers: `len` and `contains_zero` read them,
    and the elements are built, all of them, when first read."""
    hull = InverseHull(fix_free2())
    closure = hull.generate(6)
    assert len(closure) == 770 and hull.contains_zero(closure)
    assert built(hull) == 1  # the zero, interned with the hull
    assert len(closure.elements) == built(hull) == 770
    assert closure.elements[0] is ZERO


def test_a_bounded_thesis_builds_few_element_objects():
    """`thesis` on free2 at depth 8 reads the closure's size and zero, and the
    LCM chain reads a 40-element sample of its bound-4 walk: it builds far
    fewer element objects than the walk numbers."""
    result = analyze_category(fix_free2(), depth=8)
    hull, closure = result.context["hull"], result.context["closure"]
    assert len(closure) == 4098
    assert built(hull) < 500


@pytest.mark.parametrize("make", [fix_free2, fix_n2])
def test_the_lcm_sample_builds_no_element(monkeypatch, make):
    """The LCM chain takes κ₀ of the first 40 nonzero elements of its bound-4
    walk's order, on their numbers: it builds no element object but the zero."""
    sampled, kappa0 = [], OreGroup.kappa0

    def recorded(self, numbers):
        sampled.extend(numbers)
        return kappa0(self, sampled)
    monkeypatch.setattr(OreGroup, "kappa0", recorded)
    hull = InverseHull(make())
    starling_report(make(), hull=hull)
    assert built(hull) == 1
    assert sampled == [hull.index(s) for s in hull.generate(4).nonzero()[:40]]


@pytest.mark.parametrize("make,bound", [
    (fix_edge, None), (fix_two, None), (fix_kgraph_acyclic, None), (fix_two_mce_category, None),
    (fix_trivial_monoid, None), (fix_flip_monoid, 2), (fix_free2, 3), (fix_n2, 0)])
def test_a_closure_carries_its_atoms(make, bound):
    """The walk's atoms are the maps of the identities and generators and
    their inverses, recorded as element numbers of the closure; the identity's
    map of a one-object category too, which the walk skips."""
    pres = make()
    hull = InverseHull(pres)
    closure = hull.generate(bound)
    maps = [hull.from_morphism(c) for c in pres.ball(1 if bound is None else min(bound, 1))
            if len(c.word) <= 1]
    assert set(closure.atoms) == {hull.index(t) for s in maps for t in (s, hinverse(hull, s))}
    assert set(closure.atoms) <= set(closure.numbers)


def test_n2_hull_bound_two():
    p = fix_n2()
    hull = InverseHull(p)
    h = hull.generate(bound=2)
    # all x·y⁻¹ with |x|+|y| ≤ 2: one pair per (x, y)
    count = 0
    for total in range(3):
        for i in range(total + 1):
            pairs_x = i + 1  # lattice points of size i
            pairs_y = (total - i) + 1
            count += pairs_x * pairs_y
    assert len(h) == count == 15
    assert not hull.contains_zero(h)


def test_trivial_monoid_hull():
    hull = InverseHull(fix_trivial_monoid())
    h = hull.generate()
    assert len(h) == 1 and h.complete and not hull.contains_zero(h)


def test_free2_hull_contains_zero():
    hull = InverseHull(fix_free2())
    h = hull.generate(bound=2)
    assert hull.contains_zero(h)


# -- inverse semigroup axioms -------------------------------------------------------


def test_inverse_semigroup_axioms_exhaustive():
    for p in (fix_edge(), fix_two(), fix_two_mce_category()):
        hull = InverseHull(p)
        h = hull.generate()
        els = h.nonzero() + [ZERO]
        for s in els:
            sinv = hinverse(hull, s)
            assert hcompose(hull, hcompose(hull, s, sinv), s) == s
            assert hcompose(hull, hcompose(hull, sinv, s), sinv) == sinv
        idems = [s for s in els if hull.is_idempotent(s)]
        for e1, e2 in itertools.product(idems, repeat=2):
            assert hcompose(hull, e1, e2) == hcompose(hull, e2, e1)


def test_idempotents_are_ideal_identities(edge_hull):
    hull, h = edge_hull
    for s in h.nonzero():
        if hull.is_idempotent(s):
            assert s == hull.idempotent(hull.domain_parts(s))


# -- fixed points and separation -------------------------------------------------


def test_fix_set_examples(edge_hull):
    hull, h = edge_hull
    p = hull.p
    idv = hull.idempotent([p.identity("v")])
    assert fix_set(hull, idv) == (p.identity("v"),)
    assert fix_set(hull, ZERO) == ()
    f2 = fix_free2()
    hull2 = InverseHull(f2)
    shift = hull2.canonical([(f2.word("a"), f2.word("b"))])
    assert fix_set(hull2, shift) == ()


def test_fix_set_right_invariant_two_parts():
    p = fix_two_mce_category()
    hull = InverseHull(p)
    h = hull.generate()
    two_part = [s for s in h.nonzero()
                if hull.is_idempotent(s) and len(fix_set(hull, s)) == 2]
    assert two_part, "expected a two-part constructible fixed set"


def test_multi_piece_elements_match_pointwise_oracle():
    # the flipped-square monoid produces genuine two-piece bijections
    from catenv.fixtures import fix_flip_monoid
    p = fix_flip_monoid()
    hull = InverseHull(p)
    h = hull.generate(bound=2)
    multi = [s for s in h.nonzero() if len(s.pieces) >= 2]
    assert multi
    ball = p.ball(3)
    els = h.nonzero()
    for s in els:
        sinv = hinverse(hull, s)
        assert hcompose(hull, hcompose(hull, s, sinv), s) == s
    for s in multi:
        for t in els:
            st = hcompose(hull, s, t)
            for x in ball:
                y = hull.apply(t, x)
                expected = hull.apply(s, y) if y is not None else None
                assert hull.apply(st, x) == expected


def test_hausdorff_certified_on_fixtures():
    for p, bound, want in ((fix_edge(), None, "certified"),
                           (fix_two(), None, "certified"),
                           (fix_n2(), 3, "bounded"),
                           (fix_free2(), 3, "bounded")):
        hull = InverseHull(p)
        h = hull.generate(bound)
        assert hull.hausdorff_check(h) == want


def test_planted_non_ideal_union_rejected(edge_hull):
    """The oracle's rejection path: a planted explicit bijection fixing id_v
    alone, whose fixed set holds no ideal of the closure."""
    hull, h = edge_hull
    p = hull.p
    planted = ExplicitBijection(((p.identity("v"), p.identity("v")),))
    doctored = GivenClosure(h.elements + [planted], bound=h.bound, complete=h.complete)
    verdict = separation_by_fixed_sets(hull, doctored)
    assert verdict.status == "counterexample"
    offender, witness = verdict.witness
    assert offender is planted and witness == p.identity("v")


@pytest.mark.parametrize("make,bound", [
    *[pytest.param(f, None, id=f.__name__)
      for f in (fix_edge, fix_two, fix_kgraph_acyclic, fix_two_mce_category,
                fix_trivial_monoid)],
    *[pytest.param(f, b, id=f"{f.__name__}-{b}")
      for f in (fix_free2, fix_n2, fix_flip_monoid) for b in (3, 4)],
    *[pytest.param(partial(GroupoidSub, g, els or g.elements), None, id=name)
      for name, g, els in (("pair12", pair_groupoid((1, 2)), None),
                           ("pair12-lower", pair_groupoid((1, 2)), {(1, 1), (2, 2), (2, 1)}),
                           ("z2", cyclic_groupoid(2), None), ("z3", cyclic_groupoid(3), None))],
    *[pytest.param(partial(layered_dag, seed), None, id=f"dag{seed}") for seed in range(5)]])
def test_separation_matches_the_fixed_set_oracle(make, bound):
    """`hausdorff_check` decides by construction what the oracle decides from
    every fixed-point set; on finite inputs each set `fix_set` reads off the
    pieces is the pointwise fixed set."""
    hull = InverseHull(make())
    h = hull.generate(bound)
    assert hull.hausdorff_check(h) == separation_by_fixed_sets(hull, h).status \
        == ("certified" if bound is None else "bounded")
    p = hull.p
    if p.is_finite:
        ground = p.ball(None)
        for s in h.elements:
            parts = fix_set(hull, s)
            assert {x for x in ground if any(p.in_ideal(b, x) for b in parts)} \
                == {x for x in ground if hull.apply(s, x) == x}


def test_separation_on_infinite_non_cancellative_input_is_not_implemented():
    """Neither path claims a verdict on an infinite presentation that is not
    structurally cancellative. None is accepted today (an infinite product
    with a finite table has no hull), so the flag is planted."""
    pres = FreeMonoid(("a",))
    pres.structurally_cancellative = False
    hull = InverseHull(pres)
    h = hull.generate(2)
    with pytest.raises(NotImplementedError):
        hull.hausdorff_check(h)
    with pytest.raises(NotImplementedError):
        separation_by_fixed_sets(hull, h)
