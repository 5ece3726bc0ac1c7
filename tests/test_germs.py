"""Germ groupoids: the character action, germ equality, builder, predicates."""

from functools import partial

import numpy as np
import pytest

from catenv.categories import GroupoidSub
from catenv.fixtures import fix_edge, fix_kgraph_acyclic, fix_two
from catenv.gpd import cyclic_groupoid, pair_groupoid
from catenv import ideals as IL
from catenv.ideals import Character
from conftest import FixtureBundle
from oracles import (NotInDomain, act_by_definition, contains_by_parts, germ,
                     germ_groupoid_by_definition, hinverse)
from test_hull import layered_dag


def act(ctx, s, chi):
    """s.χ, using s.χ_X = χ_{s(X)} for the principal filter at X, read off
    `GermContext.at`; NotInDomain when χ(dom s) = 0."""
    found = ctx.at(ctx.hull.index(s), chi.min_index)
    if found is None:
        raise NotInDomain("χ(dom s) = 0")
    return Character(ctx.lat, found[1])


def e_map(bundle):
    p = bundle.pres
    e = [m for m in p.ball(None) if m.word == ("e",)][0]
    return bundle.hull.from_morphism(e)


def test_act_examples(edge):
    hull, ctx = edge.hull, edge.germs
    s = e_map(edge)
    chi_w, chi_e = edge.char("id:w𝔠"), edge.char("e𝔠")
    assert act(ctx, s, chi_w) == chi_e
    assert act(ctx, hinverse(hull, s), chi_e) == chi_w
    idv = hull.idempotent([edge.pres.identity("v")])
    chi_v = edge.char("id:v𝔠")
    assert act(ctx, idv, chi_v) == chi_v
    with pytest.raises(NotInDomain):
        act(ctx, s, chi_v)


def test_act_matches_definitional_oracle(edge):
    ctx = edge.germs
    for s in edge.closure.nonzero():
        for chi in edge.omega:
            dom = ctx.lat.index[ctx.lat.canonical(ctx.hull.domain_parts(s))]
            if not chi.value(dom):
                continue
            result = act(ctx, s, chi)
            oracle = act_by_definition(ctx, s, chi)
            assert oracle == {j: result.value(j) for j in range(len(ctx.lat.ideals))}


def test_germ_equality_examples(edge):
    hull, ctx, p = edge.hull, edge.germs, edge.pres
    chi_e, chi_w = edge.char("e𝔠"), edge.char("id:w𝔠")
    idv = hull.idempotent([p.identity("v")])
    ide = hull.idempotent([by_word(p, ("e",))])
    assert germ(ctx, idv, chi_e) == germ(ctx, ide, chi_e)
    s = e_map(edge)
    assert germ(ctx, s, chi_w) == germ(ctx, s, chi_w)
    idw = hull.idempotent([p.identity("w")])
    assert germ(ctx, s, chi_w) != germ(ctx, idw, chi_w)


def by_word(p, word):
    return [m for m in p.ball(5) if m.word == word][0]


def test_edge_groupoid_counts(edge):
    assert len(edge.g_omega.groupoid) == 5
    assert len(edge.g_boundary.groupoid) == 4
    assert len(edge.g_boundary.groupoid.units) == 2
    # the boundary groupoid is the pair groupoid on two characters
    orbits = edge.g_boundary.groupoid.orbits()
    assert len(orbits) == 1 and len(orbits[0]) == 2
    assert all(len(edge.g_boundary.groupoid.hom_set(u, v)) == 1
               for u in edge.g_boundary.groupoid.units
               for v in edge.g_boundary.groupoid.units)


def test_two_groupoid_structure(two):
    assert len(two.g_omega.groupoid) == 9
    assert len(two.g_boundary.groupoid) == 8
    orbits = two.g_boundary.groupoid.orbits()
    assert sorted(len(o) for o in orbits) == [2, 2]


def test_range_source_laws(edge):
    g = edge.g_omega.groupoid
    ctx = edge.germs
    for el in g.elements:
        chi = edge.g_omega.char_by_min[g.source[el].chi_min]
        target = act(ctx, el.restricted, chi)
        assert g.range[el].chi_min == target.min_index
    for x in g.elements:
        for y in g.elements:
            assert ((x, y) in g.product) == (g.source[x] == g.range[y])


def test_restriction_of_trivial_groupoid_is_itself():
    from catenv.fixtures import fix_trivial_monoid
    from catenv.hull import InverseHull
    from catenv.germs import GermContext
    hull = InverseHull(fix_trivial_monoid())
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    ctx = GermContext(hull, lat)
    g = ctx.build_groupoid(closure, omega)
    restricted = g.restrict_to(IL.boundary(lat, omega))
    assert set(restricted.groupoid.elements) == set(g.groupoid.elements)


def test_boundary_invariance(edge, two):
    assert edge.g_omega.boundary_invariance_holds(edge.boundary)
    assert two.g_omega.boundary_invariance_holds(two.boundary)


def test_principality_examples(edge, two):
    assert edge.g_boundary.groupoid.is_principal()
    assert two.g_boundary.groupoid.is_principal()
    assert not cyclic_groupoid(2).is_principal()


def test_infinite_character_space_refused():
    from catenv.fixtures import fix_n2
    from catenv import ideals as IL
    from catenv.germs import GermContext, InfiniteCharacterSpace
    from catenv.hull import InverseHull
    hull = InverseHull(fix_n2())
    closure = hull.generate(bound=2)
    lat = IL.Semilattice(hull, closure)
    ctx = GermContext(hull, lat)
    with pytest.raises(InfiniteCharacterSpace):
        ctx.build_groupoid(closure, [])


def test_units_identified_with_characters(edge):
    g = edge.g_omega.groupoid
    assert len(g.units) == len(edge.omega)
    for u in g.units:
        chi = edge.g_omega.char_by_min[u.chi_min]
        assert chi.min_index == u.chi_min


# -- the integer germ layer against its oracles -----------------------------------


def _pair12():
    g = pair_groupoid((1, 2))
    return GroupoidSub(g, g.elements)


@pytest.fixture(scope="module", params=[
    pytest.param(fix_edge, id="edge"), pytest.param(fix_two, id="two"),
    pytest.param(fix_kgraph_acyclic, id="kgraph-acyclic"),
    pytest.param(_pair12, id="pair12"),
    *[pytest.param(partial(layered_dag, seed), id=f"dag{seed}") for seed in range(5)]])
def generated(request):
    return FixtureBundle(request.param())


def _key(g):
    return g.chi_min, str(g.restricted)


def test_build_matches_germ_groupoid_by_definition(generated):
    """Same elements in the same order, and the same source, range, product
    (in the same order) and units, over the spectrum, over the boundary, and
    over every other character, which the action need not preserve."""
    for chars in (generated.omega, generated.boundary, generated.omega[::2]):
        fast = generated.germs.build_groupoid(generated.closure, chars).groupoid
        slow = germ_groupoid_by_definition(generated.germs, generated.closure, chars)
        assert [_key(g) for g in fast.elements] == [_key(g) for g in slow.elements]
        for d_fast, d_slow in ((fast.source, slow.source), (fast.range, slow.range)):
            assert {_key(g): _key(u) for g, u in d_fast.items()} == \
                {_key(g): _key(u) for g, u in d_slow.items()}
        assert [(_key(g), _key(h), _key(gh)) for (g, h), gh in fast.product.items()] == \
            [(_key(g), _key(h), _key(gh)) for (g, h), gh in slow.product.items()]
        assert [_key(u) for u in fast.units] == [_key(u) for u in slow.units]


def test_restriction_is_functorial(generated):
    """Restricting the spectrum groupoid to the boundary gives the groupoid
    built over the boundary: the same elements and keys in the same order,
    the same endpoints, inverses and units, and the same product entries in
    the same order."""
    direct = generated.germs.build_groupoid(generated.closure, generated.boundary)
    restricted = generated.g_boundary
    d, r = direct.groupoid, restricted.groupoid
    assert list(d.elements) == list(r.elements)
    assert np.array_equal(direct.keys, restricted.keys)
    for x, y in ((d.source, r.source), (d.range, r.range), (d.inverse, r.inverse)):
        assert list(x.items()) == list(y.items())
    assert list(d.product.items()) == list(r.product.items())
    assert d.units == r.units and direct.char_by_min.keys() == restricted.char_by_min.keys()


def test_act_matches_act_by_definition(generated):
    ctx, lat = generated.germs, generated.lattice
    for s in generated.closure.nonzero():
        dom = lat.index[lat.canonical(generated.hull.domain_parts(s))]
        for chi in generated.omega:
            if not contains_by_parts(lat, dom, chi.min_index):
                with pytest.raises(NotInDomain):
                    act(ctx, s, chi)
                continue
            result = act(ctx, s, chi)
            assert act_by_definition(ctx, s, chi) == \
                {j: result.value(j) for j in range(len(lat.ideals))}


def test_domain_index_reads_the_canonical_parts_as_they_are(generated):
    """On a miss, `domain_index` looks up `domain_parts` without putting them
    in canonical form again: for every closure element, the index the
    `canonical` route gives."""
    hull = generated.hull
    lat = IL.Semilattice(hull, generated.closure)
    lat._domain_index.clear()
    for s in generated.closure.elements:
        assert lat.domain_index(hull.index(s)) == \
            lat.index[lat.canonical(hull.domain_parts(s))]


def test_contains_matches_parts(generated):
    lat = generated.lattice
    n = len(lat.ideals)
    assert all(lat.contains(i, j) == contains_by_parts(lat, i, j)
               for i in range(n) for j in range(n))


def test_germs_equal_exactly_when_restrictions_are(generated):
    ctx = generated.germs
    germs = [germ(ctx, s, chi) for s in generated.closure.nonzero() for chi in generated.omega
             if ctx.at(generated.hull.index(s), chi.min_index) is not None]
    for g in germs:
        for h in germs:
            same = g.chi_min == h.chi_min and g.restricted.pieces == h.restricted.pieces
            assert (g == h) == same
            assert (g is h) == same  # interned: equal germs are one object
