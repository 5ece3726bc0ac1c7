"""Germ groupoids: the character action, germ equality, builder, predicates."""

import pytest

from catenv.germs import NotHausdorff, NotInDomain
from catenv.gpd import cyclic_groupoid
from catenv.hull import ExplicitBijection


def e_map(bundle):
    p = bundle.pres
    e = [m for m in p.ball(None) if m.word == ("e",)][0]
    return bundle.hull.from_morphism(e)


def test_act_examples(edge):
    hull, ctx = edge.hull, edge.germs
    s = e_map(edge)
    chi_w, chi_e = edge.char("id:w𝔠"), edge.char("e𝔠")
    assert ctx.act(s, chi_w) == chi_e
    assert ctx.act(hull.hinverse(s), chi_e) == chi_w
    idv = hull.idempotent([edge.pres.identity("v")])
    chi_v = edge.char("id:v𝔠")
    assert ctx.act(idv, chi_v) == chi_v
    with pytest.raises(NotInDomain):
        ctx.act(s, chi_v)


def test_act_matches_definitional_oracle(edge):
    ctx = edge.germs
    for s in edge.closure.nonzero():
        for chi in edge.omega:
            dom = ctx.lat.index[ctx.lat.canonical(ctx.hull.domain_parts(s))]
            if not chi.value(dom):
                continue
            result = ctx.act(s, chi)
            oracle = ctx.act_by_definition(s, chi)
            assert oracle == {j: result.value(j) for j in range(len(ctx.lat.ideals))}


def test_germ_equality_examples(edge):
    hull, ctx, p = edge.hull, edge.germs, edge.pres
    chi_e, chi_w = edge.char("e𝔠"), edge.char("id:w𝔠")
    idv = hull.idempotent([p.identity("v")])
    ide = hull.idempotent([by_word(p, ("e",))])
    assert ctx.germ_equal(idv, ide, chi_e)
    s = e_map(edge)
    assert ctx.germ_equal(s, s, chi_w)
    idw = hull.idempotent([p.identity("w")])
    assert not ctx.germ_equal(s, idw, chi_w)


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
        chi = edge.g_omega.char_of_unit(g.source[el])
        target = ctx.act(el.restricted, chi)
        assert g.range[el].chi_min == target.min_index
    for x in g.elements:
        for y in g.elements:
            assert ((x, y) in g.product) == (g.source[x] == g.range[y])


def test_restriction_is_functorial(edge):
    direct = edge.germs.build_groupoid(edge.closure, edge.boundary)
    restricted = edge.g_boundary
    assert set(direct.groupoid.elements) == set(restricted.groupoid.elements)
    assert direct.groupoid.product == restricted.groupoid.product


def test_restriction_of_trivial_groupoid_is_itself():
    from catenv.fixtures import fix_trivial_monoid
    from catenv import ideals as IL
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
    assert edge.g_boundary.groupoid.is_effective()
    assert two.g_boundary.groupoid.is_principal()
    z2 = cyclic_groupoid(2)
    assert not z2.is_principal()
    assert not z2.is_effective()


def test_builder_refuses_separation_failure(edge):
    p = edge.pres
    planted = ExplicitBijection(((p.identity("v"), p.identity("v")),))
    doctored = type(edge.closure)(elements=edge.closure.elements + [planted],
                                  bound=None, complete=True)
    with pytest.raises(NotHausdorff):
        edge.germs.build_groupoid(doctored, edge.omega)


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
        ctx.build_groupoid(closure, [], require_hausdorff=False)


def test_units_identified_with_characters(edge):
    g = edge.g_omega.groupoid
    assert len(g.units) == len(edge.omega)
    for u in g.units:
        chi = edge.g_omega.char_of_unit(u)
        assert chi.min_index == u.chi_min
