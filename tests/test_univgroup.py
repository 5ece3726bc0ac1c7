"""Universal groups, the word map, reduction, cocycles, purity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenv.fixtures import fix_edge, fix_kgraph_acyclic, pair_gpd_12
from catenv.germs import GermContext
from catenv.gpd import (FreeAbelianTarget, cyclic_groupoid, disjoint_union,
                        pair_groupoid)
from catenv.hull import InverseHull
from catenv import ideals as IL
from catenv.univgroup import (CategoryFunctor, Cocycle, IsoLetter, UGWord,
                              XLetter, cocycle_identity_holds, enveloping_groupoid,
                              idempotent_pure_check, j_map, kernel_subgroupoid,
                              partial_action_iso_check, reduce_word, rho_tilde,
                              universal_group, word_mul)
from oracles import evaluate_in_group, hinverse, word_inverse


# -- presentation data -----------------------------------------------------------


def test_pair_groupoid_presentation():
    od = universal_group(pair_gpd_12())
    assert od.representatives == [(1, 1)]
    assert od.x_letters[(1, 1)] == ((2, 2),)
    assert od.isotropy[(1, 1)] == ((1, 1),)  # trivial isotropy: 𝒰 ≅ 𝔽₁


def test_disjoint_groups_presentation():
    g = disjoint_union(cyclic_groupoid(2), cyclic_groupoid(3))
    od = universal_group(g)
    assert len(od.representatives) == 2
    assert all(od.x_letters[u] == () for u in od.representatives)
    sizes = sorted(len(od.isotropy[u]) for u in od.representatives)
    assert sizes == [2, 3]  # 𝒰 ≅ ℤ/2 ⍟ ℤ/3 with no free letters


# -- the word map -----------------------------------------------------------------


def test_j_map_examples():
    g = pair_gpd_12()
    od = universal_group(g)
    for u in g.units:
        assert j_map(u, od).is_identity
    w = j_map((2, 1), od)
    assert len(w.letters) == 1 and isinstance(w.letters[0], XLetter)
    assert abs(w.letters[0].exp) == 1
    z2 = cyclic_groupoid(2)
    od2 = universal_group(z2)
    w2 = j_map("z1", od2)
    assert w2.letters == (IsoLetter("z0", "z1"),)


def small_groupoid_zoo():
    zoo = [pair_groupoid((1,)), pair_gpd_12(), pair_groupoid((1, 2, 3)),
           pair_groupoid((1, 2, 3, 4)), cyclic_groupoid(2), cyclic_groupoid(3),
           cyclic_groupoid(4), disjoint_union(pair_gpd_12(), pair_gpd_12()),
           disjoint_union(pair_gpd_12(), cyclic_groupoid(3)),
           disjoint_union(cyclic_groupoid(2), cyclic_groupoid(3))]
    from catenv.gpd import transitive_groupoid
    mul2 = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    zoo.append(transitive_groupoid((1, 2), list("01"), mul2, "0"))
    zoo.append(transitive_groupoid((1, 2, 3), list("01"), mul2, "0"))
    mul3 = {(str(i), str(j)): str((i + j) % 3) for i in range(3) for j in range(3)}
    zoo.append(transitive_groupoid((1, 2), [str(i) for i in range(3)], mul3, "0"))
    return [g for g in zoo if len(g.units) <= 4 and len(g) <= 24]


def test_j_map_kernel_and_injectivity_on_zoo():
    for g in small_groupoid_zoo():
        for seed in (0, 1):
            od = universal_group(g, seed=seed)
            images = {}
            for x in g.elements:
                w = j_map(x, od)
                assert w.is_identity == g.is_unit(x)
                if not g.is_unit(x):
                    key = w.render()
                    assert key not in images, f"collision in {g}"
                    images[key] = x


def test_j_map_functorial_on_products():
    for g in small_groupoid_zoo():
        od = universal_group(g)
        for (x, y), xy in g.product.items():
            assert word_mul(od, j_map(x, od), j_map(y, od)) == j_map(xy, od)


def test_universal_property_smoke():
    g = pair_gpd_12()
    od = universal_group(g)
    # functor μ into ℤ/2 sending every arrow to the flip
    mu = {el: (0 if g.is_unit(el) else 1) for el in g.elements}
    x_images = {(2, 2): 1}
    iso_images = {(1, 1): 0}
    for el in g.elements:
        val = evaluate_in_group(j_map(el, od), x_images, iso_images,
                                mul=lambda a, b: (a + b) % 2, inv=lambda a: a,
                                unit=0)
        assert val == mu[el]


# -- reduction ----------------------------------------------------------------------


def test_reduce_examples():
    g = pair_gpd_12()
    od = universal_group(g)
    x = XLetter((1, 1), (2, 2), 1)
    xinv = XLetter((1, 1), (2, 2), -1)
    assert reduce_word(od, [x, xinv]).is_identity
    assert reduce_word(od, [x, x]).letters == (XLetter((1, 1), (2, 2), 2),)
    z2 = cyclic_groupoid(2)
    od2 = universal_group(z2)
    h = IsoLetter("z0", "z1")
    assert reduce_word(od2, [h, h]).is_identity
    assert word_inverse(od2, UGWord((h,))) == UGWord((h,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 1)), max_size=8),
       st.integers(0, 2 ** 31 - 1))
def test_reduce_confluent_under_insertions(spec, seed):
    g = pair_groupoid((1, 2, 3))
    od = universal_group(g)
    units = [(2, 2), (3, 3)]
    letters = [XLetter((1, 1), units[i], e) for e, i in spec]
    base = reduce_word(od, letters)
    rng = random.Random(seed)
    perturbed = list(base.letters)
    pos = rng.randint(0, len(perturbed))
    unit = rng.choice(units)
    exp = rng.choice([1, -1])
    perturbed[pos:pos] = [XLetter((1, 1), unit, exp), XLetter((1, 1), unit, -exp)]
    assert reduce_word(od, perturbed) == base


# -- functors and cocycles -------------------------------------------------------------


def edge_bundle():
    pres = fix_edge()
    hull = InverseHull(pres)
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    bd = IL.boundary(lat, omega)
    ctx = GermContext(hull, lat)
    return pres, hull, closure, lat, omega, bd, ctx


def test_rho_tilde_examples():
    pres, hull, closure, *_ = edge_bundle()
    env, rho = enveloping_groupoid(pres)
    e = [m for m in pres.ball(None) if m.word == ("e",)][0]
    s = hull.from_morphism(e)
    assert rho_tilde(hull, s, rho) == rho.of(e) == ("v", "w")
    assert rho_tilde(hull, hinverse(hull, s), rho) == ("w", "v")
    idv = hull.idempotent([pres.identity("v")])
    assert env.is_unit(rho_tilde(hull, idv, rho))


def test_category_functor_validation():
    pres = fix_edge()
    env, _ = enveloping_groupoid(pres)
    with pytest.raises(ValueError):
        CategoryFunctor(pres, env, object_map={"v": ("v", "v"), "w": ("w", "w")},
                        generator_map={"e": ("w", "v")})  # wrong direction


def test_kappa_cocycle_on_edge_boundary():
    pres, hull, closure, lat, omega, bd, ctx = edge_bundle()
    env, rho = enveloping_groupoid(pres)
    gg = ctx.build_groupoid(closure, bd)
    coc = Cocycle(gg, rho)
    assert cocycle_identity_holds(gg, coc)
    for u in gg.groupoid.units:
        assert coc.of(u).is_identity
    nonunits = [g for g in gg.groupoid.elements if not gg.groupoid.is_unit(g)]
    values = [coc.of(g) for g in nonunits]
    assert all(len(w.letters) == 1 and abs(w.letters[0].exp) == 1 for w in values)
    # choice invariance of the kernel: same kernel for different seeds
    for seed in (0, 3, 7):
        coc_s = Cocycle(gg, rho, seed=seed)
        ker = kernel_subgroupoid(gg, coc_s)
        assert set(ker.elements) == set(gg.groupoid.units)


def test_kappa_invariant_under_representative_change():
    pres, hull, closure, lat, omega, bd, ctx = edge_bundle()
    env, rho = enveloping_groupoid(pres)
    gg = ctx.build_groupoid(closure, bd)
    coc = Cocycle(gg, rho)
    chi_e = [c for c in bd if repr(c.min_ideal()) == "e𝔠"][0]
    idv = hull.idempotent([pres.identity("v")])
    ide = hull.idempotent([[m for m in pres.ball(None) if m.word == ("e",)][0]])
    g1, g2 = ctx.germ(idv, chi_e), ctx.germ(ide, chi_e)
    assert g1 == g2 and coc.of(g1) == coc.of(g2)


def test_idempotent_purity():
    pres, hull, closure, *_ = edge_bundle()
    env, rho = enveloping_groupoid(pres)
    ok, witness = idempotent_pure_check(hull, closure, rho)
    assert ok and witness is None
    # planted collapse: everything to the one-unit trivial groupoid
    trivial = pair_groupoid(("pt",))
    rho_bad = CategoryFunctor(pres, trivial,
                              object_map={"v": ("pt", "pt"), "w": ("pt", "pt")},
                              generator_map={"e": ("pt", "pt")})
    with pytest.raises(ValueError):
        idempotent_pure_check(hull, closure, rho_bad)
    ok_bad, witness_bad = idempotent_pure_check(hull, closure, rho_bad, strict=False)
    assert not ok_bad
    assert witness_bad is not None and not hull.is_idempotent(witness_bad)


def test_partial_action_isomorphism():
    pres, hull, closure, lat, omega, bd, ctx = edge_bundle()
    env, rho = enveloping_groupoid(pres)
    g_om = ctx.build_groupoid(closure, omega)
    coc = Cocycle(g_om, rho)
    ok, count = partial_action_iso_check(g_om, coc)
    assert ok and count == len(g_om.groupoid) == 5


def test_kernel_for_group_as_category_is_units():
    # the two-element group as a one-object category, with the ambient inclusion
    from catenv.categories import GroupoidSub
    amb = cyclic_groupoid(2)
    pres = GroupoidSub(amb, {"z0", "z1"})
    hull = InverseHull(pres)
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    ctx = GermContext(hull, lat)
    gg = ctx.build_groupoid(closure, omega)
    rho = CategoryFunctor(pres, amb, object_map={"z0": "z0"},
                          generator_map={"z1": "z1"})
    coc = Cocycle(gg, rho)
    ker = kernel_subgroupoid(gg, coc)
    assert set(ker.elements) == set(gg.groupoid.units)


def test_word_rendering_is_stable():
    g = pair_gpd_12()
    od = universal_group(g)
    assert j_map((2, 1), od).render() == "x~(2, 2)"
    assert j_map((1, 2), od).render() == "x~(2, 2)^-1"
    assert j_map((1, 1), od).render() == "1"
    z3 = cyclic_groupoid(3)
    od3 = universal_group(z3)
    assert j_map("z2", od3).render() == "iso(z2)@z0"


def test_kernel_of_degree_cocycle_on_kgraph_is_principal():
    pres = fix_kgraph_acyclic()
    hull = InverseHull(pres)
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    bd = IL.boundary(lat, omega)
    ctx = GermContext(hull, lat)
    gg = ctx.build_groupoid(closure, bd)
    target = FreeAbelianTarget(2)
    deg = CategoryFunctor(pres, target,
                          object_map={o: target.unit for o in pres.objects},
                          generator_map={name: tuple(1 if i == pres.color(name) else 0
                                                     for i in range(2))
                                         for name in pres.generator_names})
    coc = Cocycle(gg, deg)
    assert cocycle_identity_holds(gg, coc)
    ker = kernel_subgroupoid(gg, coc)
    assert ker.is_principal()
    assert set(ker.elements) == set(gg.groupoid.units)
