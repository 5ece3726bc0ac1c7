"""Right LCM certification, core membership, fractions, the boundary cocycle."""

import itertools
from collections import Counter

import pytest

from catenv.categories import DirectProduct, FreeMonoid, GroupoidSub, NkMonoid
from catenv.fixtures import fix_flip_monoid, fix_free2, fix_n2, fix_trivial_monoid
from catenv.gpd import cyclic_groupoid, group_as_groupoid
from catenv.hull import InverseHull, PiecewiseBijection
from catenv.lcm import (NotCore, OreGroup, core_membership, core_unitary_check,
                        is_right_lcm, starling_report, transformation_iso_check)
from oracles import (MorphismOreGroup, chain_entries_by_morphisms,
                     germ_equal_at_full_support, kappa0,
                     transformation_iso_check_by_morphisms)


def z2_monoid():
    return GroupoidSub(cyclic_groupoid(2), {"z0", "z1"})


def s3_monoid():
    """S₃, the permutations of {0, 1, 2} with (ab)(i) = a(b(i)), as a
    one-object groupoid subcategory: every element is core, and the
    cocycle identity tells s∘t from t∘s."""
    els = list(itertools.permutations(range(3)))
    mul = {(a, b): tuple(a[i] for i in b) for a in els for b in els}
    return GroupoidSub(group_as_groupoid(els, mul, (0, 1, 2)), els)


# -- LCM certification -----------------------------------------------------------


def test_right_lcm_verdicts():
    assert is_right_lcm(fix_n2()).is_lcm and is_right_lcm(fix_n2()).mode == "structural"
    assert is_right_lcm(fix_free2()).is_lcm
    verdict = is_right_lcm(fix_flip_monoid(), bound=2)
    assert verdict.is_lcm is False
    c, d = verdict.witness
    assert len(fix_flip_monoid().align(c, d)) == 2


# -- core membership ---------------------------------------------------------------


def test_core_certificates():
    f2 = fix_free2()
    cert = core_membership(f2, f2.word("a"))
    assert cert.status == "not_in_core" and cert.witness == f2.word("b")
    assert core_membership(f2, f2.word("b")).status == "not_in_core"
    assert core_membership(f2, f2.identity("*")).status == "in_core"
    n2 = fix_n2()
    for vec in itertools.product(range(3), repeat=2):
        assert core_membership(n2, n2.vector(vec)).status == "in_core"
    rank1 = FreeMonoid(("a",))
    assert core_membership(rank1, rank1.word("aa")).status == "in_core"
    flip = fix_flip_monoid()
    assert core_membership(flip, flip.path(["e1"]), bound=2).status == "not_in_core"


def test_core_closed_under_composition_on_samples():
    n2 = fix_n2()
    prod = DirectProduct(NkMonoid(1), FreeMonoid(("a", "b")))
    for p, elements in ((n2, [n2.vector(v) for v in itertools.product(range(2), repeat=2)]),
                        (prod, [prod.pair(prod.left.vector((i,)),
                                          prod.right.identity("*")) for i in range(3)])):
        core = [c for c in elements if core_membership(p, c).status == "in_core"]
        for c, d in itertools.product(core, repeat=2):
            assert core_membership(p, p.compose(c, d)).status == "in_core"


# -- fractions -------------------------------------------------------------------------


def fraction(ore, num, den):
    """num·den⁻¹ as the number pair of `ore`."""
    return ore.hull._morphism(num), ore.hull._morphism(den)


def test_fraction_arithmetic_in_n2():
    n2 = fix_n2()
    ore = OreGroup(InverseHull(n2))
    f1 = fraction(ore, n2.vector((2, 1)), n2.vector((1, 1)))
    f2 = fraction(ore, n2.vector((1, 0)), n2.vector((0, 0)))
    assert ore.equal(f1, f2)
    assert ore.equal(fraction(ore, n2.vector((1, 1)), n2.vector((1, 1))), ore.identity)
    prod = ore.mul(fraction(ore, n2.vector((1, 0)), n2.vector((0, 1))),
                   fraction(ore, n2.vector((0, 1)), n2.vector((1, 0))))
    assert ore.equal(prod, ore.identity)
    assert ore.equal(f1[::-1], fraction(ore, n2.vector((1, 1)), n2.vector((2, 1))))


def test_fraction_equality_is_congruence():
    n2 = fix_n2()
    ore = OreGroup(InverseHull(n2))
    vs = [n2.vector(v) for v in itertools.product(range(2), repeat=2)]
    fractions = [fraction(ore, a, b) for a in vs for b in vs]
    for f1, f2 in itertools.combinations(fractions, 2):
        if ore.equal(f1, f2):
            for g in fractions[:4]:
                assert ore.equal(ore.mul(f1, g), ore.mul(f2, g))
                assert ore.equal(ore.mul(g, f1), ore.mul(g, f2))


def test_fraction_arithmetic_matches_morphisms():
    n2 = fix_n2()
    ore, ref = OreGroup(InverseHull(n2)), MorphismOreGroup(n2)
    vs = [n2.vector(v) for v in itertools.product(range(2), repeat=2)]
    pairs = [(a, b) for a in vs for b in vs]
    morphisms = ore.hull._morphisms
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        f, g = fraction(ore, a, b), fraction(ore, c, d)
        assert ore.equal(f, g) == ref.equal(ref.fraction(a, b), ref.fraction(c, d))
        num, den = ore.mul(f, g)
        assert ref.mul(ref.fraction(a, b), ref.fraction(c, d)) == ref.fraction(
            morphisms[num], morphisms[den])


def test_fractions_reject_non_core():
    f2 = fix_free2()
    with pytest.raises(NotCore):
        MorphismOreGroup(f2).fraction(f2.word("a"), f2.identity("*"))
    hull = InverseHull(f2)
    ore = OreGroup(hull)
    unit = hull.from_morphism(f2.identity("*"))
    kappa = ore.kappa0([hull.from_morphism(f2.word("a")), unit])
    assert kappa == {hull.index(unit): ore.identity}


# -- the cocycle -------------------------------------------------------------------------


def test_kappa0_examples():
    n2 = fix_n2()
    hull = InverseHull(n2)
    ore = OreGroup(hull)
    s = hull.canonical([(n2.vector((2, 1)), n2.vector((1, 1)))])
    unit = hull.idempotent([n2.identity()])
    kappa = ore.kappa0([s, unit])
    assert ore.equal(kappa[hull.index(s)],
                     fraction(ore, n2.vector((1, 0)), n2.vector((0, 0))))
    assert ore.equal(kappa[hull.index(unit)], ore.identity)


def test_kappa0_needs_pieces_that_agree():
    """Two pieces give κ₀ only when their fractions are equal; the elements are
    interned as given, with no canonical form to reject them."""
    n2 = fix_n2()
    hull = InverseHull(n2)
    ore, ref = OreGroup(hull), MorphismOreGroup(n2)
    v = n2.vector
    agree = PiecewiseBijection(((v((1, 0)), v((0, 0))), (v((1, 1)), v((0, 1)))))
    disagree = PiecewiseBijection(((v((1, 0)), v((0, 0))), (v((0, 0)), v((0, 1)))))
    assert ore.kappa0([agree, disagree]) == {hull.index(agree): fraction(ore, v((1, 0)),
                                                                       v((0, 0)))}
    assert kappa0(hull, agree, ref) == ref.fraction(v((1, 0)), v((0, 0)))
    with pytest.raises(NotCore):
        kappa0(hull, disagree, ref)


def test_kappa0_constant_on_germ_classes():
    n2 = fix_n2()
    hull = InverseHull(n2)
    ore = OreGroup(hull)
    s = hull.canonical([(n2.vector((1, 0)), n2.vector((0, 1)))])
    t = hull.canonical([(n2.vector((2, 1)), n2.vector((1, 2)))])  # restriction of s
    assert germ_equal_at_full_support(hull, s, t)
    kappa = ore.kappa0([s, t])
    assert ore.equal(kappa[hull.index(s)], kappa[hull.index(t)])
    ref = MorphismOreGroup(n2)
    assert ref.equal(kappa0(hull, s, ref), kappa0(hull, t, ref))


def test_kappa0_cocycle_identity_on_many_pairs():
    n2 = fix_n2()
    hull = InverseHull(n2)
    h = hull.generate(bound=3)
    ore = OreGroup(hull)
    ok, pairs = transformation_iso_check(ore, ore.kappa0(h.nonzero()[:200]))
    assert ok and pairs >= 100


def test_core_unitary_checks():
    n2 = fix_n2()
    hull = InverseHull(n2)
    h = hull.generate(bound=3)
    verdict = core_unitary_check(n2, n2.vector((1, 1)), hull, h)
    assert verdict.status == "certified" and verdict.branch == "no-zero"
    # planted LCM monoid with a zero and a nontrivial core element
    prod = DirectProduct(NkMonoid(1), FreeMonoid(("a", "b")))
    hp = InverseHull(prod)
    cp = hp.generate(bound=2)
    assert hp.contains_zero(cp)
    c = prod.pair(prod.left.vector((1,)), prod.right.identity("*"))
    verdict2 = core_unitary_check(prod, c, hp, cp)
    assert verdict2.branch == "cover"
    with pytest.raises(NotCore):
        bad = prod.pair(prod.left.vector((0,)), prod.right.word("a"))
        core_unitary_check(prod, bad, hp, cp)


# -- consolidated reports ------------------------------------------------------------------


def test_starling_report_n2_is_evidence_graded():
    entries = starling_report(fix_n2(), bound=3)
    assert [e.check for e in entries] == ["right-lcm", "core-elements",
                                          "fraction-germ-correspondence",
                                          "cocycle-kernel", "core-unitaries"]
    assert entries[0].status == "certified"
    assert all(e.status == "bounded-evidence" for e in entries[1:])


def test_starling_report_finite_group_exact():
    entries = starling_report(z2_monoid())
    assert all(e.status == "certified" for e in entries)


def test_starling_report_trivial_monoid():
    entries = starling_report(fix_trivial_monoid())
    assert all(e.status == "certified" for e in entries)


def test_starling_report_rejects_non_lcm():
    entries = starling_report(fix_flip_monoid(), bound=2)
    assert entries[0].status == "rejected" and entries[0].witness is not None


# -- the number chain against the chain on morphisms -----------------------------------------


CHAIN = ("fraction-germ-correspondence", "cocycle-kernel")

AGREEMENT_CASES = {
    "n2-2": (fix_n2, 2), "n2-3": (fix_n2, 3), "n2-4": (fix_n2, 4),
    "n3": (lambda: NkMonoid(3), 4),
    "free2": (fix_free2, 4),
    "n1xfree2": (lambda: DirectProduct(NkMonoid(1), FreeMonoid(("a", "b"))), 4),  # a zero, partial core
    "z2": (z2_monoid, 4),  # finite and exact
    "s3": (s3_monoid, 4),  # finite, exact and not abelian
    "trivial": (fix_trivial_monoid, 4),
}


def both_chains(pres, bound, sample=40):
    """(ok, info) of the number chain and of the chain on morphisms, on one hull."""
    hull = InverseHull(pres)
    closure = hull.generate(None if pres.is_finite else bound)
    ore = OreGroup(hull, bound=bound)
    ours = transformation_iso_check(ore, ore.kappa0(closure.nonzero()[:sample]))
    ref = transformation_iso_check_by_morphisms(hull, closure, MorphismOreGroup(pres, bound),
                                                sample)
    return ours, ref


def chain_entries(pres, bound):
    """The chain entries of `starling_report`, and those the chain on morphisms
    gives on the same hull."""
    hull = InverseHull(pres)
    entries = [e for e in starling_report(pres, bound=bound, hull=hull) if e.check in CHAIN]
    closure = hull.generate(None if pres.is_finite else bound)
    return entries, chain_entries_by_morphisms(hull, closure, bound)


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_number_chain_matches_morphism_chain(case):
    make, bound = AGREEMENT_CASES[case]
    ours, ref = both_chains(make(), bound)
    assert ours == ref
    entries, ref_entries = chain_entries(make(), bound)
    assert entries == ref_entries and len(entries) == 2


class PlantedN2(NkMonoid):
    """ℕ² whose `align` answers `answer`, given as lattice points, for the one
    pair of lattice points `pair`."""

    def __init__(self, pair, answer):
        super().__init__(2)
        self.pair, self.answer = pair, answer

    def align(self, c, d):
        if (c.degree, d.degree) == self.pair:
            return [(self.vector(x), self.vector(y)) for x, y in self.answer]
        return super().align(c, d)


@pytest.mark.parametrize("pair, answer, kind", [
    (((1, 0), (0, 1)), [((1, 0), (0, 1))], "cocycle"),  # e1·e1 ≠ e2·e2
    (((2, 0), (1, 1)), [((0, 0), (0, 0)), ((0, 1), (1, 0))], "germ"),  # a wrong pair first
])
def test_planted_wrong_alignment_is_rejected_by_both_chains(pair, answer, kind):
    ours, ref = both_chains(PlantedN2(pair, answer), 3)
    assert ours == ref and ours[0] is False
    assert (ours[1][0] == "cocycle") == (kind == "cocycle")
    entries, ref_entries = chain_entries(PlantedN2(pair, answer), 3)
    assert entries == ref_entries and entries[0].status == "rejected"


@pytest.mark.parametrize("pair, detail", [
    (((0, 1), (1, 2)), "denominators e2, e1*e2*e2 never meet"),  # from equal
    (((2, 0), (0, 1)), "e1*e1 and e2 never meet"),  # from mul
])
def test_planted_empty_alignment_gives_the_same_partial_core(pair, detail):
    entries, ref_entries = chain_entries(PlantedN2(pair, []), 3)
    assert entries == ref_entries
    assert (entries[0].status, entries[0].detail) == ("bounded-evidence",
                                                      f"partial core: {detail}")


def test_starling_report_asks_each_oracle_pair_once():
    """The chain reads the hull's tables, so the presentation is asked each
    alignment and composite once; calls the presentation makes from inside
    one of them are its own and not counted."""
    pres = fix_n2()
    calls, depth = Counter(), [0]
    for name in ("align", "compose"):
        def counted(c, d, oracle=getattr(pres, name), name=name):
            if not depth[0]:
                calls[name, c, d] += 1
            depth[0] += 1
            try:
                return oracle(c, d)
            finally:
                depth[0] -= 1
        setattr(pres, name, counted)
    starling_report(pres, bound=4)
    assert calls and max(calls.values()) == 1
