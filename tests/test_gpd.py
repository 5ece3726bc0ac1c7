"""Finite groupoid axioms and constructors.

The integer-table constructor is checked against the label-by-label scan in
`oracles.groupoid_by_scan`: the same inverses on valid groupoids, and the same
exception, message and first witness on corrupted ones.
"""

import random

import pytest

from catenv import ideals as IL
from catenv.categories import GraphPath
from catenv.fixtures import (fix_edge, fix_kgraph_acyclic, fix_two,
                             fix_two_mce_category)
from catenv.germs import GermContext
from catenv.gpd import (_MISSING, FiniteGroupoid, GroupoidError, cyclic_groupoid,
                        disjoint_union, pair_groupoid, transitive_groupoid)
from catenv.hull import InverseHull
from oracles import groupoid_by_scan


def test_pair_groupoid_axioms():
    g = pair_groupoid((1, 2, 3))
    assert len(g) == 9 and len(g.units) == 3
    assert g.inv((1, 2)) == (2, 1)
    assert g.mul((1, 2), (2, 3)) == (1, 3)
    assert g.orbits() == [((1, 1), (2, 2), (3, 3))]
    assert g.is_principal()


def test_cyclic_groupoid():
    g = cyclic_groupoid(3)
    assert len(g.units) == 1
    assert g.mul("z1", "z2") == "z0"
    assert not g.is_principal()
    assert g.isotropy("z0") == ["z0", "z1", "z2"]


def test_disjoint_union_orbits():
    g = disjoint_union(pair_groupoid((1, 2)), cyclic_groupoid(2))
    assert len(g.orbits()) == 2
    assert len(g) == 6


def test_transitive_groupoid_isotropy():
    mul = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    g = transitive_groupoid((1, 2), ["0", "1"], mul, "0")
    assert len(g) == 8 and len(g.units) == 2
    assert len(g.isotropy(g.units[0])) == 2
    assert not g.is_principal()


def test_broken_product_table_rejected():
    with pytest.raises(GroupoidError):
        FiniteGroupoid.from_labels(elements=["u", "g"],
                                   source={"u": "u", "g": "u"},
                                   range_={"u": "u", "g": "u"},
                                   product={("u", "u"): "u", ("u", "g"): "g",
                                            ("g", "u"): "g"})  # missing ("g", "g")


# -- the integer tables against the label-by-label scan --------------------------


def cyclic_table(n):
    els = [str(i) for i in range(n)]
    return els, {(a, b): str((int(a) + int(b)) % n) for a in els for b in els}


def ztwo_transitive(labels=(1, 2)):
    els, mul = cyclic_table(2)
    return transitive_groupoid(labels, els, mul, "0")


def germ_groupoids(pres):
    hull = InverseHull(pres)
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    g_omega = GermContext(hull, lat).build_groupoid(closure, omega)
    return [g_omega.groupoid, g_omega.restrict_to(IL.boundary(lat, omega)).groupoid]


def random_dag(seed):
    """Path category of a layered DAG: 2-4 layers of 1-2 objects, random arcs."""
    rng = random.Random(seed)
    layers = [[f"o{i}{j}" for j in range(rng.randint(1, 2))]
              for i in range(rng.randint(2, 4))]
    edges = []
    for lo, hi in zip(layers, layers[1:]):
        arcs = [(d, t) for d in lo for t in hi if rng.random() < 0.6] or [(lo[0], hi[0])]
        edges += [(f"e{len(edges) + i}", d, t) for i, (d, t) in enumerate(arcs)]
    return GraphPath(objects=[o for layer in layers for o in layer], edges=edges)


def valid_groupoids():
    out = [pair_groupoid(range(k)) for k in (1, 2, 3, 4)]
    for n in (2, 3):
        els, mul = cyclic_table(n)
        out += [transitive_groupoid(labels, els, mul, "0") for labels in ((1,), (1, 2), "abc")]
    out += [disjoint_union(pair_groupoid((1, 2)), cyclic_groupoid(3)),
            disjoint_union(ztwo_transitive(), pair_groupoid("xyz"))]
    return out


def scanned(g):
    return groupoid_by_scan(g.elements, g.source, g.range, g.product, g.units)


def test_inverses_match_scan_on_constructed_groupoids():
    for g in valid_groupoids():
        assert list(g.inverse.items()) == list(scanned(g).items())


def test_inverses_match_scan_on_germ_groupoids():
    presentations = [fix_edge(), fix_two(), fix_kgraph_acyclic(), fix_two_mce_category()]
    presentations += [random_dag(seed) for seed in range(12)]
    for pres in presentations:
        for g in germ_groupoids(pres):
            assert list(g.inverse.items()) == list(scanned(g).items())


def outcome(build):
    try:
        return "ok", list(build().items())
    except (KeyError, ValueError) as exc:
        return type(exc), exc.args


def corrupted(rng, g):
    """A valid groupoid's data after up to three random edits."""
    els, src, rng_, prod = list(g.elements), dict(g.source), dict(g.range), dict(g.product)
    units = list(g.units) if rng.random() < 0.8 else None
    pool = els + ["x", "y"]
    for _ in range(rng.choice([1, 1, 2, 3])):
        keys = list(prod)
        op = rng.randrange(10) if keys else 2
        if op == 0:
            prod[rng.choice(keys)] = rng.choice(pool)
        elif op == 1:
            del prod[rng.choice(keys)]
        elif op == 2:
            prod[(rng.choice(pool), rng.choice(pool))] = rng.choice(pool)
        elif op == 3:
            rng.choice((src, rng_))[rng.choice(els)] = rng.choice(pool)
        elif op == 4:
            rng.choice((src, rng_)).pop(rng.choice(els), None)
        elif op == 5:
            els.append(rng.choice(els))
        elif op == 6:
            rng.shuffle(els)
        elif op == 7 and units:
            units.append(rng.choice(pool))
        elif op == 8:  # a product outside the elements, with the old endpoints
            key = rng.choice(keys)
            src["z"], rng_["z"] = src.get(prod[key]), rng_.get(prod[key])
            prod[key] = "z"
        else:
            items = list(prod.items())
            rng.shuffle(items)
            prod = dict(items)
    return els, src, rng_, prod, units


def index_tables(elements, source, range_, product, units=None):
    """Labelled tables as the constructor's index tables, numbered apart from
    `from_labels`: the elements in order of first appearance, then every
    other label in reverse order of first appearance; an endpoint is known
    wherever the dict has one."""
    if units is None:
        units = sorted((g for g in elements if source[g] == g and range_[g] == g), key=str)
    met = [*elements, *(x for (g, h), gh in product.items() for x in (g, h, gh)),
           *(x for d in (source, range_) for item in d.items() for x in item), *units]
    n = len(dict.fromkeys(elements))
    labels = list(dict.fromkeys(elements))
    labels += reversed(list(dict.fromkeys(x for x in met if x not in labels[:n])))
    index = {x: i for i, x in enumerate(labels)}
    ends = [[index[d[x]] if x in d else _MISSING for x in labels] for d in (source, range_)]
    entries = [(index[g], index[h], index[gh]) for (g, h), gh in product.items()]
    return labels, *ends, entries, [index[u] for u in units], n


def test_corrupted_tables_fail_like_the_scan():
    """Through both entry points: the labelled tables, and index tables."""
    rng = random.Random(5)
    small = [g for g in valid_groupoids() if len(g) <= 12]
    seen = set()
    for _ in range(600):
        args = corrupted(rng, rng.choice(small))
        expected = outcome(lambda: groupoid_by_scan(*args))
        assert outcome(lambda: FiniteGroupoid.from_labels(*args).inverse) == expected, args
        assert outcome(lambda: FiniteGroupoid(*index_tables(*args)).inverse) == expected, args
        seen.add(expected[0] if expected[0] != GroupoidError else expected[1][0][:12])
    assert {"ok", KeyError, "no inverse f", "source/range", "composabilit",
            "endpoints br", "product defi", "units not ne", "associativit"} <= seen


def failure(elements, source, range_, product, units):
    """The message the constructor raises, checked against the scan's."""
    with pytest.raises(GroupoidError) as caught:
        FiniteGroupoid.from_labels(elements, source, range_, product, units)
    with pytest.raises(GroupoidError) as scanned_caught:
        groupoid_by_scan(elements, source, range_, product, units)
    assert str(caught.value) == str(scanned_caught.value)
    return str(caught.value)


def data(g):
    return list(g.elements), dict(g.source), dict(g.range), dict(g.product), list(g.units)


def test_error_units_not_among_elements():
    els, src, rng_, prod, units = data(pair_groupoid((1, 2)))
    assert failure(els, src, rng_, prod, units + ["ghost"]) == "units not among elements"


def test_error_endpoint_not_a_unit():
    els, src, rng_, prod, units = data(pair_groupoid((1, 2)))
    src[(2, 1)] = (2, 1)
    assert failure(els, src, rng_, prod, units) == "source/range of (2, 1) is not a unit"


def test_error_no_inverse():
    els, src, rng_, prod, units = data(cyclic_groupoid(3))
    prod[("z1", "z2")] = "z1"
    assert failure(els, src, rng_, prod, units) == "no inverse for 'z1'"


def test_error_product_on_non_composable_pair():
    els, src, rng_, prod, units = data(pair_groupoid((1, 2)))
    prod[((1, 2), (1, 2))] = (1, 2)
    assert failure(els, src, rng_, prod, units) == \
        "product defined on non-composable pair ((1, 2), (1, 2))"


def test_error_endpoints_broken():
    els, src, rng_, prod, units = data(pair_groupoid((1, 2, 3)))
    prod[((1, 2), (2, 3))] = (1, 1)
    assert failure(els, src, rng_, prod, units) == "endpoints broken at ((1, 2), (2, 3))"


def test_error_table_mismatch():
    els, src, rng_, prod, units = data(pair_groupoid((1, 2, 3)))
    del prod[((1, 2), (2, 3))]
    assert failure(els, src, rng_, prod, units) == \
        "composability/table mismatch at ((1, 2), (2, 3))"


def test_error_units_not_neutral():
    els, src, rng_, prod, units = data(ztwo_transitive())
    prod[((1, "0", 2), (2, "0", 2))] = (1, "1", 2)
    assert failure(els, src, rng_, prod, units) == "units not neutral at (1, '0', 2)"


def test_error_associativity():
    els, src, rng_, prod, units = data(cyclic_groupoid(3))
    prod[("z1", "z1")] = "z0"
    assert failure(els, src, rng_, prod, units) == "associativity fails at ('z1', 'z1', 'z2')"


def test_error_product_outside_the_table():
    els, src, rng_, prod, units = data(cyclic_groupoid(3))
    prod[("z1", "z1")] = "z"
    src["z"] = rng_["z"] = "z0"
    assert failure(els, src, rng_, prod, units) == "'z0'·'z' undefined"
    prod[("z0", "z")] = prod[("z", "z0")] = "z"  # first failure: both sides undefined
    assert failure(els, src, rng_, prod, units) == "'z'·'z1' undefined"
