"""Abstract finite groupoids: partial product tables, orbits, isotropy, structural predicates.

Used both as embedding targets for category functors and as the output type of the
germ-groupoid builder.
"""

from __future__ import annotations

import itertools


class GroupoidError(ValueError):
    pass


class FiniteGroupoid:
    """A finite groupoid given by explicit source/range maps and a partial product table.

    Elements are arbitrary hashable labels; units are elements with source = range = self
    acting neutrally. The product dict contains exactly the composable pairs.
    """

    def __init__(self, elements, source, range_, product, units=None):
        self.elements = tuple(elements)
        self.source = dict(source)
        self.range = dict(range_)
        self.product = dict(product)
        if units is None:
            units = tuple(sorted((g for g in self.elements
                                  if self.source[g] == g and self.range[g] == g),
                                 key=str))
        self.units = tuple(units)
        self._unit_set = set(self.units)
        self.inverse = {}
        for g in self.elements:
            for h in self.elements:
                if self.product.get((g, h)) == self.range[g] and \
                   self.product.get((h, g)) == self.source[g]:
                    self.inverse[g] = h
                    break
        self.validate()

    # -- axioms ---------------------------------------------------------

    def validate(self):
        els = set(self.elements)
        if not self._unit_set <= els:
            raise GroupoidError("units not among elements")
        for g in self.elements:
            if self.source[g] not in self._unit_set or self.range[g] not in self._unit_set:
                raise GroupoidError(f"source/range of {g!r} is not a unit")
            if g not in self.inverse:
                raise GroupoidError(f"no inverse for {g!r}")
        for (g, h), gh in self.product.items():
            if self.source[g] != self.range[h]:
                raise GroupoidError(f"product defined on non-composable pair {(g, h)!r}")
            if self.source[gh] != self.source[h] or self.range[gh] != self.range[g]:
                raise GroupoidError(f"endpoints broken at {(g, h)!r}")
        for g, h in itertools.product(self.elements, repeat=2):
            defined = (g, h) in self.product
            if defined != (self.source[g] == self.range[h]):
                raise GroupoidError(f"composability/table mismatch at {(g, h)!r}")
        for g in self.elements:
            if self.mul(g, self.source[g]) != g or self.mul(self.range[g], g) != g:
                raise GroupoidError(f"units not neutral at {g!r}")
        for g, h, k in itertools.product(self.elements, repeat=3):
            if self.source[g] == self.range[h] and self.source[h] == self.range[k]:
                if self.mul(self.mul(g, h), k) != self.mul(g, self.mul(h, k)):
                    raise GroupoidError(f"associativity fails at {(g, h, k)!r}")

    # -- arithmetic -----------------------------------------------------

    def mul(self, g, h):
        try:
            return self.product[(g, h)]
        except KeyError:
            raise GroupoidError(f"{g!r}·{h!r} undefined") from None

    def composable(self, g, h):
        return self.source[g] == self.range[h]

    def inv(self, g):
        return self.inverse[g]

    def is_unit(self, g):
        return g in self._unit_set

    def hom_set(self, u, v):
        """Elements with source u and range v."""
        return [g for g in self.elements if self.source[g] == u and self.range[g] == v]

    def isotropy(self, u):
        return self.hom_set(u, u)

    def orbits(self):
        """Partition of the unit space under reachability, deterministically ordered."""
        parent = {u: u for u in self.units}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for g in self.elements:
            a, b = find(self.source[g]), find(self.range[g])
            if a != b:
                parent[max(a, b, key=str)] = min(a, b, key=str)
        groups = {}
        for u in self.units:
            groups.setdefault(find(u), []).append(u)
        return [tuple(sorted(groups[r], key=str)) for r in sorted(groups, key=str)]

    # -- structural predicates ------------------------------------------

    def is_principal(self):
        """True when every element with equal range and source is a unit."""
        return all(self.is_unit(g) for g in self.elements
                   if self.source[g] == self.range[g])

    def is_effective(self):
        """Interior of the isotropy bundle reduces to the unit space.

        The unit space of a finite groupoid is discrete, so every isotropy point is
        interior and effectiveness coincides with principality.
        """
        return self.is_principal()

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroupoid({len(self.elements)} elements, {len(self.units)} units)"


# -- constructors ---------------------------------------------------------


def pair_groupoid(labels):
    """The groupoid of ordered pairs (p, q): arrow q → p, (p,q)(q,r) = (p,r)."""
    labels = tuple(labels)
    elements = [(p, q) for p in labels for q in labels]
    source = {(p, q): (q, q) for p, q in elements}
    range_ = {(p, q): (p, p) for p, q in elements}
    product = {}
    for p, q in elements:
        for q2, r in elements:
            if q2 == q:
                product[((p, q), (q, r))] = (p, r)
    return FiniteGroupoid(elements, source, range_, product,
                          units=tuple((p, p) for p in labels))


def group_as_groupoid(elements, mul, unit):
    """A group presented as a one-unit groupoid. `mul` is a dict (g,h) -> gh."""
    elements = tuple(elements)
    source = {g: unit for g in elements}
    range_ = dict(source)
    return FiniteGroupoid(elements, source, range_, dict(mul), units=(unit,))


def cyclic_groupoid(n, tag="z"):
    els = [f"{tag}{i}" for i in range(n)]
    mul = {(els[i], els[j]): els[(i + j) % n] for i in range(n) for j in range(n)}
    return group_as_groupoid(els, mul, els[0])


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid, tags=("A", "B")):
    def t(tag, x):
        return (tag, x)

    elements = [t(tags[0], g) for g in g1.elements] + [t(tags[1], g) for g in g2.elements]
    source, range_, product = {}, {}, {}
    for tag, g in ((tags[0], g1), (tags[1], g2)):
        for x in g.elements:
            source[t(tag, x)] = t(tag, g.source[x])
            range_[t(tag, x)] = t(tag, g.range[x])
        for (x, y), xy in g.product.items():
            product[(t(tag, x), t(tag, y))] = t(tag, xy)
    units = tuple(t(tags[0], u) for u in g1.units) + tuple(t(tags[1], u) for u in g2.units)
    return FiniteGroupoid(elements, source, range_, product, units=units)


def transitive_groupoid(labels, iso_els, iso_mul, iso_unit):
    """Transitive groupoid on `labels` with isotropy group (iso_els, iso_mul).

    Elements (p, h, q): arrow q → p with group part h; product
    (p,h,q)(q,k,r) = (p, hk, r).
    """
    labels = tuple(labels)
    elements = [(p, h, q) for p in labels for h in iso_els for q in labels]
    source = {(p, h, q): (q, iso_unit, q) for p, h, q in elements}
    range_ = {(p, h, q): (p, iso_unit, p) for p, h, q in elements}
    product = {}
    for p, h, q in elements:
        for q2, k, r in elements:
            if q2 == q:
                product[((p, h, q), (q, k, r))] = (p, iso_mul[(h, k)], r)
    return FiniteGroupoid(elements, source, range_, product,
                          units=tuple((p, iso_unit, p) for p in labels))


class FreeAbelianTarget:
    """ℤ^k as a one-unit groupoid target for degree functors.

    Implements the small protocol rho_tilde/kappa need: elements are int tuples,
    the unit is the zero vector.
    """

    def __init__(self, k):
        self.k = k
        self.unit = (0,) * k

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def is_unit(self, g):
        return g == self.unit

    def composable(self, g, h):
        return True
