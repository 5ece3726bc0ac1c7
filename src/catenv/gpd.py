"""Abstract finite groupoids: partial product tables, orbits, isotropy, structural predicates.

Used both as embedding targets for category functors and as the output type of the
germ-groupoid builder.

Integer tables inside, labels outside: callers see the labelled `elements`,
`source`, `range`, `product` and `inverse` dicts, while the constructor interns
every label once and reads inverses and the axioms off integer arrays, so no
label is hashed per pair or per triple.
"""

from __future__ import annotations

import numpy as np

_MISSING = -2  # the index of an endpoint that the source or range dict lacks


class GroupoidError(ValueError):
    pass


def _composable_triples(P, s, r):
    """All (g, h, k) with P[g, h] and P[h, k] defined, in lexicographic order.

    Each defined pair (g, h), taken row-major, is repeated once per k with
    r(k) = s(h); the k's come from the elements sorted stably by range.
    """
    g, h = np.nonzero(P >= 0)
    by_range = np.argsort(r, kind="stable")
    r_sorted = r[by_range]
    lo = np.searchsorted(r_sorted, s[h], "left")
    count = np.searchsorted(r_sorted, s[h], "right") - lo
    offset = np.repeat(lo - (np.cumsum(count) - count), count)
    return (np.repeat(g, count), np.repeat(h, count),
            by_range[offset + np.arange(offset.size)])


class FiniteGroupoid:
    """A finite groupoid given by explicit source/range maps and a partial product table.

    Elements are arbitrary hashable labels; units are elements with source = range = self
    acting neutrally. The product dict contains exactly the composable pairs.

    Internally element i is the i-th distinct label of `elements`; labels that
    occur only in the dicts are numbered after them. `_s` and `_r` map an index
    to its endpoints' indices (`_MISSING` where the dict has no entry) and `_P`
    is the product table, -1 where undefined. The tables are built once, so the
    dicts are not to be changed after construction. Each check of `validate`
    finds its candidate positions with array gathers and runs the per-position
    test on them in the order of a label-by-label scan (product-dict order,
    row-major pairs, lexicographic triples), so an error names the same first
    witness as that scan.
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
        self._intern()
        self.inverse = self._find_inverses()
        self.validate()

    def _intern(self):
        """Number the labels and build `_s`, `_r`, `_P` and the product entries."""
        index = {}

        def ix(x):
            return index.setdefault(x, len(index))

        for g in self.elements:
            ix(g)
        self._n = len(index)
        self._entries = np.array([(ix(g), ix(h), ix(gh))
                                  for (g, h), gh in self.product.items()],
                                 dtype=np.intp).reshape(-1, 3)
        looked_up = list(index)  # elements and product labels: their endpoints are read
        ends = [[ix(d[x]) if x in d else _MISSING for x in looked_up]
                for d in (self.source, self.range)]
        size = len(index)
        self._s, self._r = (np.array(e + [_MISSING] * (size - len(e)), dtype=np.intp)
                            for e in ends)
        self._P = np.full((size, size), -1, dtype=np.intp)
        a, b, ab = self._entries.T
        self._P[a, b] = ab
        self._index = index
        self._labels = list(index)

    def _find_inverses(self):
        """For each element g, the first h in element order with gh = r(g) and hg = s(g)."""
        n = self._n
        P, s, r = self._P[:n, :n], self._s[:n], self._r[:n]
        hits = P == r[:, None]
        # a scan by label reads range[g] first and source[g] only after a hit
        unreadable = np.flatnonzero((r < 0) | ((s < 0) & hits.any(axis=1)))
        if unreadable.size:
            raise KeyError(self._labels[unreadable[0]])
        g, h = np.nonzero(hits & (P.T == s[:, None]))
        g, first = np.unique(g, return_index=True)
        self._inv = np.full(n, -1, dtype=np.intp)
        self._inv[g] = h[first]
        labels = self._labels
        return {labels[g]: labels[h] for g, h in enumerate(self._inv.tolist()) if h >= 0}

    # -- axioms ---------------------------------------------------------

    def validate(self):
        els = set(self.elements)
        if not self._unit_set <= els:
            raise GroupoidError("units not among elements")
        n, labels, P, s, r = self._n, self._labels, self._P, self._s, self._r
        is_unit = np.zeros(len(labels) + 2, dtype=bool)  # indices -1 and -2 read False
        is_unit[[self._index[u] for u in self.units]] = True
        for i in np.flatnonzero(~is_unit[s[:n]] | ~is_unit[r[:n]] | (self._inv < 0)):
            g = labels[i]
            if self.source[g] not in self._unit_set or self.range[g] not in self._unit_set:
                raise GroupoidError(f"source/range of {g!r} is not a unit")
            if g not in self.inverse:
                raise GroupoidError(f"no inverse for {g!r}")
        a, b, ab = self._entries.T
        lost = (s < 0) | (r < 0)
        suspects = np.flatnonzero(lost[a] | lost[b] | lost[ab] | (s[a] != r[b])
                                  | (s[ab] != s[b]) | (r[ab] != r[a]))
        items = list(self.product.items()) if suspects.size else []
        for (g, h), gh in (items[i] for i in suspects):
            if self.source[g] != self.range[h]:
                raise GroupoidError(f"product defined on non-composable pair {(g, h)!r}")
            if self.source[gh] != self.source[h] or self.range[gh] != self.range[g]:
                raise GroupoidError(f"endpoints broken at {(g, h)!r}")
        s, r = s[:n], r[:n]  # from here on every endpoint is a unit, hence an element
        for i, j in np.argwhere((P[:n, :n] >= 0) != (s[:, None] == r[None, :])):
            g, h = labels[i], labels[j]
            defined = (g, h) in self.product
            if defined != (self.source[g] == self.range[h]):
                raise GroupoidError(f"composability/table mismatch at {(g, h)!r}")
        e = np.arange(n)
        for i in np.flatnonzero((P[e, s] != e) | (P[r, e] != e)):
            g = labels[i]
            if self.mul(g, self.source[g]) != g or self.mul(self.range[g], g) != g:
                raise GroupoidError(f"units not neutral at {g!r}")
        a, b, c = _composable_triples(P[:n, :n], s, r)
        left, right = P[P[a, b], c], P[a, P[b, c]]
        for t in np.flatnonzero((left != right) | (left < 0)):
            g, h, k = labels[a[t]], labels[b[t]], labels[c[t]]
            if self.mul(self.mul(g, h), k) != self.mul(g, self.mul(h, k)):
                raise GroupoidError(f"associativity fails at {(g, h, k)!r}")

    # -- arithmetic -----------------------------------------------------

    def mul(self, g, h):
        try:
            return self.product[(g, h)]
        except KeyError:
            raise GroupoidError(f"{g!r}·{h!r} undefined") from None

    def subgroupoid(self, elements, units) -> "FiniteGroupoid":
        """The subgroupoid on `elements` with unit space `units`: the tables
        restricted to it, validated anew."""
        kept = set(elements)
        return FiniteGroupoid(elements,
                              source={g: self.source[g] for g in elements},
                              range_={g: self.range[g] for g in elements},
                              product={(g, h): gh for (g, h), gh in self.product.items()
                                       if g in kept and h in kept},
                              units=units)

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
