"""Abstract finite groupoids: partial product tables, orbits, isotropy, structural predicates.

Used both as embedding targets for category functors and as the output type of the
germ-groupoid builder.

Integer tables inside, labels outside. The constructor takes index tables
(endpoints, product triples, units) and reads inverses and the axioms off
them; `from_labels` numbers the labels of dict tables once and calls it. The
labelled `source`, `range`, `product` and `inverse` dicts are derived from the
arrays when read, so no label is hashed per pair or per triple.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .perm import components

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

    The constructor takes index tables: label i is `labels[i]`, the first n of
    them the elements and the rest labels met only in the tables. `_s` and `_r`
    map an index to its endpoints' indices (`_MISSING` where unknown),
    `_entries` holds the (g, h, gh) triples in product order and `_u` the
    units. `_P` is the product table, -1 where undefined. Labelled tables go
    through `from_labels`, which numbers every label once. The `source`,
    `range`, `inverse` and `product` dicts are derived from the arrays when
    read. Each check of `validate` finds its candidate positions with array
    gathers and runs the per-position test on them in the order of a
    label-by-label scan (product order, row-major pairs, lexicographic
    triples), so an error names the same first witness as that scan.
    """

    def __init__(self, labels, source, range_, entries, units, n=None):
        self._labels = list(labels)
        self._n = len(self._labels) if n is None else n
        self.elements = tuple(self._labels[:self._n])
        self._s, self._r = (np.asarray(e, dtype=np.intp) for e in (source, range_))
        self._entries = np.asarray(entries, dtype=np.intp).reshape(-1, 3)
        self._u = np.asarray(units, dtype=np.intp)
        self.units = tuple(self._labels[u] for u in self._u.tolist())
        self._P = np.full((len(self._labels),) * 2, -1, dtype=np.intp)
        a, b, ab = self._entries.T
        self._P[a, b] = ab
        self._inv = self._find_inverses()
        self.validate()

    @classmethod
    def from_labels(cls, elements, source, range_, product, units=None):
        """The groupoid of labelled tables. Labels are numbered in the order
        they are met: the elements, the labels of `product`, their endpoints
        in `source` and then in `range_`, and the units."""
        if units is None:
            units = sorted((g for g in elements if source[g] == g and range_[g] == g),
                           key=str)
        index = {}

        def ix(x):
            return index.setdefault(x, len(index))

        for g in elements:
            ix(g)
        n = len(index)
        entries = [(ix(g), ix(h), ix(gh)) for (g, h), gh in product.items()]
        looked_up = list(index)  # elements and product labels: their endpoints are read
        ends = [[ix(d[x]) if x in d else _MISSING for x in looked_up]
                for d in (source, range_)]
        units = [ix(u) for u in units]
        size = len(index)
        return cls(list(index), *(e + [_MISSING] * (size - len(e)) for e in ends),
                   entries, units, n)

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
        inv = np.full(n, -1, dtype=np.intp)
        inv[g] = h[first]
        return inv

    def _label_map(self, index_of):
        labels = self._labels
        return {labels[i]: labels[j] for i, j in enumerate(index_of.tolist()) if j >= 0}

    # the labelled views, derived from the arrays on first read
    source = cached_property(lambda self: self._label_map(self._s))
    range = cached_property(lambda self: self._label_map(self._r))
    inverse = cached_property(lambda self: self._label_map(self._inv))
    product = cached_property(lambda self: {
        (self._labels[g], self._labels[h]): self._labels[gh]
        for g, h, gh in self._entries.tolist()})
    _index = cached_property(lambda self: {x: i for i, x in enumerate(self._labels)})
    _unit_set = cached_property(lambda self: set(self.units))

    # -- axioms ---------------------------------------------------------

    def _end(self, ends, i):
        """ends[i], or the KeyError a dict lookup of label i would raise."""
        if ends[i] == _MISSING:
            raise KeyError(self._labels[i])
        return ends[i]

    def _mul(self, i, j):
        """P[i, j], or the GroupoidError of `mul` where it is undefined."""
        if self._P[i, j] < 0:
            raise GroupoidError(f"{self._labels[i]!r}·{self._labels[j]!r} undefined")
        return self._P[i, j]

    def validate(self):
        n, labels, P, s, r = self._n, self._labels, self._P, self._s, self._r
        if (self._u >= n).any():
            raise GroupoidError("units not among elements")
        is_unit = np.zeros(len(labels) + 2, dtype=bool)  # indices -1 and -2 read False
        is_unit[self._u] = True
        for i in np.flatnonzero(~is_unit[s[:n]] | ~is_unit[r[:n]] | (self._inv < 0)).tolist():
            if not (is_unit[self._end(s, i)] and is_unit[r[i]]):  # r[i] read by the inverses
                raise GroupoidError(f"source/range of {labels[i]!r} is not a unit")
            raise GroupoidError(f"no inverse for {labels[i]!r}")
        a, b, ab = self._entries.T
        lost = (s < 0) | (r < 0)
        for i in np.flatnonzero(lost[a] | lost[b] | lost[ab] | (s[a] != r[b])
                                | (s[ab] != s[b]) | (r[ab] != r[a])).tolist():
            g, h, gh = self._entries[i].tolist()
            if self._end(s, g) != self._end(r, h):
                raise GroupoidError(f"product defined on non-composable pair "
                                    f"{(labels[g], labels[h])!r}")
            if self._end(s, gh) != self._end(s, h) or self._end(r, gh) != self._end(r, g):
                raise GroupoidError(f"endpoints broken at {(labels[g], labels[h])!r}")
        s, r = s[:n], r[:n]  # from here on every endpoint is a unit, hence an element
        mismatch = np.argwhere((P[:n, :n] >= 0) != (s[:, None] == r[None, :]))
        if mismatch.size:
            g, h = mismatch[0].tolist()
            raise GroupoidError(f"composability/table mismatch at {(labels[g], labels[h])!r}")
        e = np.arange(n)
        for i in np.flatnonzero((P[e, s] != e) | (P[r, e] != e)).tolist():
            if self._mul(i, s[i]) != i or self._mul(r[i], i) != i:
                raise GroupoidError(f"units not neutral at {labels[i]!r}")
        a, b, c = _composable_triples(P[:n, :n], s, r)
        left, right = P[P[a, b], c], P[a, P[b, c]]
        for t in np.flatnonzero((left != right) | (left < 0)).tolist():
            g, h, k = a[t], b[t], c[t]
            if self._mul(P[g, h], k) != self._mul(g, P[h, k]):
                raise GroupoidError(f"associativity fails at "
                                    f"{(labels[g], labels[h], labels[k])!r}")

    # -- arithmetic -----------------------------------------------------

    def mul(self, g, h):
        try:
            return self.product[(g, h)]
        except KeyError:
            raise GroupoidError(f"{g!r}·{h!r} undefined") from None

    def subgroupoid(self, keep, units) -> "FiniteGroupoid":
        """The subgroupoid on the elements where the mask `keep` holds, with
        the units at indices `units`: the tables restricted to it, numbered
        as `from_labels` numbers the restricted dicts, and validated anew."""
        kept = np.flatnonzero(keep)
        rows = self._entries[np.isin(self._entries[:, :2], kept).all(axis=1)]
        s, r = self._s[kept], self._r[kept]
        met = np.concatenate([kept, rows.ravel(), s, r, units])
        old = met[np.sort(np.unique(met, return_index=True)[1])]  # in the order met
        new = np.full(len(self._labels), _MISSING, dtype=np.intp)
        new[old] = np.arange(old.size)
        ends = np.full((2, old.size), _MISSING, dtype=np.intp)  # known for elements only
        ends[0, :kept.size], ends[1, :kept.size] = new[s], new[r]
        return FiniteGroupoid([self._labels[i] for i in old.tolist()], *ends, new[rows],
                              new[units], kept.size)

    def composable(self, g, h):
        return self.source[g] == self.range[h]

    def inv(self, g):
        return self.inverse[g]

    def is_unit(self, g):
        return g in self._unit_set

    def hom_set(self, u, v):
        """Elements with source u and range v."""
        n, ix = self._n, self._index
        at = np.flatnonzero((self._s[:n] == ix.get(u, -1)) & (self._r[:n] == ix.get(v, -1)))
        return [self._labels[i] for i in at.tolist()]

    def isotropy(self, u):
        return self.hom_set(u, u)

    def orbits(self):
        """Partition of the unit space under reachability, deterministically
        ordered: each orbit sorted by str, the orbits by their first unit."""
        n = self._n
        label = components(n, self._s[:n], self._r[:n])
        groups = {}
        for u in self._u.tolist():
            groups.setdefault(label[u], []).append(self._labels[u])
        return sorted((tuple(sorted(orbit, key=str)) for orbit in groups.values()),
                      key=lambda orbit: str(orbit[0]))

    # -- structural predicates ------------------------------------------

    def is_principal(self):
        """True when every element with equal range and source is a unit. The
        unit space is discrete, so this is also effectiveness."""
        n = self._n
        return bool(np.isin(np.flatnonzero(self._s[:n] == self._r[:n]), self._u).all())

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
    product = {((p, q), (q, r)): (p, r) for p, q in elements for r in labels}
    return FiniteGroupoid.from_labels(elements, source, range_, product,
                                      units=tuple((p, p) for p in labels))


def group_as_groupoid(elements, mul, unit):
    """A group presented as a one-unit groupoid. `mul` is a dict (g,h) -> gh."""
    elements = tuple(elements)
    source = {g: unit for g in elements}
    range_ = dict(source)
    return FiniteGroupoid.from_labels(elements, source, range_, dict(mul), units=(unit,))


def cyclic_groupoid(n, tag="z"):
    els = [f"{tag}{i}" for i in range(n)]
    mul = {(els[i], els[j]): els[(i + j) % n] for i in range(n) for j in range(n)}
    return group_as_groupoid(els, mul, els[0])


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid, tags=("A", "B")):
    """g1 and g2 side by side, x of g1 labelled (tags[0], x) and y of g2
    (tags[1], y): their index tables, g2's shifted past g1's."""
    shift = len(g1.elements)
    return FiniteGroupoid([(tags[0], x) for x in g1.elements]
                          + [(tags[1], y) for y in g2.elements],
                          *(np.concatenate([a, b + shift]) for a, b in (
                              (g1._s, g2._s), (g1._r, g2._r),
                              (g1._entries, g2._entries), (g1._u, g2._u))))


def transitive_groupoid(labels, iso_els, iso_mul, iso_unit):
    """Transitive groupoid on `labels` with isotropy group (iso_els, iso_mul).

    Elements (p, h, q): arrow q → p with group part h; product
    (p,h,q)(q,k,r) = (p, hk, r).
    """
    labels = tuple(labels)
    elements = [(p, h, q) for p in labels for h in iso_els for q in labels]
    source = {(p, h, q): (q, iso_unit, q) for p, h, q in elements}
    range_ = {(p, h, q): (p, iso_unit, p) for p, h, q in elements}
    product = {((p, h, q), (q, k, r)): (p, iso_mul[(h, k)], r)
               for p, h, q in elements for k in iso_els for r in labels}
    return FiniteGroupoid.from_labels(elements, source, range_, product,
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
