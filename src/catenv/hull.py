"""The left inverse hull as piecewise partial bijections.

An element is a finite set of pieces (a, b) with common domain object; the piece
acts on the principal ideal b𝔠 by b·t ↦ a·t. Canonical forms make equality
syntactic: generators are normalized, subsumed pieces are dropped, and the piece
list is sorted. Every hull element is a product of atoms: the maps of the
identities and generators (word length at most 1) and their inverses.

The arithmetic runs on integers. The hull numbers each morphism it meets once,
and interns an element by its code: its pieces written as pairs of morphism
numbers. Composites, alignments and left quotients of morphisms are cached on
pairs of morphism numbers, canonical generators and sort keys on one number,
and products of elements on pairs of element numbers. So each oracle of the
presentation runs once per argument pair, and a cache lookup hashes integers,
not nested morphism tuples. An element's number is all the hull keeps of it:
its object is built on its first read (`element`). A walk's closure keeps the
numbers it reached and its atoms', and orders and builds elements when read.
Under right LCM an alignment has at most one pair, so a product of one-piece
elements is 0 or one piece, put in canonical form by `_piece` alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

from .categories import CategoryPresentation, Morphism


class InconsistentPieces(ValueError):
    pass


class ZeroElement(ValueError):
    pass


@dataclass(frozen=True)
class PiecewiseBijection:
    pieces: tuple[tuple[Morphism, Morphism], ...]

    @property
    def is_zero(self):
        return not self.pieces

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " ∪ ".join(f"[{b} ↦ {a}]" for a, b in self.pieces)


ZERO = PiecewiseBijection(())


class HullClosure:
    """The elements a walk reached, with its bound and whether it is complete.

    It holds its hull, the element numbers the walk reached and the numbers
    of its atoms: `len()` and `InverseHull.contains_zero` read the numbers,
    and `elements` is ordered by piece keys and built on its first read."""

    def __init__(self, hull, numbers, atoms, bound=None, complete=False):
        self.hull, self.numbers, self.atoms = hull, numbers, atoms
        self.bound, self.complete = bound, complete

    @cached_property
    def elements(self) -> list[PiecewiseBijection]:
        return [self.hull.element(n) for n in self.hull._ordered(self.numbers)]

    def __len__(self):
        return len(self.numbers)

    def nonzero(self):
        return [s for s in self.elements if not s.is_zero]


_LOW = (1 << 32) - 1  # the low half of a (m << 32) | n key


class _Table(dict):
    """A cache of `owner` that fills a missing key with `fill(owner, key)`: a
    hit is one dict lookup, with no Python call. The owner is held weakly, so
    that its tables make no reference cycle and it is freed once dropped."""

    __slots__ = ("owner", "fill")

    def __init__(self, owner, fill):
        super().__init__()
        self.owner = weakref.ref(owner)
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(self.owner(), key)
        return value


class InverseHull:
    """Arithmetic of piecewise partial bijections over one presentation.

    Morphisms are numbered in the order the hull first meets them:
    `_morphisms[m]` is morphism m, `_morphism_number` finds m by value and
    `_morphism_id` by the id() of the object `_morphisms[m]`. That list keeps
    each such object alive, so no other live object has its id(), and an id()
    hit is always the numbered object itself. A fresh object equal to a
    numbered one (k-graphs and direct products build one per result) misses
    the id() table and is found by value.

    Canonical elements are interned by their code, the pieces as (a, b) pairs
    of morphism numbers, and numbered in the order they were first made.
    `_elements[n]` is None until `element(n)` builds the object, which is then
    the one object of that element, found by its id() as well. Element 0 is
    the zero. The caches, on integer keys:

    - (i << 32) | j on element numbers: the product s_i∘s_j;
    - i: the inverse and the domain of s_i;
    - (m << 32) | n on morphism numbers: the composite m·n, the alignment of
      m and n, the x with n = m·x (−1 when there is none);
    - m: the canonical generator of m𝔠, and the sort key of m.
    """

    def __init__(self, pres: CategoryPresentation):
        self.p = pres
        self._morphisms: list[Morphism] = []
        self._morphism_number: dict[Morphism, int] = {}
        self._morphism_id: dict[int, int] = {}  # id() of a numbered morphism -> its number
        self._sort_keys: list = []  # by morphism number
        self._composites = _Table(self, InverseHull._fill_composite)
        self._alignments = _Table(self, InverseHull._fill_alignment)
        self._quotients = _Table(self, InverseHull._fill_quotient)
        self._generators = _Table(self, InverseHull._fill_generator)
        self._elements: list[PiecewiseBijection | None] = []  # by number, None until read
        self._codes: list[tuple[tuple[int, int], ...]] = []  # by element number
        self._by_code = _Table(self, InverseHull._fill_element)
        self._number: dict[int, int] = {}  # id() of a built element -> its number
        self._products: dict[int, int] = {}  # filled by its readers from _fill_product
        self._inverses = _Table(self, InverseHull._fill_inverse)
        self._domains: dict[int, tuple[Morphism, ...]] = {}
        self._of_morphism: dict[int, int] = {}  # morphism number -> element number
        self._intern(ZERO, self._by_code[()])

    # -- numbering ---------------------------------------------------------

    def _morphism(self, c: Morphism) -> int:
        """The number of c; c is numbered if new."""
        m = self._morphism_id.get(id(c))
        if m is None:
            m = self._morphism_number.get(c)
            if m is None:
                m = self._morphism_number[c] = len(self._morphisms)
                self._morphism_id[id(c)] = m
                self._morphisms.append(c)
                self._sort_keys.append(self.p.sort_key(c))
        return m

    def _pair(self, key: int) -> tuple[Morphism, Morphism]:
        return self._morphisms[key >> 32], self._morphisms[key & _LOW]

    def _fill_composite(self, key: int) -> int:
        """Number of the composite m·n, or −1 when it is not defined."""
        c = self.p.compose(*self._pair(key))
        return -1 if c is None else self._morphism(c)

    def _fill_alignment(self, key: int) -> tuple[tuple[int, int], ...]:
        """The presentation's alignment of m and n, as number pairs."""
        num = self._morphism
        return tuple((num(x), num(y)) for x, y in self.p.align(*self._pair(key)))

    def _fill_quotient(self, key: int) -> int:
        """Number of the x with n = m·x, or −1 when n is not in m𝔠."""
        x = self.p.divide_left(*self._pair(key))
        return -1 if x is None else self._morphism(x)

    # -- interning ---------------------------------------------------------

    def _fill_element(self, code: tuple) -> int:
        self._codes.append(code)
        self._elements.append(None)
        return len(self._codes) - 1

    def _intern(self, s: PiecewiseBijection, n: int) -> PiecewiseBijection:
        self._elements[n] = s
        self._number[id(s)] = n  # built elements stay alive, so ids are unique
        return s

    def element(self, n: int) -> PiecewiseBijection:
        """The element numbered n, built on its first read."""
        s = self._elements[n]
        if s is None:
            ms = self._morphisms
            pieces = tuple((ms[a], ms[b]) for a, b in self._codes[n])
            s = self._intern(PiecewiseBijection(pieces), n)
        return s

    def index(self, s: PiecewiseBijection) -> int:
        """The number of the interned element equal to s; s is interned if new."""
        n = self._number.get(id(s))
        if n is None:
            num = self._morphism
            code = tuple((num(a), num(b)) for a, b in s.pieces)
            n = self._by_code.get(code)
            if n is None:
                n = self._by_code[code]
                self._intern(s, n)
        return n

    @cached_property
    def _ball(self) -> list[Morphism]:
        """Every morphism of a finite presentation, enumerated once."""
        return self.p.ball(None)

    # -- constructors ---------------------------------------------------

    def from_morphism(self, c: Morphism) -> PiecewiseBijection:
        """The map 𝔡(c)𝔠 → c𝔠, x ↦ cx."""
        return self.element(self._from_morphism(c))

    def _from_morphism(self, c: Morphism) -> int:
        """Number of `from_morphism(c)`."""
        m = self._morphism(c)
        n = self._of_morphism.get(m)
        if n is None:
            n = self._of_morphism[m] = self._canonical(
                [(m, self._morphism(self.p.identity(c.dom)))])
        return n

    def idempotent(self, parts) -> PiecewiseBijection:
        """Identity on the union of the principal ideals generated by `parts`."""
        return self.canonical([(b, b) for b in parts])

    # -- canonical form --------------------------------------------------

    def _fill_generator(self, b: int) -> tuple[int, int | None]:
        """Smallest generator of b𝔠, with the translator x (b_can = b·x), None
        for an identity. Scans the ball; only needed when units are not
        trivial."""
        mb = self._morphisms[b]
        best, bx = mb, None
        for m in self._ball:
            if self.p.in_ideal(mb, m) and self.p.in_ideal(m, mb):
                if self.p.sort_key(m) < self.p.sort_key(best):
                    best, bx = m, self.p.divide_left(mb, m)
        return (self._morphism(best),
                None if bx is None or bx.is_identity else self._morphism(bx))

    def canonical(self, raw_pieces) -> PiecewiseBijection:
        """The interned element with these pieces, put in canonical form."""
        num = self._morphism
        return self.element(self._canonical([(num(a), num(b)) for a, b in raw_pieces]))

    def _canonical(self, raw) -> int:
        """Number of the interned element with pieces `raw`, (a, b) pairs of
        morphism numbers, put in canonical form."""
        if not raw:
            return 0
        pieces = [self._piece(a, b) for a, b in raw]
        if len(pieces) == 1:  # nothing to sort, check or subsume
            return self._by_code[tuple(pieces)]
        keys, mul, divide = self._sort_keys, self._composites, self._quotients
        pieces = sorted(set(pieces), key=lambda ab: (keys[ab[1]], keys[ab[0]]))
        self._check_consistent(pieces)
        kept = []
        for a, b in pieces:
            for a2, b2 in kept:
                x = divide[(b2 << 32) | b]
                if x >= 0 and mul[(a2 << 32) | x] == a:
                    break  # subsumed
            else:
                kept.append((a, b))
        return self._by_code[tuple(kept)]

    def _piece(self, a: int, b: int) -> tuple[int, int]:
        """The piece (a, b) with b replaced by the canonical generator of b𝔠;
        raises `InconsistentPieces` when a and b have different domains."""
        ms = self._morphisms
        if ms[a].dom != ms[b].dom:
            raise InconsistentPieces(f"piece ({ms[a]}, {ms[b]}) has mismatched domains")
        if not self.p.trivial_units_only:
            b, x = self._generators[b]
            if x is not None:
                a = self._composites[(a << 32) | x]
        return a, b

    def _check_consistent(self, pieces):
        # single-valued: overlapping domains agree; injective: same for inverses
        mul = self._composites
        for direction in (pieces, [(b, a) for a, b in pieces]):
            for i, (a1, b1) in enumerate(direction):
                for a2, b2 in direction[i + 1:]:
                    for x, y in self._alignments[(b1 << 32) | b2]:
                        if mul[(a1 << 32) | x] != mul[(a2 << 32) | y]:
                            ms = self._morphisms
                            raise InconsistentPieces(f"pieces disagree on {ms[b1]}·{ms[x]}")

    # -- inverse semigroup arithmetic -------------------------------------

    def _fill_inverse(self, i: int) -> int:
        return self._canonical([(b, a) for a, b in self._codes[i]])

    def _compose(self, i: int, j: int) -> int:
        """Number of s∘t for the elements s, t numbered i, j; cross-piece
        products resolve through alignment."""
        key = (i << 32) | j
        n = self._products.get(key)
        if n is None:
            n = self._products[key] = self._fill_product(key)
        return n

    def _fill_product(self, key: int) -> int:
        """The product for a key of `_products`. One-piece factors (a, b) and
        (a2, b2) whose alignment has at most one pair (u, v), as under right
        LCM, give 0 or the one raw piece (a·v, b2·u), which `_canonical` would
        only pass through `_piece`. A zero factor gives 0 with no such call."""
        mul, align = self._composites, self._alignments
        left, right = self._codes[key >> 32], self._codes[key & _LOW]
        if len(left) == 1 == len(right):
            (a, b), (a2, b2) = left[0], right[0]
            pairs = align[(a2 << 32) | b]
            if len(pairs) <= 1:
                n = 0
                for u, v in pairs:
                    n = self._by_code[(self._piece(mul[(a << 32) | v], mul[(b2 << 32) | u]),)]
                return n
        raw = []
        for a, b in left:
            for a2, b2 in right:
                for u, v in align[(a2 << 32) | b]:
                    raw.append((mul[(a << 32) | v], mul[(b2 << 32) | u]))
        return self._canonical(raw) if raw else 0

    def apply(self, s: PiecewiseBijection, x: Morphism) -> Morphism | None:
        for a, b in s.pieces:
            t = self.p.divide_left(b, x)
            if t is not None:
                return self.p.compose(a, t)
        return None

    def domain_parts(self, s):
        i = self.index(s)
        parts = self._domains.get(i)
        if parts is None:
            parts = self._domains[i] = self._ideal_parts([b for _, b in s.pieces])
        return parts

    def image_parts(self, s):
        return self._ideal_parts([a for a, _ in s.pieces])

    def _ideal_parts(self, gens):
        gens = [self._morphism(b) for b in gens]
        if not self.p.trivial_units_only:
            gens = [self._generators[b][0] for b in gens]
        gens = sorted(set(gens), key=self._sort_keys.__getitem__)
        divide = self._quotients
        kept = []
        for b in gens:
            if not any(divide[(b2 << 32) | b] >= 0 for b2 in kept):
                kept = [b2 for b2 in kept if divide[(b << 32) | b2] < 0]
                kept.append(b)
        return tuple(self._morphisms[b] for b in sorted(kept, key=self._sort_keys.__getitem__))

    def is_idempotent(self, s: PiecewiseBijection) -> bool:
        return all(a == b for a, b in s.pieces)

    # -- closure generation ------------------------------------------------

    def generate(self, bound: int | None = None) -> HullClosure:
        """Closure of the left-multiplication maps under ∘ and inverse.

        A cost-ordered walk of the right Cayley graph (Froidure and Pin 1997)
        over the atoms from_morphism(c) and their inverses, at cost len(c.word)
        for c of word length at most 1. Cost is additive, so taking elements in
        order of cost and multiplying each once, on the right, by every atom
        reaches each at its least cost. `bound` caps the cost; None requires a
        finite category. Complete when finite and no product was cut at `bound`.
        Products are cached, so a second walk over the same hull, at the same
        or a lower bound, reads them. The walk runs on element numbers only, and
        its closure keeps the atoms' numbers: the unit's too, though s∘1 = s
        reaches nothing new and the walk skips it.
        """
        if bound is None and not self.p.is_finite:
            raise ValueError("infinite category: a provenance bound is required")
        atoms: dict[int, int] = {}  # element number -> cost
        for c in self._ball if bound is None else self.p.ball(min(bound, 1)):
            if len(c.word) <= 1:
                n = self._from_morphism(c)
                for t in (n, self._inverses[n]):
                    atoms[t] = min(atoms.get(t, 1), len(c.word))
        cost, products, fill = dict(atoms), self._products, self._fill_product
        get = products.get
        buckets = [[n for n, c in atoms.items() if c == level] for level in (0, 1)]
        all_atoms = tuple(atoms)
        if len(self.p.objects) == 1:
            atoms.pop(self._from_morphism(self.p.identity(self.p.objects[0])), None)
        truncated = False
        for level, bucket in enumerate(buckets):  # both lists grow while walked
            for i in bucket:
                if cost[i] < level:  # reached at a lower cost since it was queued
                    continue
                for a, ca in atoms.items():
                    c = level + ca
                    if bound is not None and c > bound:
                        truncated = True
                        continue
                    k = get((i << 32) | a)
                    if k is None:
                        k = products[(i << 32) | a] = fill((i << 32) | a)
                    if c < cost.get(k, c + 1):
                        cost[k] = c
                        if c == len(buckets):
                            buckets.append([])
                        buckets[c].append(k)
        return HullClosure(self, cost.keys(), all_atoms, bound=bound,
                           complete=self.p.is_finite and not truncated)

    def _ordered(self, numbers) -> list[int]:
        """Element numbers ordered by their codes: fewer pieces first, then the
        pieces' keys, (key of b, key of a) in turn."""
        # distinct morphisms have distinct keys, so a morphism's rank in key
        # order compares as its key does, whichever morphisms are numbered
        keys, codes = self._sort_keys, self._codes
        rank = [0] * len(keys)
        for r, m in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
            rank[m] = r
        size = len(rank)
        return sorted(numbers, key=lambda n: (len(codes[n]),
                                              [rank[b] * size + rank[a] for a, b in codes[n]]))

    def contains_zero(self, h: HullClosure) -> bool:
        return 0 in h.numbers  # the zero is element 0

    # -- the separation criterion -------------------------------------------

    def hausdorff_check(self, h: HullClosure) -> str:
        """Spielberg's criterion: every fixed-point set is a finite union of
        constructible ideals. It holds by construction on every presentation
        accepted here. A piece (a, b) fixes b·t exactly when a·t = b·t, so its
        fixed set is right invariant. On a finite category it is therefore the
        union of the ideals x𝔠 over its points x, each the range of a closure
        element; on an infinite cancellative one it is the piece's domain
        (a = b) or nothing. Returns "certified" on a complete closure and
        "bounded" on a truncated one.
        """
        if not (self.p.is_finite or self.p.structurally_cancellative):
            raise NotImplementedError(
                "bounded fixed-point analysis for infinite non-cancellative input")
        return "certified" if h.complete else "bounded"
