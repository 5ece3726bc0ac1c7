"""The left inverse hull as piecewise partial bijections.

An element is a finite set of pieces (a, b) with common domain object; the piece
acts on the principal ideal b𝔠 by b·t ↦ a·t. Canonical forms make equality
syntactic: generators are normalized, subsumed pieces are dropped, and the piece
list is sorted. Every hull element is a product of atoms: the maps of the
identities and generators (word length at most 1) and their inverses.
"""

from __future__ import annotations

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


@dataclass
class HullClosure:
    elements: list
    bound: int | None
    complete: bool

    def __len__(self):
        return len(self.elements)

    def nonzero(self):
        return [s for s in self.elements if not s.is_zero]


class InverseHull:
    """Arithmetic of piecewise partial bijections over one presentation.

    Canonical elements are interned: equal elements are one object, numbered in
    the order they were first made. Products, inverses and domains are cached
    by those numbers, so a cache lookup hashes integers, not nested pieces.
    """

    def __init__(self, pres: CategoryPresentation):
        self.p = pres
        self._elements: list[PiecewiseBijection] = []
        self._by_pieces: dict[tuple, PiecewiseBijection] = {}
        self._number: dict[int, int] = {}  # id() of an interned element -> its number
        self._products: dict[int, int] = {}  # (i << 32) | j -> number of s_i∘s_j
        self._inverses: dict[int, PiecewiseBijection] = {}
        self._domains: dict[int, tuple[Morphism, ...]] = {}
        self._of_morphism: dict[Morphism, PiecewiseBijection] = {}
        self._add(ZERO)

    # -- interning ---------------------------------------------------------

    def _add(self, s: PiecewiseBijection) -> PiecewiseBijection:
        self._by_pieces[s.pieces] = s
        self._number[id(s)] = len(self._elements)
        self._elements.append(s)
        return s

    def _intern(self, pieces: tuple) -> PiecewiseBijection:
        s = self._by_pieces.get(pieces)
        return s if s is not None else self._add(PiecewiseBijection(pieces))

    def index(self, s: PiecewiseBijection) -> int:
        """The number of the interned element equal to s; s is interned if new."""
        n = self._number.get(id(s))  # interned elements stay alive, so ids are unique
        if n is None:
            u = self._by_pieces.get(s.pieces)
            n = self._number[id(u if u is not None else self._add(s))]
        return n

    @cached_property
    def _ball(self) -> list[Morphism]:
        """Every morphism of a finite presentation, enumerated once."""
        return self.p.ball(None)

    # -- constructors ---------------------------------------------------

    def from_morphism(self, c: Morphism) -> PiecewiseBijection:
        """The map 𝔡(c)𝔠 → c𝔠, x ↦ cx."""
        s = self._of_morphism.get(c)
        if s is None:
            s = self._of_morphism[c] = self.canonical([(c, self.p.identity(c.dom))])
        return s

    def idempotent(self, parts) -> PiecewiseBijection:
        """Identity on the union of the principal ideals generated by `parts`."""
        return self.canonical([(b, b) for b in parts])

    # -- canonical form --------------------------------------------------

    def _canonical_generator(self, b: Morphism) -> tuple[Morphism, Morphism]:
        """Smallest generator of b𝔠, with the translator x (b_can = b·x)."""
        if self.p.trivial_units_only:
            return b, self.p.identity(b.dom)
        best, bx = b, self.p.identity(b.dom)
        for m in self._ball:
            if self.p.in_ideal(b, m) and self.p.in_ideal(m, b):
                if self.p.sort_key(m) < self.p.sort_key(best):
                    best, bx = m, self.p.divide_left(b, m)
        return best, bx

    def canonical(self, raw_pieces) -> PiecewiseBijection:
        """The interned element with these pieces, put in canonical form."""
        pieces = []
        for a, b in raw_pieces:
            if a.dom != b.dom:
                raise InconsistentPieces(f"piece ({a}, {b}) has mismatched domains")
            b_can, x = self._canonical_generator(b)
            a_can = a if x.is_identity else self.p.compose(a, x)
            pieces.append((a_can, b_can))
        if len(pieces) == 1:  # nothing to sort, check or subsume
            return self._intern(tuple(pieces))
        pieces = sorted(set(pieces), key=lambda ab: (self.p.sort_key(ab[1]),
                                                     self.p.sort_key(ab[0])))
        self._check_consistent(pieces)
        kept = []
        for a, b in pieces:
            subsumed = False
            for a2, b2 in kept:
                x = self.p.divide_left(b2, b)
                if x is not None and self.p.compose(a2, x) == a:
                    subsumed = True
                    break
            if not subsumed:
                kept.append((a, b))
        return self._intern(tuple(kept))

    def _check_consistent(self, pieces):
        # single-valued: overlapping domains agree; injective: same for inverses
        for direction in (pieces, [(b, a) for a, b in pieces]):
            for i, (a1, b1) in enumerate(direction):
                for a2, b2 in direction[i + 1:]:
                    for x, y in self.p.align(b1, b2):
                        if self.p.compose(a1, x) != self.p.compose(a2, y):
                            raise InconsistentPieces(f"pieces disagree on {b1}·{x}")

    # -- inverse semigroup arithmetic -------------------------------------

    def hinverse(self, s: PiecewiseBijection) -> PiecewiseBijection:
        i = self.index(s)
        inv = self._inverses.get(i)
        if inv is None:
            inv = self._inverses[i] = self.canonical([(b, a) for a, b in s.pieces])
        return inv

    def hcompose(self, s: PiecewiseBijection, t: PiecewiseBijection) -> PiecewiseBijection:
        """s∘t; cross-piece products resolve through alignment."""
        return self._elements[self._compose(self.index(s), self.index(t))]

    def _compose(self, i: int, j: int) -> int:
        """Number of s∘t for the elements s, t numbered i, j."""
        key = (i << 32) | j
        n = self._products.get(key)
        if n is None:
            out = []
            for a, b in self._elements[i].pieces:
                for a2, b2 in self._elements[j].pieces:
                    for u, v in self.p.align(a2, b):
                        out.append((self.p.compose(a, v), self.p.compose(b2, u)))
            n = self._products[key] = self._number[id(self.canonical(out))]
        return n

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
        gens = sorted({self._canonical_generator(b)[0] for b in gens},
                      key=self.p.sort_key)
        kept = []
        for b in gens:
            if not any(self.p.in_ideal(b2, b) for b2 in kept):
                kept = [b2 for b2 in kept if not self.p.in_ideal(b, b2)]
                kept.append(b)
        return tuple(sorted(kept, key=self.p.sort_key))

    def is_idempotent(self, s: PiecewiseBijection) -> bool:
        return all(a == b for a, b in s.pieces)

    def restrict(self, s: PiecewiseBijection, parts) -> PiecewiseBijection:
        """Restriction of s to the ideal ⋃ x𝔠 over x in parts."""
        out = []
        for a, b in s.pieces:
            for x in parts:
                for u, _ in self.p.align(b, x):
                    out.append((self.p.compose(a, u), self.p.compose(b, u)))
        return self.canonical(out)

    # -- closure generation ------------------------------------------------

    def generate(self, bound: int | None = None) -> HullClosure:
        """Closure of the left-multiplication maps under ∘ and inverse.

        A cost-ordered walk of the right Cayley graph (Froidure and Pin 1997)
        over the atoms from_morphism(c) and their inverses, at cost len(c.word)
        for c of word length at most 1. Cost is additive, so taking elements in
        order of cost and multiplying each once, on the right, by every atom
        reaches each at its least cost. `bound` caps the cost; None requires a
        finite category. Complete when finite and no product was cut at `bound`.
        """
        if bound is None and not self.p.is_finite:
            raise ValueError("infinite category: a provenance bound is required")
        atoms: dict[int, int] = {}  # element number -> cost
        for c in self.p.ball(None if bound is None else min(bound, 1)):
            if len(c.word) <= 1:
                s = self.from_morphism(c)
                for t in (s, self.hinverse(s)):
                    n = self.index(t)
                    atoms[n] = min(atoms.get(n, 1), len(c.word))
        cost = dict(atoms)
        buckets = [[n for n, c in atoms.items() if c == level] for level in (0, 1)]
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
                    k = self._compose(i, a)
                    if c < cost.get(k, c + 1):
                        cost[k] = c
                        if c == len(buckets):
                            buckets.append([])
                        buckets[c].append(k)
        elements = sorted((self._elements[n] for n in cost),
                          key=lambda s: (len(s.pieces),
                                         [(self.p.sort_key(b), self.p.sort_key(a))
                                          for a, b in s.pieces]))
        complete = self.p.is_finite and not truncated
        return HullClosure(elements=elements, bound=bound, complete=complete)

    def contains_zero(self, h: HullClosure) -> bool:
        return any(s.is_zero for s in h.elements)

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
