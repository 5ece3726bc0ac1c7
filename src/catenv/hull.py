"""The left inverse hull as piecewise partial bijections.

An element is a finite set of pieces (a, b) with common domain object; the piece
acts on the principal ideal b𝔠 by b·t ↦ a·t. Canonical forms make equality
syntactic: generators are normalized, subsumed pieces are dropped, and the piece
list is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return [s for s in self.elements
                if isinstance(s, PiecewiseBijection) and not s.is_zero]


@dataclass
class HausdorffVerdict:
    status: str  # "certified" | "counterexample" | "bounded"
    witness: object = None

    @property
    def ok(self):
        return self.status != "counterexample"


class InverseHull:
    """Arithmetic of piecewise partial bijections over one presentation."""

    def __init__(self, pres: CategoryPresentation):
        self.p = pres
        self._compose_cache: dict = {}
        self._inverse_cache: dict = {}

    # -- constructors ---------------------------------------------------

    def from_morphism(self, c: Morphism) -> PiecewiseBijection:
        """The map 𝔡(c)𝔠 → c𝔠, x ↦ cx."""
        return self.canonical([(c, self.p.identity(c.dom))])

    def idempotent(self, parts) -> PiecewiseBijection:
        """Identity on the union of the principal ideals generated by `parts`."""
        return self.canonical([(b, b) for b in parts])

    # -- canonical form --------------------------------------------------

    def _canonical_generator(self, b: Morphism) -> tuple[Morphism, Morphism]:
        """Smallest generator of b𝔠, with the translator x (b_can = b·x)."""
        if self.p.trivial_units_only:
            return b, self.p.identity(b.dom)
        best, bx = b, self.p.identity(b.dom)
        for m in self.p.ball(None):
            if self.p.in_ideal(b, m) and self.p.in_ideal(m, b):
                if self.p.sort_key(m) < self.p.sort_key(best):
                    best, bx = m, self.p.divide_left(b, m)
        return best, bx

    def canonical(self, raw_pieces) -> PiecewiseBijection:
        pieces = []
        for a, b in raw_pieces:
            if a.dom != b.dom:
                raise InconsistentPieces(f"piece ({a}, {b}) has mismatched domains")
            b_can, x = self._canonical_generator(b)
            a_can = a if x.is_identity else self.p.compose(a, x)
            pieces.append((a_can, b_can))
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
        return PiecewiseBijection(tuple(kept))

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
        if s not in self._inverse_cache:
            self._inverse_cache[s] = self.canonical([(b, a) for a, b in s.pieces])
        return self._inverse_cache[s]

    def hcompose(self, s: PiecewiseBijection, t: PiecewiseBijection) -> PiecewiseBijection:
        """s∘t; cross-piece products resolve through alignment."""
        key = (s, t)
        if key not in self._compose_cache:
            out = []
            for a, b in s.pieces:
                for a2, b2 in t.pieces:
                    for u, v in self.p.align(a2, b):
                        out.append((self.p.compose(a, v), self.p.compose(b2, u)))
            self._compose_cache[key] = self.canonical(out)
        return self._compose_cache[key]

    def apply(self, s: PiecewiseBijection, x: Morphism) -> Morphism | None:
        for a, b in s.pieces:
            t = self.p.divide_left(b, x)
            if t is not None:
                return self.p.compose(a, t)
        return None

    def domain_parts(self, s):
        return self._ideal_parts([b for _, b in s.pieces])

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

        `bound` caps the provenance cost (total word length of a shortest known
        expression) and the radius of the generating ball; None runs to the
        fixpoint and requires a finite category.
        """
        if bound is None and not self.p.is_finite:
            raise ValueError("infinite category: a provenance bound is required")
        cost: dict[PiecewiseBijection, int] = {}

        def offer(s, c):
            if bound is not None and c > bound:
                return False
            if s not in cost or cost[s] > c:
                cost[s] = c
                return True
            return False

        for c in self.p.ball(bound):
            s = self.from_morphism(c)
            offer(s, len(c.word))
            offer(self.hinverse(s), len(c.word))

        truncated = False
        changed = True
        while changed:
            changed = False
            items = sorted(cost.items(), key=lambda kv: (kv[1], str(kv[0])))
            for s, cs in items:
                if offer(self.hinverse(s), cs):
                    changed = True
                for t, ct in items:  # ascending cost: every later t is over the bound too
                    if bound is not None and cs + ct > bound:
                        truncated = True
                        break
                    if offer(self.hcompose(s, t), cs + ct):
                        changed = True
        elements = sorted(cost, key=lambda s: (len(s.pieces),
                                               [(self.p.sort_key(b), self.p.sort_key(a))
                                                for a, b in s.pieces]))
        complete = self.p.is_finite and not truncated
        return HullClosure(elements=elements, bound=bound, complete=complete)

    def contains_zero(self, h: HullClosure) -> bool:
        return any(isinstance(s, PiecewiseBijection) and s.is_zero for s in h.elements)

    # -- fixed points and the separation criterion --------------------------

    def fix_set(self, s: PiecewiseBijection):
        """Fixed points of s as principal-ideal parts.

        A piece (a, b) fixes b·t exactly when a·t = b·t; the fixed set is right
        invariant, so on cancellative presentations a piece contributes its whole
        domain (a = b) or nothing, and finite presentations are settled pointwise.
        """
        parts = []
        for a, b in s.pieces:
            if a == b:
                parts.append(b)
            elif self.p.is_finite:
                fixed = [x for x in self.p.ball(None)
                         if (t := self.p.divide_left(b, x)) is not None
                         and self.p.compose(a, t) == x]
                parts.extend(self._ideal_parts(fixed))
            elif not self.p.structurally_cancellative:
                raise NotImplementedError(
                    "bounded fixed-point analysis for infinite non-cancellative input")
        return self._ideal_parts(parts)

    def hausdorff_check(self, h: HullClosure) -> HausdorffVerdict:
        """Every fixed-point set must be a finite union of constructible ideals."""
        for s in h.elements:
            if isinstance(s, ExplicitBijection):
                verdict = self._explicit_fix_is_ideal_union(h, s)
                if verdict is not None:
                    return verdict
            else:
                self.fix_set(s)  # always an ideal union for piecewise elements
        return HausdorffVerdict("certified" if h.complete else "bounded")

    def _explicit_fix_is_ideal_union(self, h, s):
        if not self.p.is_finite:
            return HausdorffVerdict("bounded", witness=s)
        fixed = set(s.fixed_points())
        ground = self.p.ball(None)
        covered = set()
        for t in h.elements:
            if not isinstance(t, PiecewiseBijection):
                continue
            members = {m for m in ground
                       if any(self.p.in_ideal(b, m) for b in self.domain_parts(t))}
            if members and members <= fixed:
                covered |= members
        stray = sorted(fixed - covered, key=self.p.sort_key)
        if stray:
            return HausdorffVerdict("counterexample", witness=(s, stray[0]))
        return None


@dataclass(frozen=True)
class ExplicitBijection:
    """A hand-given partial bijection of the ground category, as an explicit graph.

    Not necessarily an element of the inverse hull; used to exercise rejection
    paths of the separation checker.
    """

    graph: tuple[tuple[Morphism, Morphism], ...]

    def fixed_points(self):
        return [x for x, y in self.graph if x == y]

    @property
    def is_zero(self):
        return not self.graph
