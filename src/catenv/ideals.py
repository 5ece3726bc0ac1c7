"""Constructible right ideals, characters, the spectrum and its boundary.

Ideals are canonical finite unions of principal ideals. On a finite meet
semilattice every character is a principal filter ↑X, so the spectrum is indexed
by nonzero ideals; the interesting content is the union condition (membership in
Ω), covers, tightness, and the closure of the maximal part.

Ideals are keyed by their integer index. Containment is derived from the parts
once per index pair, in a table built on first use, so a character's value is
a lookup; the index of dom(s) is cached by the hull number of s. The nonzero
indices, and each ideal's nonzero sub-ideals, are listed once from that table,
and a character keeps its filter as a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .categories import CategoryPresentation, Morphism
from .hull import HullClosure, InverseHull


class PreconditionViolated(ValueError):
    pass


class InfiniteSemilattice(RuntimeError):
    pass


@dataclass(frozen=True)
class Ideal:
    parts: tuple[Morphism, ...]

    @property
    def is_empty(self):
        return not self.parts

    def __repr__(self):
        if self.is_empty:
            return "∅"
        return "∪".join(f"{b}𝔠" for b in self.parts)


class Semilattice:
    """The meet semilattice 𝒥 of constructible right ideals, with its meet table."""

    def __init__(self, hull_ctx: InverseHull, closure: HullClosure):
        self.hull = hull_ctx
        self.p: CategoryPresentation = hull_ctx.p
        self.closure = closure
        self.complete = closure.complete
        seen = {}
        for s in closure.elements:
            for parts in (hull_ctx.domain_parts(s), hull_ctx.image_parts(s)):
                seen[Ideal(parts)] = True
        self.ideals: list[Ideal] = sorted(
            seen, key=lambda X: [self.p.sort_key(b) for b in X.parts])
        self.index = {X: i for i, X in enumerate(self.ideals)}
        self._meet_cache: dict[tuple[int, int], int] = {}
        # hull number of s -> index of dom(s), known for the closure's elements
        self._domain_index: dict[int, int] = {
            hull_ctx.index(s): self.index[Ideal(hull_ctx.domain_parts(s))]
            for s in closure.elements}

    # -- basic structure -----------------------------------------------------

    @property
    def has_zero(self):
        return Ideal(()) in self.index

    @cached_property
    def _nonzero(self) -> tuple[int, ...]:
        return tuple(i for i, X in enumerate(self.ideals) if not X.is_empty)

    def nonzero_indices(self) -> tuple[int, ...]:
        return self._nonzero

    @cached_property
    def _nonzero_below(self) -> list[tuple[int, ...]]:
        return [tuple(j for j in self._nonzero if row[j]) for row in self._containment]

    def nonzero_subideals(self, i: int) -> tuple[int, ...]:
        """The nonzero j with ideals[j] ⊆ ideals[i]."""
        return self._nonzero_below[i]

    def canonical(self, gens) -> Ideal:
        return Ideal(self.hull._ideal_parts(list(gens)))

    @cached_property
    def _containment(self) -> list[list[bool]]:
        """Row i, column j: ideals[j] ⊆ ideals[i], each pair derived once."""
        in_ideal = self.p.in_ideal
        return [[all(any(in_ideal(b, c) for b in big.parts) for c in small.parts)
                 for small in self.ideals] for big in self.ideals]

    def contains(self, i: int, j: int) -> bool:
        """ideals[j] ⊆ ideals[i]."""
        return self._containment[i][j]

    def domain_index(self, n: int) -> int:
        """Index of dom(s) for the hull element s numbered n: `domain_parts`
        are already canonical, so they name the ideal as they are."""
        d = self._domain_index.get(n)
        if d is None:
            parts = self.hull.domain_parts(self.hull.element(n))
            d = self._domain_index[n] = self.index[Ideal(parts)]
        return d

    def meet(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in self._meet_cache:
            gens = []
            for b in self.ideals[i].parts:
                for c in self.ideals[j].parts:
                    for x, _ in self.p.align(b, c):
                        gens.append(self.p.compose(b, x))
            X = self.canonical(gens)
            if X not in self.index:
                raise InfiniteSemilattice(
                    f"meet {self.ideals[i]} ∧ {self.ideals[j]} escapes the table; "
                    "the hull closure is not meet-complete")
            self._meet_cache[key] = self.index[X]
        return self._meet_cache[key]

    def members(self, i: int):
        """Member morphisms (finite categories only)."""
        if not self.p.is_finite:
            raise InfiniteSemilattice("member enumeration needs a finite category")
        return [m for m in self.p.ball(None)
                if any(self.p.in_ideal(b, m) for b in self.ideals[i].parts)]

    def is_union(self, i: int, subset) -> bool:
        """ideals[i] == ⋃_{j ∈ subset} ideals[j], assuming each ideals[j] ⊆ ideals[i]."""
        for b in self.ideals[i].parts:
            if not any(any(self.p.in_ideal(c, b) for c in self.ideals[j].parts)
                       for j in subset):
                return False
        return True

    # -- covers ---------------------------------------------------------------

    def is_cover(self, F, i: int) -> bool:
        """F (ideal indices) covers ideals[i]: every nonzero sub-ideal meets some member."""
        for j in F:
            if not self.contains(i, j):
                raise PreconditionViolated(f"{self.ideals[j]} ⊄ {self.ideals[i]}")
        for j in self.nonzero_subideals(i):
            if not any(not self.ideals[self.meet(j, z)].is_empty for z in F):
                return False
        return True


class Character:
    """The principal-filter character χ_X: Z ↦ [Z ⊇ X]."""

    def __init__(self, lattice: Semilattice, min_index: int):
        self.lattice = lattice
        self.min_index = min_index

    @cached_property
    def filter(self) -> frozenset[int]:
        """The indices j with χ(ideals[j]) = 1."""
        lat = self.lattice
        return frozenset(j for j in range(len(lat.ideals)) if lat.contains(j, self.min_index))

    def value(self, j: int) -> int:
        return 1 if j in self.filter else 0

    def filter_indices(self):
        return sorted(self.filter)

    def zero_subideals(self, j: int) -> list[int]:
        """The nonzero sub-ideals of ideals[j] where χ is 0."""
        return [y for y in self.lattice.nonzero_subideals(j) if y not in self.filter]

    def min_ideal(self) -> Ideal:
        return self.lattice.ideals[self.min_index]

    def __eq__(self, other):
        return isinstance(other, Character) and self.min_index == other.min_index \
            and self.lattice is other.lattice

    def __hash__(self):
        return hash(("chr", self.min_index))

    def __repr__(self):
        return f"χ[{self.min_ideal()}]"


def enumerate_characters(lat: Semilattice):
    """All characters in Ω, deterministically ordered.

    On a finite semilattice the characters are exactly the principal filters; the
    Ω condition rules out X that decompose into proper sub-ideal unions anywhere
    in the filter.
    """
    if not lat.complete:
        raise InfiniteSemilattice("Ω enumeration needs a complete (finite) semilattice")
    out = []
    for x in lat.nonzero_indices():
        chi = Character(lat, x)
        if _omega_condition(lat, chi):
            out.append(chi)
    return out


def _omega_condition(lat: Semilattice, chi: Character) -> bool:
    for z in chi.filter_indices():
        zeros = chi.zero_subideals(z)
        if zeros and lat.is_union(z, zeros):
            return False
    return True


def maximal_characters(omega):
    """Characters whose filters are inclusion-maximal (⟺ minimal generating ideal)."""
    out = []
    for chi in omega:
        dominated = any(other is not chi
                        and chi.lattice.contains(chi.min_index, other.min_index)
                        and not chi.lattice.contains(other.min_index, chi.min_index)
                        for other in omega)
        if not dominated:
            out.append(chi)
    return out


def basic_set(lat: Semilattice, omega, x: int, f_indices):
    """Ω(X; 𝔣) = {χ : χ(X) = 1, χ(Y) = 0 for Y ∈ 𝔣}."""
    for y in f_indices:
        if lat.ideals[y].is_empty or not lat.contains(x, y):
            raise PreconditionViolated("𝔣 must consist of nonzero sub-ideals of X")
    return [chi for chi in omega
            if chi.value(x) == 1 and all(chi.value(y) == 0 for y in f_indices)]


def minimal_basic_neighborhood(lat: Semilattice, chi: Character):
    """The smallest basic set around χ: X = min of the filter, 𝔣 = its zero sub-ideals."""
    return chi.min_index, chi.zero_subideals(chi.min_index)


def closure(lat: Semilattice, omega, subset):
    """Topological closure inside Ω, computed through basic neighborhoods."""
    sub = set(subset)
    out = []
    for chi in omega:
        x, f = minimal_basic_neighborhood(lat, chi)
        if any(o in sub for o in basic_set(lat, omega, x, f)):
            out.append(chi)
    return out


def boundary(lat: Semilattice, omega):
    """∂Ω as the closure of the maximal characters."""
    return closure(lat, omega, maximal_characters(omega))


def is_tight(lat: Semilattice, chi: Character) -> bool:
    """Exel tightness: every cover of every filter member meets the filter.

    Equivalent single test per member Z: the sub-ideals with χ = 0 must not cover Z.
    """
    for z in chi.filter_indices():
        if lat.ideals[z].is_empty:
            continue
        zeros = chi.zero_subideals(z)
        if zeros and lat.is_cover(zeros, z):
            return False
    return True


def tight_characters(lat: Semilattice, omega):
    return [chi for chi in omega if is_tight(lat, chi)]


# -- lazy characters for truncated infinite fixtures ---------------------------


def boundary_sample(pres, count: int = 5):
    """Lazy boundary characters for the supported infinite monoid classes.

    Lattice monoids have the single full character; free monoids get a
    deterministic family of eventually periodic words.
    """
    from .categories import FreeMonoid, NkMonoid

    if isinstance(pres, NkMonoid):
        return [ChiInfinity()]
    if isinstance(pres, FreeMonoid):
        letters = pres.letters
        cycles = [l for l in letters]
        cycles += ["".join(pair) for pair in
                   zip(letters, letters[1:] + letters[:1]) if len(letters) > 1]
        out = [PeriodicWordCharacter("", c) for c in cycles]
        out += [PeriodicWordCharacter(letters[0], c) for c in cycles[1:]]
        return out[:count]
    raise InfiniteSemilattice(f"no lazy boundary model for {pres.class_name}")


class ChiInfinity:
    """The unique maximal character when 0 ∉ I_l: value 1 on every nonzero ideal."""

    def value_on_parts(self, parts) -> int:
        return 1 if parts else 0

    def __repr__(self):
        return "χ∞"


class PeriodicWordCharacter:
    """Boundary character of a free monoid given by the infinite word u·v^∞."""

    def __init__(self, head: str, cycle: str):
        if not cycle:
            raise PreconditionViolated("cycle must be nonempty")
        self.head = head
        self.cycle = cycle

    def prefix(self, n: int) -> str:
        reps = max(0, -(-(n - len(self.head)) // len(self.cycle)))
        return (self.head + self.cycle * reps)[:n]

    def value_on_parts(self, parts) -> int:
        for b in parts:
            word = "".join(b.word)
            if self.prefix(len(word)) == word:
                return 1
        return 0

    def __repr__(self):
        return f"χ[{self.head}({self.cycle})^∞]"
