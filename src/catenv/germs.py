"""Germ groupoids: the transformation groupoid of the hull acting on characters.

A germ [s, χ] is canonicalized by restricting s to the minimal ideal of the
filter of χ, so germ equality is normal-form comparison. The builder produces an
explicit FiniteGroupoid whose units are the characters.

Keys are integers: hull element numbers and ideal indices. Each (element,
character) pair is settled once, and germs are interned, one object per
(character, number of the restricted element), hashed by those two numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gpd import FiniteGroupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection
from .ideals import Character, Semilattice


class NotInDomain(ValueError):
    pass


class InfiniteCharacterSpace(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Germ:
    """A germ in normal form, interned by its GermContext (compare germs of one
    context only): equality and hash read the two integers, never the pieces."""

    chi_min: int                      # index of the character's minimal ideal
    restricted: PiecewiseBijection    # s restricted to that ideal, canonical
    number: int                       # hull number of `restricted`

    def __eq__(self, other):
        return (isinstance(other, Germ) and self.chi_min == other.chi_min
                and self.number == other.number)

    def __hash__(self):
        return hash((self.chi_min, self.number))

    def __repr__(self):
        return f"[{self.restricted} @ χ{self.chi_min}]"


class GermContext:
    """Germ arithmetic over one semilattice + hull closure, on integer keys."""

    def __init__(self, hull_ctx: InverseHull, lat: Semilattice):
        self.hull = hull_ctx
        self.lat = lat
        self.p = hull_ctx.p
        self._at: dict[int, tuple[Germ, int] | None] = {}  # (n << 32) | x
        self._germs: dict[int, tuple[Germ, int]] = {}  # (restricted number << 32) | x

    def at(self, n: int, x: int) -> tuple[Germ, int] | None:
        """([s, χ_X], index of the minimal ideal of s.χ_X) for s numbered n and
        X = ideals[x], or None when χ_X(dom s) = 0."""
        key = (n << 32) | x
        if key in self._at:
            return self._at[key]
        hull, lat = self.hull, self.lat
        found = None
        if lat.contains(lat.domain_index(n), x):
            r = hull.index(hull.restrict(hull.element(n), lat.ideals[x].parts))
            found = self._germs.get((r << 32) | x)
            if found is None:
                restricted = hull.element(r)
                image = lat.index[lat.canonical(hull.image_parts(restricted))]
                found = self._germs[(r << 32) | x] = (Germ(x, restricted, r), image)
        self._at[key] = found
        return found

    def _in_domain(self, n: int, x: int) -> tuple[Germ, int]:
        found = self.at(n, x)
        if found is None:
            raise NotInDomain(f"χ({self.lat.ideals[self.lat.domain_index(n)]}) = 0")
        return found

    # -- germs -----------------------------------------------------------------

    def germ(self, s: PiecewiseBijection, chi: Character) -> Germ:
        return self._in_domain(self.hull.index(s), chi.min_index)[0]

    def unit_germ(self, chi: Character) -> Germ:
        return self.germ(self.hull.idempotent(chi.min_ideal().parts), chi)

    # -- the groupoid ---------------------------------------------------------

    def build_groupoid(self, closure: HullClosure, chars) -> "GermGroupoid":
        """The germ groupoid over `chars`. Separation holds by construction
        (`InverseHull.hausdorff_check`), so it is not checked again here."""
        if not self.lat.complete:
            raise InfiniteCharacterSpace("finite character space required")
        char_by_min = {chi.min_index: chi for chi in chars}
        numbers = [self.hull.index(s) for s in closure.nonzero()]
        members: dict[Germ, tuple[int, int]] = {}  # germ -> (source min, range min)
        for chi in chars:
            x = chi.min_index
            for n in numbers:
                found = self.at(n, x)
                if found is not None and found[1] in char_by_min:
                    members[found[0]] = (x, found[1])
        elements = sorted(members, key=lambda g: (g.chi_min, str(g.restricted)))
        unit_of = {chi.min_index: self.unit_germ(chi) for chi in chars}
        by_range: dict[int, list[Germ]] = {}
        for h in elements:
            by_range.setdefault(members[h][1], []).append(h)
        product = {}
        for g in elements:
            for h in by_range.get(members[g][0], ()):
                st = self.hull._compose(g.number, h.number)
                product[(g, h)] = self._in_domain(st, h.chi_min)[0]
        gpd = FiniteGroupoid(elements,
                             source={g: unit_of[members[g][0]] for g in elements},
                             range_={g: unit_of[members[g][1]] for g in elements},
                             product=product,
                             units=tuple(unit_of[chi.min_index] for chi in chars))
        return GermGroupoid(gpd, self, char_by_min)


@dataclass
class GermGroupoid:
    """A built germ groupoid plus the dictionaries linking germs back to the hull."""

    groupoid: FiniteGroupoid
    ctx: GermContext
    char_by_min: dict[int, Character]

    def restrict_to(self, chars) -> "GermGroupoid":
        """Full subgroupoid over a sub-character-set (boundary restriction)."""
        keep_min = {chi.min_index for chi in chars}
        g0 = self.groupoid
        sub = g0.subgroupoid(
            [g for g in g0.elements
             if g0.source[g].chi_min in keep_min and g0.range[g].chi_min in keep_min],
            units=tuple(u for u in g0.units if u.chi_min in keep_min))
        return GermGroupoid(sub, self.ctx, {m: c for m, c in self.char_by_min.items()
                                            if m in keep_min})

    def boundary_invariance_holds(self, boundary_chars) -> bool:
        """act maps boundary characters to boundary characters for every element."""
        keep = {chi.min_index for chi in boundary_chars}
        for g in self.groupoid.elements:
            if self.groupoid.source[g].chi_min in keep:
                if self.groupoid.range[g].chi_min not in keep:
                    return False
        return True
