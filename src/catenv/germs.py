"""Germ groupoids: the transformation groupoid of the hull acting on characters.

A germ [s, χ] is canonicalized by restricting s to the minimal ideal of the
filter of χ, so germ equality is normal-form comparison. The builder produces an
explicit FiniteGroupoid whose units are the characters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gpd import FiniteGroupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection
from .ideals import Character, Semilattice


class NotInDomain(ValueError):
    pass


class NotHausdorff(RuntimeError):
    pass


class InfiniteCharacterSpace(RuntimeError):
    pass


@dataclass(frozen=True)
class Germ:
    chi_min: int                      # index of the character's minimal ideal
    restricted: PiecewiseBijection    # s restricted to that ideal, canonical

    def __repr__(self):
        return f"[{self.restricted} @ χ{self.chi_min}]"


class GermContext:
    """Germ arithmetic over one semilattice + hull closure."""

    def __init__(self, hull_ctx: InverseHull, lat: Semilattice):
        self.hull = hull_ctx
        self.lat = lat
        self.p = hull_ctx.p

    # -- the action on characters -----------------------------------------

    def act(self, s: PiecewiseBijection, chi: Character) -> Character:
        """s.χ, using s.χ_X = χ_{s(X)} for the principal filter at X."""
        dom = self.lat.index[self.lat.canonical(self.hull.domain_parts(s))]
        if not chi.value(dom):
            raise NotInDomain(f"χ({self.lat.ideals[dom]}) = 0")
        restricted = self.hull.restrict(s, self.lat.ideals[chi.min_index].parts)
        image = self.lat.canonical(self.hull.image_parts(restricted))
        return Character(self.lat, self.lat.index[image])

    def act_by_definition(self, s: PiecewiseBijection, chi: Character) -> dict:
        """Oracle form: evaluate s.χ(X) = χ(dom(id_X ∘ s)) on every ideal."""
        out = {}
        for j, X in enumerate(self.lat.ideals):
            idem = self.hull.idempotent(X.parts)
            pulled = self.lat.canonical(self.hull.domain_parts(
                self.hull.hcompose(idem, s)))
            out[j] = chi.value(self.lat.index[pulled])
        return out

    # -- germs --------------------------------------------------------------

    def germ(self, s: PiecewiseBijection, chi: Character) -> Germ:
        dom = self.lat.index[self.lat.canonical(self.hull.domain_parts(s))]
        if not chi.value(dom):
            raise NotInDomain(f"χ({self.lat.ideals[dom]}) = 0")
        restricted = self.hull.restrict(s, self.lat.ideals[chi.min_index].parts)
        return Germ(chi.min_index, restricted)

    def germ_equal(self, s, t, chi: Character) -> bool:
        return self.germ(s, chi) == self.germ(t, chi)

    def unit_germ(self, chi: Character) -> Germ:
        return self.germ(self.hull.idempotent(chi.min_ideal().parts), chi)

    # -- the groupoid ---------------------------------------------------------

    def build_groupoid(self, closure: HullClosure, chars,
                       require_hausdorff: bool = True) -> "GermGroupoid":
        if require_hausdorff:
            verdict = self.hull.hausdorff_check(closure)
            if not verdict.ok:
                raise NotHausdorff(f"separation fails at {verdict.witness}")
        if not self.lat.complete:
            raise InfiniteCharacterSpace("finite character space required")
        char_by_min = {chi.min_index: chi for chi in chars}
        members: dict[Germ, tuple[int, int]] = {}  # germ -> (source min, range min)
        for chi in chars:
            for s in closure.nonzero():
                dom = self.lat.index[self.lat.canonical(self.hull.domain_parts(s))]
                if not chi.value(dom):
                    continue
                tgt = self.act(s, chi)
                if tgt.min_index not in char_by_min:
                    continue  # action leaves the given character set
                members[self.germ(s, chi)] = (chi.min_index, tgt.min_index)
        elements = sorted(members, key=lambda g: (g.chi_min, str(g.restricted)))
        unit_of = {chi.min_index: self.unit_germ(char_by_min[chi.min_index])
                   for chi in chars}
        source = {g: unit_of[members[g][0]] for g in elements}
        range_ = {g: unit_of[members[g][1]] for g in elements}
        product = {}
        by_source: dict[int, list[Germ]] = {}
        rep_of: dict[Germ, PiecewiseBijection] = {}
        for g in elements:
            by_source.setdefault(members[g][0], []).append(g)
        # recover a representative s for each germ: the restriction itself acts the same way
        for g in elements:
            rep_of[g] = g.restricted
        for g in elements:
            gsrc, grng = members[g]
            for h in elements:
                hsrc, hrng = members[h]
                if hrng != gsrc:
                    continue
                st = self.hull.hcompose(rep_of[g], rep_of[h])
                prod = self.germ(st, char_by_min[hsrc])
                product[(g, h)] = prod
        gpd = FiniteGroupoid(elements,
                             source={g: source[g] for g in elements},
                             range_={g: range_[g] for g in elements},
                             product=product,
                             units=tuple(unit_of[chi.min_index] for chi in chars))
        return GermGroupoid(gpd, self, char_by_min, rep_of)


@dataclass
class GermGroupoid:
    """A built germ groupoid plus the dictionaries linking germs back to the hull."""

    groupoid: FiniteGroupoid
    ctx: GermContext
    char_by_min: dict[int, Character]
    rep_of: dict[Germ, PiecewiseBijection]

    def char_of_unit(self, unit: Germ) -> Character:
        return self.char_by_min[unit.chi_min]

    def restrict_to(self, chars) -> "GermGroupoid":
        """Full subgroupoid over a sub-character-set (boundary restriction)."""
        keep_min = {chi.min_index for chi in chars}
        g0 = self.groupoid
        elements = [g for g in g0.elements
                    if g0.source[g].chi_min in keep_min and g0.range[g].chi_min in keep_min]
        kept = set(elements)
        product = {(g, h): gh for (g, h), gh in g0.product.items()
                   if g in kept and h in kept}
        sub = FiniteGroupoid(elements,
                             source={g: g0.source[g] for g in elements},
                             range_={g: g0.range[g] for g in elements},
                             product=product,
                             units=tuple(u for u in g0.units if u.chi_min in keep_min))
        return GermGroupoid(sub, self.ctx, {m: c for m, c in self.char_by_min.items()
                                            if m in keep_min}, dict(self.rep_of))

    def boundary_invariance_holds(self, boundary_chars) -> bool:
        """act maps boundary characters to boundary characters for every element."""
        keep = {chi.min_index for chi in boundary_chars}
        for g in self.groupoid.elements:
            if self.groupoid.source[g].chi_min in keep:
                if self.groupoid.range[g].chi_min not in keep:
                    return False
        return True
