"""Germ groupoids: the transformation groupoid of the hull acting on characters.

A germ [s, χ] is canonicalized by restricting s to the minimal ideal X of the
filter of χ, so germ equality is normal-form comparison. The builder produces an
explicit FiniteGroupoid whose units are the characters.

A germ is its integer key (r << 32) | x: r numbers the restriction s∘1_X in
the hull, x indexes X. Each (element, character) pair is settled to its key
once. The builder settles only the pairs whose character lies in the domain
and hands `FiniteGroupoid` index tables; a `Germ` label is built once per
germ and is never hashed per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gpd import FiniteGroupoid
from .hull import _LOW, HullClosure, _Table, InverseHull, PiecewiseBijection
from .ideals import Character, Semilattice


class InfiniteCharacterSpace(RuntimeError):
    pass


@dataclass(frozen=True)
class Germ:
    """A germ in normal form, interned by its GermContext (compare germs of one
    context only): equality and hash read the two integers, never the pieces."""

    chi_min: int                      # index of the character's minimal ideal
    restricted: PiecewiseBijection = field(compare=False)  # s on that ideal, canonical
    number: int                       # hull number of `restricted`

    def __repr__(self):
        return f"[{self.restricted} @ χ{self.chi_min}]"


class GermContext:
    """Germ arithmetic over one semilattice + hull closure, on integer keys."""

    def __init__(self, hull_ctx: InverseHull, lat: Semilattice):
        self.hull = hull_ctx
        self.lat = lat
        self._at: dict[int, int] = {}  # (n << 32) | x -> germ key, or -1
        self._image: dict[int, int] = {}  # germ key -> index of the range's minimal ideal
        self._germs = _Table(self, GermContext._fill_germ)  # germ key -> its Germ
        self._units = _Table(self, GermContext._fill_unit)  # x -> number of 1 on ideals[x]

    def _settle(self, n: int, x: int) -> int:
        """The key of [s, χ_X] for s numbered n and X = ideals[x], or −1 when
        χ_X(dom s) = 0."""
        key = (n << 32) | x
        found = self._at.get(key)
        if found is None:
            lat, hull = self.lat, self.hull
            found = -1
            if lat.contains(lat.domain_index(n), x):
                r = hull._compose(n, self._units[x])
                found = (r << 32) | x
                if found not in self._image:
                    self._image[found] = lat.domain_index(hull._inverses[r])
            self._at[key] = found
        return found

    def _fill_unit(self, x: int) -> int:
        return self.hull.index(self.hull.idempotent(self.lat.ideals[x].parts))

    def _fill_germ(self, key: int) -> Germ:
        return Germ(key & _LOW, self.hull.element(key >> 32), key >> 32)

    def at(self, n: int, x: int) -> tuple[Germ, int] | None:
        """([s, χ_X], index of the minimal ideal of s.χ_X) for s numbered n and
        X = ideals[x], or None when χ_X(dom s) = 0."""
        key = self._settle(n, x)
        return None if key < 0 else (self._germs[key], self._image[key])

    # -- the groupoid ---------------------------------------------------------

    def build_groupoid(self, closure: HullClosure, chars) -> "GermGroupoid":
        """The germ groupoid over `chars`. Separation holds by construction
        (`InverseHull.hausdorff_check`), so it is not checked again here.

        Germs are numbered by (character, rendering of the restriction); the
        products run over g in that order and, for each, the h with r(h) =
        s(g) in that order. The tables go to `FiniteGroupoid` as indices."""
        if not self.lat.complete:
            raise InfiniteCharacterSpace("finite character space required")
        char_by_min = {chi.min_index: chi for chi in chars}
        lat, settle, mins = self.lat, self._settle, list(char_by_min)
        numbers = [self.hull.index(s) for s in closure.nonzero()]
        inside = np.array(lat._containment, dtype=bool).reshape(-1, len(lat.ideals))
        inside = inside[[lat.domain_index(n) for n in numbers]][:, mins]
        members: dict[int, int] = {}  # germ key -> range min
        for i, j in zip(*(a.tolist() for a in np.nonzero(inside))):
            key = settle(numbers[i], mins[j])
            if self._image[key] in char_by_min:
                members[key] = self._image[key]
        keys = np.array(sorted(members, key=lambda k: (k & _LOW, str(self._germs[k].restricted))),
                        dtype=np.int64).reshape(-1)
        position = {k: i for i, k in enumerate(keys.tolist())}
        unit_at = np.zeros(len(lat.ideals), dtype=np.intp)  # x -> position of the unit at χ_X
        for x in mins:
            unit_at[x] = position[settle(self._units[x], x)]
        number, source = keys >> 32, keys & _LOW
        range_ = np.array([members[k] for k in keys.tolist()], dtype=np.int64)
        # g·h for r(h) = s(g), g-major: s∘t on X_h is already restricted, so
        # its key is read off the composite of the restrictions
        g, h = np.nonzero(source[:, None] == range_[None, :])
        compose = self.hull._compose
        gh = [position[(compose(a, b) << 32) | x]
              for a, b, x in zip(number[g].tolist(), number[h].tolist(), source[h].tolist())]
        gpd = FiniteGroupoid([self._germs[k] for k in keys.tolist()], unit_at[source],
                             unit_at[range_], np.transpose([g, h, gh]),
                             unit_at[[chi.min_index for chi in chars]])
        return GermGroupoid(gpd, self, char_by_min, keys)


@dataclass
class GermGroupoid:
    """A built germ groupoid, the characters of its units and each element's
    germ key, linking it back to the hull."""

    groupoid: FiniteGroupoid
    ctx: GermContext
    char_by_min: dict[int, Character]
    keys: np.ndarray  # the germ key of each element, in element order

    @cached_property
    def position(self) -> dict[int, int]:
        """Germ key -> element index."""
        return {k: i for i, k in enumerate(self.keys.tolist())}

    def _chi_in(self, chars) -> np.ndarray:
        """Per element: whether its germ's character is among `chars`."""
        return np.isin(self.keys & _LOW, [chi.min_index for chi in chars])

    def restrict_to(self, chars) -> "GermGroupoid":
        """Full subgroupoid over a sub-character-set (boundary restriction)."""
        g0, on = self.groupoid, self._chi_in(chars)  # a germ's character is its source
        keep = on[g0._s] & on[g0._r]
        keep_min = {chi.min_index for chi in chars}
        sub = g0.subgroupoid(keep, g0._u[on[g0._u]])
        return GermGroupoid(sub, self.ctx, {m: c for m, c in self.char_by_min.items()
                                            if m in keep_min}, self.keys[keep])

    def boundary_invariance_holds(self, boundary_chars) -> bool:
        """act maps boundary characters to boundary characters for every element."""
        g0, on = self.groupoid, self._chi_in(boundary_chars)
        return not (on[g0._s] & ~on[g0._r]).any()
