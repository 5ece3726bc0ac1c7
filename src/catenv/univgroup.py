"""Universal groups of finite groupoids and the induced cocycles on germ groupoids.

The universal group of a finite groupoid is the free product, over orbits, of a
free group on the non-representative units with the isotropy group of the
representative. Words live in that free product; the j-map sends a groupoid
element g ∈ 𝔊_y^z to  z̄ · (γ_z⁻¹ g γ_y) · ȳ⁻¹  with connectors γ chosen per unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .gpd import FiniteGroupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection, ZeroElement
from .germs import GermGroupoid


@dataclass(frozen=True)
class XLetter:
    orbit_rep: object
    unit: object
    exp: int

    def render(self):
        base = f"x~{self.unit}"
        return base if self.exp == 1 else f"{base}^{self.exp}"


@dataclass(frozen=True)
class IsoLetter:
    orbit_rep: object
    element: object

    def render(self):
        return f"iso({self.element})@{self.orbit_rep}"


@dataclass(frozen=True)
class UGWord:
    letters: tuple

    @property
    def is_identity(self):
        return not self.letters

    def render(self):
        if self.is_identity:
            return "1"
        return "·".join(l.render() for l in self.letters)

    def __repr__(self):
        return self.render()


@dataclass
class OrbitData:
    groupoid: FiniteGroupoid
    representatives: list          # one unit per orbit
    orbit_of: dict                 # unit -> representative
    connectors: dict               # unit v -> γ_v ∈ 𝔊_u^v
    x_letters: dict                # representative -> tuple of non-rep units
    isotropy: dict = field(default_factory=dict)  # representative -> element list


def universal_group(g: FiniteGroupoid, seed: int = 0) -> OrbitData:
    """Orbit representatives, connectors and the free-product presentation data."""
    rng = random.Random(seed)
    orbits = g.orbits()
    data = OrbitData(g, [], {}, {}, {})
    for orbit in orbits:
        candidates = list(orbit)
        if seed:
            rng.shuffle(candidates)
        u = candidates[0]
        data.representatives.append(u)
        for v in orbit:
            data.orbit_of[v] = u
            choices = sorted(g.hom_set(u, v), key=str)
            if seed:
                rng.shuffle(choices)
            data.connectors[v] = u if v == u else choices[0]
        data.connectors[u] = u
        data.x_letters[u] = tuple(v for v in orbit if v != u)
        data.isotropy[u] = tuple(sorted(g.isotropy(u), key=str))
    return data


def reduce_word(od: OrbitData, letters) -> UGWord:
    """Confluent free-product reduction: merge same-factor neighbours, drop identities."""
    stack = []
    for letter in letters:
        if isinstance(letter, XLetter) and letter.exp == 0:
            continue
        if isinstance(letter, IsoLetter) and letter.element == letter.orbit_rep:
            continue
        stack.append(letter)
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if isinstance(a, XLetter) and isinstance(b, XLetter) and a.unit == b.unit:
                merged = XLetter(a.orbit_rep, a.unit, a.exp + b.exp)
                stack[-2:] = [] if merged.exp == 0 else [merged]
            elif isinstance(a, IsoLetter) and isinstance(b, IsoLetter) \
                    and a.orbit_rep == b.orbit_rep:
                prod = od.groupoid.mul(a.element, b.element)
                stack[-2:] = [] if prod == a.orbit_rep else [IsoLetter(a.orbit_rep, prod)]
            else:
                break
    return UGWord(tuple(stack))


def word_mul(od: OrbitData, w1: UGWord, w2: UGWord) -> UGWord:
    return reduce_word(od, w1.letters + w2.letters)


def j_map(g_el, od: OrbitData) -> UGWord:
    """j(g) = z̄ (γ_z⁻¹ g γ_y) ȳ⁻¹, with ū empty for representatives u."""
    gpd = od.groupoid
    y, z = gpd.source[g_el], gpd.range[g_el]
    u = od.orbit_of[y]
    if od.orbit_of[z] != u:
        raise ValueError("source and range lie in different orbits")
    middle = gpd.mul(gpd.mul(gpd.inv(od.connectors[z]), g_el), od.connectors[y])
    letters = []
    if z != u:
        letters.append(XLetter(u, z, 1))
    letters.append(IsoLetter(u, middle))
    if y != u:
        letters.append(XLetter(u, y, -1))
    return reduce_word(od, letters)


# -- functors from categories into groupoid targets ----------------------------


class CategoryFunctor:
    """Object and generator images in a groupoid target, validated on a ball
    (the whole category when finite, else radius 4)."""

    def __init__(self, pres, target, object_map: dict, generator_map: dict):
        self.p = pres
        self.target = target
        self.object_map = dict(object_map)
        self.generator_map = dict(generator_map)
        self._check()

    def _is_finite_groupoid(self):
        return isinstance(self.target, FiniteGroupoid)

    def _mul(self, a, b):
        return self.target.mul(a, b)

    def of(self, m) -> object:
        """Image of a morphism: product of generator images along the word."""
        if m.is_identity:
            if self._is_finite_groupoid():
                return self.object_map[m.dom]
            return self.target.unit
        acc = None
        for letter in m.word:
            img = self.generator_map[letter]
            acc = img if acc is None else self._mul(acc, img)
        return acc

    def _check(self):
        ball = self.p.ball(None if self.p.is_finite else 4)
        for c in ball:
            for d in ball:
                cd = self.p.compose(c, d)
                if cd is None:
                    continue
                if self.of(cd) != self._mul(self.of(c), self.of(d)):
                    raise ValueError(f"not a functor: breaks at {c}·{d}")

    def injective_on(self, ball) -> bool:
        images = [self.of(m) for m in ball]
        return len(set(images)) == len(ball)


def rho_tilde(hull_ctx: InverseHull, s: PiecewiseBijection, rho: CategoryFunctor):
    """The groupoid element with ρ(s(x)) = ρ̃(s)ρ(x); read off any piece, cross-checked."""
    if s.is_zero:
        raise ZeroElement("ρ̃ is undefined at 0")
    target = rho.target
    values = []
    for a, b in s.pieces:
        values.append(target.mul(rho.of(a), target.inv(rho.of(b))))
    if len(set(values)) != 1:
        raise ValueError(f"ρ̃ not well defined across pieces of {s}")
    return values[0]


class Cocycle:
    """κ([s,χ]) for a germ groupoid: the j-image (finite target) or the raw group
    element (one-unit group targets such as ℤ^k)."""

    def __init__(self, germ_gpd: GermGroupoid, rho: CategoryFunctor, seed: int = 0):
        self.gg = germ_gpd
        self.rho = rho
        self.finite_target = isinstance(rho.target, FiniteGroupoid)
        self.od = universal_group(rho.target, seed) if self.finite_target else None
        self._cache = {}

    def of(self, germ):
        if germ not in self._cache:
            val = rho_tilde(self.gg.ctx.hull, germ.restricted, self.rho)
            self._cache[germ] = j_map(val, self.od) if self.finite_target else val
        return self._cache[germ]

    def is_identity_value(self, val) -> bool:
        if self.finite_target:
            return val.is_identity
        return self.rho.target.is_unit(val)

    def mul(self, v1, v2):
        if self.finite_target:
            return word_mul(self.od, v1, v2)
        return self.rho.target.mul(v1, v2)


def kernel_subgroupoid(germ_gpd: GermGroupoid, cocycle: Cocycle) -> FiniteGroupoid:
    """The subgroupoid {g : κ(g) = identity}; same unit space."""
    g0 = germ_gpd.groupoid
    return g0.subgroupoid([cocycle.is_identity_value(cocycle.of(g)) for g in g0.elements],
                          g0._u)


def cocycle_identity_holds(germ_gpd: GermGroupoid, cocycle: Cocycle) -> bool:
    g0 = germ_gpd.groupoid
    for (g, h), gh in g0.product.items():
        if cocycle.of(gh) != cocycle.mul(cocycle.of(g), cocycle.of(h)):
            return False
    return True


def idempotent_pure_check(hull_ctx: InverseHull, closure: HullClosure,
                          rho: CategoryFunctor, radius: int = 4, strict=True):
    """ρ̄(s) trivial must force s idempotent; embeddings guarantee this, so the
    injectivity precondition is checked (strict) or merely recorded (for the
    planted non-injective counterexamples)."""
    ball = hull_ctx.p.ball(None if hull_ctx.p.is_finite else radius)
    if strict and not rho.injective_on(ball):
        raise ValueError("ρ is not injective on the checked ball")
    od = universal_group(rho.target, 0) if isinstance(rho.target, FiniteGroupoid) else None
    for s in closure.nonzero():
        val = rho_tilde(hull_ctx, s, rho)
        trivial = j_map(val, od).is_identity if od is not None \
            else rho.target.is_unit(val)
        if trivial and not hull_ctx.is_idempotent(s):
            return False, s
    return True, None


def partial_action_iso_check(germ_gpd: GermGroupoid, cocycle: Cocycle):
    """[s,χ] ↦ (ρ̄(s), χ) must be a bijective groupoid homomorphism onto its image."""
    g0 = germ_gpd.groupoid
    pair_of = {}
    for g in g0.elements:
        key = (repr(cocycle.of(g)), g0.source[g].chi_min)
        if key in pair_of:
            return False, (pair_of[key], g)
        pair_of[key] = g
    if not cocycle_identity_holds(germ_gpd, cocycle):
        return False, "cocycle identity fails"
    return True, len(pair_of)


# -- enveloping groupoids for the classes where they are computable -------------


def enveloping_groupoid(pres):
    """Env(𝔠) with its functor, for GroupoidSub (ambient) and forest GraphPath
    (pair-groupoid completion of each weakly connected component)."""
    from .categories import GraphPath, GroupoidSub

    if isinstance(pres, GroupoidSub):
        rho = CategoryFunctor(
            pres, pres.ambient,
            object_map={str(u): u for u in (pres._unit_of[o] for o in pres.objects)},
            generator_map={name: pres._by_label[name] for name in pres.generator_names})
        return pres.ambient, rho
    if isinstance(pres, GraphPath):
        parent = {o: o for o in pres.objects}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for name, (d, t) in pres.edges.items():
            a, b = find(d), find(t)
            if a == b:
                raise ValueError("graph has an undirected cycle; Env is infinite")
            parent[max(a, b)] = min(a, b)
        # one pair groupoid per component, assembled as a single groupoid on all objects
        comps: dict = {}
        for o in pres.objects:
            comps.setdefault(find(o), []).append(o)
        elements, source, range_, product = [], {}, {}, {}
        for comp in comps.values():
            for pq in [(p, q) for p in comp for q in comp]:
                elements.append(pq)
                source[pq] = (pq[1], pq[1])
                range_[pq] = (pq[0], pq[0])
        for p, q in elements:
            for q2, r in elements:
                if q2 == q and find(p) == find(q):
                    if find(q) == find(r):
                        product[((p, q), (q, r))] = (p, r)
        env = FiniteGroupoid.from_labels(elements, source, range_, product)
        rho = CategoryFunctor(
            pres, env,
            object_map={o: (o, o) for o in pres.objects},
            generator_map={name: (t, d) for name, (d, t) in pres.edges.items()})
        return env, rho
    raise ValueError(f"no computable enveloping groupoid for {pres.class_name}")
