"""Right LCM monoid analysis: LCM certification, the core submonoid, fractions of
core elements, the boundary cocycle, and the consolidated injectivity report.

Core membership is only certified structurally or refuted by an explicit witness;
ball searches alone never certify it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import (CategoryPresentation, DirectProduct, FreeMonoid,
                         GraphPath, GroupoidSub, Morphism, NkMonoid)
from .hull import HullClosure, InverseHull, PiecewiseBijection
from .report import Entry


class NotCore(ValueError):
    pass


@dataclass
class LcmVerdict:
    is_lcm: bool | None
    mode: str  # "structural" | "exhaustive" | "bounded(N)"
    witness: object = None


@dataclass
class CoreCert:
    morphism: Morphism
    status: str  # "in_core" | "not_in_core" | "inconclusive"
    mode: str
    witness: Morphism | None = None


@dataclass(frozen=True)
class Fraction:
    num: Morphism
    den: Morphism

    def __repr__(self):
        return f"{self.num}·{self.den}⁻¹"


def _is_monoid(pres: CategoryPresentation) -> bool:
    return len(pres.objects) == 1


def is_right_lcm(pres: CategoryPresentation, bound: int = 4) -> LcmVerdict:
    """Intersections of principal right ideals are empty or principal."""
    if isinstance(pres, (FreeMonoid, NkMonoid, GraphPath)):
        return LcmVerdict(True, "structural")
    if isinstance(pres, GroupoidSub):
        return LcmVerdict(True, "structural")  # cP ∩ dP is a union of cosets: principal here
    if isinstance(pres, DirectProduct):
        left = is_right_lcm(pres.left, bound)
        right = is_right_lcm(pres.right, bound)
        if left.is_lcm and right.is_lcm:
            mode = "structural" if left.mode == right.mode == "structural" else left.mode
            return LcmVerdict(True, mode)
    ball = pres.ball(None if pres.is_finite else bound)
    for c in ball:
        for d in ball:
            pairs = pres.align(c, d)
            if len(pairs) > 1:
                return LcmVerdict(False, "exhaustive" if pres.is_finite
                                  else f"bounded({bound})", witness=(c, d))
    return LcmVerdict(True if pres.is_finite else None,
                      "exhaustive" if pres.is_finite else f"bounded({bound})")


def core_membership(pres: CategoryPresentation, c: Morphism,
                    bound: int = 4) -> CoreCert:
    """cP must meet dP for every d; witnesses refute, structure certifies."""
    if c.is_identity:
        return CoreCert(c, "in_core", "structural")
    if isinstance(pres, NkMonoid):
        return CoreCert(c, "in_core", "structural")
    if isinstance(pres, GroupoidSub) and len(pres.objects) == 1:
        return CoreCert(c, "in_core", "structural")  # group elements are invertible
    if isinstance(pres, FreeMonoid):
        if len(pres.letters) == 1:
            return CoreCert(c, "in_core", "structural")
        other = next(l for l in pres.letters if l != c.word[0])
        return CoreCert(c, "not_in_core", "structural", witness=pres.word(other))
    if isinstance(pres, DirectProduct):
        c1, c2 = pres.split(c)
        left = core_membership(pres.left, c1, bound)
        right = core_membership(pres.right, c2, bound)
        if left.status == right.status == "in_core":
            return CoreCert(c, "in_core", "structural")
        for part, sub, lift in ((left, pres.left, lambda w: pres.pair(w, c2)),
                                (right, pres.right, lambda w: pres.pair(c1, w))):
            if part.status == "not_in_core":
                # a witness in one factor lifts with the other factor's identity
                w = part.witness
                other = pres.right if sub is pres.left else pres.left
                wit = pres.pair(w, other.identity(other.objects[0])) \
                    if sub is pres.left else \
                    pres.pair(pres.left.identity(pres.left.objects[0]), w)
                return CoreCert(c, "not_in_core", part.mode, witness=wit)
    for d in pres.ball(None if pres.is_finite else bound):
        if not pres.align(c, d):
            return CoreCert(c, "not_in_core",
                            "exhaustive" if pres.is_finite else f"bounded({bound})",
                            witness=d)
    if pres.is_finite:
        return CoreCert(c, "in_core", "exhaustive")
    return CoreCert(c, "inconclusive", f"bounded({bound})")


class OreGroup:
    """Fractions c·d⁻¹ of core elements, resolved through right multiples."""

    def __init__(self, pres: CategoryPresentation, bound=4):
        if not _is_monoid(pres):
            raise ValueError("fractions need a monoid")
        self.p = pres
        self.bound = bound

    def _check_core(self, m: Morphism):
        cert = core_membership(self.p, m, self.bound)
        if cert.status == "not_in_core":
            raise NotCore(f"{m} is not in the core (witness {cert.witness})")

    def fraction(self, num: Morphism, den: Morphism) -> Fraction:
        self._check_core(num)
        self._check_core(den)
        return Fraction(num, den)

    @property
    def identity(self) -> Fraction:
        e = self.p.identity(self.p.objects[0])
        return Fraction(e, e)

    def equal(self, f1: Fraction, f2: Fraction) -> bool:
        """(c,d) ~ (a,b) iff dx = by and cx = ay at the least common multiple."""
        pairs = self.p.align(f1.den, f2.den)
        if not pairs:
            raise NotCore(f"denominators {f1.den}, {f2.den} never meet")
        x, y = pairs[0]
        return self.p.compose(f1.num, x) == self.p.compose(f2.num, y)

    def mul(self, f1: Fraction, f2: Fraction) -> Fraction:
        """c d⁻¹ · a b⁻¹ = (cx)(by)⁻¹ where dx = ay."""
        pairs = self.p.align(f1.den, f2.num)
        if not pairs:
            raise NotCore(f"{f1.den} and {f2.num} never meet")
        x, y = pairs[0]
        return Fraction(self.p.compose(f1.num, x), self.p.compose(f2.den, y))

    def inv(self, f: Fraction) -> Fraction:
        return Fraction(f.den, f.num)

    def is_identity(self, f: Fraction) -> bool:
        return self.equal(f, self.identity)


def kappa0(hull_ctx: InverseHull, s: PiecewiseBijection, ore: OreGroup) -> Fraction:
    """κ₀ of a germ of s at a boundary character with full support (χ∞ regime).

    Every piece (a, b) with core entries yields the fraction a·b⁻¹; pieces of one
    element must agree, which is the well-definedness of the cocycle.
    """
    if s.is_zero:
        raise NotCore("zero element has no fraction")
    fractions = [ore.fraction(a, b) for a, b in s.pieces]
    first = fractions[0]
    for other in fractions[1:]:
        if not ore.equal(first, other):
            raise NotCore(f"pieces of {s} give inequivalent fractions")
    return first


def germ_equal_at_full_support(hull_ctx: InverseHull, s: PiecewiseBijection,
                               t: PiecewiseBijection) -> bool:
    """[s,χ] = [t,χ] for the everything-is-one character: agreement on some
    principal ideal inside both domains."""
    p = hull_ctx.p
    for a1, b1 in s.pieces:
        for a2, b2 in t.pieces:
            for x, y in p.align(b1, b2):
                if p.compose(a1, x) == p.compose(a2, y):
                    return True
    return False


@dataclass
class CoreUnitaryVerdict:
    morphism: Morphism
    status: str           # "certified" | "bounded-evidence"
    branch: str           # "no-zero" | "cover"
    detail: str = ""


def core_unitary_check(pres, c: Morphism, hull_ctx: InverseHull,
                       closure: HullClosure, bound: int = 4) -> CoreUnitaryVerdict:
    """1_{[c,∂Ω]} is a unitary: either ∂Ω is the single full character (no zero in
    the hull) or {cP} covers P so tight characters give χ(cP) = 1."""
    cert = core_membership(pres, c, bound)
    if cert.status == "not_in_core":
        raise NotCore(f"{c} is not core (witness {cert.witness})")
    has_zero = hull_ctx.contains_zero(closure)
    if not has_zero:
        if isinstance(pres, NkMonoid) or closure.complete:
            return CoreUnitaryVerdict(c, "certified", "no-zero",
                                      "boundary is the single full character")
        return CoreUnitaryVerdict(c, "bounded-evidence", "no-zero",
                                  f"no zero up to bound {closure.bound}")
    # {cP} must cover P: every dP meets cP
    ball = pres.ball(None if pres.is_finite else bound)
    for d in ball:
        if not pres.align(c, d):
            raise NotCore(f"{{cP}} fails to cover P at {d}")
    status = "certified" if pres.is_finite else "bounded-evidence"
    return CoreUnitaryVerdict(c, status, "cover",
                              f"{{c·P}} meets every principal ideal"
                              + ("" if pres.is_finite else f" in ball({bound})"))


def transformation_iso_check(pres, hull_ctx: InverseHull, closure: HullClosure,
                             ore: OreGroup, sample_limit=200):
    """Germs at the full-support character map to fractions: the map must be
    well defined, injective on the sample, and multiplicative."""
    elements = [s for s in closure.nonzero()]
    fractions = {}
    for s in elements[:sample_limit]:
        try:
            fractions[s] = kappa0(hull_ctx, s, ore)
        except NotCore:
            continue
    items = list(fractions.items())
    for i, (s, fs) in enumerate(items):
        for t, ft in items[i + 1:]:
            same_germ = germ_equal_at_full_support(hull_ctx, s, t)
            same_frac = ore.equal(fs, ft)
            if same_germ != same_frac:
                return False, (s, t)
    checked = 0
    for s, fs in items:
        for t, ft in items:
            st = hull_ctx.hcompose(s, t)
            if st.is_zero or st not in fractions:
                continue
            if not ore.equal(fractions[st], ore.mul(fs, ft)):
                return False, ("cocycle", s, t)
            checked += 1
    return True, checked


def starling_report(pres, bound: int = 4, sample: int = 40) -> list[Entry]:
    """Consolidated verdict chain for the boundary-core reduction of a monoid."""
    entries = []
    lcm = is_right_lcm(pres, bound)
    if lcm.is_lcm is False:
        entries.append(Entry("right-lcm", "rejected",
                             f"two-element alignment at {lcm.witness}",
                             witness=lcm.witness))
        return entries
    entries.append(Entry("right-lcm",
                         "certified" if lcm.mode in ("structural", "exhaustive")
                         else "bounded-evidence", lcm.mode))
    hull_ctx = InverseHull(pres)
    closure = hull_ctx.generate(None if pres.is_finite else bound)
    ball = pres.ball(None if pres.is_finite else bound)
    core = [c for c in ball
            if core_membership(pres, c, bound).status == "in_core"][:sample]
    entries.append(Entry("core-elements",
                         "certified" if pres.is_finite else "bounded-evidence",
                         f"{len(core)} certified core elements in the window"))
    ore = OreGroup(pres, bound=bound)
    try:
        iso_ok, info = transformation_iso_check(pres, hull_ctx, closure, ore, sample)
        entries.append(Entry(
            "fraction-germ-correspondence",
            ("certified" if pres.is_finite else "bounded-evidence") if iso_ok
            else "rejected",
            f"{info} composable pairs matched" if iso_ok else f"mismatch {info}"))
    except NotCore as exc:
        entries.append(Entry("fraction-germ-correspondence",
                             "bounded-evidence", f"partial core: {exc}"))
    # κ₀ kernel: a trivial fraction forces numerator = denominator (core injectivity)
    kernel_ok = True
    for s in closure.nonzero()[:sample]:
        try:
            f = kappa0(hull_ctx, s, ore)
        except NotCore:
            continue
        if ore.is_identity(f) and f.num != f.den:
            kernel_ok = False
    entries.append(Entry("cocycle-kernel",
                         "certified" if pres.is_finite and kernel_ok
                         else ("bounded-evidence" if kernel_ok else "rejected"),
                         "trivial fractions come from equal numerator and denominator"))
    checked = 0
    for c in core[:10]:
        core_unitary_check(pres, c, hull_ctx, closure, bound)
        checked += 1
    entries.append(Entry("core-unitaries",
                         "certified" if pres.is_finite else "bounded-evidence",
                         f"{checked} core elements give boundary unitaries"))
    return entries
