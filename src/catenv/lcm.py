"""Right LCM monoid analysis: LCM certification, the core submonoid, fractions of
core elements, the boundary cocycle, and the consolidated injectivity report.

Core membership is only certified structurally or refuted by an explicit witness;
ball searches alone never certify it.

The fraction chain runs on the numbers of an inverse hull: a fraction c·d⁻¹ is
the pair (c, d) of morphism numbers, and an element is its number, with its
pieces read from its code. Fraction arithmetic, κ₀ and germ equality read the
hull's alignments, composites and products, cached on integer keys, so each
oracle of the presentation runs once per argument pair. The hull numbers
morphisms by value, so equal numbers are equal morphisms, and each comparison
of numbers decides the comparison of morphisms it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import (CategoryPresentation, DirectProduct, FreeMonoid,
                         GraphPath, GroupoidSub, Morphism, NkMonoid)
from .hull import HullClosure, InverseHull
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
        for part, sub in ((left, pres.left), (right, pres.right)):
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
    """Fractions c·d⁻¹ of core elements, resolved through right multiples.

    A fraction is the pair (c, d) of the numbers `hull` gives its morphisms.
    An entry is refused when `core_membership` refutes it, which is decided
    once per morphism number.
    """

    def __init__(self, hull: InverseHull, bound=4):
        pres = hull.p
        if not _is_monoid(pres):
            raise ValueError("fractions need a monoid")
        self.hull = hull
        self.bound = bound
        self._core: dict[int, bool] = {}  # morphism number -> not refuted as core
        e = hull._morphism(pres.identity(pres.objects[0]))
        self.identity = (e, e)

    def _in_core(self, m: int) -> bool:
        ok = self._core.get(m)
        if ok is None:
            cert = core_membership(self.hull.p, self.hull._morphisms[m], self.bound)
            ok = self._core[m] = cert.status != "not_in_core"
        return ok

    def equal(self, f1, f2) -> bool:
        """(c,d) ~ (a,b) iff dx = by and cx = ay at the least common multiple."""
        (c, d), (a, b) = f1, f2
        pairs = self.hull._alignments[(d << 32) | b]
        if not pairs:
            ms = self.hull._morphisms
            raise NotCore(f"denominators {ms[d]}, {ms[b]} never meet")
        x, y = pairs[0]
        mul = self.hull._composites
        return mul[(c << 32) | x] == mul[(a << 32) | y]

    def mul(self, f1, f2) -> tuple[int, int]:
        """c d⁻¹ · a b⁻¹ = (cx)(by)⁻¹ where dx = ay."""
        (c, d), (a, b) = f1, f2
        pairs = self.hull._alignments[(d << 32) | a]
        if not pairs:
            ms = self.hull._morphisms
            raise NotCore(f"{ms[d]} and {ms[a]} never meet")
        x, y = pairs[0]
        mul = self.hull._composites
        return mul[(c << 32) | x], mul[(b << 32) | y]

    def kappa0(self, numbers) -> dict[int, tuple[int, int]]:
        """κ₀ of the germs of the elements numbered `numbers` at a boundary
        character with full support (χ∞ regime), keyed by element number.

        Every piece (a, b) with core entries yields the fraction a·b⁻¹; pieces
        of one element must agree, which is the well-definedness of the
        cocycle. The zero, and an element with a refuted entry or with pieces
        that disagree or never meet, have no κ₀ and are left out.
        """
        codes, fractions = self.hull._codes, {}
        for i in numbers:
            code = codes[i]
            if not (code and all(self._in_core(a) and self._in_core(b) for a, b in code)):
                continue
            try:
                if all(self.equal(code[0], f) for f in code[1:]):
                    fractions[i] = code[0]
            except NotCore:
                continue
        return fractions


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


def transformation_iso_check(ore: OreGroup, fractions: dict[int, tuple[int, int]]):
    """Germs at the full-support character map to fractions: the map must be
    well defined, injective on the sample, and multiplicative.

    `fractions` is `ore.kappa0` of the sample: element numbers of `ore.hull`
    to (num, den) pairs of its morphism numbers. The hull numbers morphisms
    and elements by value, so equal numbers are equal morphisms or elements:
    products are formed and looked up as numbers, and elements are built only
    for a witness.
    [s,χ] = [t,χ] at the everything-is-one character when s and t agree on
    some principal ideal inside both domains. A mismatch is witnessed by the
    elements (s, t), or ("cocycle", s, t) when κ₀(s∘t) ≠ κ₀(s)·κ₀(t).
    """
    hull = ore.hull
    codes, align, mul, element = hull._codes, hull._alignments, hull._composites, hull.element
    items = list(fractions.items())
    for k, (i, fi) in enumerate(items):
        for j, fj in items[k + 1:]:
            same_germ = any(mul[(a1 << 32) | x] == mul[(a2 << 32) | y]
                            for a1, b1 in codes[i] for a2, b2 in codes[j]
                            for x, y in align[(b1 << 32) | b2])
            if same_germ != ore.equal(fi, fj):
                return False, (element(i), element(j))
    checked = 0
    for i, fi in items:
        for j, fj in items:
            fij = fractions.get(hull._compose(i, j))
            if fij is None:  # zero, or outside the sample
                continue
            if not ore.equal(fij, ore.mul(fi, fj)):
                return False, ("cocycle", element(i), element(j))
            checked += 1
    return True, checked


def starling_report(pres, bound: int = 4, sample: int = 40,
                    hull: InverseHull | None = None) -> list[Entry]:
    """Consolidated verdict chain for the boundary-core reduction of a monoid.
    `hull` is an inverse hull of `pres` to walk, with the products it has
    cached; a new one by default."""
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
    hull_ctx = hull if hull is not None else InverseHull(pres)
    closure = hull_ctx.generate(None if pres.is_finite else bound)
    ball = pres.ball(None if pres.is_finite else bound)
    core = [c for c in ball
            if core_membership(pres, c, bound).status == "in_core"][:sample]
    entries.append(Entry("core-elements",
                         "certified" if pres.is_finite else "bounded-evidence",
                         f"{len(core)} certified core elements in the window"))
    ore = OreGroup(hull_ctx, bound=bound)
    # the first nonzero numbers in the closure's order (the zero is number 0)
    fractions = ore.kappa0([n for n in hull_ctx._ordered(closure.numbers) if n][:sample])
    try:
        iso_ok, info = transformation_iso_check(ore, fractions)
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
    for f in fractions.values():
        if ore.equal(f, ore.identity) and f[0] != f[1]:
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
