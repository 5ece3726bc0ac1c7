"""End-to-end verification pipelines over one fixture.

The thesis pipeline runs: validation → hull closure → ideal lattice → boundary →
separation check → germ groupoid → matrix models → boundary isometry → envelope,
and reports one `report.Entry` per stage; `PipelineResult.exit_code` is the
report's exit-code rule. Finite fixtures get exact verdicts; infinite ones run
in a truncation window and are downgraded to bounded evidence, carrying the
LCM chain's entries under an `lcm:` prefix for monoids.

`truncation_norm_study` compares windowed norms under λ and ⊕ϑ_χ across
window depths; it is evidence, never certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ideals as IL
from .categories import CategoryPresentation
from .envelope import (FinDimCStar, SpannedStarMap, block_decompose,
                       detects_ideals, quotient_kernel_mask, shilov_ideal)
from .germs import GermContext
from .hull import InverseHull
from .matrixrep import (AlgebraSpan, GermModel, GroupoidRep, LambdaRep, ThetaRep,
                        complete_isometry_check, jack_check, windowed_norm)
from .report import Entry, exit_code


@dataclass
class PipelineResult:
    entries: list[Entry]
    context: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return exit_code(self.entries)

    def entry(self, check: str) -> Entry:
        for e in self.entries:
            if e.check == check:
                return e
        raise KeyError(check)


def analyze_category(pres: CategoryPresentation, depth: int = 8,
                     levels: int | None = None, tol: float = 1e-9,
                     seed: int = 0, stop_after: str | None = None) -> PipelineResult:
    entries: list[Entry] = []
    ctx: dict = {"presentation": pres}
    finite = pres.is_finite

    rep = pres.validate()
    entries.append(Entry("validation",
                         "certified" if rep.ok and rep.left_cancellative
                         else "rejected",
                         f"mode={rep.mode}"
                         + (f"; {rep.failures[0]}" if rep.failures else ""),
                         {"mode": rep.mode,
                          "left_cancellative": rep.left_cancellative,
                          "right_cancellative": rep.right_cancellative}))
    ctx["validation"] = rep
    if not rep.ok or stop_after == "validation":
        return PipelineResult(entries, ctx)

    hull = InverseHull(pres)
    closure = hull.generate(None if finite else depth)
    ctx["hull"] = hull
    ctx["closure"] = closure
    entries.append(Entry("hull-closure",
                         "certified" if closure.complete else "bounded-evidence",
                         f"{len(closure)} elements"
                         + ("" if closure.complete else f" at bound {depth}"),
                         {"size": len(closure), "complete": closure.complete,
                          "contains_zero": hull.contains_zero(closure)}))

    verdict = hull.hausdorff_check(closure)
    entries.append(Entry("separation",
                         {"certified": "certified",
                          "bounded": "bounded-evidence",
                          "counterexample": "rejected"}[verdict.status],
                         "every fixed-point set is a union of constructible ideals"
                         if verdict.ok else f"witness {verdict.witness}",
                         {"status": verdict.status}))
    if stop_after == "hull" or not verdict.ok:
        return PipelineResult(entries, ctx)

    if not finite:
        _bounded_tail(pres, hull, closure, depth, entries, ctx)
        return PipelineResult(entries, ctx)

    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    maximal = IL.maximal_characters(omega)
    bound_chars = IL.boundary(lat, omega)
    ctx.update(lattice=lat, omega=omega, boundary=bound_chars)
    entries.append(Entry("ideal-lattice", "certified",
                         f"{len(lat.ideals)} constructible ideals, "
                         f"{len(omega)} characters, {len(bound_chars)} boundary",
                         {"ideals": len(lat.ideals), "omega": len(omega),
                          "maximal": len(maximal), "boundary": len(bound_chars)}))
    if lat.has_zero:
        tight = IL.tight_characters(lat, omega)
        same = {c.min_index for c in tight} == {c.min_index for c in bound_chars}
        entries.append(Entry("tightness-boundary-match",
                             "certified" if same else "rejected",
                             "tight characters coincide with the closure "
                             "of the maximal ones",
                             {"tight": len(tight)}))
    if stop_after == "ideals":
        return PipelineResult(entries, ctx)

    germ_ctx = GermContext(hull, lat)
    g_omega = germ_ctx.build_groupoid(closure, omega)
    g_bound = g_omega.restrict_to(bound_chars)
    ctx.update(germs=germ_ctx, groupoid_omega=g_omega, groupoid_boundary=g_bound)
    entries.append(Entry("germ-groupoid", "certified",
                         f"{len(g_omega.groupoid)} germs over the spectrum, "
                         f"{len(g_bound.groupoid)} over the boundary",
                         {"omega_germs": len(g_omega.groupoid),
                          "boundary_germs": len(g_bound.groupoid),
                          "boundary_principal": g_bound.groupoid.is_principal(),
                          "invariant": g_omega.boundary_invariance_holds(bound_chars)}))
    if stop_after == "groupoid":
        return PipelineResult(entries, ctx)

    lam = LambdaRep.build(pres)
    model_omega = GermModel(g_omega, closure)
    model_bound = GermModel(g_bound, closure)
    ctx.update(lambda_rep=lam, model_omega=model_omega, model_boundary=model_bound)
    ok, info = jack_check(hull, closure, model_omega, lam)
    toeplitz = lam.toeplitz_algebra()
    entries.append(Entry("regular-vs-groupoid-model",
                         "certified" if ok else "rejected",
                         f"spanning correspondence is a *-isomorphism "
                         f"(dimension {toeplitz.dim})" if ok else f"mismatch {info}",
                         {"dim": toeplitz.dim}))

    gens = model_omega.operator_algebra_generators()
    pairs = [(m_om, model_bound.spanning_matrix(hull.from_morphism(c)))
             for c, m_om in gens]
    lv = levels
    if lv is None:
        lv = max(GroupoidRep(g_bound.groupoid).block_sizes() + [1])
    iso = complete_isometry_check(pairs, levels=lv, tol=tol, seed=seed)
    entries.append(Entry("boundary-isometry",
                         "certified" if iso.certified else "rejected",
                         f"restriction map completely isometric up to level {lv} "
                         f"(max deviation {iso.max_deviation:.2e})",
                         {"levels": lv, "max_deviation": iso.max_deviation}))
    ctx["boundary_isometry"] = iso
    if stop_after == "isometry":
        return PipelineResult(entries, ctx)

    result = envelope_coincidence(ctx, levels=levels, tol=tol, seed=seed)
    entries.extend(result)
    return PipelineResult(entries, ctx)


def envelope_coincidence(ctx, levels=None, tol=1e-9, seed=0) -> list[Entry]:
    """Shilov quotient of the spectrum model vs the boundary model."""
    entries = []
    hull: InverseHull = ctx["hull"]
    closure = ctx["closure"]
    model_omega: GermModel = ctx["model_omega"]
    model_bound: GermModel = ctx["model_boundary"]

    omega_algebra = model_omega.reduced_algebra()
    cover = block_decompose(omega_algebra, seed=seed)
    ctx["omega_cover"] = cover
    bound_algebra = model_bound.reduced_algebra()
    bound_cover = block_decompose(bound_algebra, seed=seed)
    ctx["boundary_cover"] = bound_cover
    entries.append(Entry("block-structure", "certified",
                         f"spectrum algebra blocks {cover.block_sizes}, "
                         f"boundary algebra blocks {bound_cover.block_sizes}",
                         {"omega_blocks": cover.block_sizes,
                          "boundary_blocks": bound_cover.block_sizes}))

    a_basis = [m for _, m in model_omega.operator_algebra_generators()]
    shilov = shilov_ideal(a_basis, cover, levels=levels, tol=tol, seed=seed)
    ctx["shilov"] = shilov
    entries.append(Entry("shilov-ideal", "certified",
                         f"mask {sorted(shilov.mask)} of blocks {cover.block_sizes}; "
                         f"envelope blocks {shilov.quotient_blocks}",
                         {"mask": sorted(shilov.mask),
                          "envelope_blocks": shilov.quotient_blocks}))

    _, ker_mask, _ = boundary_quotient(model_omega, model_bound, closure, cover,
                                       bound_algebra)
    ctx["boundary_kernel_mask"] = ker_mask
    coincide = ker_mask == shilov.mask
    # certify the generator correspondence boundary → envelope is a *-isomorphism
    pi_pairs = [(model_bound.spanning_matrix(s), cover.rep(model_omega.spanning_matrix(s),
                                                           shilov.mask))
                for s in closure.nonzero()]
    try:
        pi_map = SpannedStarMap(pi_pairs)
        pi_ok = pi_map.check_star_homomorphism() and pi_map.is_injective() \
            and pi_map.image_dim == sum(n * n for k, n in
                                        enumerate(cover.block_sizes)
                                        if k not in shilov.mask)
    except ValueError:
        pi_ok = False
    entries.append(Entry("envelope-coincidence",
                         "certified" if (coincide and pi_ok) else "rejected",
                         "envelope of the operator algebra is the boundary "
                         "quotient; generator tables match"
                         if coincide and pi_ok else
                         f"kernel mask {sorted(ker_mask)} vs Shilov {sorted(shilov.mask)}",
                         {"kernel_mask": sorted(ker_mask),
                          "shilov_mask": sorted(shilov.mask)}))

    # the diagonal is injectively carried and detects ideals in the boundary model
    diag_pairs = []
    lat = ctx["lattice"]
    for i in lat.nonzero_indices():
        idem = hull.idempotent(lat.ideals[i].parts)
        diag_pairs.append((model_bound.spanning_matrix(idem),
                           cover.rep(model_omega.spanning_matrix(idem), shilov.mask)))
    diag_map = SpannedStarMap(diag_pairs)
    diag_basis = [p for p, _ in diag_pairs]
    entries.append(Entry("diagonal-injectivity",
                         "certified" if diag_map.is_injective() else "rejected",
                         "the canonical diagonal embeds injectively",
                         {"diagonal_dim": diag_map.domain_dim}))
    detects = detects_ideals(diag_basis, ctx["boundary_cover"])
    entries.append(Entry("diagonal-detects-ideals",
                         "certified" if detects else "bounded-evidence",
                         "every nonzero ideal of the boundary algebra meets the "
                         "diagonal" if detects else
                         "sufficient condition fails (some ideal misses the "
                         "diagonal); coincidence is settled by the Shilov search",
                         {"detects": detects}))
    return entries


def boundary_quotient(model_omega: GermModel, model_bound: GermModel, closure,
                      cover: FinDimCStar, bound_algebra: AlgebraSpan):
    """Block-coordinate description of the restriction map to the boundary.

    `cover` is the block decomposition of the spectrum model's algebra and
    `bound_algebra` the boundary model's algebra. Returns (star_map,
    kernel_mask, surjective): the map on the spanning family, the cover blocks
    it kills, and whether it fills the boundary algebra.
    """
    pairs = [(model_omega.spanning_matrix(s), model_bound.spanning_matrix(s))
             for s in closure.nonzero()]
    star_map = SpannedStarMap(pairs)
    kernel_mask = quotient_kernel_mask(cover, star_map)
    return star_map, kernel_mask, star_map.image_dim == bound_algebra.dim


def _bounded_tail(pres, hull, closure, depth, entries, ctx):
    """Truncation-window evidence for an infinite fixture."""
    lam = LambdaRep.build(pres, radius=depth)
    ctx["lambda_rep"] = lam
    entries.append(Entry("regular-representation", "bounded-evidence",
                         f"window of {len(lam.basis)} basis morphisms at depth {depth}",
                         {"window": len(lam.basis)}))
    if len(pres.objects) == 1:
        from .lcm import starling_report
        entries.extend(replace(item, check=f"lcm:{item.check}")
                       for item in starling_report(pres, bound=min(depth, 4)))


def truncation_norm_study(pres, hull_ctx, boundary_chars, elements, depths) -> dict:
    """Worst gap per depth between the level-1 norms of sampled algebra
    elements under the truncated regular representation and under the
    truncated ⊕ϑ_χ, whose norm is the largest ‖ϑ_χ‖.

    `elements` are formal combinations [(coeff, morphism), ...]. Norms are
    taken matrix-free by `windowed_norm`.

    On a one-object monoid every character admits every morphism, so each ϑ_χ
    window equals the λ window and the gap is 0 by construction. The
    characters of `ideals.boundary_sample`, the only ones available for
    infinite inputs, are all on one-object monoids, so on them this study
    cannot fail; evidence that can needs more than one object.
    """
    hull_of = {x: hull_ctx.from_morphism(x) for combo in elements for _, x in combo}

    def theta_action(x, d):
        return hull_ctx.apply(hull_of[x], d)

    gaps = {}
    for depth in depths:
        lam_basis = LambdaRep.build(pres, radius=depth).basis
        # characters with the same window have the same ϑ-norm: one evaluation each
        theta_bases = dict.fromkeys(tuple(ThetaRep(pres, hull_ctx, chi, radius=depth).basis)
                                    for chi in boundary_chars)
        worst = 0.0
        for combo in elements:
            n_lam = windowed_norm(combo, lam_basis, pres.compose)
            n_theta = max((windowed_norm(combo, basis, theta_action)
                           for basis in theta_bases), default=0.0)
            worst = max(worst, abs(n_lam - n_theta))
        gaps[depth] = worst
    return gaps
