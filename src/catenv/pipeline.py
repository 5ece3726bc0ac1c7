"""End-to-end verification pipelines over one fixture.

The thesis pipeline runs: validation → hull closure → ideal lattice → boundary →
separation check → germ groupoid → matrix models → boundary isometry → envelope,
and reports one `report.Entry` per stage; `PipelineResult.exit_code` is the
report's exit-code rule. The boundary side is read off one cover of the
spectrum algebra C*(G_Ω). When the spectrum groupoid is principal that cover
is exact (`spectrum_cover`): C*(G) ≅ ⊕_orbits M_|O|, one block per orbit on
that orbit's coordinates of the groupoid representation, checked by counting
Σ|O|² against the spanning family's rank, with no product closure and no
numerical decomposition. Otherwise (isotropy) the algebra the spanning family
generates is decomposed numerically by `block_decompose`. Every spanning
matrix is a `perm` index array: `jack_check` runs on those arrays, and so does
the count that the morphism maps generate the cover (`generated_dim`), before
the Shilov search. The restriction π to the boundary model, the only map that
reads it, kills a set of blocks of that cover (`boundary_quotient`). On every
cover π is certified with no trials: the boundary coordinates reduce every
spanning matrix and each boundary matrix is the spectrum one restricted to
them, so π is a compression by a central projection, and it kills the blocks
whose isometries have no weight on those coordinates. A boundary model that
is not such a compression is an internal fault (`NotACompression`).
`boundary-isometry` is `is_boundary_ideal` on the kernel
mask (exact when every killed block is a coordinate compression of a kept
one, as on the orbit cover of every shipped category), and the boundary
algebra's blocks are the cover's blocks outside it. The Shilov search reads
that verdict instead of searching the kernel mask again (`shilov_seeds`).
The envelope entries compare the two masks and the diagonal's ranks in the
two quotients (`envelope_coincidence`). On the orbit cover these stages
read index arrays and slices: the kernel pre-tests decide on the morphism
maps' arrays, block coordinates are slices of the
matrix, and the diagonal's ranks are taken on its diagonal entries at the
kept coordinates (`image_rows`). Finite fixtures get exact verdicts;
infinite ones run in a truncation window and are downgraded to bounded
evidence, carrying the LCM chain's entries under an `lcm:` prefix for monoids.

`truncation_norm_study` compares windowed norms under λ and ⊕ϑ_χ across
window depths; it is evidence, never certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ideals as IL
from . import perm
from .categories import CategoryPresentation
from .envelope import (FinDimCStar, NotACover, block_decompose, detects_ideals,
                       generated_dim, image_rows, is_boundary_ideal, orbit_cover,
                       search_levels, shilov_ideal)
from .germs import GermContext
from .hull import InverseHull
from .matrixrep import (GermModel, IsometryVerdict, LambdaRep, NumericalFailure, ThetaRep,
                        _joint_rank, jack_check, matrix_rank, window_arrays,
                        windowed_norm)
from .matrixrep import complete_isometry_check  # noqa: F401  traced by bench/layers.py
from .report import Entry, exit_code


@dataclass
class PipelineResult:
    entries: list[Entry]
    context: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return exit_code(self.entries)


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

    separation = hull.hausdorff_check(closure)
    entries.append(Entry("separation",
                         "certified" if separation == "certified" else "bounded-evidence",
                         "every fixed-point set is a union of constructible ideals",
                         {"status": separation}))
    if stop_after == "hull":
        return PipelineResult(entries, ctx)

    if not finite:
        _bounded_tail(pres, hull, depth, entries, ctx)
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
    # the Λ family spans the Toeplitz algebra: the closure is closed under ∘ and inverse
    dim = info if ok else matrix_rank(perm.support_rows(
        np.array([lam.inverse_perm(hull, s) for s in closure.nonzero()])))
    entries.append(Entry("regular-vs-groupoid-model",
                         "certified" if ok else "rejected",
                         f"spanning correspondence is a *-isomorphism "
                         f"(dimension {dim})" if ok else f"mismatch {info}",
                         {"dim": dim}))

    cover = spectrum_cover(model_omega, info if ok else None, seed=seed)
    ker_mask = boundary_quotient(model_omega, model_bound, cover)
    lv = levels if levels is not None else max(model_bound.rep.block_sizes() + [1])
    # π is isometric off its kernel blocks: its norm is a blockwise maximum
    a_basis = [m for _, m in model_omega.operator_algebra_generators()]
    iso = is_boundary_ideal(a_basis, cover, ker_mask, levels=lv, samples=40, tol=tol,
                            seed=seed,
                            perms=model_omega.spanning_stack[model_omega.generator_rows])
    entries.append(Entry("boundary-isometry", iso.status, isometry_detail(iso, lv),
                         {"levels": lv, "max_deviation": iso.max_deviation}))
    ctx.update(omega_cover=cover, boundary_kernel_mask=ker_mask, boundary_isometry=iso)
    entries.extend(envelope_coincidence(ctx, levels=levels, tol=tol, seed=seed))
    return PipelineResult(entries, ctx)


def isometry_detail(iso: IsometryVerdict, levels: int) -> str:
    """`boundary-isometry`'s detail for `is_boundary_ideal`'s verdict at
    `levels`: the certificate's compressions, or the search's effort."""
    if iso.certificate is not None:
        killed = (f"blocks {sorted(iso.certificate)} are coordinate compressions of "
                  "kept blocks" if iso.certificate else "it kills no block")
        return f"restriction map completely isometric (exact: {killed}, at every level)"
    return (f"restriction map {'' if iso.certified else 'not '}completely "
            f"isometric up to level {levels} (max deviation {iso.max_deviation:.2e}; "
            f"{iso.samples} trials, {iso.restarts} restarts)")


def envelope_coincidence(ctx, levels=None, tol=1e-9, seed=0) -> list[Entry]:
    """Shilov quotient of the spectrum model vs the boundary quotient, both on
    the spectrum model's cover; nothing here reads the boundary model.

    The restriction π is certified a *-homomorphism first
    (`boundary_quotient`). The spanning family
    spans the cover, and π's kernel is an ideal, so it is the sum of the
    blocks it kills, `boundary_kernel_mask`. So π induces a *-isomorphism
    from the quotient by that mask onto C*(G_∂), taking q(m_Ω(s)) to m_∂(s):
    the envelope is the boundary quotient exactly when the masks agree, and
    the ∂-diagonal has the rank of the Ω-diagonal in that quotient. The
    Shilov search needs the morphism maps to generate the cover: that is
    counted on their index arrays (`generated_dim`), else `NotACover`.
    """
    hull, lat, model_omega = ctx["hull"], ctx["lattice"], ctx["model_omega"]
    cover, ker_mask = ctx["omega_cover"], ctx["boundary_kernel_mask"]
    boundary = cover.quotient(ker_mask)
    entries = [Entry("block-structure", "certified",
                     f"spectrum algebra blocks {cover.block_sizes}, "
                     f"boundary algebra blocks {boundary.block_sizes}",
                     {"omega_blocks": cover.block_sizes,
                      "boundary_blocks": boundary.block_sizes})]

    perms = model_omega.spanning_stack[model_omega.generator_rows]
    generated = generated_dim(perms)
    if generated != cover.dim:
        raise NotACover(f"A generates dimension {generated}, cover has {cover.dim}")
    a_basis = [m for _, m in model_omega.operator_algebra_generators()]
    seeds = shilov_seeds(ker_mask, ctx["boundary_isometry"], cover, levels)
    shilov = shilov_ideal(a_basis, cover, levels=levels, tol=tol, seed=seed,
                          verdicts=seeds, perms=perms)
    ctx["shilov"] = shilov
    reused = any(shilov.verdicts.get(m) is v for m, v in seeds.items())
    decided = shilov.verdicts.values()
    entries.append(Entry("shilov-ideal", "certified",
                         f"mask {sorted(shilov.mask)} of blocks {cover.block_sizes}; "
                         f"envelope blocks {shilov.quotient_blocks}; "
                         f"{len(shilov.verdicts)} masks decided, "
                         f"{sum(v.certificate is not None for v in decided)} "
                         "by compression certificate, "
                         f"{sum(v.samples > 0 for v in decided)} by numerical search"
                         + ("; the kernel mask's verdict is boundary-isometry's"
                            if reused else ""),
                         {"mask": sorted(shilov.mask),
                          "envelope_blocks": shilov.quotient_blocks}))

    coincide = ker_mask == shilov.mask
    entries.append(Entry("envelope-coincidence",
                         "certified" if coincide else "rejected",
                         "envelope of the operator algebra is the boundary "
                         "quotient; generator tables match"
                         if coincide else
                         f"kernel mask {sorted(ker_mask)} vs Shilov {sorted(shilov.mask)}",
                         {"kernel_mask": sorted(ker_mask),
                          "shilov_mask": sorted(shilov.mask)}))

    # the diagonal is injectively carried, and detects ideals of the boundary quotient
    idempotents = [hull.idempotent(lat.ideals[i].parts) for i in lat.nonzero_indices()]
    diag_omega = [model_omega.spanning_matrix(e) for e in idempotents]
    in_boundary = image_rows(cover, diag_omega, ker_mask)
    in_envelope = image_rows(cover, diag_omega, shilov.mask)
    rb, re = matrix_rank(in_boundary), matrix_rank(in_envelope)
    joint = _joint_rank(in_boundary, in_envelope)
    injective = rb == re == joint  # well defined and injective from one image to the other
    entries.append(Entry("diagonal-injectivity",
                         "certified" if injective else "rejected",
                         "the canonical diagonal embeds injectively" if injective else
                         f"the canonical diagonal does not embed injectively: rank {rb} "
                         f"in the boundary quotient, {re} in the envelope, {joint} "
                         "as pairs",
                         {"diagonal_dim": rb}))
    detects = detects_ideals(diag_omega, boundary)
    entries.append(Entry("diagonal-detects-ideals",
                         "certified" if detects else "bounded-evidence",
                         "every nonzero ideal of the boundary algebra meets the "
                         "diagonal" if detects else
                         "sufficient condition fails (some ideal misses the "
                         "diagonal); coincidence is settled by the Shilov search",
                         {"detects": detects}))
    return entries


def spectrum_cover(model: GermModel, rank=None, seed=0) -> FinDimCStar:
    """The spectrum algebra's cover: one block per orbit (`orbit_cover`) when
    the groupoid is principal, else the numerical decomposition of the algebra
    the spanning family generates. `rank` is the spanning family's, when the
    caller already has it."""
    if not model.rep.g.is_principal():
        return block_decompose(model.reduced_algebra(), seed=seed)
    if rank is None:
        rank = matrix_rank(perm.support_rows(model.spanning_stack))
    return orbit_cover(model.rep.block_sizes(), rank)


def shilov_seeds(ker_mask, iso: IsometryVerdict, cover: FinDimCStar, levels=None) -> dict:
    """The `boundary-isometry` verdict on the kernel mask, as a verdict the
    Shilov search (run with `levels`) may read instead of searching that mask.

    A rejection is sound, with its witness, whatever the effort behind it; a
    certification must reach the search's levels. Its 40 samples cover the
    search's 25."""
    return {} if iso.certified and iso.levels < search_levels(cover, levels) \
        else {ker_mask: iso}


class NotACompression(RuntimeError):
    """The boundary model is not the spectrum model compressed to a reducing
    set of its coordinates. Every model the library builds is, so this is an
    internal fault, not a verdict on the input; exact, so not numerical."""


# a column entry below this is read as zero: the accuracy `block_decompose`
# checks its blocks to
_WEIGHT_TOL = 1e-7


def boundary_quotient(model_omega: GermModel, model_bound: GermModel,
                      cover: FinDimCStar) -> frozenset:
    """The blocks of `cover`, the spectrum algebra's, killed by the restriction
    π: m_Ω(s) ↦ m_∂(s) to the boundary model. Index arrays and the cover's
    isometries only: no trials and no factorization, on every cover.

    Let V be the boundary model's basis, placed among the spectrum model's.
    When every M^Ω_s maps V into V and (M^Ω_s)* does too, V is a reducing
    subspace of the spectrum algebra, so its projection P_V commutes with the
    algebra and a ↦ aP_V is a *-homomorphism. When also every M^∂_s is M^Ω_s
    restricted to V, π is that compression on the spanning family, hence on
    its span. Else `NotACompression` names the first spanning element at
    which this fails.

    The kernel is then read off the cover. The spanning family moves any
    point of ℓ²(G_u) to any other, so a reducing coordinate set is a union of
    whole ℓ²(G_u), and P_V is the unit of those orbits' summands, which is
    central. A block's isotypic component, which holds the range of its
    isometry W_k, therefore lies inside V or outside it, whatever the block's
    multiplicity, and π kills block k exactly when W_k has no weight on V. On
    the orbit cover W_k is identity columns, and the weight is exactly zero
    or not; a float cover (`block_decompose`) whose W_k has weight both on V
    and off it raises `NumericalFailure`.
    """
    inside = _boundary_coordinates(model_omega, model_bound)
    killed = []
    for k, w in enumerate(cover.isometries):
        on, off = (float(np.vdot(part, part).real) for part in (w[inside], w[~inside]))
        if min(on, off) > w.shape[1] * _WEIGHT_TOL ** 2:
            raise NumericalFailure(f"block {k} of the cover straddles the boundary "
                                   f"coordinates (squared weights {on:.2e} on, "
                                   f"{off:.2e} off)")
        if on <= off:
            killed.append(k)
    return frozenset(killed)


def _boundary_coordinates(model_omega: GermModel, model_bound: GermModel) -> np.ndarray:
    """The boundary model's coordinates V among the spectrum model's, as a
    boolean mask, once π is checked to be the compression to V (see
    `boundary_quotient`); else `NotACompression`."""
    at = model_omega.rep.column[[model_omega.gg.position[k] for k in
                                 model_bound.gg.keys[model_bound.rep.positions].tolist()]]
    if (at < 0).any():
        raise NotACompression(f"boundary basis element "
                              f"{model_bound.rep.basis[int(np.argmax(at < 0))]} is "
                              "not in the spectrum model's basis")
    inside = np.zeros(len(model_omega.rep.basis) + 1, dtype=bool)  # index −1: False
    inside[at] = True
    omega, bound = model_omega.spanning_stack, model_bound.spanning_stack
    leaves = ((omega >= 0) & (inside[omega] != inside[:-1])).any(axis=1)
    differs = (omega[:, at] != perm.product(at, bound)).any(axis=1)
    bad = np.flatnonzero(leaves | differs)
    if len(bad):
        s = model_omega.closure.nonzero()[bad[0]]
        raise NotACompression(f"the restriction is not the compression to the boundary "
                              f"coordinates at the spanning element {s!r}: "
                              + ("V does not reduce it" if leaves[bad[0]]
                                 else "its boundary matrix is not its restriction"))
    return inside[:-1]


def _bounded_tail(pres, hull, depth, entries, ctx):
    """Truncation-window evidence for an infinite fixture. A monoid's LCM
    chain walks the same hull to a lower bound, so it reads cached products."""
    lam = LambdaRep.build(pres, radius=depth)
    ctx["lambda_rep"] = lam
    entries.append(Entry("regular-representation", "bounded-evidence",
                         f"window of {len(lam.basis)} basis morphisms at depth {depth}",
                         {"window": len(lam.basis)}))
    if len(pres.objects) == 1:
        from .lcm import starling_report
        entries.extend(replace(item, check=f"lcm:{item.check}")
                       for item in starling_report(pres, bound=min(depth, 4), hull=hull))


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

    xs = list(dict.fromkeys(x for combo in elements for _, x in combo))
    gaps = {}
    for depth in depths:
        lam_basis = LambdaRep.build(pres, radius=depth).basis
        theta_bases = dict.fromkeys(tuple(ThetaRep(pres, hull_ctx, chi, radius=depth).basis)
                                    for chi in boundary_chars)
        # T_x is built once per window; windows with the same arrays (a ϑ window
        # equal to another or to the λ window) have equal norms, taken once
        windows, keys = {}, []
        for basis, action in [(lam_basis, pres.compose),
                              *((basis, theta_action) for basis in theta_bases)]:
            arrays = window_arrays(basis, action, xs)
            keys.append((len(basis), *(arrays[x].tobytes() for x in xs)))
            windows.setdefault(keys[-1], (len(basis), arrays))
        norms = {key: [windowed_norm(combo, arrays, n) for combo in elements]
                 for key, (n, arrays) in windows.items()}
        gaps[depth] = max((abs(n_lam - max(n_theta, default=0.0)) for n_lam, *n_theta
                           in zip(*(norms[key] for key in keys))), default=0.0)
    return gaps
