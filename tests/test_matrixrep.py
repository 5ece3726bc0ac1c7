"""Matrix models: regular representations, groupoid blocks, ϑ compressions,
norms, and the complete-isometry certifier.

Operator norms from the SVD path are cross-checked against an independent
eigen-solve oracle sqrt(λ_max(A*A)).
"""

import numpy as np
import pytest

from catenv.fixtures import (fix_edge, fix_free2, fix_two, fix_two_mce_category,
                             fix_trivial_monoid)
from catenv.germs import GermContext
from catenv.gpd import pair_groupoid
from catenv.hull import InverseHull, ZERO
from catenv import ideals as IL
from catenv.ideals import PeriodicWordCharacter
from catenv.matrixrep import (AlgebraSpan, GermModel, GroupoidRep, LambdaRep,
                              ThetaRep, complete_isometry_check,
                              compression_identity_check, direct_sum,
                              expectation_units_checks, inclusion_exclusion_check,
                              jack_check, norm_level_k, operator_norm,
                              windowed_norm)
from catenv.pipeline import boundary_quotient, truncation_norm_study


def eig_norm(a):
    """Independent oracle: operator norm via the largest eigenvalue of A*A."""
    a = np.asarray(a, dtype=complex)
    return float(np.sqrt(max(np.linalg.eigvalsh(a.conj().T @ a).max(), 0.0)))


def bundle(pres, bound=None):
    hull = InverseHull(pres)
    closure = hull.generate(bound)
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    bd = IL.boundary(lat, omega)
    ctx = GermContext(hull, lat)
    g_om = ctx.build_groupoid(closure, omega)
    g_bd = g_om.restrict_to(bd)
    return pres, hull, closure, lat, omega, bd, ctx, g_om, g_bd


EDGE = bundle(fix_edge())


def by_word(p, word):
    return [m for m in p.ball(5) if m.word == word][0]


# -- the left regular representation ------------------------------------------------


def test_lambda_matrices():
    p, hull, *_ = EDGE
    lam = LambdaRep.build(p)
    assert lam.basis == [p.identity("v"), p.identity("w"), by_word(p, ("e",))]
    e_mat = lam.lam(by_word(p, ("e",)))
    expected = np.zeros((3, 3))
    expected[2, 1] = 1  # e_w ↦ e_e
    assert np.allclose(e_mat, expected)
    v_mat = lam.lam(p.identity("v"))
    assert np.allclose(v_mat, np.diag([1, 0, 1]))  # targets at v: {v, e}


def test_lambda_truncated_shift():
    p = fix_free2()
    lam = LambdaRep.build(p, radius=2)
    assert not lam.exact
    a_mat = lam.lam(p.word("a"))
    idx = lam.index
    assert a_mat[idx[p.word("a")], idx[p.identity("*")]] == 1
    assert a_mat[idx[p.word("aa")], idx[p.word("a")]] == 1
    assert a_mat[idx[p.word("ab")], idx[p.word("b")]] == 1
    # length-2 basis vectors are killed by the window
    assert np.allclose(a_mat[:, idx[p.word("aa")]], 0)


def test_inverse_rep_examples():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    e = by_word(p, ("e",))
    s = hull.from_morphism(e)
    sinv = hull.hinverse(s)
    assert np.allclose(lam.inverse_rep(hull, sinv), lam.lam(e).conj().T)
    assert np.allclose(lam.inverse_rep(hull, ZERO), 0)
    # Λ_{c⁻¹d} = λ(c)* λ(d) on samples
    for c in p.ball(None):
        for d in p.ball(None):
            comp = hull.hcompose(hull.hinverse(hull.from_morphism(c)),
                                 hull.from_morphism(d))
            assert np.allclose(lam.inverse_rep(hull, comp),
                               lam.lam(c).conj().T @ lam.lam(d))


def test_lambda_multiplicative_and_star_exhaustive():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    mats = {s: lam.inverse_rep(hull, s) for s in closure.nonzero()}
    for s, ms in mats.items():
        assert np.allclose(ms.conj().T, lam.inverse_rep(hull, hull.hinverse(s)))
        for t, mt in mats.items():
            st = hull.hcompose(s, t)
            assert np.allclose(ms @ mt, lam.inverse_rep(hull, st))


def test_span_identity_dimension():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    toeplitz = lam.toeplitz_algebra()
    span = AlgebraSpan([lam.inverse_rep(hull, s) for s in closure.nonzero()])
    assert toeplitz.dim == span.dim == 5


# -- groupoid representations ---------------------------------------------------------


def test_groupoid_rep_blocks():
    *_, g_bd = EDGE
    rep = GroupoidRep(g_bd.groupoid)
    assert rep.block_sizes() == [2]
    assert GermModel(g_bd, EDGE[2]).reduced_algebra().dim == 4  # M₂
    units_only = pair_groupoid(("a",))
    assert GroupoidRep(units_only).block_sizes() == [1]
    two = bundle(fix_two())
    assert GroupoidRep(two[8].groupoid).block_sizes() == [2, 2]


def test_jack_isomorphism():
    for pres in (fix_edge(), fix_two(), fix_two_mce_category()):
        p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = bundle(pres)
        lam = LambdaRep.build(p)
        model = GermModel(g_om, closure)
        ok, dim = jack_check(hull, closure, model, lam)
        assert ok
        assert dim == lam.toeplitz_algebra().dim


# -- theta compressions ----------------------------------------------------------------


def test_theta_edge_example():
    p, hull, closure, lat, omega, bd, *_ = EDGE
    chi_w = [c for c in bd if repr(c.min_ideal()) == "id:w𝔠"][0]
    th = ThetaRep(p, hull, chi_w)
    assert th.basis == [p.identity("w"), by_word(p, ("e",))]
    s = hull.from_morphism(by_word(p, ("e",)))
    expected = np.zeros((2, 2))
    expected[1, 0] = 1
    assert np.allclose(th.theta(s), expected)
    # diagonal indicator of an idempotent
    idv = hull.idempotent([p.identity("v")])
    assert np.allclose(th.theta(idv), np.diag([0, 1]))


def test_theta_truncated_shift_on_periodic_character():
    p = fix_free2()
    hull = InverseHull(p)
    chi = PeriodicWordCharacter("", "a")
    th = ThetaRep(p, hull, chi, radius=3)
    assert not th.exact
    s = hull.from_morphism(p.word("a"))
    mat = th.theta(s)
    assert mat[th.index[p.word("aab")], th.index[p.word("ab")]] == 1
    assert np.allclose(mat[:, th.index[p.word("aaa")]], 0)  # truncated


def test_theta_rejects_non_boundary_character():
    from catenv.matrixrep import NotBoundary
    p, hull, closure, lat, omega, bd, *_ = EDGE
    chi_v = [c for c in omega if repr(c.min_ideal()) == "id:v𝔠"][0]
    with pytest.raises(NotBoundary):
        ThetaRep(p, hull, chi_v, boundary_chars=bd)


def test_compression_identity_on_boundary_characters():
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = EDGE
    model = GermModel(g_om, closure)
    for chi in bd:
        th = ThetaRep(p, hull, chi)
        ok, info = compression_identity_check(model, th)
        assert ok, info


def test_theta_sum_injective_on_finite_fixture():
    from catenv.envelope import SpannedStarMap
    for pres in (fix_edge(), fix_two(), fix_two_mce_category()):
        p, hull, closure, lat, omega, bd, *_ = bundle(pres)
        thetas = [ThetaRep(p, hull, chi) for chi in bd]
        lam = LambdaRep.build(p)
        pairs = [(lam.inverse_rep(hull, s),
                  direct_sum([t.theta(s) for t in thetas]))
                 for s in closure.nonzero()]
        # Λ_s ↦ ⊕ϑ_χ(s) extends to a well-defined map with zero kernel
        star_map = SpannedStarMap(pairs)
        assert star_map.is_injective()
        assert star_map.check_star_homomorphism()


def test_inclusion_exclusion():
    p, hull, closure, lat, omega, bd, *_ = EDGE
    chi = [c for c in bd if repr(c.min_ideal()) == "e𝔠"][0]
    th = ThetaRep(p, hull, chi)
    for s in closure.nonzero():
        assert inclusion_exclusion_check(hull, s, th)
    # two-part fixed set: the doubled-intersection category
    pres2 = fix_two_mce_category()
    p2, hull2, closure2, lat2, omega2, bd2, *_ = bundle(pres2)
    chi2 = bd2[0]
    th2 = ThetaRep(p2, hull2, chi2)
    twopart = [s for s in closure2.nonzero()
               if hull2.is_idempotent(s) and len(hull2.fix_set(s)) == 2]
    assert twopart
    for s in twopart:
        assert inclusion_exclusion_check(hull2, s, th2)


def test_boundary_quotient_blocks():
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = EDGE
    model_om = GermModel(g_om, closure)
    model_bd = GermModel(g_bd, closure)
    from catenv.envelope import block_decompose
    cover = block_decompose(model_om.reduced_algebra())
    qmap, mask, surjective = boundary_quotient(model_om, model_bd, closure, cover)
    assert surjective
    assert [cover.block_sizes[k] for k in sorted(mask)] == [1]  # the χ_v block dies


# -- norms ------------------------------------------------------------------------------


def test_norm_examples_and_eigen_oracle():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    e = by_word(p, ("e",))
    e_mat = lam.lam(e)
    assert abs(norm_level_k([e_mat], np.ones((1, 1, 1))) - 1.0) < 1e-12
    a = lam.lam(p.identity("v")) + lam.lam(e)
    got = norm_level_k([a], np.ones((1, 1, 1)))
    assert abs(got - eig_norm(a)) < 1e-12
    assert abs(got - np.sqrt(2)) < 1e-12
    for k in (1, 2, 3):
        coeffs = np.zeros((k, k, 1), dtype=complex)
        for i in range(k):
            coeffs[i, i, 0] = 2.5j
        assert abs(norm_level_k([np.eye(3, dtype=complex)], coeffs) - 2.5) < 1e-12


def test_norm_dimension_mismatch():
    from catenv.matrixrep import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        norm_level_k([np.eye(2, dtype=complex)], np.ones((2, 3, 1)))
    with pytest.raises(DimensionMismatch):
        norm_level_k([np.eye(2, dtype=complex)], np.ones((1, 1, 2)))


def test_block_decompose_requires_star_closed():
    from catenv.envelope import block_decompose
    from catenv.matrixrep import NotSelfAdjoint
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    span = AlgebraSpan([np.eye(2, dtype=complex), e12])
    with pytest.raises(NotSelfAdjoint):
        block_decompose(span)


def test_norm_randomized_against_oracle():
    rng = np.random.default_rng(11)
    basis = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
             for _ in range(3)]
    for _ in range(10):
        c = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        big = np.block([[sum(c[i, j, b] * basis[b] for b in range(3))
                         for j in range(2)] for i in range(2)])
        assert abs(norm_level_k(basis, c) - eig_norm(big)) < 1e-9


def test_truncation_monotone_in_window():
    p = fix_free2()
    combos = [[(1.0, p.word("a")), (0.5, p.word("ab"))],
              [(1.0, p.word("a")), (1.0, p.word("b"))],
              [(1.0, p.identity("*")), (-0.5, p.word("ba"))]]
    for combo in combos:
        norms = []
        for radius in (2, 3, 4, 5):
            lam = LambdaRep.build(p, radius=radius)
            norms.append(operator_norm(sum(c * lam.lam(x) for c, x in combo)))
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_windowed_norms_match_dense_oracle():
    """The matrix-free window norms against SVDs of the dense λ and ϑ_χ."""
    p = fix_free2()
    hull = InverseHull(p)
    chars = IL.boundary_sample(p, count=3)
    rng = np.random.default_rng(11)
    words = [p.identity("*")] + [p.word(w) for w in ("a", "b", "ab", "ba", "aab")]
    elements = []
    for _ in range(4):
        support = rng.choice(len(words), size=3, replace=False)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        elements.append([(complex(c), words[i]) for c, i in zip(coeffs, support)])
    gaps = truncation_norm_study(p, hull, chars, elements, (3, 4))
    for depth in (3, 4):
        lam = LambdaRep.build(p, radius=depth)
        thetas = [ThetaRep(p, hull, chi, radius=depth) for chi in chars]
        dense_gap = 0.0
        for combo in elements:
            n_lam = operator_norm(sum(c * lam.lam(x) for c, x in combo))
            assert abs(windowed_norm(combo, lam.basis, p.compose) - n_lam) < 1e-6
            n_thetas = []
            for th in thetas:
                n_th = operator_norm(sum(c * th.theta(hull.from_morphism(x))
                                         for c, x in combo))
                fast = windowed_norm(combo, th.basis, lambda x, d:
                                     hull.apply(hull.from_morphism(x), d))
                assert abs(fast - n_th) < 1e-6
                n_thetas.append(n_th)
            dense_gap = max(dense_gap, abs(n_lam - max(n_thetas)))
        assert abs(gaps[depth] - dense_gap) < 1e-6


# -- the complete-isometry certifier ----------------------------------------------------


def test_isometry_certifies_identity():
    rng = np.random.default_rng(5)
    basis = [rng.standard_normal((3, 3)) for _ in range(2)]
    verdict = complete_isometry_check([(b, b) for b in basis], levels=3)
    assert verdict.certified and verdict.max_deviation < 1e-12


def test_isometry_rejects_block_killing_quotient():
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = EDGE
    lam = LambdaRep.build(p)
    gens = [lam.lam(c) for c in p.ball(None)]
    # wrong quotient: keep only the scalar (χ_v) block, killing the M₂ part
    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    pairs = [(g, proj @ g @ proj) for g in gens]
    verdict = complete_isometry_check(pairs, levels=2)
    assert not verdict.certified
    assert verdict.max_deviation > 0.5  # ‖λ(e)‖ collapses 1 → 0


def test_expectation_properties():
    *_head, g_om, g_bd = EDGE
    rep = GroupoidRep(g_om.groupoid)
    ok, info = expectation_units_checks(rep)
    assert ok, info
    closure = EDGE[2]
    hull = EDGE[1]
    model = GermModel(g_om, closure)
    e = by_word(EDGE[0], ("e",))
    s = hull.from_morphism(e)
    off_units = model.spanning_matrix(s)
    assert np.allclose(rep.unit_diagonal(off_units), 0)
    unit_fn = model.spanning_matrix(hull.idempotent([EDGE[0].identity("w")]))
    assert np.allclose(rep.unit_diagonal(unit_fn), unit_fn)
