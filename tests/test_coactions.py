"""Gradings, coactions, crossed products, duality, envelope extension."""

import numpy as np
import pytest

from catenv.coactions import (CrossedProduct, DoubleCrossedProduct,
                              FiniteGroup, GradedAlgebra, GradingInvalid,
                              NoExtensionFound, approx_identity_checks,
                              coaction_from_grading, equivariance_check,
                              extend_grading, katayama_verify)
from catenv.fixtures import fix_edge, fix_two, t2_graded, t3_graded
from catenv.matrixrep import AlgebraSpan, LambdaRep
from catenv.envelope import block_decompose, shilov_ideal
from oracles import (DenseDoubleCrossedProduct, commutation_check, crossed_dual_action,
                     fell_absorption_check, in_span, rho,
                     spectral_subspace_dims_from_reduction, verify_coaction_axioms)


def t2_delta():
    comps, _ = t2_graded()
    return coaction_from_grading(GradedAlgebra(FiniteGroup.cyclic(2), comps))


def t3_delta():
    comps, _ = t3_graded()
    return coaction_from_grading(GradedAlgebra(FiniteGroup.cyclic(3), comps))


# -- groups ------------------------------------------------------------------------


def test_group_regular_representations():
    for n in (2, 3, 4):
        g = FiniteGroup.cyclic(n)
        assert commutation_check(g)
        assert fell_absorption_check(g)
        for a in g.elements:
            for b in g.elements:
                assert np.allclose(g.lam(a) @ g.lam(b), g.lam(g.mul(a, b)))
                assert np.allclose(rho(g, a) @ rho(g, b), rho(g, g.mul(a, b)))


# -- gradings vs coactions -----------------------------------------------------------


def test_graded_fixtures_define_coactions():
    for delta in (t2_delta(), t3_delta()):
        axioms = verify_coaction_axioms(delta.graded.basis, delta.images, delta.group)
        assert axioms == {"homomorphism": True, "coaction_identity": True,
                          "nondegenerate": True}


def test_delta_outside_the_algebra_raises():
    delta = t2_delta()
    e21 = np.array([[0, 0], [1, 0]], dtype=complex)
    with pytest.raises(GradingInvalid, match="^element outside the algebra$"):
        delta.delta(e21)


def test_trivial_grading():
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    trivial = GradedAlgebra(z2, {0: comps[0] + comps[1]})
    delta = coaction_from_grading(trivial)
    a = comps[0][0] + 2 * comps[1][0]
    assert np.allclose(delta.delta(a), np.kron(a, z2.lam(0)))


def test_planted_non_multiplicative_grading_rejected():
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    with pytest.raises(GradingInvalid):
        GradedAlgebra(z2, {0: comps[1], 1: comps[0]})  # E12 in degree 0


def test_planted_coaction_identity_failure_rejected():
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    basis = comps[0] + comps[1]
    proj = (np.eye(2) + z2.lam(1)) / 2
    images = [np.kron(b, proj) for b in basis]
    report = verify_coaction_axioms(basis, images, z2)
    assert report["homomorphism"] and not report["coaction_identity"]


def test_planted_nondegeneracy_failure_rejected():
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    basis = comps[0] + comps[1]
    images = [np.kron(np.diag(np.diag(b)), z2.lam(0)) for b in basis]
    report = verify_coaction_axioms(basis, images, z2)
    assert report["homomorphism"] and report["coaction_identity"]
    assert not report["nondegenerate"]


def test_planted_maps_leaving_the_span_are_rejected_without_raising():
    z2 = FiniteGroup.cyclic(2)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = e12.T.copy()
    # span{E₁₂, E₂₁} is no algebra: E₁₂E₂₁ = E₁₁ has no image
    report = verify_coaction_axioms([e12, e21], [np.kron(e12, z2.lam(1)),
                                                 np.kron(e21, z2.lam(1))], z2)
    assert not report["homomorphism"]
    # δ(E₁₂) = E₂₁⊗λ₀: the A-leg E₂₁ lies outside span{E₁₂}
    report = verify_coaction_axioms([e12], [np.kron(e21, z2.lam(0))], z2)
    assert report["homomorphism"] and not report["coaction_identity"]


def test_fourier_examples():
    delta = t2_delta()
    comps, _ = t2_graded()
    e11, e12 = comps[0][0], comps[1][0]
    assert np.allclose(delta.fourier(e11 + e12, 1), e12)
    assert np.allclose(delta.fourier(e11, 0), e11)
    total = sum(np.kron(delta.fourier(e11 + e12, g), delta.group.lam(g))
                for g in delta.group.elements)
    assert np.allclose(total, delta.delta(e11 + e12))


def test_normality_certificates():
    for delta in (t2_delta(), t3_delta()):
        verdict = delta.normality_verdict()
        assert verdict.certified and verdict.max_deviation < 1e-10


def test_unique_normal_lift():
    # the spectral subspaces recomputed from the reduction pin the coaction
    for delta, comps in ((t2_delta(), t2_graded()[0]), (t3_delta(), t3_graded()[0])):
        dims = spectral_subspace_dims_from_reduction(delta)
        assert dims == {g: len(ms) for g, ms in comps.items()}
        for g, ms in comps.items():
            for a in ms:
                assert np.allclose(delta.delta(a),
                                   np.kron(a, delta.group.lam(g)))


# -- crossed products ------------------------------------------------------------------


def test_crossed_product_dimension_and_dual_action():
    delta = t2_delta()
    cp = CrossedProduct(delta)
    assert cp.span.dim == 6
    assert cp.dual_action_formula_check()
    assert cp.dual_action_group_law_check()
    x = cp.generators[0]
    assert np.allclose(crossed_dual_action(cp, delta.group.identity, x), x)


def test_double_crossed_formulas():
    delta = t2_delta()
    dcp = DenseDoubleCrossedProduct(delta)
    G = delta.group
    assert np.allclose(dcp.k_G(G.identity), np.eye(8))
    # k_{c₀}(δ_e) is the diagonal [p = q] on the two group legs
    diag = dcp.k_c0(G.identity)
    n = len(G)
    for p in range(n):
        for q in range(n):
            val = diag[p * n + q + 0, p * n + q]  # within the first H-block
            assert val == (1.0 if p == q else 0.0)
    assert dcp.double_dual_formula_check()
    assert DoubleCrossedProduct(delta).double_dual_formula_check()


def test_katayama_t2():
    rep = katayama_verify(t2_delta())
    assert rep.failed == []
    assert rep.image_dim == 12


def test_katayama_t3():
    rep = katayama_verify(t3_delta())
    assert rep.failed == []
    assert rep.image_dim == 54


# -- envelope extension ------------------------------------------------------------------


def test_extension_t2_to_m2():
    comps, _ = t2_graded()
    graded = GradedAlgebra(FiniteGroup.cyclic(2), comps)
    m2 = [np.zeros((2, 2), complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        m2[k][i, j] = 1
    env = extend_grading(graded, m2, kappa=lambda a: a)
    dims = {g: len(ms) for g, ms in env.components.items()}
    assert dims == {0: 2, 1: 2}
    e21 = np.zeros((2, 2), complex)
    e21[1, 0] = 1
    assert in_span(e21, env.components[1])
    env_delta = coaction_from_grading(env)
    assert equivariance_check(graded, env_delta, kappa=lambda a: a)


def test_extension_trivial_coaction():
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    trivial = GradedAlgebra(z2, {0: comps[0] + comps[1]})
    m2 = [np.eye(2, dtype=complex)]
    full = AlgebraSpan(comps[0] + comps[1], selfadjoint=True).basis
    env = extend_grading(trivial, full, kappa=lambda a: a)
    assert list(env.components) == [0]


def test_extension_edge_operator_algebra_mod_two():
    # 𝒜 of the one-edge category, graded by word length mod 2, extended to its
    # envelope M₂ computed by the Shilov search
    pres = fix_edge()
    lam = LambdaRep.build(pres)
    z2 = FiniteGroup.cyclic(2)
    gens = {m.label(): lam.lam(m) for m in pres.ball(None)}
    graded = GradedAlgebra(z2, {0: [gens["id:v"], gens["id:w"]], 1: [gens["e"]]})
    delta = coaction_from_grading(graded)
    cover = block_decompose(lam.toeplitz_algebra())
    shilov = shilov_ideal(list(gens.values()), cover)
    env_basis = [cover.rep(b, shilov.mask)
                 for b in AlgebraSpan(list(gens.values()), selfadjoint=True).basis]
    env = extend_grading(graded, env_basis, kappa=lambda a: cover.rep(a, shilov.mask))
    env_delta = coaction_from_grading(env)
    assert equivariance_check(graded, env_delta,
                              kappa=lambda a: cover.rep(a, shilov.mask))
    assert sorted(len(ms) for ms in env.components.values()) == [2, 2]


def test_no_extension_when_kappa_does_not_generate():
    comps, _ = t2_graded()
    graded = GradedAlgebra(FiniteGroup.cyclic(2), comps)
    m2 = [np.zeros((2, 2), complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        m2[k][i, j] = 1
    with pytest.raises(NoExtensionFound):
        extend_grading(graded, m2, kappa=lambda a: np.diag(np.diag(a)))


# -- approximate identities -----------------------------------------------------------------


def test_approx_identity_t2():
    checks = approx_identity_checks(t2_delta())
    assert checks == {"unital": True, "fourier_unit_is_unit": True,
                      "crossed_product_identity": True}


def test_projection_cai_for_two_fixture():
    # Σ_u λ_u is a unit for the operator algebra of the two-edge category
    pres = fix_two()
    lam = LambdaRep.build(pres)
    unit = sum(lam.lam(pres.identity(u)) for u in pres.objects)
    for c in pres.ball(None):
        m = lam.lam(c)
        assert np.allclose(unit @ m, m) and np.allclose(m @ unit, m)
    z2 = FiniteGroup.cyclic(2)
    degree = {m.label(): len(m.word) % 2 for m in pres.ball(None)}
    comps = {0: [lam.lam(m) for m in pres.ball(None) if degree[m.label()] == 0],
             1: [lam.lam(m) for m in pres.ball(None) if degree[m.label()] == 1]}
    delta = coaction_from_grading(GradedAlgebra(z2, comps))
    checks = approx_identity_checks(delta)
    assert all(checks.values())


def test_group_tables_without_inverses_or_associativity_rejected():
    # a·a = a: the identity is neutral but a has no inverse
    with pytest.raises(ValueError, match="^no inverse for 'a'$"):
        FiniteGroup("ea", {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
                           ("a", "a"): "a"}, "e")
    # a² = b² = e and ab = ba = a: every element is its own inverse, yet
    # (a·a)·b = b while a·(a·b) = e
    table = {("e", x): x for x in "eab"} | {(x, "e"): x for x in "eab"}
    table |= {("a", "a"): "e", ("b", "b"): "e", ("a", "b"): "a", ("b", "a"): "a"}
    with pytest.raises(ValueError, match="^associativity fails at"):
        FiniteGroup("eab", table, "e")
