"""Matrix models: regular representations, groupoid blocks, ϑ compressions,
norms, and the complete-isometry certifier.

Operator norms from the SVD path are cross-checked against an independent
eigen-solve oracle sqrt(λ_max(A*A)).
"""

from functools import partial

import numpy as np
import pytest

from catenv.fixtures import (fix_edge, fix_free2, fix_kgraph_acyclic, fix_two,
                             fix_two_mce_category, fix_trivial_monoid)
from catenv.germs import GermContext
from catenv.gpd import pair_groupoid
from catenv.hull import InverseHull, ZERO
from catenv import ideals as IL
from catenv.ideals import PeriodicWordCharacter
from catenv.matrixrep import (AlgebraSpan, GermModel, GroupoidRep, LambdaRep,
                              ThetaRep, complete_isometry_check, direct_sum,
                              jack_check, matrix_rank, operator_norm, window_arrays,
                              windowed_norm)
from catenv.pipeline import boundary_quotient, truncation_norm_study
from test_hull import layered_dag
from oracles import (DimensionMismatch, bisection, compression_identity_check, fix_set,
                     function_matrix, hcompose, hinverse, inclusion_exclusion_check, inverse_rep,
                     jack_check_by_pairs, jack_check_dense, norm_level_k, theta_matrix)


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
    sinv = hinverse(hull, s)
    assert np.allclose(inverse_rep(lam, hull, sinv), lam.lam(e).conj().T)
    assert np.allclose(inverse_rep(lam, hull, ZERO), 0)
    # Λ_{c⁻¹d} = λ(c)* λ(d) on samples
    for c in p.ball(None):
        for d in p.ball(None):
            comp = hcompose(hull, hinverse(hull, hull.from_morphism(c)),
                            hull.from_morphism(d))
            assert np.allclose(inverse_rep(lam, hull, comp),
                               lam.lam(c).conj().T @ lam.lam(d))


def test_lambda_multiplicative_and_star_exhaustive():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    mats = {s: inverse_rep(lam, hull, s) for s in closure.nonzero()}
    for s, ms in mats.items():
        assert np.allclose(ms.conj().T, inverse_rep(lam, hull, hinverse(hull, s)))
        for t, mt in mats.items():
            st = hcompose(hull, s, t)
            assert np.allclose(ms @ mt, inverse_rep(lam, hull, st))


def test_span_identity_dimension():
    p, hull, closure, *_ = EDGE
    lam = LambdaRep.build(p)
    toeplitz = lam.toeplitz_algebra()
    span = AlgebraSpan([inverse_rep(lam, hull, s) for s in closure.nonzero()])
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


@pytest.mark.parametrize("pres", [fix_edge, fix_two, fix_kgraph_acyclic,
                                  fix_two_mce_category,
                                  *(pytest.param(partial(layered_dag, seed), id=f"dag{seed}")
                                    for seed in range(5))])
def test_spanning_matrix_is_the_function_matrix_sum(pres):
    """The one partial permutation per bisection, gathered from the product
    table, equals Σ of its element matrices, each built from the labelled
    product dict, on both models; it is cached by hull number and read-only."""
    *_, closure, _, _, _, _, g_om, g_bd = bundle(pres())
    for model in (GermModel(g_om, closure), GermModel(g_bd, closure)):
        for s in closure.nonzero():
            m = model.spanning_matrix(s)
            assert np.array_equal(m, function_matrix(
                model.rep, {g: 1.0 for g in bisection(model, s)}))
            assert model.spanning_matrix(s) is m and not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 2.0


def test_jack_isomorphism():
    for pres in (fix_edge(), fix_two(), fix_two_mce_category()):
        p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = bundle(pres)
        lam = LambdaRep.build(p)
        model = GermModel(g_om, closure)
        ok, dim = jack_check(hull, closure, model, lam)
        assert ok
        assert dim == lam.toeplitz_algebra().dim


class PlantedLambda:
    """λ with each Λ_s replaced by change(s, Λ_s), dense."""

    def __init__(self, lam, change):
        self.basis, self._lam, self._change = lam.basis, lam, change

    def inverse_rep(self, hull, s):
        return self._change(s, inverse_rep(self._lam, hull, s))


class PlantedPerms:
    """λ on `sheets` copies of its basis, with the index array of each Λ_s
    replaced by change(s, array); the dense oracles read that array's dense
    matrix, so they read the same family."""

    def __init__(self, lam, change, sheets=1):
        self.basis, self._lam, self._change = lam.basis * sheets, lam, change

    def inverse_perm(self, hull, s):
        return self._change(s, self._lam.inverse_perm(hull, s))


def _wrong_entry(target):
    def change(s, m):
        if s is target:
            m = m.copy()
            m[0, -1] += 1.0
        return m
    return change


def _redirected(target):
    """Λ_target with its last column sent to e_0, or to zero where it already is e_0."""
    def change(s, p):
        if s is target:
            p = p.copy()
            p[-1] = -1 if p[-1] == 0 else 0
        return p
    return change


def _conjugate_by_diagonal(s, m):
    """S Λ_s S⁻¹ for S = diag(1, 2, 4, ...): products are kept exactly, adjoints
    of the non-diagonal Λ_s are not."""
    d = 2.0 ** np.arange(len(m))
    return d[:, None] * m / d[None, :]


def _onto_first_sheet(s, p):
    """(x, b) ↦ (s(x), 0) on two sheets: products are kept exactly, but two
    columns share each image, so no nonzero Λ_s has its adjoint's array."""
    return np.concatenate([p, p])


def _planted_families(p, hull, closure, g_om, g_bd, plant, change_adjoint):
    lam = LambdaRep.build(p)
    model, model_bd = GermModel(g_om, closure), GermModel(g_bd, closure)
    elements = closure.nonzero()
    moves = [s for s in elements if not hull.is_idempotent(s)]
    return elements, moves, {
        "true": (lam, model),
        **{f"entry{i}": (plant(lam, s), model)
           for i, s in enumerate((elements[0], moves[0], elements[-1]))},
        "adjoint": (change_adjoint(lam), model),
        "dependency": (lam, model_bd)}


def genuine_failure(hull, closure, model, lam, witness) -> bool:
    """Whether a `jack_check` witness fails in the family it was found in:
    an edge (t, a) with a an atom and M_t·M_a ≠ M_{t∘a}, or an atom a with
    M_{a⁻¹} ≠ M_a*, in Λ or in the model, on dense matrices."""
    def family(s):
        return [inverse_rep(lam, hull, s), model.spanning_matrix(s)]
    if isinstance(witness, tuple):
        t, a = witness
        ta = hcompose(hull, t, a)
        lhs = [mt @ ma for mt, ma in zip(family(t), family(a))]
        rhs = [np.zeros_like(m) for m in lhs] if ta.is_zero else family(ta)
    else:
        a = witness
        lhs, rhs = [m.conj().T for m in family(a)], family(hinverse(hull, a))
    return hull.index(a) in closure.atoms and not all(map(np.allclose, lhs, rhs))


def assert_same_verdict(hull, closure, model, lam):
    """`jack_check`'s verdict is the pairwise loop's and the dense oracle's,
    with their rank on success and their tuple on a dependency mismatch; a
    product or adjoint rejection carries a genuine failing edge or atom
    adjoint. Returns the verdict."""
    got = jack_check(hull, closure, model, lam)
    pairs = jack_check_by_pairs(hull, closure, model, lam)
    assert got[0] == pairs[0] == jack_check_dense(hull, closure, model, lam)[0]
    if got[0] or isinstance(got[1], tuple) and got[1][0] == "dependency mismatch":
        assert got == pairs
    else:
        assert genuine_failure(hull, closure, model, lam, got[1])
    return got


@pytest.mark.parametrize("pres", [fix_edge, fix_two, fix_two_mce_category])
def test_jack_check_matches_pairwise_oracle(pres):
    """The check on the walk's edges and the atoms' adjoints returns the
    verdict of the pairwise loop and of the dense stacked oracle: on the
    true families, and on planted failures of each kind, one of them on a
    product that is no atom. Its witness is the first failing edge or atom
    adjoint, not the pairwise loop's first failing pair, and it genuinely
    fails."""
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = bundle(pres())
    elements, moves, cases = _planted_families(
        p, hull, closure, g_om, g_bd,
        lambda lam, s: PlantedPerms(lam, _redirected(s)),
        lambda lam: PlantedPerms(lam, _onto_first_sheet, sheets=2))
    lam, model = cases["true"]
    product = next(s for s in elements if hull.index(s) not in closure.atoms)
    cases["product"] = (PlantedPerms(lam, _redirected(product)), model)
    kinds = {name: assert_same_verdict(hull, closure, model_c, lam_c)
             for name, (lam_c, model_c) in cases.items()}
    assert kinds["true"][0] and all(not ok for ok, _ in list(kinds.values())[1:])
    assert isinstance(kinds["product"][1], tuple)  # no atom's adjoint fails: an edge (t, a)
    assert not isinstance(kinds["adjoint"][1], tuple)  # an atom
    assert kinds["dependency"][1][0] == "dependency mismatch"


@pytest.mark.parametrize("pres", [fix_edge, fix_two, fix_two_mce_category])
def test_dense_jack_check_matches_pairwise_oracle(pres):
    """The two dense oracles agree, on plants no index array can hold."""
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = bundle(pres())
    elements, moves, cases = _planted_families(
        p, hull, closure, g_om, g_bd,
        lambda lam, s: PlantedLambda(lam, _wrong_entry(s)),
        lambda lam: PlantedLambda(lam, _conjugate_by_diagonal))
    kinds = {}
    for name, (lam_c, model_c) in cases.items():
        got = jack_check_dense(hull, closure, model_c, lam_c)
        assert got == jack_check_by_pairs(hull, closure, model_c, lam_c), name
        kinds[name] = got
    assert kinds["true"][0] and all(not ok for ok, _ in list(kinds.values())[1:])
    assert all(len(kinds[f"entry{i}"][1]) == 2 for i in range(3))  # a product witness (s, t)
    assert kinds["adjoint"][1] is moves[0]
    assert kinds["dependency"][1][0] == "dependency mismatch"


# -- theta compressions ----------------------------------------------------------------


def test_theta_edge_example():
    p, hull, closure, lat, omega, bd, *_ = EDGE
    chi_w = [c for c in bd if repr(c.min_ideal()) == "id:w𝔠"][0]
    th = ThetaRep(p, hull, chi_w)
    assert th.basis == [p.identity("w"), by_word(p, ("e",))]
    s = hull.from_morphism(by_word(p, ("e",)))
    expected = np.zeros((2, 2))
    expected[1, 0] = 1
    assert np.allclose(theta_matrix(th, s), expected)
    # diagonal indicator of an idempotent
    idv = hull.idempotent([p.identity("v")])
    assert np.allclose(theta_matrix(th, idv), np.diag([0, 1]))


def test_theta_truncated_shift_on_periodic_character():
    p = fix_free2()
    hull = InverseHull(p)
    chi = PeriodicWordCharacter("", "a")
    th = ThetaRep(p, hull, chi, radius=3)
    s = hull.from_morphism(p.word("a"))
    mat = theta_matrix(th, s)
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
    from oracles import SpannedStarMap
    for pres in (fix_edge(), fix_two(), fix_two_mce_category()):
        p, hull, closure, lat, omega, bd, *_ = bundle(pres)
        thetas = [ThetaRep(p, hull, chi) for chi in bd]
        lam = LambdaRep.build(p)
        pairs = [(inverse_rep(lam, hull, s),
                  direct_sum([theta_matrix(t, s) for t in thetas]))
                 for s in closure.nonzero()]
        # Λ_s ↦ ⊕ϑ_χ(s) extends to a well-defined map with zero kernel
        star_map = SpannedStarMap(pairs)
        assert star_map.domain_dim == matrix_rank(star_map.ys)
        assert star_map.star_homomorphism_witness() is None


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
               if hull2.is_idempotent(s) and len(fix_set(hull2, s)) == 2]
    assert twopart
    for s in twopart:
        assert inclusion_exclusion_check(hull2, s, th2)


def test_boundary_quotient_blocks():
    p, hull, closure, lat, omega, bd, ctx, g_om, g_bd = EDGE
    model_om = GermModel(g_om, closure)
    model_bd = GermModel(g_bd, closure)
    from catenv.envelope import block_decompose
    from catenv.pipeline import spectrum_cover
    from oracles import SpannedStarMap
    cover = block_decompose(model_om.reduced_algebra())
    mask = boundary_quotient(model_om, model_bd, cover)
    qmap = SpannedStarMap([(model_om.spanning_matrix(s), model_bd.spanning_matrix(s))
                           for s in closure.nonzero()])
    assert qmap.domain_dim == cover.dim  # the spanning family spans the cover
    assert matrix_rank(qmap.ys) == model_bd.reduced_algebra().dim  # onto the boundary algebra
    assert qmap.star_homomorphism_witness() is None
    assert [cover.block_sizes[k] for k in sorted(mask)] == [1]  # the χ_v block dies
    # on the orbit cover, the exact path kills the same block
    orbits = spectrum_cover(model_om)
    mask = boundary_quotient(model_om, model_bd, orbits)
    assert [orbits.block_sizes[k] for k in sorted(mask)] == [1]


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
            xs = [x for _, x in combo]
            arrays = window_arrays(lam.basis, p.compose, xs)
            assert abs(windowed_norm(combo, arrays, len(lam.basis)) - n_lam) < 1e-6
            n_thetas = []
            for th in thetas:
                n_th = operator_norm(sum(c * theta_matrix(th, hull.from_morphism(x))
                                         for c, x in combo))
                arrays = window_arrays(th.basis, lambda x, d:
                                       hull.apply(hull.from_morphism(x), d), xs)
                fast = windowed_norm(combo, arrays, len(th.basis))
                assert abs(fast - n_th) < 1e-6
                n_thetas.append(n_th)
            dense_gap = max(dense_gap, abs(n_lam - max(n_thetas)))
        assert abs(gaps[depth] - dense_gap) < 1e-6


@pytest.mark.parametrize("pres", [fix_edge, fix_two, partial(layered_dag, 1)],
                         ids=["edge", "two", "dag1"])
def test_truncation_study_matches_dense_on_several_objects(pres):
    """Where ϑ_χ windows differ from the λ window and from each other, the
    study's gaps are those of SVDs of the dense windows."""
    p, hull, _, _, _, bd, *_ = bundle(pres())
    rng = np.random.default_rng(3)
    words = p.ball(None)
    elements = [[(complex(rng.standard_normal(), rng.standard_normal()), words[i])
                 for i in rng.choice(len(words), size=min(3, len(words)), replace=False)]
                for _ in range(4)]
    depths = (0, 1, 2)
    gaps = truncation_norm_study(p, hull, bd, elements, depths)
    assert any(tuple(ThetaRep(p, hull, chi, radius=2).basis) != tuple(p.ball(2))
               for chi in bd)
    for depth in depths:
        lam = LambdaRep.build(p, radius=depth)
        thetas = [ThetaRep(p, hull, chi, radius=depth) for chi in bd]
        dense_gap = 0.0
        for combo in elements:
            n_lam = operator_norm(sum(c * lam.lam(x) for c, x in combo))
            n_theta = max(operator_norm(sum(c * theta_matrix(th, hull.from_morphism(x))
                                            for c, x in combo)) for th in thetas)
            dense_gap = max(dense_gap, abs(n_lam - n_theta))
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


def test_spanning_matrix_diagonal_on_units():
    """The spanning matrix of a map with no fixed points off the units has a
    zero diagonal; that of an idempotent is diagonal."""
    *_head, g_om, g_bd = EDGE
    closure = EDGE[2]
    hull = EDGE[1]
    model = GermModel(g_om, closure)
    e = by_word(EDGE[0], ("e",))
    s = hull.from_morphism(e)
    off_units = model.spanning_matrix(s)
    assert np.allclose(np.diag(off_units), 0)
    unit_fn = model.spanning_matrix(hull.idempotent([EDGE[0].identity("w")]))
    assert np.allclose(np.diag(np.diag(unit_fn)), unit_fn)
