"""Block decompositions, boundary ideals, the Shilov search, envelope realization."""

import numpy as np
import pytest

from catenv.envelope import (_commutant_basis, block_decompose, detects_ideals,
                             generated_dim, is_boundary_ideal, shilov_ideal)
from catenv.fixtures import fix_edge, fix_two
from catenv.germs import GermContext
from catenv.hull import InverseHull
from catenv import ideals as IL
from catenv.matrixrep import AlgebraSpan, GermModel, LambdaRep, NumericalFailure, direct_sum
from catenv.pipeline import analyze_category
from oracles import SpannedStarMap, block_element, entry


def matrix_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1
            out.append(m)
    return out


def t2_basis():
    e11, e12, _, e22 = matrix_units(2)
    return [e11, e22, e12]


# -- block decomposition ------------------------------------------------------------


def test_block_decompose_edge_toeplitz():
    lam = LambdaRep.build(fix_edge())
    fd = block_decompose(lam.toeplitz_algebra())
    assert fd.block_sizes == [1, 2]
    assert fd.dim == 5


def test_block_decompose_full_matrix_algebra():
    fd = block_decompose(AlgebraSpan(matrix_units(2)))
    assert fd.block_sizes == [2]


def test_block_decompose_with_multiplicity():
    # M₂ represented with multiplicity two inside M₄
    base = matrix_units(2)
    doubled = [np.kron(np.eye(2), b) for b in base]
    fd = block_decompose(AlgebraSpan(doubled))
    assert fd.block_sizes == [2]
    gaps = [abs(fd.norm(b) - np.linalg.svd(b, compute_uv=False)[0])
            for b in doubled]
    assert max(gaps) < 1e-9


def test_block_decompose_two_fixture():
    lam = LambdaRep.build(fix_two())
    fd = block_decompose(lam.toeplitz_algebra())
    assert fd.block_sizes == [1, 2, 2]


# -- boundary ideals and Shilov -------------------------------------------------------


def test_boundary_ideal_examples():
    lam = LambdaRep.build(fix_edge())
    fd = block_decompose(lam.toeplitz_algebra())
    a_basis = [lam.lam(c) for c in fix_edge().ball(None)]
    scalar_block = [k for k, n in enumerate(fd.block_sizes) if n == 1][0]
    m2_block = [k for k, n in enumerate(fd.block_sizes) if n == 2][0]
    assert is_boundary_ideal(a_basis, fd, {scalar_block}).certified
    v = is_boundary_ideal(a_basis, fd, {m2_block})
    assert not v.certified
    assert not is_boundary_ideal(a_basis, fd, set(range(len(fd.block_sizes)))).certified


def test_shilov_t2_in_m2_is_zero():
    fd = block_decompose(AlgebraSpan(matrix_units(2)))
    res = shilov_ideal(t2_basis(), fd)
    assert res.mask == frozenset()
    assert res.quotient_blocks == [2]


def test_shilov_self_cover_is_zero():
    lam = LambdaRep.build(fix_edge())
    alg = lam.toeplitz_algebra()
    fd = block_decompose(alg)
    res = shilov_ideal(list(alg.basis), fd)
    assert res.mask == frozenset()


def test_shilov_edge_operator_algebra():
    lam = LambdaRep.build(fix_edge())
    fd = block_decompose(lam.toeplitz_algebra())
    a_basis = [lam.lam(c) for c in fix_edge().ball(None)]
    res = shilov_ideal(a_basis, fd)
    assert [fd.block_sizes[k] for k in sorted(res.mask)] == [1]
    assert res.quotient_blocks == [2]


def test_not_a_cover():
    fd = block_decompose(AlgebraSpan(matrix_units(2)))
    # E11 alone generates ℂ, not M₂: `thesis` counts this before any search
    assert generated_dim([[0, -1]]) == 1 != fd.dim


def test_envelope_idempotence():
    # quotient the edge cover by its Shilov ideal, then search again: nothing left
    lam = LambdaRep.build(fix_edge())
    fd = block_decompose(lam.toeplitz_algebra())
    a_basis = [lam.lam(c) for c in fix_edge().ball(None)]
    res = shilov_ideal(a_basis, fd)
    quotient_images = [fd.rep(a, res.mask) for a in a_basis]
    fd2 = block_decompose(AlgebraSpan(quotient_images, selfadjoint=True))
    res2 = shilov_ideal(quotient_images, fd2)
    assert res2.mask == frozenset()


@pytest.mark.parametrize("m", [2, 3])
def test_stabilization_blocks_scale(m):
    lam = LambdaRep.build(fix_edge())
    fd_plain = block_decompose(lam.toeplitz_algebra())
    a_basis = [lam.lam(c) for c in fix_edge().ball(None)]
    plain = shilov_ideal(a_basis, fd_plain)
    eye = np.eye(m, dtype=complex)
    ampl = [np.kron(b, u) for b in a_basis for u in matrix_units(m)]
    fd_ampl = block_decompose(AlgebraSpan(ampl, selfadjoint=True))
    res = shilov_ideal(ampl, fd_ampl)
    assert sorted(res.quotient_blocks) == sorted(n * m for n in plain.quotient_blocks)


# -- ideal detection --------------------------------------------------------------------


def test_detects_ideals_examples():
    fd2 = block_decompose(AlgebraSpan(matrix_units(2)))
    diag = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    assert detects_ideals(diag, fd2)
    lam = LambdaRep.build(fix_edge())
    algebra = lam.toeplitz_algebra()
    fd = block_decompose(algebra)
    scalar_block = [k for k, n in enumerate(fd.block_sizes) if n == 1][0]
    only_scalar = [block_element(fd, algebra.basis, scalar_block, 0, 0)]
    assert not detects_ideals(only_scalar, fd)


def test_detects_ideals_on_a_quotient_cover_reads_the_image():
    """On ℂ³ modulo its first block, D = {e₁, 1} maps onto the scalars of ℂ²,
    which miss both proper ideals; e₁ lies in the kernel, so counting D's
    dependencies on the matrices themselves would miss it."""
    units = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
    fd = block_decompose(AlgebraSpan(units, selfadjoint=True))
    first = next(k for k in range(3) if np.abs(fd.coords(units[0])[k]).max() > 0.5)
    quotient = fd.quotient({first})
    assert quotient.block_sizes == [1, 1]
    assert not detects_ideals([units[0], np.eye(3, dtype=complex)], quotient)
    assert detects_ideals([units[1], units[2]], quotient)


def test_diagonal_detects_ideals_in_boundary_model():
    pres = fix_edge()
    hull = InverseHull(pres)
    closure = hull.generate()
    lat = IL.Semilattice(hull, closure)
    omega = IL.enumerate_characters(lat)
    bd = IL.boundary(lat, omega)
    ctx = GermContext(hull, lat)
    g_bd = ctx.build_groupoid(closure, bd)
    model = GermModel(g_bd, closure)
    cover = block_decompose(model.reduced_algebra())
    diag = [model.spanning_matrix(hull.idempotent(lat.ideals[i].parts))
            for i in lat.nonzero_indices()]
    assert detects_ideals(diag, cover)


# -- the full envelope realization -------------------------------------------------------


@pytest.mark.parametrize("fixture", [fix_edge, fix_two])
def test_pi_env_is_isomorphism(fixture):
    res = analyze_category(fixture())
    assert res.exit_code == 0
    found = entry(res, "envelope-coincidence")
    assert found.status == "certified"
    assert entry(res, "diagonal-injectivity").status == "certified"
    shilov = res.context["shilov"]
    assert res.context["boundary_kernel_mask"] == shilov.mask
    bd_blocks = entry(res, "block-structure").data["boundary_blocks"]
    assert sorted(shilov.quotient_blocks) == sorted(bd_blocks)


def test_pi_env_for_groupoid_subcategory():
    from catenv.categories import GroupoidSub
    from catenv.gpd import pair_groupoid
    sub = GroupoidSub(pair_groupoid((1, 2)), {(1, 1), (2, 2), (2, 1)})
    res = analyze_category(sub)
    assert res.exit_code == 0
    assert entry(res, "envelope-coincidence").status == "certified"


def test_pi_env_for_doubled_intersection_category():
    # not groupoid-embeddable (p⁻¹q would force x = y), yet the boundary germ
    # groupoid is principal, so the envelope still coincides with the quotient
    from catenv.fixtures import fix_two_mce_category
    res = analyze_category(fix_two_mce_category())
    assert res.exit_code == 0
    assert entry(res, "germ-groupoid").data["boundary_principal"]
    assert entry(res, "envelope-coincidence").status == "certified"
    assert entry(res, "block-structure").data["boundary_blocks"] == [5]


def test_pi_env_with_boundary_isotropy():
    # a finite groupoid viewed as a category: the boundary germ groupoid is the
    # groupoid itself, with nontrivial isotropy. The effectiveness route fails
    # (the diagonal misses the isotypic ideals) but the envelope still
    # coincides with the boundary quotient, settled by the Shilov search.
    from catenv.categories import GroupoidSub
    from catenv.gpd import transitive_groupoid
    mul2 = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    amb = transitive_groupoid((1, 2), ["0", "1"], mul2, "0")
    pres = GroupoidSub(amb, set(amb.elements))
    res = analyze_category(pres)
    assert entry(res, "germ-groupoid").data["boundary_germs"] == 8
    assert not res.context["groupoid_boundary"].groupoid.is_principal()
    assert entry(res, "block-structure").data["boundary_blocks"] == [2, 2]
    assert entry(res, "envelope-coincidence").status == "certified"
    assert entry(res, "diagonal-detects-ideals").data["detects"] is False
    assert res.context["shilov"].mask == frozenset()


def test_spanned_star_map_rejects_ill_defined():
    e11, e12, _, e22 = matrix_units(2)
    with pytest.raises(ValueError):
        # E11 and E11 must map to equal images
        SpannedStarMap([(e11, e11), (e11, e22)])


def test_spanned_star_map_takes_each_rank_once(monkeypatch):
    """The domain rank is the one the well-definedness test takes."""
    import oracles
    calls = []
    rank = oracles.matrix_rank
    monkeypatch.setattr(oracles, "matrix_rank", lambda ms: calls.append(len(ms)) or rank(ms))
    e11, e12, _, e22 = matrix_units(2)
    star_map = SpannedStarMap([(e11, e11), (e22, e22), (e11 + e22, e11 + e22), (e12, 0 * e12)])
    assert len(calls) == 1
    assert star_map.domain_dim == 3


# -- the commutant of the generators ------------------------------------------------


def test_a_commutant_past_the_budget_raises_before_its_stack_is_built():
    """84 generators of side 36, a 36-morphism category with S₃ isotropy on
    three units: a stack of 141 M complex entries, 2.3 GB."""
    with pytest.raises(NumericalFailure, match="141,087,744 entries"):
        _commutant_basis(np.zeros((84, 36, 36)))


def multiplicity_algebra(seed):
    """(generators, selfadjoint): two random elements of ⊕ M_n ⊗ 1_m over
    (n, m) in (1, 2), (2, 2), (3, 1), conjugated by a random unitary."""
    rng = np.random.default_rng(seed)
    blocks = ((1, 2), (2, 2), (3, 1))
    d = sum(n * m for n, m in blocks)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gens = []
    for _ in range(2):
        parts = [np.kron(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                         np.eye(m)) for n, m in blocks]
        gens.append(u @ direct_sum(parts) @ u.conj().T)
    return gens, True


def matrix_unit_cycle():
    """E₁₂, E₂₃, E₃₁: not closed under adjoints, but they generate all of M₃."""
    units = matrix_units(3)
    return [units[1], units[5], units[6]], False


def bench_graded_basis(name):
    from test_grading_is_coaction import bench_grading, shipped
    if name.endswith(".grad"):
        return shipped(name).basis, True
    return bench_grading(f"coaction:{name}", 0).basis, True


# (make, whether the generators are fewer than the basis): the graded bases
# of the benchmark's four inputs already span their *-algebras with adjoints
GENERATED = [
    *(pytest.param(lambda s=s: multiplicity_algebra(s), True, id=f"multiplicity-s{s}")
      for s in range(3)),
    pytest.param(matrix_unit_cycle, True, id="m3-unit-cycle"),
    *(pytest.param(lambda n=n: bench_graded_basis(n), False, id=n)
      for n in ("t2.grad", "t3.grad", "upper2-z2", "corner3-z2")),
]


def projector(ms):
    v = np.array([m.ravel() for m in ms]).T
    return v @ v.conj().T


@pytest.mark.parametrize("make,fewer", GENERATED)
def test_the_generators_have_the_commutant_of_the_algebra(make, fewer):
    """The commutant of `AlgebraSpan.generators` is that of the whole basis,
    and `block_decompose`, which takes it, cuts the blocks the whole basis
    gives: an `AlgebraSpan` of its own basis has that basis as generators."""
    gens, selfadjoint = make()
    algebra = AlgebraSpan(gens, selfadjoint=selfadjoint)
    assert algebra.closed_under_adjoint()
    assert (len(algebra.generators) < algebra.dim) == fewer
    assert all(np.array_equal(g, b) for g, b in zip(algebra.generators, algebra.basis))
    by_gens, by_basis = (_commutant_basis(ms) for ms in (algebra.generators, algebra.basis))
    assert len(by_gens) == len(by_basis)
    assert np.allclose(projector(by_gens), projector(by_basis), atol=1e-8)
    whole = AlgebraSpan(algebra.basis)
    assert len(whole.generators) == whole.dim == algebra.dim
    fd, fd_whole = block_decompose(algebra), block_decompose(whole)
    assert fd.block_sizes == fd_whole.block_sizes
    rng = np.random.default_rng(1)
    a = np.tensordot(rng.standard_normal(algebra.dim), np.array(algebra.basis), 1)
    singular = [sorted((n, *np.linalg.svd(c, compute_uv=False)) for n, c in
                       zip(cover.block_sizes, cover.coords(a))) for cover in (fd, fd_whole)]
    for x, y in zip(*singular):
        assert np.allclose(x, y, atol=1e-8)
