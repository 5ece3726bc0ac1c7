"""Block decompositions, boundary ideals, the Shilov search, envelope realization."""

import numpy as np
import pytest

from catenv.envelope import (SpannedStarMap, block_decompose, detects_ideals,
                             generated_dim, is_boundary_ideal, shilov_ideal)
from catenv.fixtures import fix_edge, fix_two
from catenv.germs import GermContext
from catenv.hull import InverseHull
from catenv import ideals as IL
from catenv.matrixrep import AlgebraSpan, GermModel, LambdaRep
from catenv.pipeline import analyze_category
from oracles import entry


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
    fd = block_decompose(lam.toeplitz_algebra())
    scalar_block = [k for k, n in enumerate(fd.block_sizes) if n == 1][0]
    only_scalar = [fd.block_element(scalar_block, 0, 0)]
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
    from catenv import envelope
    calls = []
    rank = envelope.matrix_rank
    monkeypatch.setattr(envelope, "matrix_rank", lambda ms: calls.append(len(ms)) or rank(ms))
    e11, e12, _, e22 = matrix_units(2)
    star_map = SpannedStarMap([(e11, e11), (e22, e22), (e11 + e22, e11 + e22), (e12, 0 * e12)])
    assert len(calls) == 1
    assert star_map.domain_dim == 3
