"""The duality checks of a coaction, run as permutation gathers, against the
dense formulas in `oracles`: on a non-abelian S₃ grading, the shipped gradings,
seeded cyclic gradings and a dependent graded basis the checks agree one by
one, and each check rejects a planted corruption exactly when the dense
formula does. `katayama_verify` reads δ̃'s coefficients in closed form, with
no SVD, span basis or tolerance. Normality, read on the blocks of C*(G),
against the dense complete-isometry sampler."""

import contextlib
import io
import itertools
import math
import os
import random
from collections import Counter

import numpy as np
import pytest

from catenv import cli
from catenv.coactions import (CrossedProduct, FiniteGroup, GradedAlgebra,
                              coaction_from_grading, katayama_verify)
from catenv.envelope import _blockwise_deviation, is_boundary_ideal
from catenv.fixtures import t2_graded, t3_graded
from catenv.matrixrep import SpanBasis, complete_isometry_check, level_k_norms, matrix_rank
from catenv.perm import conjugate, dense as perm_matrix
from oracles import (DenseCrossedProduct, DenseDoubleCrossedProduct,
                     crossed_dual_action, katayama_verify_dense, rho, tilde_delta_dense)
from test_linalg_oracles import t2_with_repeated_generator

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def s3():
    """S₃ as the permutations of {0, 1, 2}, with (ab)(i) = a(b(i))."""
    els = list(itertools.permutations(range(3)))
    return FiniteGroup(els, {(a, b): tuple(a[i] for i in b) for a in els for b in els},
                       (0, 1, 2))


def s3_grading():
    """The strictly upper-triangular 3×3 matrices graded by S₃: E_ij in degree
    h_i h_j⁻¹ with h = (e, (0 1), (0 1 2)), so deg E₀₁ and deg E₁₂ are two
    transpositions that do not commute. (The diagonal would add three
    generators per group pair, on matrices of side d·n³ = 648 that the dense
    oracle multiplies one at a time.)"""
    group, h = s3(), [(0, 1, 2), (1, 0, 2), (1, 2, 0)]
    comps = {}
    for i, j in ((0, 1), (1, 2), (0, 2)):
        unit = np.zeros((3, 3), dtype=complex)
        unit[i, j] = 1
        comps.setdefault(group.mul(h[i], group.inv(h[j])), []).append(unit)
    return group, comps


def bench_shaped_grading(seed, order, dim, units):
    """A ℤ/order grading shaped like the benchmark's generated ones: E_ij in
    degree u·(j − i) for a seeded unit u, and a component of k matrix units
    spanned by k seeded combinations, the r-th of units r..k-1."""
    rng = random.Random(seed)
    u = rng.choice([x for x in range(1, order) if math.gcd(x, order) == 1])
    by_degree = {}
    for i, j in units:
        by_degree.setdefault(u * (j - i) % order, []).append((i, j))
    comps = {}
    for g, comp in by_degree.items():
        for r in range(len(comp)):
            m = np.zeros((dim, dim), dtype=complex)
            for i, j in comp[r:]:
                m[i, j] = complex(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5),
                                  rng.uniform(-1, 1))
            comps.setdefault(g, []).append(m)
    return FiniteGroup.cyclic(order), comps


def cyclic(graded_fixture):
    comps, order = graded_fixture()
    return FiniteGroup.cyclic(order), comps


UPPER = lambda dim: [(i, j) for i in range(dim) for j in range(i, dim)]  # noqa: E731
CASES = [
    pytest.param(s3_grading, id="s3"),
    pytest.param(lambda: cyclic(t2_graded), id="t2"),
    pytest.param(lambda: cyclic(t3_graded), id="t3"),
    pytest.param(lambda: bench_shaped_grading(1, 2, 2, UPPER(2)), id="upper2-z2"),
    pytest.param(lambda: bench_shaped_grading(2, 2, 3, [(0, 0), (1, 1), (2, 2), (0, 1)]),
                 id="corner3-z2"),
    pytest.param(lambda: bench_shaped_grading(3, 3, 3, UPPER(3)), id="upper3-z3"),
    pytest.param(lambda: bench_shaped_grading(4, 4, 2, UPPER(2)), id="upper2-z4"),
    pytest.param(lambda: cyclic(t2_with_repeated_generator), id="t2-dependent"),
]


def coaction(case):
    group, comps = case()
    return coaction_from_grading(GradedAlgebra(group, comps))


@pytest.fixture(scope="module", params=CASES)
def prepared(request):
    """(δ, its dense double crossed product), built once per case."""
    delta = coaction(request.param)
    return delta, DenseDoubleCrossedProduct(delta)


def sample_of(delta):
    """Every generator, except on S₃: there the dense oracle takes about 0.3 s
    per generator, so it visits every 12th."""
    return slice(None, None, 12) if len(delta.group) == 6 else slice(None)


def test_s3_degrees_do_not_commute():
    group, comps = s3_grading()
    degrees = list(comps)
    assert len(degrees) == 3
    assert any(group.mul(g, h) != group.mul(h, g) for g in degrees for h in degrees)
    assert any(not np.array_equal(group.lam(g), rho(group, group.inv(g))) for g in degrees)


def test_katayama_matches_dense(prepared):
    delta, dense = prepared
    sample = sample_of(delta)
    fast = katayama_verify(delta)
    assert fast == katayama_verify_dense(delta, dense, sample=sample)
    assert fast.failed == []
    dcp = delta.double_crossed_product
    assert dcp.double_dual_formula_check() == dense.double_dual_formula_check(sample)


def test_katayama_verify_takes_no_svd_span_basis_or_allclose(monkeypatch):
    """One `coaction` run's `katayama_verify` takes no SVD, builds no
    `SpanBasis` and calls no `np.allclose`: every identity is exact, and the
    image dimension is read from the span the grading's validation built.
    The rest of the run does all three, which shows the counters count."""
    calls = {True: Counter(), False: Counter()}
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[bool(inside)][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((np.linalg, "svd"), (np.linalg, "pinv"), (np.linalg, "lstsq"),
                         (np, "allclose"), (SpanBasis, "__init__")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    verify = cli.katayama_verify

    def tracked(delta):
        inside.append(True)
        try:
            return verify(delta)
        finally:
            inside.pop()

    monkeypatch.setattr(cli, "katayama_verify", tracked)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coaction", os.path.join(FIXTURES, "t3.grad")]) == 0
    assert calls[True] == Counter()
    assert {"svd", "allclose", "__init__"} <= set(calls[False])


def test_unitaries_generators_and_kron_basis_match_dense(prepared):
    delta, dense = prepared
    G = delta.group
    dcp = delta.double_crossed_product
    d, n = dcp.h_dim, dcp.n
    assert np.array_equal(perm_matrix(dcp.u_perm), dense.data.U)
    assert np.array_equal(perm_matrix(dcp.v_perm), dense.data.V)
    assert np.array_equal(perm_matrix(dcp.big_u_perm),
                          np.kron(np.eye(d * n), dense.data.U))
    for i, g in enumerate(G.elements):
        assert np.array_equal(perm_matrix(dcp.g_perms[i]), dense.k_G(g))
        assert np.array_equal(np.diag(dcp.c0_masks[i]), dense.k_c0(g))
    generators = dcp.generators
    assert np.array_equal(generators, [m for _, m in dense.generators()])
    # δ_λ(A)⊗𝕂 has n²·dim A dimensions, by the dense kron basis and its SVD rank
    span, _ = dense.kron_basis
    assert matrix_rank(span.members) == len(span.members) \
        == n * n * len(delta.graded.span[1]) == katayama_verify(delta).image_dim
    # both sides of the conjugation identity, value by value
    images = conjugate(generators, dcp.v_perm)
    ks, blocks = dcp.psi_blocks()
    v_n = np.kron(dense.data.V, np.eye(n))
    for j in range(len(images))[sample_of(delta)]:
        mat = generators[j]
        assert np.array_equal(dcp.double_dual(mat[None])[0], dense.double_dual(mat))
        lhs = conjugate(dcp.double_dual(mat[None]), (dcp.v_perm[:, None] * n + np.arange(n)).ravel())[0]
        assert np.array_equal(lhs, v_n @ dense.double_dual(mat) @ v_n.conj().T)
        # Ψ(x) is δ_λ(a_k)⊗E_{df,fg}, and δ̃ of it is read from that block
        assert np.array_equal(images[j], np.kron(dcp.images[ks[j]], blocks[j]))
        assert np.allclose(dcp.tilde_delta(ks[j:j + 1], blocks[j:j + 1])[0],
                           tilde_delta_dense(dense, images[j], delta), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_normality_on_blocks_matches_the_dense_sampler(case):
    """The trivial character's block reads δ(a) as a, and the blocks together
    keep δ(A)'s norms: the masked deviation is the dense one, so both
    searches run the same trials to the same verdict."""
    delta = coaction(case)
    basis, images = delta.graded.basis, delta.images
    verdict = is_boundary_ideal(images, *delta.normality_cover(), levels=3, samples=25)
    dense = complete_isometry_check(list(zip(basis, images)), levels=3, samples=25)
    assert verdict.certified and dense.certified and verdict.certificate is None
    assert (verdict.levels, verdict.samples, verdict.restarts) \
        == (dense.levels, dense.samples, dense.restarts) == (3, dense.samples, 3)
    assert verdict.max_deviation < 1e-10

    cover, mask = delta.normality_cover()
    (trivial,) = set(range(len(cover.block_sizes))) - mask
    assert all(np.allclose(cover.coords(m)[trivial], a, atol=1e-12)
               for a, m in zip(basis, images))
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        cs = rng.standard_normal((4, k, k, len(basis))) \
            + 1j * rng.standard_normal((4, k, k, len(basis)))
        blocks = np.max([level_k_norms(np.array([[cover.coords(m)[b] for m in images]]),
                                       cs)[:, 0] for b in range(len(cover.block_sizes))],
                        axis=0)
        norms = [level_k_norms(np.array([ms]), cs)[:, 0] for ms in (images, basis)]
        assert np.allclose(blocks, norms[0], atol=1e-10)
        assert np.allclose(_blockwise_deviation(images, cover, mask)(cs),
                           np.abs(norms[0] - norms[1]), atol=1e-10)


@pytest.mark.parametrize("case", CASES)
def test_crossed_product_matches_dense(case):
    delta = coaction(case)
    cp, dense = CrossedProduct(delta), DenseCrossedProduct(delta)
    assert np.array_equal(cp.generators, dense.generators)
    for g in delta.group.elements:
        assert np.array_equal(crossed_dual_action(cp, g, cp.generators),
                              [dense.dual_action(g, m) for m in dense.generators])
    assert cp.dual_action_formula_check() == dense.dual_action_formula_check() is True
    assert cp.dual_action_group_law_check() == dense.dual_action_group_law_check() is True


# -- planted corruptions: a transposition of two rows of a permutation unitary,
# or a flipped entry of a diagonal, made alike in the index array and in the
# dense matrix ------------------------------------------------------------------


def transpose(perm, dense, i, j):
    """Rows i and j of the matrix swapped: in the index array, the images i and j."""
    at_i, at_j = perm == i, perm == j
    perm[at_i], perm[at_j] = j, i
    dense[[i, j]] = dense[[j, i]]


def flip_c0(dcp, dense):
    dcp.c0_masks[0, 0] = ~dcp.c0_masks[0, 0]
    e = dense.group.identity
    dense.c0[e][0, 0] = 1 - dense.c0[e][0, 0]


KATAYAMA_CORRUPTIONS = [
    ("identity_i", lambda dcp, dense: transpose(dcp.v_perm, dense.data.V, 0, 1)),
    ("identity_ii", flip_c0),
    ("identity_iii", lambda dcp, dense: transpose(dcp.g_perms[1], dense.kg[1], 0, 1)),
    ("span_equality", lambda dcp, dense: transpose(dcp.v_perm, dense.data.V, 0, 1)),
    ("conjugation_match", lambda dcp, dense: transpose(dcp.u_perm, dense.data.U, 0, 1)),
    ("pe_invariance", lambda dcp, dense: transpose(dcp.u_perm, dense.data.U, 0, 2)),
]


@pytest.mark.parametrize("check, plant", KATAYAMA_CORRUPTIONS,
                         ids=[c for c, _ in KATAYAMA_CORRUPTIONS])
def test_planted_katayama_corruption_rejected_like_dense(check, plant):
    delta = coaction(lambda: cyclic(t2_graded))
    dcp, dense = delta.double_crossed_product, DenseDoubleCrossedProduct(delta)
    plant(dcp, dense)
    fast, slow = katayama_verify(delta), katayama_verify_dense(delta, dense)
    assert getattr(slow, check) is False
    assert getattr(fast, check) is False
    assert fast == slow


def test_planted_double_dual_corruption_rejected_like_dense():
    delta = coaction(lambda: cyclic(t2_graded))
    dcp, dense = delta.double_crossed_product, DenseDoubleCrossedProduct(delta)
    transpose(dcp.u_perm, dense.data.U, 0, 1)
    assert dense.double_dual_formula_check() is False
    assert dcp.double_dual_formula_check() is False


@pytest.mark.parametrize("g, check", [(1, "dual_action_formula_check"),
                                      (0, "dual_action_group_law_check")])
def test_planted_dual_action_corruption_rejected_like_dense(g, check):
    delta = coaction(lambda: cyclic(t2_graded))
    cp, dense = CrossedProduct(delta), DenseCrossedProduct(delta)
    transpose(cp.rho_perms[g], dense.rho[g], 0, 1)
    assert getattr(dense, check)() is False
    assert getattr(cp, check)() is False
