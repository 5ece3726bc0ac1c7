"""Differential tests: the span engine, the thin null space, the blockwise
Shilov norms, the coaction coordinates and the semi-naive grading extension
against the reference formulas in `oracles`."""

import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from catenv.coactions import (DoubleCrossedProduct, FiniteGroup, GradedAlgebra,
                              NoExtensionFound, coaction_from_grading, extend_grading)
from catenv.envelope import (_blockwise_deviation, _null_space, block_decompose,
                             is_boundary_ideal, shilov_ideal)
from catenv.fixtures import fix_edge, t2_graded, t3_graded
from catenv.matrixrep import (AlgebraSpan, GermModel, LambdaRep, SpanBasis, _joint_rank,
                              _rank, complete_isometry_check, direct_sum, matrix_rank)
from catenv.parsing import load_path
from catenv.perm import dense as dense_of, kron
from catenv.pipeline import analyze_category
from oracles import (DenseDoubleCrossedProduct, algebra_span_by_rescan, delta_per_degree,
                     extend_grading_by_all_pairs, extend_grading_by_products, in_span,
                     norm_level_k, point_mass, tilde_delta_by_lstsq)


def random_generator_sets(seed):
    """Generic, rank-deficient, nilpotent and block-repeated generator sets."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    d = int(rng.integers(2, 5))
    generic = [cplx(d, d) for _ in range(int(rng.integers(1, 3)))]
    a, b = cplx(d, d), cplx(d, d)
    deficient = [a, b, 2 * a - 1j * b, np.zeros((d, d), complex), a]
    nilpotent = [np.triu(cplx(d, d), 1) for _ in range(2)]
    block = cplx(2, 2)
    repeated = [np.kron(np.eye(2), block), np.kron(np.eye(2), block.conj().T @ block)]
    return [generic, deficient, nilpotent, repeated]


def assert_same_span(generators, selfadjoint):
    new = AlgebraSpan(generators, selfadjoint=selfadjoint)
    old = algebra_span_by_rescan(generators, selfadjoint=selfadjoint)
    assert new.dim == len(old)
    for x, y in zip(new.basis, old):
        assert np.allclose(x, y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_algebra_span_matches_rescan_on_random_generators(seed):
    for gens in random_generator_sets(seed):
        for selfadjoint in (False, True):
            assert_same_span(gens, selfadjoint)


@pytest.mark.parametrize("name", ["edge", "two"])
def test_algebra_span_matches_rescan_on_germ_models(name, request):
    fx = request.getfixturevalue(name)
    for gg in (fx.g_omega, fx.g_boundary):
        model = GermModel(gg, fx.closure)
        assert_same_span([model.spanning_matrix(s) for s in fx.closure.nonzero()], True)


def test_span_basis_membership_and_coordinates():
    rng = np.random.default_rng(5)
    ms = [rng.standard_normal((3, 3)) for _ in range(4)]
    ms.insert(2, ms[0] - 3 * ms[1])
    span = SpanBasis()
    accepted = [span.add(m) for m in ms]
    assert accepted == [not in_span(m, ms[:i]) for i, m in enumerate(ms)]
    assert accepted == [True, True, False, True, True]
    for _ in range(5):
        c = rng.standard_normal(4)
        target = sum(x * m for x, m in zip(c, span.members))
        assert span.contains(target) and in_span(target, span.members)
        assert np.allclose(span.coordinates(target), c, atol=1e-10)
    outside = SpanBasis()
    outside.extend(ms[:2])
    assert not outside.contains(ms[3]) and not in_span(ms[3], ms[:2])
    with pytest.raises(ValueError):
        outside.coordinates(ms[3])


@pytest.mark.parametrize("shape", [(9, 5), (3, 7)])  # tall, then wide
def test_null_space_matches_full_svd(shape):
    rng = np.random.default_rng(3)
    rows, cols = shape
    a = (rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))) \
        @ (rng.standard_normal((2, cols)) + 1j * rng.standard_normal((2, cols)))
    ns = _null_space(a)
    _, _, vh = np.linalg.svd(a, full_matrices=True)
    full = vh[2:].conj().T
    assert ns.shape == full.shape == (cols, cols - 2)
    assert np.allclose(a @ ns, 0, atol=1e-10)
    assert np.allclose(ns @ ns.conj().T, full @ full.conj().T, atol=1e-10)


@pytest.mark.parametrize("count,side,rank", [(12, 9, 5), (40, 3, 9), (6, 6, 6), (3, 1, 1)])
def test_matrix_rank_of_wide_and_tall_stacks(count, side, rank):
    """Stacks of `count` side×side matrices spanning `rank` dimensions, wide
    (count < side²) and tall: the rank is the rank of the untransposed stack,
    also after scaling, which moves the threshold."""
    rng = np.random.default_rng(count)
    coef = rng.standard_normal((count, rank)) + 1j * rng.standard_normal((count, rank))
    basis = rng.standard_normal((rank, side * side))
    for scale in (1.0, 1e-6, 1e6):
        ms = list((scale * coef @ basis).reshape(count, side, side))
        sv = np.linalg.svd(np.array([m.ravel() for m in ms]), compute_uv=False)
        assert matrix_rank(ms) == _rank(sv) == rank
        assert _joint_rank(ms, ms) == rank


def shilov_cases(two):
    """(generators, cover): the spectrum model of `two`, and diag(1, 2) in
    ℂ⊕ℂ, where quotienting by the second block is injective but not isometric."""
    model = GermModel(two.g_omega, two.closure)
    yield ([m for _, m in model.operator_algebra_generators()],
           block_decompose(model.reduced_algebra()))
    toy = [np.diag([1.0, 2.0]).astype(complex)]
    yield toy, block_decompose(AlgebraSpan(toy, selfadjoint=True))


def test_blockwise_deviations_match_dense_direct_sums(two):
    rng = np.random.default_rng(2)
    outcomes = set()
    for a_basis, cover in shilov_cases(two):
        nblocks = len(cover.block_sizes)
        dense_a = [direct_sum(cover.coords(a)) for a in a_basis]
        for r in range(1, nblocks):
            for mask in map(frozenset, itertools.combinations(range(nblocks), r)):
                dense_b = [cover.rep(a, mask) for a in a_basis]
                blockwise = _blockwise_deviation(a_basis, cover, mask)
                for k in (1, 2, 3):
                    c = rng.standard_normal((k, k, len(a_basis))) \
                        + 1j * rng.standard_normal((k, k, len(a_basis)))
                    dense = abs(norm_level_k(dense_b, c) - norm_level_k(dense_a, c))
                    assert abs(blockwise(c[None])[0] - dense) <= 1e-12 * max(1.0, dense)
                verdict = is_boundary_ideal(a_basis, cover, mask)
                if not verdict.samples:  # decided by the exact kernel pre-test
                    continue
                oracle = complete_isometry_check(list(zip(dense_a, dense_b)),
                                                 levels=max(cover.block_sizes),
                                                 samples=25)
                assert verdict.certified == oracle.certified
                assert abs(verdict.max_deviation - oracle.max_deviation) <= 1e-12
                if verdict.certified:
                    assert verdict.samples == oracle.samples
                outcomes.add(verdict.certified)
    assert outcomes == {True, False}


def dense_grading(seed, order, dim):
    """(components, order): the upper-triangular dim×dim matrices graded by
    ℤ/order, E_ij in degree u·(j − i) for a seeded unit u. A component of k
    matrix units is spanned by k seeded dense combinations, the r-th of units
    r..k-1, so no basis element is a matrix unit once k > 1."""
    rng = np.random.default_rng(seed)
    u = rng.choice([x for x in range(1, order) if math.gcd(x, order) == 1])
    units = {}
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, j] = 1
        units.setdefault(int(u * (j - i) % order), []).append(e)
    comps = {g: [sum((rng.standard_normal() + 1j * rng.standard_normal()) * e for e in es[r:])
                 for r in range(len(es))]
             for g, es in units.items()}
    return comps, order


DENSE = [pytest.param(functools.partial(dense_grading, seed, order, dim),
                      id=f"dense-z{order}-d{dim}-s{seed}")
         for seed, order, dim in ((0, 2, 2), (1, 2, 3), (2, 3, 3), (3, 3, 4))]


def t2_with_repeated_generator():
    """t2 with E₁₁ listed twice in degree 0: a dependent graded basis."""
    comps, order = t2_graded()
    return {0: comps[0] + [2 * comps[0][0]], 1: comps[1]}, order


@pytest.mark.parametrize("graded_fixture", [
    pytest.param(t2_graded, id="t2_graded"), pytest.param(t3_graded, id="t3_graded"),
    *DENSE, t2_with_repeated_generator])
def test_coaction_coordinates_match_per_degree_solves(graded_fixture):
    comps, order = graded_fixture()
    group = FiniteGroup.cyclic(order)
    delta = coaction_from_grading(GradedAlgebra(group, comps))
    rng = np.random.default_rng(4)
    basis = delta.graded.basis
    samples = list(basis) + [sum(rng.standard_normal() * b for b in basis)
                             for _ in range(3)]
    for m in samples:
        assert np.allclose(delta.delta(m), delta_per_degree(delta.graded, m),
                           rtol=0, atol=1e-12)
    dcp, dense = DoubleCrossedProduct(delta), DenseDoubleCrossedProduct(delta)
    V, n, at = dense.data.V, len(group), group.index
    pe = point_mass(group, group.identity)
    # δ̃ on the group legs: Ψ of generator j = (k·n + f)·n + g is
    # δ_λ(a_k)⊗E_{df,fg}, d = deg a_k, and δ_λ(a_k)⊗P_e is δ_λ(a_k)⊗E_ee
    cases = [(V @ mat @ V.conj().T, j // (n * n), at[group.mul(d, f)], at[group.mul(f, g)])
             for j, ((_, d, f, g), mat) in enumerate(dense.generators()) if j % 7 == 0]
    e = at[group.identity]
    cases += [(np.kron(delta.delta(a), pe), k, e, e) for k, a in enumerate(basis)]
    for y, k, p, q in cases:
        assert np.allclose(tilde_delta_on_legs(dcp, k, p, q),
                           tilde_delta_by_lstsq(dense, y, delta), rtol=0, atol=1e-12)


def tilde_delta_on_legs(dcp, k, p, q):
    """δ̃(δ_λ(a_k)⊗E_pq) from the library's group-leg array: δ_λ(a_k)
    tensored with U*(E_pq⊗λ_{deg a_k})U taken dense, for group positions p, q."""
    unit = np.where(np.arange(dcp.n) == q, p, -1)
    legs = dcp.tilde_delta_legs(kron(unit, dcp.group.lam_perms[dcp.degrees[k]]))
    return np.kron(dcp.images[k], dense_of(legs))


def matrix_units(dim):
    out = []
    for i, j in itertools.product(range(dim), repeat=2):
        out.append(np.zeros((dim, dim), dtype=complex))
        out[-1][i, j] = 1
    return out


def extension_cases():
    """(graded, env_basis, kappa): t2 → M₂, the trivial ℤ/2 grading of T₂, the
    one-edge operator algebra → its envelope, dense gradings → M_d, and two
    inputs without an extension (κ misses E₁₂; the degree spans overlap)."""
    z2 = FiniteGroup.cyclic(2)
    comps, _ = t2_graded()
    t2 = GradedAlgebra(z2, comps)
    yield t2, matrix_units(2), lambda a: a
    yield (GradedAlgebra(z2, {0: comps[0] + comps[1]}),
           AlgebraSpan(comps[0] + comps[1], selfadjoint=True).basis, lambda a: a)
    lam = LambdaRep.build(fix_edge())
    gens = {m.label(): lam.lam(m) for m in lam.pres.ball(None)}
    edge = GradedAlgebra(z2, {0: [gens["id:v"], gens["id:w"]], 1: [gens["e"]]})
    cover = block_decompose(lam.toeplitz_algebra())
    mask = shilov_ideal(list(gens.values()), cover).mask
    yield (edge, [cover.rep(b, mask)
                  for b in AlgebraSpan(list(gens.values()), selfadjoint=True).basis],
           lambda a: cover.rep(a, mask))
    for seed, order, dim in ((1, 2, 3), (2, 3, 3)):
        dense, _ = dense_grading(seed, order, dim)
        yield GradedAlgebra(FiniteGroup.cyclic(order), dense), matrix_units(dim), lambda a: a
    yield t2, matrix_units(2), lambda a: np.diag(np.diag(a))
    yield t2, matrix_units(2), lambda a: a + a[0, 1] * np.diag([1, 0])


def test_extend_grading_matches_all_pairs_closure():
    outcomes = []
    for graded, env_basis, kappa in extension_cases():
        try:
            old = extend_grading_by_all_pairs(graded, env_basis, kappa)
        except NoExtensionFound as exc:
            with pytest.raises(NoExtensionFound) as new_exc:
                extend_grading(graded, env_basis, kappa)
            assert str(new_exc.value) == str(exc)
            outcomes.append(str(exc))
            continue
        new = extend_grading(graded, env_basis, kappa)
        assert {g: len(ms) for g, ms in new.components.items()} \
            == {g: len(ms) for g, ms in old.components.items()}
        for g, ms in new.components.items():
            assert all(in_span(m, old.components[g]) for m in ms)
            assert all(in_span(m, ms) for m in old.components[g])
        outcomes.append(sorted(len(ms) for ms in new.components.values()))
    assert outcomes == [[2, 2], [4], [2, 2], [4, 5], [3, 3, 3],
                        "monomial spans do not fill the envelope",
                        "degree spans are not in direct sum; no extension"]


def word_length_cases():
    """(graded, env_basis, kappa): `kgraph-acyclic.cat`'s spectrum-model
    morphism maps graded by word length mod 2 and mod 3, into the envelope.
    Their closures take more than one round, and the greedy members depend
    on the order of the candidates."""
    _, pres = load_path(Path(__file__).parents[1] / "fixtures" / "kgraph-acyclic.cat")
    ctx = analyze_category(pres, stop_after="groupoid").context
    maps = GermModel(ctx["groupoid_omega"], ctx["closure"]).operator_algebra_generators()
    for n in (2, 3):
        components = {}
        for c, m in maps:
            components.setdefault(len(c.word) % n, []).append(m)
        graded = GradedAlgebra(FiniteGroup.cyclic(n), components)
        span = AlgebraSpan(graded.basis, selfadjoint=True)
        cover = block_decompose(span)
        mask = shilov_ideal(graded.basis, cover).mask
        yield (graded, [cover.rep(b, mask) for b in span.basis],
               lambda a, cover=cover, mask=mask: cover.rep(a, mask))


def test_extend_grading_keeps_the_per_product_members():
    """The stacked rounds keep the greedy members of one `extend` per
    product: the candidates reach each degree span in the same order, so
    each component is the reference's, member for member."""
    checked = 0
    for graded, env_basis, kappa in itertools.chain(extension_cases(), word_length_cases()):
        try:
            new = extend_grading(graded, env_basis, kappa)
        except NoExtensionFound:
            continue
        ref = {g: ms for g, ms in extend_grading_by_products(graded, kappa).items() if ms}
        assert list(new.components) == [g for g in graded.group.elements if g in ref]
        for g, ms in new.components.items():
            assert len(ms) == len(ref[g])
            assert all(np.allclose(m, r, atol=1e-12) for m, r in zip(ms, ref[g]))
        checked += 1
    assert checked == 7
