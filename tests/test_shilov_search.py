"""The union-first Shilov search and the batched deviation search against the
one-at-a-time references in `oracles`, the dominance inequality the
union-first rule leans on, the kernel pre-test on full masks, and the
verdicts a caller hands the search."""

import itertools
import os
import random
from functools import partial

import numpy as np
import pytest

from catenv.categories import GraphPath
from catenv.envelope import (_blockwise_deviation, _span_kernel_element,
                             block_decompose, is_boundary_ideal, shilov_ideal)
from catenv.fixtures import fix_edge, fix_kgraph_acyclic, fix_two
from catenv.matrixrep import (AlgebraSpan, GermModel, IsometryVerdict, LambdaRep,
                              deviation_search, level_k_norms)
from catenv.parsing import load_path
from catenv.pipeline import analyze_category, shilov_seeds
from oracles import deviation_search_by_trial, shilov_ideal_by_singles

FIXDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def layered_dag(rng):
    """A 5-object DAG in 3 layers; each arc between adjacent layers is present
    with chance 0.6."""
    objects = [f"o{i}" for i in range(5)]
    cut1 = rng.randint(1, 3)
    cut2 = rng.randint(cut1 + 1, 4)
    layers = [objects[:cut1], objects[cut1:cut2], objects[cut2:]]
    arcs = [(d, t) for lo, hi in zip(layers, layers[1:]) for d in lo for t in hi
            if rng.random() < 0.6] or [(layers[0][0], layers[1][0])]
    return objects, arcs


def parallel_edges(rng):
    """A chain u → v → w with one to three parallel arcs at each step."""
    return ["u", "v", "w"], [("u", "v")] * rng.randint(1, 3) + [("v", "w")] * rng.randint(1, 2)


def star(rng):
    """A centre with two to four arcs in or out, some of them repeated."""
    leaves = [f"l{i}" for i in range(rng.randint(2, 4))]
    arcs = [(("c", x) if rng.random() < 0.5 else (x, "c")) for x in leaves]
    return ["c", *leaves], arcs + rng.sample(arcs, 1)


def generated(shape, seed):
    objects, arcs = shape(random.Random(seed))
    return GraphPath(objects=objects,
                     edges=[(f"e{i}", d, t) for i, (d, t) in enumerate(arcs)])


CATEGORIES = [pytest.param(fix_edge, id="edge"), pytest.param(fix_two, id="two"),
              pytest.param(fix_kgraph_acyclic, id="kgraph-acyclic"),
              *[pytest.param(partial(generated, shape, seed), id=f"{shape.__name__}{seed}")
                for shape in (layered_dag, parallel_edges, star) for seed in range(4)]]


def spectrum_case(pres):
    """The operator algebra generators of the spectrum model and their cover,
    as `thesis` hands them to the Shilov search."""
    ctx = analyze_category(pres, stop_after="groupoid").context
    model = GermModel(ctx["groupoid_omega"], ctx["closure"])
    return ([m for _, m in model.operator_algebra_generators()],
            block_decompose(model.reduced_algebra()))


def graded_case(name):
    """The graded basis of a shipped fixture and its cover, as `coaction` has them."""
    _, (_, graded) = load_path(os.path.join(FIXDIR, name))
    basis = list(graded.basis)
    return basis, block_decompose(AlgebraSpan(basis, selfadjoint=True))


def toeplitz_case(pres):
    """λ of the morphisms inside their Toeplitz algebra's cover."""
    lam = LambdaRep.build(pres)
    return ([lam.lam(c) for c in pres.ball(None)],
            block_decompose(lam.toeplitz_algebra()))


def assert_same_shilov(a_basis, cover):
    fast = shilov_ideal(a_basis, cover)
    slow = shilov_ideal_by_singles(a_basis, cover)
    assert fast.mask == slow.mask
    assert fast.quotient_blocks == slow.quotient_blocks
    assert fast.levels == slow.levels
    for mask, verdict in fast.verdicts.items():  # what both decided, alike
        if mask in slow.verdicts:
            assert verdict.certified == slow.verdicts[mask].certified


@pytest.mark.parametrize("make", CATEGORIES)
def test_union_first_shilov_matches_singles_on_categories(make):
    pres = make()
    assert_same_shilov(*spectrum_case(pres))
    assert_same_shilov(*toeplitz_case(pres))


@pytest.mark.parametrize("name", ["t2.grad", "t3.grad"])
def test_union_first_shilov_matches_singles_on_gradings(name):
    assert_same_shilov(*graded_case(name))


def test_union_first_searches_the_union_once():
    """On kgraph-acyclic every block outside the Shilov mask is refuted by the
    exact pre-test, so the only numerical search is the one of the union."""
    a_basis, cover = spectrum_case(fix_kgraph_acyclic())
    res = shilov_ideal(a_basis, cover)
    searched = [m for m, v in res.verdicts.items() if v.samples]
    assert searched == [res.mask]
    assert all(len(m) == 1 and not v.certified and v.witness is not None
               for m, v in res.verdicts.items() if m != res.mask)


def test_rejected_union_falls_back_to_singles():
    """diag(1, 2) in ℂ⊕ℂ: no single block holds a kernel element, but their
    union is every block, so the exact pre-test rejects it and the fallback
    searches the singles. Masking the block where the generator is 1 keeps its
    norm 2."""
    toy = [np.diag([1.0, 2.0]).astype(complex)]
    cover = block_decompose(AlgebraSpan(toy, selfadjoint=True))
    res = shilov_ideal(toy, cover)
    assert res.mask == shilov_ideal_by_singles(toy, cover).mask
    assert frozenset({0, 1}) in res.verdicts and not res.verdicts[frozenset({0, 1})].certified


# -- verdicts handed in ---------------------------------------------------------------


def test_seeded_rejected_union_falls_back_to_singles():
    toy = [np.diag([1.0, 2.0]).astype(complex)]
    cover = block_decompose(AlgebraSpan(toy, selfadjoint=True))
    union = frozenset({0, 1})
    rejected = is_boundary_ideal(toy, cover, union)
    res = shilov_ideal(toy, cover, verdicts={union: rejected})
    assert res.verdicts[union] is rejected
    assert all(res.verdicts[frozenset({k})].samples > 0 for k in (0, 1))
    assert res.mask == shilov_ideal(toy, cover).mask


def test_seeds_only_what_the_search_would_decide():
    """A rejection is seeded whatever its effort; a certification is seeded
    only at the search's levels or more."""
    _, cover = spectrum_case(fix_kgraph_acyclic())
    top = max(cover.block_sizes)
    mask = frozenset({0})

    def verdict(certified, levels):
        return IsometryVerdict(certified, 0.0 if certified else 1.0, levels, 10, 3, 1e-9)

    low = verdict(True, top - 1)
    assert shilov_seeds(mask, low, cover) == {}
    assert shilov_seeds(mask, low, cover, levels=top - 1) == {mask: low}
    for v in (verdict(False, 1), verdict(True, top), verdict(True, top + 1)):
        assert shilov_seeds(mask, v, cover) == {mask: v}


def test_shilov_search_at_level_zero_raises():
    a_basis, cover = spectrum_case(fix_kgraph_acyclic())
    with pytest.raises(ValueError):
        shilov_ideal(a_basis, cover, levels=0)


# -- the dominance inequality ------------------------------------------------------


def dominance_cases():
    for make in (fix_edge, fix_two, fix_kgraph_acyclic):
        yield make.__name__, spectrum_case(make())
    for name in ("t2.grad", "t3.grad"):
        yield name, graded_case(name)


@pytest.mark.parametrize("name,case", list(dominance_cases()))
def test_union_deviation_dominates_its_singles(name, case):
    """deviation_U(c) ≥ deviation_{k}(c) for k ∈ U: quotienting by more blocks
    leaves a smaller maximum over the kept ones."""
    a_basis, cover = case
    rng = np.random.default_rng(11)
    nblocks = len(cover.block_sizes)
    singles = {k: _blockwise_deviation(a_basis, cover, {k}) for k in range(nblocks)}
    stacks = [rng.standard_normal((6, k, k, len(a_basis)))
              + 1j * rng.standard_normal((6, k, k, len(a_basis))) for k in (1, 2, 3)]
    for r in range(1, nblocks + 1):
        for union in map(frozenset, itertools.combinations(range(nblocks), r)):
            dev_u = _blockwise_deviation(a_basis, cover, union)
            for cs in stacks:
                du = dev_u(cs)
                for k in union:
                    assert np.all(du >= singles[k](cs) - 1e-12)


# -- the kernel pre-test on full masks ----------------------------------------------


def test_full_mask_pretest_is_the_first_nonzero_generator():
    e11, e12 = np.zeros((2, 2), complex), np.zeros((2, 2), complex)
    e11[0, 0], e12[0, 1] = 1, 1
    basis = [np.zeros((2, 2), complex), e12, e11]
    cover = block_decompose(AlgebraSpan(basis, selfadjoint=True))
    assert cover.block_sizes == [2]
    assert np.array_equal(_span_kernel_element(basis, cover, {0}), e12)
    assert _span_kernel_element(basis[:1], cover, {0}) is None
    verdict = is_boundary_ideal(basis, cover, {0})
    assert not verdict.certified and np.array_equal(verdict.witness, e12)
    assert verdict.max_deviation == 1.0 and verdict.samples == 0
    assert shilov_ideal(basis, cover).mask == frozenset()


# -- the batched deviation search against one trial at a time ------------------------


def dense_deviation(amats, bmats):
    amats, bmats = np.array(amats, dtype=complex), np.array(bmats, dtype=complex)

    def deviation(cs):
        return np.abs(level_k_norms(bmats[None], cs)[:, 0]
                      - level_k_norms(amats[None], cs)[:, 0])
    return deviation


def planted(level, height, seed):
    """A deviation that is zero below `level` and, at `level`, height·cos² of
    the angle between c and a fixed random direction: the ascent has to climb
    towards that direction to pass a tol just under height."""
    def one(c):
        if c.shape[0] != level:
            return 0.0
        u = np.random.default_rng(seed).standard_normal((2,) + c.shape)
        u = u[0] + 1j * u[1]
        return height * abs(np.vdot(u, c)) ** 2 / (np.vdot(u, u).real * np.vdot(c, c).real)
    return lambda cs: np.array([one(c) for c in cs])


def certified_searches():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    yield "unitary-conjugate", dense_deviation(mats, [q @ m @ q.conj().T for m in mats]), 3, 3
    yield "ampliation", dense_deviation(mats, [np.kron(np.eye(2), m) for m in mats]), 3, 2
    a_basis, cover = spectrum_case(fix_edge())
    res = shilov_ideal(a_basis, cover)
    yield "edge-shilov", _blockwise_deviation(a_basis, cover, res.mask), len(a_basis), 2
    yield "zero", planted(9, 1.0, 0), 2, 2


@pytest.mark.parametrize("name,deviation,nb,levels",
                         [pytest.param(*case, id=case[0]) for case in certified_searches()])
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_search_matches_by_trial_when_certified(name, deviation, nb, levels, seed):
    fast = deviation_search(deviation, nb, levels, samples=12, seed=seed)
    slow = deviation_search_by_trial(deviation, nb, levels, samples=12, seed=seed)
    assert fast.certified and slow.certified
    assert (fast.max_deviation, fast.levels, fast.samples, fast.restarts) == \
        (slow.max_deviation, slow.levels, slow.samples, slow.restarts)


# (level, height, seed) and where the rejection returns: the trial count up to it
PER_LEVEL = 2 + 1 + 10  # nb corner units, their sum, 10 random trials
CHAIN = 3 * 20          # restarts × steps of one ascent chain
PLANTED = [
    pytest.param(1, 2e-9, 1, 2, id="initial-trials"),
    pytest.param(2, 2e-9, 0, PER_LEVEL + 3 * CHAIN + PER_LEVEL + CHAIN, id="first-chain"),
    pytest.param(2, 1.2e-9, 0, PER_LEVEL + 3 * CHAIN + PER_LEVEL + 2 * CHAIN,
                 id="second-chain-level-2"),
    pytest.param(2, 1.2e-9, 5, PER_LEVEL + 3 * CHAIN + PER_LEVEL + 3 * CHAIN,
                 id="third-chain-level-2"),
]


@pytest.mark.parametrize("level,height,seed,samples", PLANTED)
def test_batched_search_matches_by_trial_on_planted_rejections(level, height, seed, samples):
    deviation = planted(level, height, seed)
    fast = deviation_search(deviation, 2, 3, samples=10, seed=seed)
    slow = deviation_search_by_trial(deviation, 2, 3, samples=10, seed=seed)
    assert not fast.certified and not slow.certified
    assert fast.samples == slow.samples == samples
    assert (fast.max_deviation, fast.levels, fast.restarts) == \
        (slow.max_deviation, slow.levels, slow.restarts)
    assert fast.witness[0] == slow.witness[0] == level
    assert np.array_equal(fast.witness[1], slow.witness[1])
