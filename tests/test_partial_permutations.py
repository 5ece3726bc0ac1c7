"""The partial-permutation layer of `thesis` is certified exactly on index
arrays; the dense paths it replaced are the oracles here.

Each `perm` operation is compared with its dense matrix on seeded random
partial permutations. `jack_check` is compared with `jack_check_dense`, the
generation count with `AlgebraSpan`, and the restriction π with a
`SpannedStarMap` on the same spanning pairs (its kernel mask, and a witness of
None). The inputs are the boundary-cover cases, `layered_dag` seeds 0–4 and
two path categories of 19 and 22 morphisms. Each exact check gets a planted
failure, and `thesis` is counted for the float work the exact paths leave out.
"""

import random
import time
from functools import partial

import numpy as np
import pytest

from catenv import cli, perm, pipeline
from catenv.envelope import block_decompose, generated_dim, shilov_ideal
from catenv.fixtures import fix_kgraph_acyclic, fix_two
from catenv.matrixrep import (AlgebraSpan, GermModel, LambdaRep, SpanBasis, jack_check,
                              matrix_rank)
from catenv.parsing import load_path
from catenv.pipeline import _boundary_coordinates, analyze_category, boundary_quotient
from oracles import (SpannedStarMap, entry, exact_dim_by_support_closure, exact_dim_by_unique,
                     jack_check_dense, quotient_kernel_mask, refine_by_unique)
from test_boundary_cover import (CASES, FIXTURES, counting, path_category,
                                 restriction_pairs, spectrum_generators, z2_isotropy)
from test_hull import layered_dag
from test_matrixrep import assert_same_verdict

CHAIN = [(0, 1), (1, 2), (2, 3), (3, 4)]
EVERY = CASES + [pytest.param(partial(layered_dag, seed), id=f"dag{seed}") for seed in (3, 4)] \
    + [pytest.param(partial(path_category, 5, CHAIN + [(1, 3)]), id="DAG19"),
       pytest.param(partial(path_category, 5, CHAIN + [(1, 3), (2, 4)]), id="DAG22")]


def test_probe_dags_have_their_sizes():
    assert [len(path_category(5, CHAIN + extra).ball(None))
            for extra in ([(1, 3)], [(1, 3), (2, 4)])] == [19, 22]


@pytest.mark.parametrize("make", EVERY)
def test_exact_checks_match_the_dense_paths(make):
    res = analyze_category(make())
    ctx = res.context
    hull, closure, lam = ctx["hull"], ctx["closure"], ctx["lambda_rep"]
    model_omega, model_bound, cover = ctx["model_omega"], ctx["model_boundary"], \
        ctx["omega_cover"]
    principal = model_omega.rep.g.is_principal()

    verdict = jack_check(hull, closure, model_omega, lam)
    assert verdict[0] and verdict == jack_check_dense(hull, closure, model_omega, lam)

    a_basis = spectrum_generators(res)
    gens = model_omega.spanning_stack[model_omega.generator_rows]
    assert np.array_equal(perm.dense(gens), a_basis)
    exact = perm.exact_dim(gens)
    assert (exact is not None) == principal  # isotropy: idempotents do not separate
    assert generated_dim(gens) == AlgebraSpan(a_basis, selfadjoint=True).dim == cover.dim

    mask = boundary_quotient(model_omega, model_bound, cover)
    star_map = SpannedStarMap(restriction_pairs(model_omega, model_bound, closure))
    assert star_map.star_homomorphism_witness() is None
    assert mask == quotient_kernel_mask(cover, star_map) == ctx["boundary_kernel_mask"]
    assert (cover.coordinates is not None) == principal
    if principal:  # the orbit blocks with no boundary coordinate
        inside = _boundary_coordinates(model_omega, model_bound)
        assert mask == {k for k, c in enumerate(cover.coordinates) if not inside[c].any()}


# -- one planted failure per exact check ---------------------------------------------


class BrokenModel:
    """A spanning family whose index array for `target` loses its first nonzero column."""

    def __init__(self, model, target):
        self.rep, self._model, self._target = model.rep, model, target

    def spanning_perm(self, s):
        p = self._model.spanning_perm(s)
        if s is self._target:
            p = p.copy()
            p[np.flatnonzero(p >= 0)[0]] = -1
        return p

    @property
    def spanning_stack(self):
        return np.array([self.spanning_perm(s) for s in self._model.closure.nonzero()])

    def spanning_matrix(self, s):
        return perm.dense(self.spanning_perm(s))


@pytest.mark.parametrize("make", [fix_two, fix_kgraph_acyclic])
def test_broken_model_product_has_a_genuine_edge_witness(make):
    res = analyze_category(make())
    hull, closure, lam = res.context["hull"], res.context["closure"], \
        res.context["lambda_rep"]
    moves = [s for s in closure.nonzero() if not hull.is_idempotent(s)]
    for target in (closure.nonzero()[0], moves[0], moves[-1]):
        model = BrokenModel(res.context["model_omega"], target)
        got = assert_same_verdict(hull, closure, model, lam)
        assert not got[0] and isinstance(got[1], tuple)  # an edge witness (t, a)


@pytest.mark.parametrize("make", EVERY)
def test_jack_check_forms_no_hull_product(make):
    """`jack_check` reads the products t∘a the hull walk formed: on these
    categories, each of more than one object, it forms no hull product. (With
    one object it would form the s∘1, which the walk skips.)"""
    res = analyze_category(make(), stop_after="groupoid")
    hull, closure = res.context["hull"], res.context["closure"]
    lam = LambdaRep.build(hull.p)
    model = GermModel(res.context["groupoid_omega"], closure)
    model.spanning_stack  # its germs are looked up before the count
    formed = len(hull._products)
    assert len(hull.p.objects) > 1 and jack_check(hull, closure, model, lam)[0]
    assert len(hull._products) == formed


@pytest.mark.parametrize("make", [fix_two, fix_kgraph_acyclic])
def test_planted_jack_mismatch_reports_the_dense_rank(monkeypatch, make):
    """Λ with the last column of every non-idempotent redirected: `thesis`
    rejects the correspondence, and its `dim` is the dense Λ stack's rank.
    The orbit cover then counts its blocks against the spanning family's
    rank, read off the index arrays."""
    class Redirected(LambdaRep):
        def inverse_perm(self, hull_ctx, s):
            p = super().inverse_perm(hull_ctx, s)
            if hull_ctx.is_idempotent(s):
                return p
            p = p.copy()
            p[-1] = -1 if p[-1] == 0 else 0
            return p

    monkeypatch.setattr(pipeline, "LambdaRep", Redirected)
    res = analyze_category(make())
    found = entry(res, "regular-vs-groupoid-model")
    assert found.status == "rejected" and res.exit_code == 2
    hull, lam = res.context["hull"], res.context["lambda_rep"]
    elements = res.context["closure"].nonzero()
    dense_rank = matrix_rank([perm.dense(lam.inverse_perm(hull, s)) for s in elements])
    assert found.data["dim"] == dense_rank
    model = res.context["model_omega"]
    assert res.context["omega_cover"].dim \
        == matrix_rank([model.spanning_matrix(s) for s in elements])


def count_spans(monkeypatch):
    calls = {"__init__": 0}
    monkeypatch.setattr(AlgebraSpan, "__init__", counting(calls, AlgebraSpan.__init__))
    return calls


def test_generation_falls_back_off_separating_partial_permutations(monkeypatch):
    units = np.array([[0, -1], [-1, 0], [1, -1], [-1, 1]])  # E₀₀, E₀₁, E₁₀, E₁₁
    fd = block_decompose(AlgebraSpan(perm.dense(units)))
    calls = count_spans(monkeypatch)
    assert perm.exact_dim(units) == generated_dim(units) == 4 == fd.dim
    assert shilov_ideal(list(perm.dense(units)), fd).mask == frozenset()
    assert calls == {"__init__": 0}
    # E₀₀ alone leaves a coordinate in no idempotent: the span engine finds ℂ, not M₂
    assert perm.exact_dim(units[:1]) is None
    assert generated_dim(units[:1]) == 1 and calls == {"__init__": 1}


def test_generation_on_isotropy_falls_back_to_the_same_dimension(monkeypatch):
    res = analyze_category(z2_isotropy())
    model = res.context["model_omega"]
    gens = model.spanning_stack[model.generator_rows]
    calls = count_spans(monkeypatch)
    assert perm.exact_dim(gens) is None
    assert generated_dim(gens) == 8 == res.context["omega_cover"].dim
    assert calls == {"__init__": 1}


def test_permutations_close_one_idempotent_not_the_group():
    """An 8-cycle and a transposition generate all 40,320 permutations, but
    only one idempotent support: it does not separate, so the span engine
    answers, with ℂ ⊕ M₇ (the trivial and standard representations of S₈)."""
    gens = np.array([np.roll(np.arange(8), 1), [1, 0, *range(2, 8)]])
    assert perm.exact_dim(gens) is None
    assert generated_dim(gens) == 1 + 7 * 7


def random_partial_permutations(seed):
    """(gens, bent): 1–3 seeded partial permutations of 2–6 points, with zero
    columns, and the first of them with a second column sent to its first
    column's image, which is not injective."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    gens = np.full((rng.randint(1, 3), n), -1)
    for p in gens:
        columns = rng.sample(range(n), rng.randint(1, n))
        p[columns] = rng.sample(range(n), len(columns))
    bent = gens[0].copy()
    first = np.flatnonzero(bent >= 0)[0]
    bent[(first + 1) % n] = bent[first]
    return gens, bent


SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_dim_matches_the_span_engine_on_random_partial_permutations(seed):
    gens, _ = random_partial_permutations(seed)
    exact = perm.exact_dim(gens)
    assert exact == exact_dim_by_support_closure(gens)
    assert exact is None or exact == AlgebraSpan(perm.dense(gens), selfadjoint=True).dim
    assert generated_dim(gens) == AlgebraSpan(perm.dense(gens), selfadjoint=True).dim


def near_permutations(seed, n, count, missing):
    """`count` seeded partial permutations of n points, each defined on all but
    at most `missing` of them."""
    rng = random.Random(seed)
    gens = np.full((count, n), -1)
    for p in gens:
        columns = rng.sample(range(n), n - rng.randint(0, missing))
        p[columns] = rng.sample(range(n), len(columns))
    return gens


def test_exact_dim_refines_where_listing_the_supports_blows_up():
    """Five near-permutations of 27 points have so many idempotent supports
    that listing them (`exact_dim_by_support_closure`) was still running
    after 30 s on one core of a Xeon host; partition refinement answers in
    about a millisecond."""
    gens = near_permutations(6, 27, 5, 2)
    start = time.perf_counter()
    assert perm.exact_dim(gens) == 27 * 27
    assert time.perf_counter() - start < 1.0


def test_exact_dim_matches_the_span_engine_on_near_permutations():
    gens = near_permutations(6, 12, 2, 6)  # three classes, not a full matrix algebra
    assert perm.exact_dim(gens) == exact_dim_by_support_closure(gens) \
        == AlgebraSpan(perm.dense(gens), selfadjoint=True).dim == 102


def checked_refinement(monkeypatch):
    """Replace `perm.refine` with a wrapper that checks every round against
    `refine_by_unique`; returns the list of the keys it refined."""
    rounds, refine = [], perm.refine

    def checked(keys):
        rounds.append(keys)
        out = refine(keys)
        assert np.array_equal(out, refine_by_unique(keys))
        return out
    monkeypatch.setattr(perm, "refine", checked)
    return rounds


def test_refinement_matches_unique_on_the_seeded_stacks(monkeypatch):
    """Every round of `exact_dim`'s refinement labels the rows as
    `np.unique(axis=0)` does, on this module's seeded stacks."""
    stacks = [random_partial_permutations(seed)[0] for seed in SEEDS] \
        + [near_permutations(6, 27, 5, 2), near_permutations(6, 12, 2, 6)]
    rounds = checked_refinement(monkeypatch)
    for gens in stacks:
        assert perm.exact_dim(gens) == exact_dim_by_unique(gens)
    assert len(rounds) >= len(stacks)


def test_refinement_matches_unique_on_random_injective_stacks(monkeypatch):
    """3,000 seeded stacks of 1–4 injective index arrays on n ≤ 12 points,
    each column −1 with chance 1/4: `exact_dim` and every round of its
    refinement agree with the `np.unique` reference."""
    rng = np.random.default_rng(30)
    rounds = checked_refinement(monkeypatch)
    for _ in range(3000):
        n, count = rng.integers(1, 13), rng.integers(1, 5)
        gens = np.array([rng.permutation(n) for _ in range(count)])
        gens[rng.random(gens.shape) < 0.25] = -1
        assert perm.exact_dim(gens) == exact_dim_by_unique(gens)
    assert len(rounds) >= 3000


def dense_of(p):
    m = np.zeros((len(p), len(p)))
    for j, i in enumerate(p):
        if i >= 0:
            m[i, j] = 1.0
    return m


@pytest.mark.parametrize("seed", SEEDS)
def test_each_perm_operation_matches_its_dense_matrix(seed):
    gens, bent = random_partial_permutations(seed)
    n = gens.shape[1]
    family = [*gens, bent]
    assert np.array_equal(perm.dense(gens), [dense_of(p) for p in gens])
    for p in family:
        assert np.array_equal(perm.dense(p), dense_of(p))
        for m in (1, 2, 3):
            assert np.array_equal(perm.dense(perm.lift(p, m)), np.kron(np.eye(m), dense_of(p)))
        for q in family:
            assert np.array_equal(perm.dense(perm.product(p, q)), dense_of(p) @ dense_of(q))
            assert np.array_equal(perm.dense(perm.kron(p, q)), np.kron(dense_of(p), dense_of(q)))
            assert perm.is_adjoint(p, q) == np.array_equal(dense_of(q), dense_of(p).T)
        assert np.array_equal(perm.product(p, gens), [perm.product(p, q) for q in gens])
        assert np.array_equal(perm.product(gens, p), [perm.product(q, p) for q in gens])
    assert np.array_equal(perm.kron(gens[:, None], np.array(family)),
                          [[perm.kron(p, q) for q in family] for p in gens])
    stars = perm.adjoint(gens)
    for p, star in zip(gens, stars):
        assert np.array_equal(perm.dense(star), dense_of(p).T) and perm.is_adjoint(p, star)
    with pytest.raises(ValueError):
        perm.adjoint(bent)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    for p in gens:
        assert np.array_equal(perm.conjugate(xs, p), dense_of(p) @ xs @ dense_of(p).T)
    with pytest.raises(ValueError):
        perm.conjugate(xs, bent)
    stack = np.array(family)
    assert matrix_rank(perm.support_rows(stack)) == matrix_rank(perm.dense(stack))


def transposed_boundary_model(monkeypatch):
    """`pipeline.GermModel` whose second model, the boundary one, holds each
    index array's inverse map: the transpose of every boundary matrix."""
    made = []

    class Model(GermModel):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def spanning_perm(self, s):
            p = super().spanning_perm(s)
            return perm.adjoint(p) if self is made[1] else p

    monkeypatch.setattr(pipeline, "GermModel", Model)


@pytest.mark.parametrize("name", ["two", "kgraph-acyclic"])
def test_wrong_boundary_restriction_exits_four_naming_its_element(monkeypatch, capsys, name):
    """The restriction is not the compression: an internal error that names
    the first spanning element whose boundary matrix is not its spectrum
    matrix restricted, here the first the transpose changes."""
    ctx = analyze_category(load_path(FIXTURES / f"{name}.cat")[1], stop_after="groupoid").context
    bound = GermModel(ctx["groupoid_boundary"], ctx["closure"])
    first = next(s for s in ctx["closure"].nonzero()
                 if not np.array_equal(perm.adjoint(bound.spanning_perm(s)),
                                       bound.spanning_perm(s)))
    transposed_boundary_model(monkeypatch)
    assert cli.main(["thesis", str(FIXTURES / f"{name}.cat")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "internal error: the restriction is not the compression to the boundary "
        f"coordinates at the spanning element {first!r}: "
        "its boundary matrix is not its restriction\n")


# -- the float work the exact paths leave out ---------------------------------------


def count_float_work(monkeypatch):
    """Calls of isclose, allclose and SVD, and Gram–Schmidt bases started,
    inside `jack_check`, the generation count and `boundary_quotient`; and
    every `SpannedStarMap` and `AlgebraSpan` built."""
    scopes = ("jack_check", "generated_dim", "boundary_quotient")
    calls = {scope: {"isclose": 0, "allclose": 0, "svd": 0, "SpanBasis": 0}
             for scope in scopes}
    calls["SpannedStarMap"] = calls["AlgebraSpan"] = 0
    inside = []

    def scoped(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def tally(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside:
                calls[inside[-1]][key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    def built(cls, key):
        init = cls.__init__

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return init(*args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    scoped(pipeline, "jack_check")
    scoped(pipeline, "generated_dim")
    scoped(pipeline, "boundary_quotient")
    tally(np, "isclose", "isclose")
    tally(np, "allclose", "allclose")
    tally(np.linalg, "svd", "svd")
    tally(SpanBasis, "__init__", "SpanBasis")
    built(SpannedStarMap, "SpannedStarMap")
    built(AlgebraSpan, "AlgebraSpan")
    return calls


def test_principal_thesis_runs_no_float_partial_permutation_work(monkeypatch):
    """On kgraph-acyclic the three checks run no tolerance test and no
    Gram–Schmidt; the only SVDs are `jack_check`'s three support ranks."""
    calls = count_float_work(monkeypatch)
    assert cli.main(["thesis", str(FIXTURES / "kgraph-acyclic.cat")]) == 0
    none = {"isclose": 0, "allclose": 0, "svd": 0, "SpanBasis": 0}
    assert calls == {"jack_check": {**none, "svd": 3}, "generated_dim": none,
                     "boundary_quotient": none, "SpannedStarMap": 0, "AlgebraSpan": 0}


def test_isotropy_thesis_restricts_exactly_and_keeps_the_float_generation_count(
        monkeypatch):
    """z2-isotropy's cover is numerical, but π is certified on index arrays
    as on the orbit cover; the generation count closes the generators under
    products."""
    calls = count_float_work(monkeypatch)
    assert analyze_category(z2_isotropy()).exit_code == 3
    assert calls["SpannedStarMap"] == 0
    assert calls["boundary_quotient"] == {"isclose": 0, "allclose": 0, "svd": 0,
                                          "SpanBasis": 0}
    assert calls["generated_dim"]["SpanBasis"] == 1
    assert calls["jack_check"] == {"isclose": 0, "allclose": 0, "svd": 3, "SpanBasis": 0}
