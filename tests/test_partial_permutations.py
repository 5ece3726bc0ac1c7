"""The partial-permutation layer of `thesis` is certified exactly on index
arrays; the dense paths it replaced are the oracles here.

`jack_check` is compared with `jack_check_dense`, the Shilov search's
generation count with `AlgebraSpan`, and the restriction π with a
`SpannedStarMap` on the same spanning pairs (its kernel mask, and a witness of
None). The inputs are the boundary-cover cases, `layered_dag` seeds 0–4 and
two path categories of 19 and 22 morphisms. Each exact check gets a planted
failure, and `thesis` is counted for the float work the exact paths leave out.
"""

import random
from functools import partial

import numpy as np
import pytest

from catenv import cli, envelope, pipeline
from catenv.envelope import (NotACover, SpannedStarMap, _partial_permutation_dim,
                             block_decompose, generated_dim, quotient_kernel_mask,
                             shilov_ideal)
from catenv.fixtures import fix_kgraph_acyclic, fix_two
from catenv.matrixrep import AlgebraSpan, GermModel, SpanBasis, _dense, jack_check
from catenv.pipeline import _compression_kernel_mask, analyze_category, boundary_quotient
from oracles import jack_check_by_pairs, jack_check_dense
from test_boundary_cover import (CASES, FIXTURES, counting, path_category,
                                 restriction_pairs, spectrum_generators,
                                 transposed_restriction, z2_isotropy)
from test_envelope import matrix_units
from test_hull import layered_dag

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
    exact = _partial_permutation_dim(a_basis)
    assert (exact is not None) == principal  # isotropy: idempotents do not separate
    assert generated_dim(a_basis) == AlgebraSpan(a_basis, selfadjoint=True).dim == cover.dim

    failure, mask = boundary_quotient(model_omega, model_bound, closure, cover)
    star_map = SpannedStarMap(restriction_pairs(model_omega, model_bound, closure))
    assert failure is None and star_map.star_homomorphism_witness() is None
    assert mask == quotient_kernel_mask(cover, star_map) == ctx["boundary_kernel_mask"]
    assert (cover.coordinates is not None) == principal
    if principal:
        assert _compression_kernel_mask(model_omega, model_bound, closure.nonzero(),
                                        cover) == mask


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

    def spanning_matrix(self, s):
        return _dense(self.spanning_perm(s))


@pytest.mark.parametrize("make", [fix_two, fix_kgraph_acyclic])
def test_broken_model_product_has_the_pairwise_witness(make):
    res = analyze_category(make())
    hull, closure, lam = res.context["hull"], res.context["closure"], \
        res.context["lambda_rep"]
    moves = [s for s in closure.nonzero() if not hull.is_idempotent(s)]
    for target in (closure.nonzero()[0], moves[0], moves[-1]):
        model = BrokenModel(res.context["model_omega"], target)
        got = jack_check(hull, closure, model, lam)
        assert not got[0] and len(got[1]) == 2  # a product witness (s, t)
        assert got == jack_check_by_pairs(hull, closure, model, lam) \
            == jack_check_dense(hull, closure, model, lam)


def count_spans(monkeypatch):
    calls = {"__init__": 0}
    monkeypatch.setattr(AlgebraSpan, "__init__", counting(calls, AlgebraSpan.__init__))
    return calls


def test_generation_falls_back_off_separating_partial_permutations(monkeypatch):
    units = matrix_units(2)
    fd = block_decompose(AlgebraSpan(units))
    scaled = [2 * units[0], *units[1:]]
    calls = count_spans(monkeypatch)
    assert _partial_permutation_dim(units) == 4 and shilov_ideal(units, fd).mask == frozenset()
    assert calls == {"__init__": 0}
    # a non-0/1 entry: the span engine decides, and M₂ is generated
    assert _partial_permutation_dim(scaled) is None
    assert shilov_ideal(scaled, fd).mask == frozenset() and calls == {"__init__": 1}
    # E₁₁ alone leaves a coordinate in no idempotent: the span engine finds ℂ
    assert _partial_permutation_dim([units[0]]) is None
    with pytest.raises(NotACover):
        shilov_ideal([units[0]], fd)
    assert calls == {"__init__": 2}


def test_generation_on_isotropy_falls_back_to_the_same_dimension(monkeypatch):
    res = analyze_category(z2_isotropy())
    a_basis = spectrum_generators(res)
    calls = count_spans(monkeypatch)
    assert _partial_permutation_dim(a_basis) is None
    assert generated_dim(a_basis) == 8 == res.context["omega_cover"].dim
    assert calls == {"__init__": 1}


def test_permutations_close_one_idempotent_not_the_group():
    """An 8-cycle and a transposition generate all 40,320 permutations, but
    only one idempotent support: it does not separate, so the span engine
    answers, with ℂ ⊕ M₇ (the trivial and standard representations of S₈)."""
    eye = np.eye(8)
    gens = [eye[:, np.roll(np.arange(8), 1)], eye[:, [1, 0, *range(2, 8)]]]
    assert _partial_permutation_dim(gens) is None
    assert generated_dim(gens) == 1 + 7 * 7


@pytest.mark.parametrize("seed", range(20))
def test_generated_dim_matches_the_span_engine_on_random_partial_permutations(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        m = np.zeros((n, n))
        columns = rng.sample(range(n), rng.randint(1, n))
        for j, i in zip(columns, rng.sample(range(n), len(columns))):
            m[i, j] = 1.0
        gens.append(m)
    exact = _partial_permutation_dim(gens)
    assert exact is None or exact == AlgebraSpan(gens, selfadjoint=True).dim
    assert generated_dim(gens) == AlgebraSpan(gens, selfadjoint=True).dim


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
            if self is not made[1]:
                return p
            inverse = np.full_like(p, -1)
            inverse[p[p >= 0]] = np.flatnonzero(p >= 0)
            return inverse

    monkeypatch.setattr(pipeline, "GermModel", Model)


@pytest.mark.parametrize("make", [fix_two, fix_kgraph_acyclic])
def test_wrong_boundary_restriction_is_rejected_with_its_witness(monkeypatch, make):
    """The exact path refuses it, and the `SpannedStarMap` it falls back to
    rejects it as the planted transposed restriction is rejected."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "boundary_quotient", transposed_restriction)
        planted = analyze_category(make())
    calls = {"__init__": 0}
    monkeypatch.setattr(SpannedStarMap, "__init__", counting(calls, SpannedStarMap.__init__))
    transposed_boundary_model(monkeypatch)
    res = analyze_category(make())
    assert calls == {"__init__": 1}
    entry = res.entry("boundary-isometry")
    assert entry.status == "rejected" and res.exit_code == 2
    assert "*-homomorphism" in entry.detail and res.entries[-1] is entry
    assert entry == planted.entry("boundary-isometry")
    got, want = res.context["boundary_isometry"], planted.context["boundary_isometry"]
    assert all(np.array_equal(a, b) for a, b in zip(got.witness, want.witness))


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
    scoped(envelope, "generated_dim")
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


def test_isotropy_thesis_keeps_the_float_fallbacks(monkeypatch):
    """z2-isotropy's cover is numerical: π is one `SpannedStarMap`, and the
    generation count closes the generators under products."""
    calls = count_float_work(monkeypatch)
    assert analyze_category(z2_isotropy()).exit_code == 3
    assert calls["SpannedStarMap"] == 1
    assert calls["generated_dim"]["SpanBasis"] == 1
    assert calls["jack_check"] == {"isclose": 0, "allclose": 0, "svd": 3, "SpanBasis": 0}
