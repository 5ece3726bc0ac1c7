"""A validated grading is its coaction.

`GradedAlgebra.validate` checks the direct sum and A_g·A_h ⊆ A_gh; the
coaction axioms follow from these, so `coaction_from_grading` checks nothing
more. The reference checker in `oracles` confirms the axioms on every grading
a `coaction` run builds: the shipped ones, the duality cases, the benchmark's
generated ones, a grading with no spatial labeling and the envelope gradings
`extend_grading` returns. `Coaction.delta` agrees with δ = Σ_g m_g⊗λ_g solved
degree by degree, the duality's image is n times the crossed product, and a
`coaction` run builds no `SpannedStarMap`.
"""

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from catenv import cli
from catenv.coactions import (GradedAlgebra, NoExtensionFound, coaction_from_grading,
                              extend_grading, katayama_verify)
from catenv.matrixrep import AlgebraSpan
from catenv.parsing import load_path, load_text
from oracles import SpannedStarMap, axiom_failures, delta_per_degree
from test_duality import CASES
from test_linalg_oracles import extension_cases
from test_spatial_grading import hadamard_grading

ROOT = Path(__file__).resolve().parents[1]


def shipped(name):
    return load_path(str(ROOT / "fixtures" / name))[1][1]


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def bench_grading_text(key, seed):
    """The document the benchmark generates for the workload input `key`."""
    workloads = sys.modules.get("bench_workloads") or bench_workloads()
    source = workloads.WORKLOADS["coaction-graded"][key][1]
    return workloads.graded_text(random.Random(f"{seed}:{key}"), source.order,
                                 source.dim, source.units)


def bench_grading(key, seed):
    """The grading the benchmark generates for the workload input `key`."""
    return load_text(bench_grading_text(key, seed))[1][1]


def from_case(case):
    group, comps = case()
    return GradedAlgebra(group, comps)


def envelope_gradings():
    out = []
    for graded, env_basis, kappa in extension_cases():
        with contextlib.suppress(NoExtensionFound):
            out.append(extend_grading(graded, env_basis, kappa))
    return out


BENCH = [(key, seed) for key in ("coaction:upper2-z2", "coaction:corner3-z2")
         for seed in (0, 1)]
GRADINGS = [
    pytest.param(lambda: shipped("t2.grad"), id="t2.grad"),
    pytest.param(lambda: shipped("t3.grad"), id="t3.grad"),
    *(pytest.param(lambda p=p: from_case(p.values[0]), id=f"duality-{p.id}") for p in CASES),
    *(pytest.param(lambda key=key, seed=seed: bench_grading(key, seed),
                   id=f"bench-{key.split(':')[1]}-seed{seed}") for key, seed in BENCH),
    pytest.param(hadamard_grading, id="hadamard"),
    *(pytest.param(lambda k=k: envelope_gradings()[k], id=f"envelope-{k}") for k in range(5)),
]


def test_every_extension_case_with_an_envelope_is_listed():
    assert len(envelope_gradings()) == 5


@pytest.mark.parametrize("make", GRADINGS)
def test_the_oracle_axioms_hold(make):
    """The images δ(b) of the graded basis, read through `Coaction.delta`,
    are those in closed form and pass every reference axiom."""
    graded = make()
    delta = coaction_from_grading(graded)
    images = [delta.delta(b) for b in graded.basis]
    assert np.allclose(images, delta.images, atol=1e-12)
    assert axiom_failures(graded.basis, images, graded.group) == []


@pytest.mark.parametrize("make", GRADINGS)
def test_delta_matches_the_per_degree_oracle(make):
    graded = make()
    delta = coaction_from_grading(graded)
    rng = np.random.default_rng(7)
    for _ in range(4):
        c = rng.standard_normal(len(graded.basis)) + 1j * rng.standard_normal(len(graded.basis))
        m = np.tensordot(c, np.array(graded.basis), 1)
        assert np.allclose(delta.delta(m), delta_per_degree(graded, m), atol=1e-9)


@pytest.mark.parametrize("make", GRADINGS)
def test_the_duality_image_is_n_times_the_crossed_product(make):
    """δ_λ(A)⊗𝕂 has dimension n²·dim A and A ⋊_δ G has n·dim A, both counted
    by `SpanBasis`'s one test of independence. The crossed product's closed
    form n·dim A is the dimension of its closed span."""
    delta = coaction_from_grading(make())
    cp = delta.crossed_product
    assert katayama_verify(delta).image_dim == len(delta.group) * cp.span.dim
    assert cp.dim == cp.span.dim


@pytest.mark.parametrize("fixture", ["t2.grad", "t3.grad"])
def test_a_coaction_run_builds_no_star_map(monkeypatch, fixture):
    """The one algebra span left is the one the envelope is cut from. The
    crossed product's dimension is read in closed form, and its span is not
    built. `extend_grading` closes no span of the envelope: its basis is κ
    of a *-algebra's basis, κ a *-homomorphism, so its span is already
    closed, and its dimension is a `SpanBasis` count."""
    calls = {SpannedStarMap: 0, AlgebraSpan: 0}
    for cls in calls:
        def counted(*args, _cls=cls, _init=cls.__init__, **kwargs):
            calls[_cls] += 1
            return _init(*args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coaction", str(ROOT / "fixtures" / fixture)]) == 0
    assert calls == {SpannedStarMap: 0, AlgebraSpan: 1}


@pytest.mark.parametrize("write", [
    *(pytest.param(lambda tmp, name=name: ROOT / "fixtures" / name, id=name)
      for name in ("t2.grad", "t3.grad")),
    *(pytest.param(lambda tmp, key=key, seed=seed: bench_file(tmp, key, seed),
                   id=f"bench-{key.split(':')[1]}-seed{seed}") for key, seed in BENCH)])
def test_a_coaction_run_closes_its_graded_basis_once(monkeypatch, tmp_path, write):
    """The cover is cut from the one `AlgebraSpan` of the graded basis, which
    it generates by construction: the Shilov search does not close the basis
    again to count that."""
    path = write(tmp_path)
    basis = load_path(str(path))[1][1].basis
    closed = []
    init = AlgebraSpan.__init__

    def counted(self, generators, *args, **kwargs):
        gens = list(generators)
        if len(gens) == len(basis) and all(np.array_equal(g, b) for g, b in zip(gens, basis)):
            closed.append(args or kwargs)
        init(self, gens, *args, **kwargs)

    monkeypatch.setattr(AlgebraSpan, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coaction", str(path)]) == 0
    assert closed == [{"selfadjoint": True}]


def bench_file(tmp_path, key, seed):
    path = tmp_path / f"{key.split(':')[1]}-{seed}.grad"
    path.write_text(bench_grading_text(key, seed), encoding="utf-8")
    return path
