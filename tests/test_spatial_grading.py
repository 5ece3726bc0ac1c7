"""The exact normality certificate of a spatial grading.

A labeling φ of the ambient coordinates by G with φ(i) = g·φ(j) at every
nonzero entry (i, j) of a degree-g basis element gives the permutation unitary
W = Σᵢ eᵢᵢ⊗λ_{φ(i)} with W(a⊗1)W* = δ(a): checked entry by entry and as dense
matrices on every duality case and both shipped gradings, beside the search
that stays the fallback. A grading with no labeling falls back to the search,
a conflicting entry or a stored image W does not reproduce is refused, and a
`coaction` run on a spatial grading never searches."""

from pathlib import Path

import numpy as np
import pytest

from catenv import cli, coactions
from catenv.coactions import Coaction, FiniteGroup, GradedAlgebra, coaction_from_grading
from catenv.envelope import is_boundary_ideal
from catenv.parsing import load_path
from test_duality import CASES, coaction

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def shipped(name):
    _, (_, graded) = load_path(str(FIXTURES / name))
    return coaction_from_grading(graded)


SPATIAL = [pytest.param(lambda p=p: coaction(p.values[0]), id=p.id) for p in CASES] + [
    pytest.param(lambda: shipped("t2.grad"), id="t2.grad"),
    pytest.param(lambda: shipped("t3.grad"), id="t3.grad"),
]


def w_matrix(delta, phi):
    """Σᵢ eᵢᵢ⊗λ_{φ(i)} as a dense matrix."""
    d = delta.graded.ambient_dim
    return sum(np.kron(np.diag(np.arange(d) == i), delta.group.lam(g))
               for i, g in enumerate(phi))


@pytest.mark.parametrize("build", SPATIAL)
def test_spatial_grading_is_certified_exactly(build):
    delta = build()
    G = delta.group
    phi = delta.spatial_certificate
    assert phi is not None and len(phi) == delta.graded.ambient_dim
    for a, g in zip(delta.graded.basis, delta.graded.degrees):
        for i, j in zip(*np.nonzero(a)):
            assert phi[i] == G.mul(g, phi[j])
    w = w_matrix(delta, phi)
    eye = np.eye(len(G))
    for a, image in zip(delta.graded.basis, delta.images):
        assert np.array_equal(w @ np.kron(a, eye) @ w.conj().T, image)

    verdict = delta.normality_verdict(levels=5, tol=1e-7)
    assert (verdict.certified, verdict.max_deviation, verdict.levels, verdict.samples,
            verdict.restarts, verdict.tol) == (True, 0.0, 5, 0, 0, 1e-7)
    assert verdict.certificate == phi

    search = is_boundary_ideal(delta.images, *delta.normality_cover(), levels=3,
                               samples=25)
    assert search.certified and search.samples > 0 and search.max_deviation < 1e-10


def hadamard_grading():
    """I in degree 0 and X = [[1, 1], [1, −1]]/√2 in degree 1 over ℤ/2: a
    grading (X² = I) whose X has a nonzero diagonal in degree 1."""
    x = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return GradedAlgebra(FiniteGroup.cyclic(2), {0: [np.eye(2)], 1: [x]})


def test_grading_with_no_labeling_falls_back_to_the_search():
    delta = coaction_from_grading(hadamard_grading())
    assert delta.spatial_labeling() is None and delta.spatial_certificate is None
    verdict = delta.normality_verdict()
    assert verdict.certified and verdict.certificate is None
    assert verdict.samples > 0 and verdict.max_deviation < 1e-10


def test_a_conflicting_entry_is_refused():
    delta = coaction(CASES[1].values[0])  # t2: E₁₁, E₂₂ in degree 0, E₁₂ in 1
    assert delta.spatial_labeling() is not None
    # E₁₁ + E₁₂ in degree 0 asks φ(0) = φ(1), E₁₂ in degree 1 asks φ(0) = 1 + φ(1)
    delta.graded.basis[0][0, 1] = 1
    assert delta.spatial_labeling() is None
    assert delta.normality_verdict().certificate is None


def test_an_image_w_does_not_reproduce_is_refused():
    delta = coaction(CASES[2].values[0])  # t3
    assert delta.spatial_labeling() is not None
    delta.images[-1] = delta.images[-1].copy()
    delta.images[-1][0, 0] = 1e-3
    assert delta.spatial_certificate is None
    assert delta.normality_verdict().certificate is None


def test_levels_below_one_raise_before_any_certificate():
    delta = coaction(CASES[1].values[0])
    with pytest.raises(ValueError):
        delta.normality_verdict(levels=0)


def test_coaction_run_on_a_spatial_grading_never_searches(monkeypatch, capsys):
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(coactions, "is_boundary_ideal", refuse("is_boundary_ideal"))
    monkeypatch.setattr(Coaction, "normality_cover", refuse("normality_cover"))
    verdicts = []
    original = Coaction.normality_verdict

    def record(self, *args, **kwargs):
        verdicts.append(original(self, *args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(Coaction, "normality_verdict", record)
    code = cli.main(["coaction", str(FIXTURES / "t3.grad"), "--tol", "1e-7"])
    out = capsys.readouterr().out
    assert code == 0 and calls == []
    assert "exact: grading is spatial, at every level" in out
    (verdict,) = verdicts
    assert verdict.tol == 1e-7 and verdict.samples == 0
