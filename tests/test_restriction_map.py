"""`thesis` reads the boundary model through one map, the restriction π; the
envelope entries after it read π's kernel mask and the spectrum cover.

The maps over the boundary model that `envelope-coincidence` and
`diagonal-injectivity` no longer build are the oracles here: the
correspondence m_∂(s) ↦ q(m_Ω(s)) onto the Shilov quotient, a
*-isomorphism, and its restriction to the diagonal. A planted Shilov mask
that differs from the kernel mask is rejected with no traceback, and
`diagonal-injectivity` rejects a diagonal of equal rank in both quotients
whose images do not pair. Ideal
detection on single blocks is checked against its every-subset reference in
`oracles`, and π's kernel mask, read off the cover, against the masks read
off one matrix unit and every matrix unit per block; with S₃ isotropy, whose
blocks have multiplicity above 1, `thesis` exits 3 with that mask.
"""

import itertools
import json
import runpy
from functools import partial

import pytest

from catenv import cli, envelope, pipeline
from catenv.envelope import ShilovResult, detects_ideals
from catenv.fixtures import fix_kgraph_acyclic
from catenv.gpd import transitive_groupoid
from catenv.matrixrep import matrix_rank
from catenv.pipeline import analyze_category, boundary_quotient
from oracles import (SpannedStarMap, detects_ideals_by_subsets, entry, quotient_kernel_mask,
                     quotient_kernel_mask_by_units)
from test_boundary_cover import (CASES, FIXTURES, counting, restriction_pairs,
                                 spectrum_generators)
from test_hull import layered_dag

WITH_DAGS = CASES + [pytest.param(partial(layered_dag, seed), id=f"dag{seed}")
                     for seed in (3, 4)]


def omega_diagonal(res):
    hull, lat = res.context["hull"], res.context["lattice"]
    return [hull.idempotent(lat.ideals[i].parts) for i in lat.nonzero_indices()]


def test_thesis_builds_one_restriction_map(monkeypatch):
    """On the orbit cover π is certified on index arrays: no `SpannedStarMap`
    is built or tested; `envelope_coincidence` reads no boundary-model matrix."""
    calls = {"__init__": 0, "star_homomorphism_witness": 0, "spanning_matrix": 0}
    for name in ("__init__", "star_homomorphism_witness"):
        monkeypatch.setattr(SpannedStarMap, name, counting(calls, getattr(SpannedStarMap, name)))
    coincidence = pipeline.envelope_coincidence

    def envelope_coincidence(ctx, *args, **kwargs):
        bound = ctx["model_boundary"]
        monkeypatch.setattr(bound, "spanning_matrix", counting(calls, bound.spanning_matrix))
        return coincidence(ctx, *args, **kwargs)

    monkeypatch.setattr(pipeline, "envelope_coincidence", envelope_coincidence)
    assert cli.main(["thesis", str(FIXTURES / "kgraph-acyclic.cat")]) == 0
    assert calls == {"__init__": 0, "star_homomorphism_witness": 0, "spanning_matrix": 0}


@pytest.mark.parametrize("make", WITH_DAGS)
def test_envelope_entries_match_the_boundary_model_maps(make):
    res = analyze_category(make())
    ctx = res.context
    model_omega, model_bound = ctx["model_omega"], ctx["model_boundary"]
    cover, shilov = ctx["omega_cover"], ctx["shilov"]

    def envelope_pairs(elements):
        return [(model_bound.spanning_matrix(s),
                 cover.rep(model_omega.spanning_matrix(s), shilov.mask)) for s in elements]

    # the boundary algebra onto the Shilov quotient: a *-isomorphism
    pi_map = SpannedStarMap(envelope_pairs(ctx["closure"].nonzero()))
    assert pi_map.star_homomorphism_witness() is None
    assert pi_map.domain_dim == matrix_rank(pi_map.ys) \
        == sum(n * n for n in shilov.quotient_blocks)
    assert entry(res, "envelope-coincidence").status == "certified"

    # its restriction to the diagonal: injective, with the ∂-diagonal's rank
    diag_map = SpannedStarMap(envelope_pairs(omega_diagonal(res)))
    assert diag_map.domain_dim == matrix_rank(diag_map.ys) == matrix_rank(diag_map.xs)
    found = entry(res, "diagonal-injectivity")
    assert found.status == "certified"
    assert found.data == {"diagonal_dim": matrix_rank(diag_map.xs)}


def planted_shilov(plant):
    """`shilov_ideal` with its mask replaced by plant(found mask, kept blocks)."""
    def shilov_ideal(a_basis, cover, **kwargs):
        found = envelope.shilov_ideal(a_basis, cover, **kwargs)
        kept = [k for k in range(len(cover.block_sizes)) if k not in found.mask]
        mask = plant(found.mask, kept)
        assert mask != found.mask
        return ShilovResult(mask, cover, found.verdicts, found.levels)
    return shilov_ideal


PLANTS = {"smaller": lambda mask, kept: frozenset(),
          "larger": lambda mask, kept: mask | {kept[0]}}


@pytest.mark.parametrize("plant", ["smaller", "larger"])
@pytest.mark.parametrize("name", ["edge", "two"])
def test_planted_mask_mismatch_is_rejected(monkeypatch, capsys, name, plant):
    monkeypatch.setattr(pipeline, "shilov_ideal", planted_shilov(PLANTS[plant]))
    code = cli.main(["thesis", str(FIXTURES / f"{name}.cat"), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    entries = {e["check"]: e for e in json.loads(out)["entries"]}
    assert list(entries)[-3:] == ["envelope-coincidence", "diagonal-injectivity",
                                  "diagonal-detects-ideals"]
    coincidence = entries["envelope-coincidence"]
    ker_mask, shilov_mask = coincidence["data"]["kernel_mask"], coincidence["data"]["shilov_mask"]
    assert coincidence["status"] == "rejected" and ker_mask != shilov_mask
    assert f"kernel mask {ker_mask} vs Shilov {shilov_mask}" == coincidence["detail"]
    # on these fixtures the diagonal's image in one quotient does not map
    # injectively, or not even well, onto its image in the other
    injectivity = entries["diagonal-injectivity"]
    assert injectivity["status"] == "rejected"
    assert injectivity["detail"].startswith(
        "the canonical diagonal does not embed injectively: "
        f"rank {injectivity['data']['diagonal_dim']} in the boundary quotient")


def test_equal_ranks_that_do_not_pair_are_rejected(monkeypatch):
    """On kgraph-acyclic the Shilov mask planted as [0, 3] leaves the diagonal
    of rank 4 in both quotients, but the pairs have rank 8: no map from one
    image to the other is well defined."""
    monkeypatch.setattr(pipeline, "shilov_ideal",
                        planted_shilov(lambda mask, kept: frozenset({0, 3})))
    res = analyze_category(fix_kgraph_acyclic())
    assert res.context["boundary_kernel_mask"] == frozenset({0, 1, 2})
    found = entry(res, "diagonal-injectivity")
    assert found.status == "rejected" and found.data == {"diagonal_dim": 4}
    assert found.detail.endswith("rank 4 in the boundary quotient, 4 in the envelope, "
                                 "8 as pairs")


@pytest.mark.parametrize("make", CASES)
def test_kernel_mask_from_one_unit_per_block(make):
    """π and the planted transpose, an anti-homomorphism, each kill whole
    blocks: the mask `boundary_quotient` returns, exact on every cover, is
    the one read off each map's units."""
    res = analyze_category(make())
    ctx = res.context
    cover = ctx["omega_cover"]
    args = (ctx["model_omega"], ctx["model_boundary"], ctx["closure"])
    mask = boundary_quotient(ctx["model_omega"], ctx["model_boundary"], cover)
    assert mask == ctx["boundary_kernel_mask"]
    for transpose in (False, True):
        star_map = SpannedStarMap(restriction_pairs(*args, transpose=transpose))
        assert mask == quotient_kernel_mask(cover, star_map) \
            == quotient_kernel_mask_by_units(cover, star_map)


@pytest.mark.parametrize("make", WITH_DAGS)
def test_detects_ideals_on_single_blocks_matches_every_subset(make):
    """On the cover and every proper quotient of it, with the Ω-diagonal and
    the operator-algebra generators as D."""
    res = analyze_category(make())
    cover = res.context["omega_cover"]
    diagonal = [res.context["model_omega"].spanning_matrix(e) for e in omega_diagonal(res)]
    seen = set()
    for d_basis in (diagonal, spectrum_generators(res)):
        for r in range(len(cover.block_sizes)):
            for mask in itertools.combinations(range(len(cover.block_sizes)), r):
                quotient = cover.quotient(mask)
                verdict = detects_ideals(d_basis, quotient)
                assert verdict == detects_ideals_by_subsets(d_basis, quotient)
                seen.add(verdict)
    assert seen == {True, False} or len(cover.block_sizes) == 1


# S₃ isotropy: (units, keep the arrow q → p, spectrum blocks, kernel mask)
S3_CASES = {
    "one-unit": ((1,), lambda p, q: True, [1, 1, 2], set()),
    "two-units": ((1, 2), lambda p, q: True, [2, 2, 4], set()),
    "arrows-1-to-2": ((1, 2), lambda p, q: q <= p, [1, 1, 2, 2, 2, 4], {0, 1, 3}),
}


@pytest.mark.parametrize("case", [*S3_CASES, "z2-isotropy"])
def test_isotropy_thesis_exits_three_with_the_oracle_kernel_mask(monkeypatch, capsys,
                                                                 tmp_path, case):
    """A non-abelian isotropy group gives blocks of multiplicity above 1, where
    one isometry column's outer product lies outside the algebra; π's kernel
    mask is read off the cover's isometries, and it is the oracle's."""
    corpus = runpy.run_path(str(FIXTURES.parent / "scripts" / "corpus_reports.py"),
                            run_name="corpus")
    path = tmp_path / f"{case}.cat"
    if case == "z2-isotropy":
        path.write_text(corpus["extra_groupoid_sub"](case))
        blocks, mask = [2, 2], set()
    else:
        units, keep, blocks, mask = S3_CASES[case]
        g = transitive_groupoid(units, corpus["S3"], corpus["S3_MUL"], "012")
        path.write_text(corpus["groupoid_sub_text"](
            g, {(p, h, q) for p, h, q in g.elements if keep(p, q)}))
    runs = []
    monkeypatch.setattr(cli, "analyze_category",
                        lambda *args, **kwargs: runs.append(analyze_category(*args, **kwargs))
                        or runs[-1])
    assert cli.main(["thesis", str(path), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    entries = {e["check"]: e for e in json.loads(out)["entries"]}
    assert entries["block-structure"]["data"]["omega_blocks"] == blocks
    assert set(entries["envelope-coincidence"]["data"]["kernel_mask"]) == mask
    ctx = runs[0].context
    star_map = SpannedStarMap(restriction_pairs(ctx["model_omega"], ctx["model_boundary"],
                                                ctx["closure"]))
    assert star_map.star_homomorphism_witness() is None
    assert quotient_kernel_mask(ctx["omega_cover"], star_map) == mask
