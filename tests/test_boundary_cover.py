"""`thesis` reads the boundary side off the spectrum model's one cover; the
dense paths it replaced are the oracles here.

The dense complete-isometry sampler on the pairs (m_Ω, m_∂) of the morphism
generators, the block decomposition of the boundary model's own algebra, and
ideal detection on the boundary model's diagonal must agree with the
`boundary-isometry`, `block-structure` and `diagonal-detects-ideals` entries.
`boundary-isometry` certifies by the exact compression certificate; the
blockwise sampler, called on the same cover and kernel mask, runs the dense
sampler's trials to its verdict.
The Shilov search reads `boundary-isometry`'s verdict on the kernel mask
instead of searching it again; a run that hands it nothing is the oracle there.
On a principal spectrum groupoid the cover itself is the orbit cover; the
numerical decomposition of the spectrum algebra, and a `thesis` run on it, are
its oracle.
"""

import random
from functools import partial
from pathlib import Path

import pytest

from catenv import cli, envelope, matrixrep, pipeline
from catenv import hull as hull_module
from catenv.categories import GraphPath, GroupoidSub
from catenv.envelope import _blockwise_deviation, block_decompose, detects_ideals
from catenv.fixtures import fix_edge, fix_kgraph_acyclic, fix_two, fix_two_mce_category
from catenv.gpd import pair_groupoid, transitive_groupoid
from catenv.matrixrep import AlgebraSpan, complete_isometry_check, deviation_search
from catenv.pipeline import analyze_category
from oracles import acyclic_path_counts, entry
from test_hull import layered_dag

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def path_category(n_objects, arcs):
    return GraphPath(objects=[f"o{i}" for i in range(n_objects)],
                     edges=[(f"e{i}", f"o{a}", f"o{b}") for i, (a, b) in enumerate(arcs)])


def z2_isotropy():
    mul = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    amb = transitive_groupoid((1, 2), ["0", "1"], mul, "0")
    return GroupoidSub(amb, set(amb.elements))


CASES = [
    pytest.param(fix_edge, id="edge"),
    pytest.param(fix_two, id="two"),
    pytest.param(fix_kgraph_acyclic, id="kgraph-acyclic"),
    pytest.param(partial(path_category, 3, ((0, 1), (1, 2))), id="chain2"),
    pytest.param(partial(path_category, 4, ((1, 0), (2, 0), (3, 0))), id="star3"),
    pytest.param(partial(path_category, 2, ((0, 1),) * 3), id="parallel3"),
    pytest.param(z2_isotropy, id="z2-isotropy"),
    pytest.param(fix_two_mce_category, id="two-mce"),
    pytest.param(partial(GroupoidSub, pair_groupoid((1, 2)), {(1, 1), (2, 2), (2, 1)}),
                 id="pair-sub"),
    *[pytest.param(partial(layered_dag, seed), id=f"dag{seed}") for seed in range(3)],
]


def dense_pairs(res, transpose=False):
    """(m_Ω(c), m_∂(c)) for the morphism generators c, the dense sampler's input."""
    hull, bound = res.context["hull"], res.context["model_boundary"]
    pairs = [(m, bound.spanning_matrix(hull.from_morphism(c)))
             for c, m in res.context["model_omega"].operator_algebra_generators()]
    return [(a, b.T) for a, b in pairs] if transpose else pairs


def spectrum_generators(res):
    return [m for _, m in res.context["model_omega"].operator_algebra_generators()]


@pytest.mark.parametrize("make", CASES)
def test_boundary_side_matches_dense_oracles(make):
    res = analyze_category(make())
    found = entry(res, "boundary-isometry")
    levels = found.data["levels"]
    dense = complete_isometry_check(dense_pairs(res), levels=levels)
    # the blockwise sampler on the same cover and mask, with thesis's effort
    a_basis = spectrum_generators(res)
    cover, ker_mask = res.context["omega_cover"], res.context["boundary_kernel_mask"]
    blockwise = deviation_search(_blockwise_deviation(a_basis, cover, ker_mask),
                                 len(a_basis), levels, samples=40)
    assert found.status == dense.status == blockwise.status == "certified"
    assert blockwise.samples == dense.samples
    assert blockwise.max_deviation < 1e-10 and dense.max_deviation < 1e-10
    # thesis certifies by the exact compression certificate, with no search
    verdict = res.context["boundary_isometry"]
    assert verdict.certificate is not None and set(verdict.certificate) == ker_mask
    assert (verdict.max_deviation, verdict.levels, verdict.samples, verdict.restarts) \
        == (0.0, levels, 0, 0)
    assert found.data == {"levels": levels, "max_deviation": 0.0}
    assert "exact:" in found.detail and "trials" not in found.detail

    model_bound, hull = res.context["model_boundary"], res.context["hull"]
    bound_cover = block_decompose(model_bound.reduced_algebra())
    assert entry(res, "block-structure").data["boundary_blocks"] == bound_cover.block_sizes

    lat = res.context["lattice"]
    diag = [model_bound.spanning_matrix(hull.idempotent(lat.ideals[i].parts))
            for i in lat.nonzero_indices()]
    assert entry(res, "diagonal-detects-ideals").data["detects"] \
        == detects_ideals(diag, bound_cover)


def restriction_pairs(model_omega, model_bound, closure, transpose=False):
    """(m_Ω(s), m_∂(s)) on the spanning family, or (m_Ω(s), m_∂(s)ᵀ)."""
    return [(model_omega.spanning_matrix(s),
             model_bound.spanning_matrix(s).T if transpose
             else model_bound.spanning_matrix(s)) for s in closure.nonzero()]


@pytest.mark.parametrize("make", CASES)
def test_reused_verdict_gives_the_shilov_entries_of_a_fresh_search(monkeypatch, make):
    res = analyze_category(make())
    ker_mask, shilov = res.context["boundary_kernel_mask"], res.context["shilov"]
    # the kernel mask is the union on each case here; an empty union needs no search
    assert ker_mask == shilov.mask
    assert (shilov.verdicts.get(ker_mask) is res.context["boundary_isometry"]) \
        == bool(ker_mask)
    monkeypatch.setattr(pipeline, "shilov_seeds", lambda *args: {})
    fresh = analyze_category(make())
    assert all(v is not fresh.context["boundary_isometry"]
               for v in fresh.context["shilov"].verdicts.values())
    found, oracle = entry(res, "shilov-ideal"), entry(fresh, "shilov-ideal")
    assert (found.status, found.data) == (oracle.status, oracle.data)
    assert entry(res, "envelope-coincidence") == entry(fresh, "envelope-coincidence")


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_thesis_searches_each_mask_once(monkeypatch):
    calls = {"is_boundary_ideal": 0}
    search = counting(calls, envelope.is_boundary_ideal)
    for module in (pipeline, envelope):
        monkeypatch.setattr(module, "is_boundary_ideal", search)
    assert cli.main(["thesis", str(FIXTURES / "kgraph-acyclic.cat")]) == 0
    assert calls == {"is_boundary_ideal": 1}


def test_no_search_certifies_at_level_zero():
    with pytest.raises(ValueError):
        analyze_category(fix_edge(), levels=0)
    res = analyze_category(fix_edge())
    with pytest.raises(ValueError):
        complete_isometry_check(dense_pairs(res), levels=0)


def count_cover_work(monkeypatch):
    """Counts of numerical decompositions, spectrum product closures and dense
    samplings, as the calls happen."""
    calls = {"block_decompose": 0, "reduced_algebra": 0, "complete_isometry_check": 0}
    decompose = counting(calls, envelope.block_decompose)
    sampler = counting(calls, matrixrep.complete_isometry_check)
    for module in (pipeline, envelope, cli):
        monkeypatch.setattr(module, "block_decompose", decompose)
    for module in (pipeline, matrixrep):
        monkeypatch.setattr(module, "complete_isometry_check", sampler)
    monkeypatch.setattr(matrixrep.GermModel, "reduced_algebra",
                        counting(calls, matrixrep.GermModel.reduced_algebra))
    return calls


def test_thesis_decomposes_once_and_samples_no_dense_pairs(monkeypatch):
    """A principal spectrum groupoid gets the orbit cover: no product closure
    and no numerical decomposition."""
    calls = count_cover_work(monkeypatch)
    assert cli.main(["thesis", str(FIXTURES / "kgraph-acyclic.cat")]) == 0
    assert calls == {"block_decompose": 0, "reduced_algebra": 0,
                     "complete_isometry_check": 0}


def test_thesis_decomposes_an_isotropy_spectrum_once(monkeypatch):
    calls = count_cover_work(monkeypatch)
    # the diagonal misses an ideal of the boundary algebra [2, 2]: bounded evidence
    assert analyze_category(z2_isotropy()).exit_code == 3
    assert calls == {"block_decompose": 1, "reduced_algebra": 1,
                     "complete_isometry_check": 0}


# -- the orbit cover against the numerical decomposition --------------------------

PRINCIPAL = [case for case in CASES if case.id != "z2-isotropy"] \
    + [pytest.param(partial(layered_dag, seed), id=f"dag{seed}") for seed in (3, 4)]


def numerical_cover(model, rank=None, seed=0):
    return block_decompose(model.reduced_algebra(), seed=seed)


def as_sizes(entry, cover):
    """(check, status, data) with masks as sorted block sizes, and max_deviation
    apart: masks among equal blocks and rounding may differ between covers."""
    data = {key: sorted(cover.block_sizes[k] for k in value)
            if key in ("mask", "kernel_mask", "shilov_mask") else value
            for key, value in entry.data.items() if key != "max_deviation"}
    return entry.check, entry.status, data, entry.data.get("max_deviation", 0.0)


@pytest.mark.parametrize("make", PRINCIPAL)
def test_orbit_cover_matches_the_numerical_decomposition(monkeypatch, make):
    res = analyze_category(make())
    model, cover = res.context["model_omega"], res.context["omega_cover"]
    g = model.rep.g
    assert g.is_principal()
    algebra = model.reduced_algebra()
    assert cover.block_sizes == block_decompose(algebra).block_sizes
    assert cover.dim == algebra.dim

    # each orbit O is one block of size |O|: Σn² = |O|²·|G_u^u|, one block per
    # conjugacy class of the isotropy G_u^u, which is trivial here
    start = 0
    for orbit, n in zip(g.orbits(), model.rep.block_sizes()):
        u, span = orbit[0], slice(start, start + n)
        isotropy = [x for x in g.elements if g.source[x] == g.range[x] == u]
        on_orbit = block_decompose(AlgebraSpan([b[span, span] for b in algebra.basis]))
        assert n == len(orbit) and len(isotropy) == 1
        assert on_orbit.block_sizes == [len(orbit)]
        start += n

    ker_mask, shilov = res.context["boundary_kernel_mask"], res.context["shilov"]
    assert sorted(cover.block_sizes[k] for k in ker_mask) \
        == sorted(cover.block_sizes[k] for k in shilov.mask)

    monkeypatch.setattr(pipeline, "spectrum_cover", numerical_cover)
    oracle = analyze_category(make())
    mine = [as_sizes(e, cover) for e in res.entries]
    theirs = [as_sizes(e, oracle.context["omega_cover"]) for e in oracle.entries]
    assert [m[:3] for m in mine] == [t[:3] for t in theirs]
    assert all(abs(m[3] - t[3]) < 1e-12 for m, t in zip(mine, theirs))


@pytest.mark.parametrize("plant", ["orbit size", "rank"])
def test_miscounted_orbit_cover_exits_four(monkeypatch, capsys, plant):
    """Σ|O|² against the spanning family's rank: a mismatch is an internal
    error, never a silent fall back to the numerical decomposition."""
    calls = {"block_decompose": 0}
    for module in (pipeline, envelope):
        monkeypatch.setattr(module, "block_decompose",
                            counting(calls, envelope.block_decompose))
    if plant == "orbit size":
        sizes = matrixrep.GroupoidRep.block_sizes
        monkeypatch.setattr(matrixrep.GroupoidRep, "block_sizes",
                            lambda rep: [sizes(rep)[0] + 1, *sizes(rep)[1:]])
    else:
        def jack_check(*args):
            ok, rank = matrixrep.jack_check(*args)
            return ok, rank + 1
        monkeypatch.setattr(pipeline, "jack_check", jack_check)
    assert cli.main(["thesis", str(FIXTURES / "edge.cat")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: orbit blocks ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert calls == {"block_decompose": 0}


# -- one separation check, no Toeplitz closure, generators built once --------------


def test_thesis_checks_separation_once(monkeypatch):
    calls = {"hausdorff_check": 0}
    monkeypatch.setattr(hull_module.InverseHull, "hausdorff_check",
                        counting(calls, hull_module.InverseHull.hausdorff_check))
    assert cli.main(["thesis", str(FIXTURES / "kgraph-acyclic.cat")]) == 0
    assert calls == {"hausdorff_check": 1}


@pytest.mark.parametrize("make", PRINCIPAL + [pytest.param(z2_isotropy, id="z2-isotropy")])
def test_regular_model_dim_is_the_toeplitz_dim(monkeypatch, make):
    """`regular-vs-groupoid-model` reports the rank `jack_check` certifies, or
    the Λ family's rank when it rejects; both are the dimension of the
    Toeplitz algebra, which `thesis` does not close under products. The
    operator-algebra generators are built once per model, over the hull's ball."""
    calls = {"toeplitz_algebra": 0}
    toeplitz = matrixrep.LambdaRep.toeplitz_algebra
    monkeypatch.setattr(matrixrep.LambdaRep, "toeplitz_algebra",
                        counting(calls, toeplitz))
    res = analyze_category(make())
    assert calls == {"toeplitz_algebra": 0}
    want = toeplitz(res.context["lambda_rep"]).dim
    assert entry(res, "regular-vs-groupoid-model").data["dim"] == want
    model = res.context["model_omega"]
    gens = model.operator_algebra_generators()
    assert gens is model.operator_algebra_generators()
    assert [c for c, _ in gens] == res.context["presentation"].ball(None)
    monkeypatch.setattr(pipeline, "jack_check", lambda *args: (False, "planted"))
    rejected = entry(analyze_category(make()), "regular-vs-groupoid-model")
    assert rejected.status == "rejected" and rejected.data["dim"] == want


def test_acyclic_path_counts_of_the_probe_graphs():
    chain = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert acyclic_path_counts(path_category(5, chain + [(1, 3), (2, 4)])) \
        == ([1, 2, 4, 7, 8], [8], 135)  # DAG22
    assert acyclic_path_counts(path_category(6, [(0, 1), (1, 2), (1, 3), (1, 4), (0, 5)])) \
        == ([1, 1, 1, 1, 4, 6], [6], 57)  # FAN


def acyclic_graph(seed):
    """A seeded path category of at most 40 morphisms: a layered DAG, each arc
    between adjacent layers present with chance 0.6, for even seeds, and a
    chain with each skip arc present with chance 0.3 for odd ones. The
    vertices are numbered in a shuffled order."""
    rng = random.Random(seed)
    while True:
        if seed % 2 == 0:
            layers = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
            starts = [sum(layers[:i]) for i in range(len(layers))]
            arcs = [(starts[i] + a, starts[i + 1] + b) for i in range(len(layers) - 1)
                    for a in range(layers[i]) for b in range(layers[i + 1])
                    if rng.random() < 0.6]
            n = sum(layers)
        else:
            n = rng.randint(3, 7)
            arcs = [(i, i + 1) for i in range(n - 1)] + [
                (i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3]
        label = list(range(n))
        rng.shuffle(label)
        pres = path_category(n, [(label[a], label[b]) for a, b in arcs])
        if arcs and len(pres.ball(None)) <= 40:
            return pres


@pytest.mark.parametrize("seed", range(24))
def test_thesis_matches_the_closed_form_of_an_acyclic_path_category(seed):
    """`thesis` on a generated acyclic path category reports the closure size,
    the spectrum blocks and the envelope blocks that the graph's path counts
    give (`oracles.acyclic_path_counts`)."""
    pres = acyclic_graph(seed)
    res = analyze_category(pres)
    assert res.exit_code == 0
    omega, envelope_blocks, size = acyclic_path_counts(pres)
    assert entry(res, "hull-closure").data["size"] == size
    assert entry(res, "block-structure").data["omega_blocks"] == omega
    assert entry(res, "shilov-ideal").data["envelope_blocks"] == envelope_blocks
