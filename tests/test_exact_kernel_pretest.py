"""The envelope stages on the orbit cover's index arrays against the dense
path they replace, run on the same cover with `coordinates=None`.

Families are seeded partial permutations, block diagonal on the orbit cover
of blocks SIZES: the exact kernel pre-test (`_span_kernel_element` with
`perms`) on disjoint supports, on overlapping supports (which fall back), with
an entry that crosses blocks (which no coordinates hold), with a zero
generator, on every mask including all blocks and each generator's own
blocks; the compression certificate, the coordinate slices, and the diagonal's
ranks. Then a guard that `thesis` on the orbit cover takes no null space in
its pre-tests and no product with an isometry.
"""

import itertools
import random
import runpy
from pathlib import Path

import numpy as np
import pytest

from catenv import cli, envelope, perm, pipeline
from catenv.envelope import (FinDimCStar, _span_kernel_element, _unkept_generators,
                             compression_certificate, detects_ideals, image_rows,
                             orbit_cover)
from catenv.matrixrep import _joint_rank, matrix_rank, operator_norm
from test_boundary_cover import counting

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 2, 3)  # blocks {0}, {1, 2}, {3, 4}, {5, 6, 7}
STARTS = np.cumsum([0, *SIZES])
SEEDS = range(20)


def covers():
    """The orbit cover of SIZES, and the same blocks without `coordinates`."""
    cover = orbit_cover(SIZES, sum(n * n for n in SIZES))
    return cover, FinDimCStar(cover.block_sizes, cover.isometries)


def masks():
    return [frozenset(c) for r in range(len(SIZES) + 1)
            for c in itertools.combinations(range(len(SIZES)), r)]


def disjoint_family(seed, count=4):
    """`count` partial permutations with pairwise disjoint supports, each
    inside the blocks: each block's seeded permutation has its entries dealt
    out among the generators or left out. Each generator repeats its pattern
    on block 1 on block 2, so masks of one of them have compression
    certificates."""
    rng = np.random.default_rng(seed)
    perms = np.full((count, STARTS[-1]), -1)
    for lo, hi in zip(STARTS, STARTS[1:]):
        image = lo + rng.permutation(hi - lo)
        for j, g in zip(range(lo, hi), rng.integers(-1, count, hi - lo)):
            if g >= 0:
                perms[g, j] = image[j - lo]
    perms[:, 3:5] = np.where(perms[:, 1:3] >= 0, perms[:, 1:3] + 2, -1)
    return perms


def with_cross_entry(perms, seed):
    """The family with one entry (i, j) added to a generator, i and j in
    different blocks."""
    rng = random.Random(seed)
    perms = perms.copy()
    g = rng.randrange(len(perms))
    block = np.repeat(np.arange(len(SIZES)), SIZES)
    j = rng.choice(np.flatnonzero(perms[g] < 0).tolist())
    free = [i for i in range(STARTS[-1]) if block[i] != block[j] and i not in perms[g]]
    perms[g, j] = rng.choice(free)
    return perms


def unkept_by_coordinates(a_basis, dense, mask):
    """The nonzero generators whose dense coordinates vanish off the mask."""
    return [i for i, a in enumerate(a_basis)
            if a.any() and not any(c.any() for k, c in enumerate(dense.coords(a))
                                   if k not in mask)]


def assert_matches_dense(perms):
    """On every mask: a witness exactly when the dense path finds one, zero
    off the mask and, when decided exactly, the first generator that is; the
    same compression certificate. Returns whether every mask was decided
    exactly."""
    cover, dense = covers()
    a_basis = list(perm.dense(perms))
    exact = []
    for mask in masks():
        got = _span_kernel_element(a_basis, cover, mask, perms=perms)
        want = _span_kernel_element(a_basis, dense, mask)
        assert (got is None) == (want is None), sorted(mask)
        exact.append(_unkept_generators(perms, cover, mask) is not None)
        if got is not None:
            assert operator_norm(got) > 1e-7
            assert all(np.allclose(c, 0, atol=1e-9) for k, c in enumerate(dense.coords(got))
                       if k not in mask)
            if exact[-1]:
                assert np.array_equal(got, a_basis[unkept_by_coordinates(a_basis, dense,
                                                                         mask)[0]])
        assert compression_certificate(a_basis, cover, mask) == \
            compression_certificate(a_basis, dense, mask)
    return all(exact)


def test_coordinate_slices_are_the_isometry_products():
    cover, dense = covers()
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert all(np.array_equal(a, b) for a, b in zip(cover.coords(m), dense.coords(m)))
    assert np.array_equal(cover.rep(m, {1}), dense.rep(m, {1}))


@pytest.mark.parametrize("seed", SEEDS)
def test_disjoint_supports_decide_exactly_as_the_dense_path(seed):
    assert assert_matches_dense(disjoint_family(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_overlapping_supports_fall_back(seed):
    perms = disjoint_family(seed)
    perms = np.vstack([perms, perms[np.argmax((perms >= 0).sum(axis=1))]])
    cover, _ = covers()
    assert _unkept_generators(perms, cover, frozenset()) is None
    assert not assert_matches_dense(perms)


@pytest.mark.parametrize("seed", SEEDS)
def test_an_entry_across_blocks_is_ignored(seed):
    assert assert_matches_dense(with_cross_entry(disjoint_family(seed), seed))


def test_a_generator_nonzero_only_across_blocks_is_a_witness():
    """The first generator's one in-block entry is in block 0 and its other
    entry crosses from block 3 to block 1: with block 0 masked it vanishes on
    every kept block, and it is the witness, though its column is kept."""
    perms = np.array([[0, -1, -1, -1, -1, 1, -1, -1],
                      [-1, 2, 1, 4, 3, -1, -1, -1],
                      [-1, -1, -1, -1, -1, 6, 7, 5]])
    cover, _ = covers()
    assert assert_matches_dense(perms)
    got = _span_kernel_element(list(perm.dense(perms)), cover, {0}, perms=perms)
    assert np.array_equal(got, perm.dense(perms[0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_zero_generator_is_never_the_witness(seed):
    perms = np.vstack([np.full(STARTS[-1], -1), disjoint_family(seed)])
    assert assert_matches_dense(perms)
    cover, _ = covers()
    every = frozenset(range(len(SIZES)))
    got = _span_kernel_element(list(perm.dense(perms)), cover, every, perms=perms)
    first = np.flatnonzero((perms >= 0).any(axis=1))[0]
    assert first > 0 and np.array_equal(got, perm.dense(perms[first]))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_mask_that_holds_a_whole_generator_has_a_witness(seed):
    perms = with_cross_entry(disjoint_family(seed), seed)
    cover, dense = covers()
    a_basis = list(perm.dense(perms))
    block = np.repeat(np.arange(len(SIZES)), SIZES)
    for g, p in enumerate(perms):
        inside = (p >= 0) & (block == block[p])
        if not inside.any():
            continue
        mask = frozenset(block[inside].tolist())
        got = _span_kernel_element(a_basis, cover, mask, perms=perms)
        assert got is not None and _span_kernel_element(a_basis, dense, mask) is not None
        assert g in unkept_by_coordinates(a_basis, dense, mask)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_diagonal_ranks_read_the_diagonal_entries(seed):
    """`image_rows` and `detects_ideals` take the same ranks from the diagonal
    entries as from the dense images, on 0/1 diagonals and, falling back, on
    a family with one off-diagonal entry."""
    cover, dense = covers()
    rng = np.random.default_rng(seed)
    diagonal = [np.diag(row).astype(complex) for row in rng.integers(0, 2, (5, STARTS[-1]))]
    bent = [*diagonal[:-1], diagonal[-1] + np.eye(STARTS[-1], k=1)]
    for ds in (diagonal, bent):
        for mask in masks():
            got, want = image_rows(cover, ds, mask), image_rows(dense, ds, mask)
            assert matrix_rank(got) == matrix_rank(want)
            other = image_rows(cover, ds, frozenset({0}))
            assert _joint_rank(got, other) == \
                _joint_rank(want, image_rows(dense, ds, frozenset({0})))
            if len(mask) < len(SIZES):
                assert detects_ideals(ds, cover.quotient(mask)) == \
                    detects_ideals(ds, dense.quotient(mask))
    assert np.shape(image_rows(cover, diagonal, {3})[0]) == (5,)  # the kept coordinates
    assert np.shape(image_rows(cover, bent, {3})[0]) == (5, 5)  # the dense image


# -- the orbit cover's stages take no null space and no isometry product ---------


def counted_isometries(calls):
    """An ndarray subclass that counts the matrix products it enters."""
    class Isometry(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls["isometry products"] += ufunc is np.matmul
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
    return Isometry


def corpus_dag19(tmp_path):
    """The dag19 category `scripts/corpus_reports.py` writes."""
    corpus = runpy.run_path(str(ROOT / "scripts" / "corpus_reports.py"), run_name="corpus")
    path = tmp_path / "dag19.cat"
    path.write_text(corpus["graph_path_text"](random.Random("dag19"),
                                              *corpus["EXTRA_CATEGORIES"]["dag19"]))
    return path


@pytest.mark.parametrize("fixture", ["kgraph-acyclic", "dag19"])
def test_thesis_on_the_orbit_cover_takes_no_null_space_and_no_isometry_product(
        monkeypatch, capsys, tmp_path, fixture):
    path = ROOT / "fixtures" / "kgraph-acyclic.cat" if fixture == "kgraph-acyclic" \
        else corpus_dag19(tmp_path)
    calls = {"_null_space": 0, "isometry products": 0}
    isometry = counted_isometries(calls)
    covers_made = []

    def counted_cover(sizes, rank):
        cover = envelope.orbit_cover(sizes, rank)
        cover.isometries = [w.view(isometry) for w in cover.isometries]
        covers_made.append(cover)
        return cover

    monkeypatch.setattr(envelope, "_null_space", counting(calls, envelope._null_space))
    monkeypatch.setattr(pipeline, "orbit_cover", counted_cover)
    assert cli.main(["thesis", str(path)]) == 0
    assert "shilov-ideal" in capsys.readouterr().out and len(covers_made) == 1
    assert calls == {"_null_space": 0, "isometry products": 0}
    # the wrapper counts: the same blocks without coordinates multiply
    cover = covers_made[0]
    FinDimCStar(cover.block_sizes, cover.isometries).coords(np.eye(len(cover.isometries[0])))
    assert calls["isometry products"] == len(cover.block_sizes)
