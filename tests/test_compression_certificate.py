"""The exact compression certificate of `is_boundary_ideal` against the
blockwise sampler it replaces, on every mask of the spectrum cover's blocks.

Wherever the certificate certifies a mask, `deviation_search` on
`_blockwise_deviation` must certify it too; on the kernel mask of `thesis`
both must. Planted cases the certificate must refuse hand the mask over to
the sampler: one corrupted generator coordinate, a mask that kills only the
largest block, and kept blocks too small or reached twice.
"""

import itertools
from functools import partial

import numpy as np
import pytest

from catenv import envelope
from catenv.envelope import (FinDimCStar, _blockwise_deviation, _coordinate_injection,
                             compression_certificate, is_boundary_ideal, search_levels)
from catenv.fixtures import fix_kgraph_acyclic
from catenv.matrixrep import deviation_search
from catenv.pipeline import analyze_category
from test_boundary_cover import CASES, spectrum_generators
from test_hull import layered_dag

SOUNDNESS = CASES + [pytest.param(partial(layered_dag, seed), id=f"dag{seed}")
                     for seed in (3, 4)]


def sampled(a_basis, cover, mask):
    """The blockwise sampler alone, at the search's default levels and samples."""
    return deviation_search(_blockwise_deviation(a_basis, cover, mask), len(a_basis),
                            search_levels(cover))


def spectrum(make):
    res = analyze_category(make())
    return spectrum_generators(res), res.context["omega_cover"], \
        res.context["boundary_kernel_mask"]


def assert_compressions(a_basis, cover, certificate):
    """Each masked block's coordinates are the kept block's at S, entry for entry."""
    for m, (k, s) in certificate.items():
        assert len(set(s)) == len(s) == cover.block_sizes[m] <= cover.block_sizes[k]
        for a in a_basis:
            coords = cover.coords(a)
            assert np.array_equal(coords[k][np.ix_(s, s)], coords[m])


@pytest.mark.parametrize("make", SOUNDNESS)
def test_certificate_is_sound_on_every_mask(make):
    a_basis, cover, ker_mask = spectrum(make)
    nblocks = len(cover.block_sizes)
    assert nblocks <= 5
    certified = 0
    for r in range(nblocks + 1):
        for mask in map(frozenset, itertools.combinations(range(nblocks), r)):
            certificate = compression_certificate(a_basis, cover, mask)
            if certificate is None:
                continue
            certified += 1
            assert set(certificate) == mask
            assert_compressions(a_basis, cover, certificate)
            assert sampled(a_basis, cover, mask).certified
    assert certified >= 1 + bool(ker_mask)  # the empty mask, and the kernel mask
    assert compression_certificate(a_basis, cover, ker_mask) is not None
    assert sampled(a_basis, cover, ker_mask).certified
    # the verdict carries the certificate at the requested levels, with no search
    verdict = is_boundary_ideal(a_basis, cover, ker_mask, levels=3)
    assert verdict.certified and verdict.certificate is not None
    assert (verdict.max_deviation, verdict.levels, verdict.samples, verdict.restarts) \
        == (0.0, 3, 0, 0)
    with pytest.raises(ValueError):
        is_boundary_ideal(a_basis, cover, ker_mask, levels=0)


# -- planted refusals: the sampler decides ---------------------------------------


def test_corrupted_kept_coordinate_is_refused():
    """One generator coordinate inside the kept block, where the masked block
    reads zero, changed to 0.5: the propagation still runs through (it reads
    only the masked block's nonzero entries), and only the entrywise check
    refuses."""
    a_basis, cover, ker_mask = spectrum(fix_kgraph_acyclic)
    certificate = compression_certificate(a_basis, cover, ker_mask)
    m = max(certificate, key=lambda k: cover.block_sizes[k])
    k, s = certificate[m]
    b, i, j = next((b, i, j) for b, a in enumerate(a_basis)
                   for i, j in itertools.product(range(len(s)), repeat=2)
                   if cover.coords(a)[m][i, j] == 0)
    corrupted = list(a_basis)
    corrupted[b] = a_basis[b] + 0.5 * cover.block_element(k, s[i], s[j])
    assert compression_certificate(corrupted, cover, {m}) is None
    verdict = is_boundary_ideal(corrupted, cover, {m})
    assert verdict.certificate is None
    oracle = sampled(corrupted, cover, {m})
    assert (verdict.certified, verdict.samples, verdict.max_deviation) \
        == (oracle.certified, oracle.samples, oracle.max_deviation)


def test_corrupted_masked_coordinate_is_refused():
    a_basis, cover, ker_mask = spectrum(fix_kgraph_acyclic)
    m = max(ker_mask, key=lambda k: cover.block_sizes[k])
    corrupted = list(a_basis)
    corrupted[0] = a_basis[0] + 0.5 * cover.block_element(m, 0, 1)
    assert compression_certificate(corrupted, cover, {m}) is None
    verdict = is_boundary_ideal(corrupted, cover, {m})
    assert verdict.certificate is None and verdict.samples > 0


@pytest.mark.parametrize("make", SOUNDNESS)
def test_killing_only_the_largest_blocks_is_refused(make):
    """No kept block is as large as a masked one; the largest blocks are the
    boundary's, so the mask is no boundary ideal and the sampler rejects it."""
    a_basis, cover, ker_mask = spectrum(make)
    sizes = cover.block_sizes
    largest = frozenset(k for k, n in enumerate(sizes) if n == max(sizes))
    assert not largest & ker_mask
    assert compression_certificate(a_basis, cover, largest) is None
    verdict = is_boundary_ideal(a_basis, cover, largest)
    assert not verdict.certified and verdict.certificate is None


def diagonal_cover(sizes):
    """Blocks on consecutive coordinates, in the given order."""
    eye = np.eye(sum(sizes), dtype=complex)
    starts = np.cumsum([0, *sizes])
    return FinDimCStar(list(sizes), [eye[:, starts[k]:starts[k + 1]]
                                     for k in range(len(sizes))])


def test_a_smaller_kept_block_is_refused(monkeypatch):
    """ℂ ⊕ M₂ with a ↦ (x, [[x, x], [x, x]]): the M₂ block reads the ℂ block
    at S = (0, 0), entry for entry, but S is no injection; masking M₂ is not
    isometric (‖[[x, x], [x, x]]‖ = 2|x|). The smaller block is skipped
    before any start is propagated."""
    a = np.diag([1.0, 0, 0]).astype(complex)
    a[1:, 1:] = 1.0
    cover = diagonal_cover([1, 2])
    starts = []
    propagate = envelope._propagate
    monkeypatch.setattr(envelope, "_propagate",
                        lambda *args: starts.append(args[2]) or propagate(*args))
    assert compression_certificate([a], cover, {1}) is None
    assert starts == []
    verdict = is_boundary_ideal([a], cover, {1})
    assert not verdict.certified and verdict.max_deviation == pytest.approx(1.0)


def test_a_repeated_image_is_refused():
    """M₂ ⊕ M₃ with the M₂ block the all-x matrix and the M₃ block x at (0, 0):
    S = (0, 0) matches entry for entry, but reaches one coordinate twice."""
    a = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = 1.0
    a[2, 2] = 1.0
    cover = diagonal_cover([2, 3])
    assert _coordinate_injection(np.array([cover.coords(a)[1]]),
                                 np.array([cover.coords(a)[0]])) is None
    assert compression_certificate([a], cover, {0}) is None
    assert not is_boundary_ideal([a], cover, {0}).certified


def test_a_second_candidate_gives_up_that_start():
    """A kept row holding the masked value twice gives no unique S(j): that
    start is dropped, and a start that propagates uniquely still wins."""
    kept = np.array([[[1, 1, 0], [0, 0, 0], [0, 0, 2]]], dtype=complex)
    masked = np.array([[[2]]], dtype=complex)
    assert _coordinate_injection(kept, masked) == [2]
    masked = np.array([[[0, 1], [0, 0]]], dtype=complex)
    assert _coordinate_injection(kept, masked) is None
