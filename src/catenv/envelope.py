"""Finite-dimensional C*-structure: block decompositions, boundary ideals, the
Shilov ideal search, and realization of the canonical surjection onto the
envelope for category fixtures.

A cover comes one of two ways. `orbit_cover` is exact: the C*-algebra of a
principal finite groupoid is ⊕_orbits M_|O| (Renault 1980; Muhly, Renault and
Williams 1987), each block on its orbit's coordinates, and a count of Σ|O|²
against the spanning family's rank stands in for any decomposition; `thesis`
takes it whenever the spectrum groupoid is principal. `block_decompose` is
the numerical fallback for any selfadjoint matrix algebra (groupoids with
isotropy, graded algebras of `coaction`): center from a commutant, spectral
clusters of a generic central element, one irreducible compression per block.

The Shilov search takes a cover that its generators generate: `thesis`
counts that on the morphism maps' index arrays before the search
(`generated_dim`), and a cover that `block_decompose` cuts from the
generators' own span, as `coaction`'s is, has it by construction.

The Shilov search is union-first. A sub-ideal of a boundary ideal is
boundary, and the Shilov ideal contains every boundary ideal (Arveson 1969;
Hamana 1979), so in exact arithmetic its mask is the union of the single
blocks that are boundary. Each single block gets only the exact kernel
pre-test; one `is_boundary_ideal` decision then settles the union of those
that pass. Only when it rejects the union does the search fall back to
deciding the singles and then their combinations, largest first. A caller
that has already decided a mask, exactly or with at least the search's
levels and samples, hands its verdict in (`verdicts=`), and the search reads
it instead of deciding that mask again: `thesis` hands in
`boundary-isometry`'s verdict on the restriction's kernel mask, which is the
union on every shipped fixture.

A boundary-ideal question (is quotienting by the masked blocks completely
isometric on span(A)?) is settled exactly where it can be. After the kernel
pre-test, `compression_certificate` looks for each masked block m for a kept
block k and a coordinate injection S with coords_k(a)[S][:, S] ==
coords_m(a) for every generator a, compared with `np.array_equal`. A
representation that is a compression of another is dominated by it (Arveson
1969, "Subalgebras of C*-algebras"; Dritschel and McCullough 2005, "Boundary
representations for families of representations of operator algebras and
spaces"): ‖Σ c⊗π_m(a)‖ = ‖(1⊗S)*(Σ c⊗π_k(a))(1⊗S)‖ ≤ ‖Σ c⊗π_k(a)‖ at every
level, so the quotient keeps every norm on span(A), the statement the
sampler tests. The orbit cover's coordinates are exact, and on the shipped
categories every killed orbit block is such a compression. Where no
certificate is found (float covers from `block_decompose`, rejections that
need a witness) the numerical search runs: its trials compare level-k norms
block by block in the cover's coordinates (the norm of a block-diagonal
element is its largest block norm). Null spaces come from a thin SVD unless
the matrix is wide.

An ideal of a cover ⊕ M_n is a sum of blocks, each simple: a
*-homomorphism's kernel is read off one matrix unit per block
(`quotient_kernel_mask`), and ideal detection asks only of single blocks.

Certification semantics: REJECT verdicts carry an explicit witness and are
sound; CERTIFY verdicts are exact (a compression certificate, valid at every
level) or numerical certificates with stated effort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import perm
from .matrixrep import (AlgebraSpan, IsometryVerdict, NotSelfAdjoint,
                        NumericalFailure, SpanBasis, TOL, _joint_rank, _rank,
                        deviation_search, direct_sum, level_k_norms, matrix_rank,
                        operator_norm)


class NotACover(ValueError):
    """The generators do not generate the cover they are to be searched on."""


@dataclass
class FinDimCStar:
    """⊕ M_{n_k} structure of a selfadjoint matrix algebra: per block an isometry
    W_k (ambient_dim × n_k) with coordinates b ↦ W_k* b W_k. `coordinates[k]`,
    when set (`orbit_cover`), are the ambient positions of W_k's identity
    columns."""

    block_sizes: list[int]
    isometries: list[np.ndarray]
    coordinates: list[np.ndarray] | None = None

    @property
    def dim(self):
        return sum(n * n for n in self.block_sizes)

    def coords(self, m) -> list[np.ndarray]:
        m = np.asarray(m, dtype=complex)
        return [w.conj().T @ m @ w for w in self.isometries]

    def rep(self, m, mask=frozenset()) -> np.ndarray:
        """Block-diagonal image, omitting the masked blocks."""
        return direct_sum(self.quotient(mask).coords(m))

    def quotient(self, mask) -> "FinDimCStar":
        """The quotient by the masked blocks, in the others' coordinates."""
        keep = [k for k in range(len(self.block_sizes)) if k not in mask]
        return FinDimCStar([self.block_sizes[k] for k in keep],
                           [self.isometries[k] for k in keep],
                           None if self.coordinates is None
                           else [self.coordinates[k] for k in keep])

    def norm(self, m) -> float:
        return max((operator_norm(c) for c in self.coords(m)), default=0.0)

    def block_element(self, k: int, i: int, j: int) -> np.ndarray:
        """The ambient algebra element sitting over the (i, j) matrix unit of block k."""
        w = self.isometries[k]
        return w[:, [i]] @ w[:, [j]].conj().T


def _hermitian_parts(ms):
    out = []
    for m in ms:
        out.append((m + m.conj().T) / 2)
        out.append((m - m.conj().T) / 2j)
    return out


def _null_space(a: np.ndarray, tol=TOL):
    """Orthonormal columns spanning {x : a·x = 0}.

    A thin SVD already has all of Vᴴ when a has at least as many rows as
    columns; only a wide a needs the full one.
    """
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_rank(s, tol):].conj().T


def _commutant_basis(mats, dim, tol=TOL):
    """Basis of {x : xb = bx for all b}; vec is column-major, so
    bx - xb = 0 ⟺ (I⊗b - bᵀ⊗I)·vec(x) = 0."""
    rows = []
    for b in mats:
        rows.append(np.kron(np.eye(dim), b) - np.kron(b.T, np.eye(dim)))
    big = np.vstack(rows) if rows else np.zeros((0, dim * dim))
    ns = _null_space(big, tol)
    return [ns[:, i].reshape(dim, dim, order="F") for i in range(ns.shape[1])]


def _span_solve(generic_matrices, dim, seed):
    """A generic selfadjoint element from a list of spanning matrices."""
    rng = np.random.default_rng(seed)
    herm = _hermitian_parts(generic_matrices)
    z = sum(rng.standard_normal() * h for h in herm)
    return (z + z.conj().T) / 2


def _spectral_clusters(z, tol=1e-7):
    vals, vecs = np.linalg.eigh(z)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            clusters.append((vals[start:i], vecs[:, start:i]))
            start = i
    return clusters


def _span_intersection(basis1, basis2, tol=TOL):
    """A spanning set of span(basis1) ∩ span(basis2)."""
    if not basis1 or not basis2:
        return []
    shape = basis1[0].shape
    A = np.array([b.ravel() for b in basis1]).T
    C = np.array([b.ravel() for b in basis2]).T
    ns = _null_space(np.hstack([A, -C]), tol)
    out = []
    for i in range(ns.shape[1]):
        vec = A @ ns[:A.shape[1], i]
        if np.linalg.norm(vec) > tol:
            out.append((vec / np.linalg.norm(vec)).reshape(shape))
    return out


def block_decompose(algebra: AlgebraSpan, seed=0) -> FinDimCStar:
    """Minimal central projections and per-block irreducible compressions."""
    if not algebra.closed_under_adjoint():
        raise NotSelfAdjoint("algebra is not closed under adjoints")
    basis = algebra.basis
    dim_h = basis[0].shape[0]
    # center = algebra ∩ commutant, as a genuine subspace intersection
    comm = _commutant_basis(basis, dim_h)
    center = _span_intersection(basis, comm)
    if not center:
        raise NotSelfAdjoint("algebra has no center; not unital on its support?")
    z = _span_solve(center, dim_h, seed)
    # restrict attention to the support of the algebra (its unit may be a projection)
    support = _support_projection(algebra)
    clusters = [cl for cl in _spectral_clusters(z + 1000 * (np.eye(dim_h) - support))
                if not np.allclose(support @ cl[1], 0, atol=1e-7)]
    # drop the artificial off-support cluster
    clusters = [(vals, vecs) for vals, vecs in clusters
                if np.linalg.norm(support @ vecs) > 1e-6]
    sizes, isoms = [], []
    for _, vecs in clusters:
        q, _ = np.linalg.qr(vecs)
        sub = [q.conj().T @ b @ q for b in basis]
        subdim = matrix_rank(sub)
        n = int(round(np.sqrt(subdim)))
        if n * n != subdim:
            raise NumericalFailure(f"central block of dimension {subdim} is not a "
                                   "full matrix algebra")
        csub = _commutant_basis(sub, q.shape[1])
        vecs2 = None
        for attempt in range(8):
            zc = _span_solve(csub, q.shape[1], seed + 1 + attempt)
            eigclusters = _spectral_clusters(zc)
            if eigclusters[0][1].shape[1] == n:
                vecs2 = eigclusters[0][1]
                break
        if vecs2 is None:
            raise NumericalFailure("failed to cut a multiplicity copy of the block")
        q2, _ = np.linalg.qr(vecs2)
        w = q @ q2
        img = [w.conj().T @ b @ w for b in basis]
        if matrix_rank(img) != n * n:
            raise NumericalFailure("block compression is not irreducible")
        sizes.append(n)
        isoms.append(w)
    order = sorted(range(len(sizes)), key=lambda k: (sizes[k], k))
    fd = FinDimCStar([sizes[k] for k in order], [isoms[k] for k in order])
    if fd.dim != algebra.dim:
        raise NumericalFailure(f"block dimensions {fd.block_sizes} miss the algebra "
                               f"dimension {algebra.dim}")
    _verify_iso(fd, basis)
    return fd


def orbit_cover(sizes, rank) -> FinDimCStar:
    """The cover of a principal groupoid's C*-algebra, represented on ⊕_u ℓ²(G_u)
    over one unit u per orbit, laid out orbit by orbit with `sizes` |G_u|.

    G principal makes |G_u| the orbit's size |O|, and C*(G) ≅ ⊕_orbits M_|O|
    (Renault 1980), each block acting on its orbit's coordinates: its isometry
    is those identity columns (`coordinates`), so its coordinates are exact
    compressions.
    Blocks are ordered by (size, orbit), as `block_decompose` orders them.
    `rank`, the dimension of the spanning family's span, must be Σ|O|²: that
    span is block diagonal on the orbits, so it is then all of ⊕ M_|O|.
    """
    if sum(n * n for n in sizes) != rank:
        raise NumericalFailure(f"orbit blocks {sorted(sizes)} miss the spanning "
                               f"family's rank {rank}")
    eye = np.eye(sum(sizes), dtype=complex)
    starts = np.cumsum([0, *sizes])
    order = sorted(range(len(sizes)), key=lambda k: (sizes[k], k))
    return FinDimCStar([sizes[k] for k in order],
                       [eye[:, starts[k]:starts[k + 1]] for k in order],
                       [np.arange(starts[k], starts[k + 1]) for k in order])


def _support_projection(algebra: AlgebraSpan, tol=1e-8):
    acc = np.zeros_like(algebra.basis[0])
    for b in algebra.basis:
        acc = acc + b @ b.conj().T
    vals, vecs = np.linalg.eigh(acc)
    keep = vecs[:, vals > tol * max(1.0, vals[-1])]
    return keep @ keep.conj().T


def _verify_iso(fd: FinDimCStar, basis, tol=1e-7):
    rng = np.random.default_rng(7)
    for _ in range(6):
        c1 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c2 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = sum(x * b for x, b in zip(c1, basis))
        b = sum(x * m for x, m in zip(c2, basis))
        left = fd.coords(a @ b)
        right = [ca @ cb for ca, cb in zip(fd.coords(a), fd.coords(b))]
        for l, r in zip(left, right):
            if not np.allclose(l, r, atol=tol):
                raise NumericalFailure("block coordinates are not multiplicative")
        if abs(fd.norm(a) - operator_norm(a)) > 1e-6 * max(1.0, operator_norm(a)):
            raise NumericalFailure("block coordinates do not preserve norms")


# -- boundary ideals and the Shilov ideal ---------------------------------------


@dataclass
class ShilovResult:
    """The Shilov mask, and `verdicts`: one entry per mask the search decided,
    namely each single block the exact kernel pre-test rejects, the union of
    the others, and, only when the union was rejected, the singles and
    combinations the fallback searched. A mask whose verdict the caller
    handed in holds that verdict."""

    mask: frozenset
    cover: FinDimCStar
    verdicts: dict
    levels: int
    quotient_blocks: list[int] = field(init=False)

    def __post_init__(self):
        self.quotient_blocks = self.cover.quotient(self.mask).block_sizes


def is_boundary_ideal(a_basis, cover: FinDimCStar, mask, levels=None,
                      samples=25, tol=1e-9, seed=0) -> IsometryVerdict:
    """Does quotienting by the masked blocks stay completely isometric on A?

    A sound exact pre-test first: an isometry is injective, so any nonzero
    element of span(A) supported inside the masked blocks refutes the mask.
    Then the exact `compression_certificate`, which certifies at every level
    with no search; only without one does `deviation_search` run on
    `_blockwise_deviation`. `levels` below 1 raise `ValueError` first: a
    search that runs no trials certifies nothing.
    """
    mask = frozenset(mask)
    levels = search_levels(cover, levels)
    if levels < 1:
        raise ValueError(f"a boundary search needs levels >= 1, got {levels}")
    kernel_witness = _span_kernel_element(a_basis, cover, mask)
    if kernel_witness is not None:
        return _kernel_rejection(kernel_witness, tol)
    certificate = compression_certificate(a_basis, cover, mask)
    if certificate is not None:
        return IsometryVerdict(True, 0.0, levels, 0, 0, tol, certificate=certificate)
    return deviation_search(_blockwise_deviation(a_basis, cover, mask), len(a_basis),
                            levels, samples=samples, tol=tol, seed=seed)


def compression_certificate(a_basis, cover: FinDimCStar, mask):
    """{masked block m: (kept block k, coordinates S)} with
    coords_k(a)[S][:, S] == coords_m(a) exactly for every a in `a_basis`, S
    injective; None when some masked block has no such kept block.

    Then π_m = S*π_k S on span(A), so ‖Σ c⊗π_m(a)‖ ≤ ‖Σ c⊗π_k(a)‖ at every
    level and the quotient by the mask keeps every norm.
    """
    coords = [np.array(block) for block in zip(*(cover.coords(a) for a in a_basis))]
    kept = [k for k in range(len(coords)) if k not in mask]
    certificate = {}
    for m in sorted(mask):
        for k in kept:
            injection = _coordinate_injection(coords[k], coords[m])
            if injection is not None:
                certificate[m] = (k, injection)
                break
        else:
            return None
    return certificate


def _coordinate_injection(kept, masked):
    """Distinct coordinates S of `kept` with kept[:, S][:, S] == masked, for
    stacks of shape (nb, n, n); or None.

    A kept block smaller than the masked one has no injection and is skipped
    before any start. S(0) runs over kept's coordinates; the rest propagates
    (`_propagate`). The last word is `np.array_equal`, with no tolerance.
    """
    if kept.shape[1] < masked.shape[1]:
        return None
    # links[i]: (b, j, value, along_row) per nonzero masked[b, i, j] or masked[b, j, i]
    links = [[] for _ in range(masked.shape[1])]
    for b, i, j in zip(*np.nonzero(masked)):
        links[i].append((b, j, masked[b, i, j], True))
        links[j].append((b, i, masked[b, i, j], False))
    for start in range(kept.shape[1]):
        injection = _propagate(kept, links, start)
        if injection is not None and np.array_equal(kept[:, injection][:, :, injection],
                                                    masked):
            return injection
    return None


def _propagate(kept, links, start):
    """S from S(0) = start: each nonzero masked[b, i, j] with S(i) known puts
    S(j) at the one entry of row S(i) of kept[b] with the same value (columns
    alike). A second candidate or none, a conflict, a repeated image or an
    unreached coordinate gives None."""
    image = {0: start}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for b, j, value, along_row in links[i]:
            line = kept[b, image[i]] if along_row else kept[b, :, image[i]]
            hits = np.flatnonzero(line == value)
            if len(hits) != 1:
                return None
            if j not in image:
                image[j] = int(hits[0])
                frontier.append(j)
            elif image[j] != hits[0]:
                return None
    injection = [image.get(i) for i in range(len(links))]
    if None in injection or len(set(injection)) != len(injection):
        return None
    return injection


def search_levels(cover: FinDimCStar, levels=None) -> int:
    """The matrix levels a boundary search on `cover` runs to: `levels`, else
    the largest block."""
    return max(cover.block_sizes) if levels is None else levels


def _kernel_rejection(witness, tol) -> IsometryVerdict:
    return IsometryVerdict(False, operator_norm(witness), 0, 0, 0, tol,
                           witness=witness)


def _blockwise_deviation(a_basis, cover: FinDimCStar, mask):
    """cs ↦ |‖Σ c⊗q(a_b)‖ − ‖Σ c⊗a_b‖| for each c in the stack cs, q the
    quotient by the masked blocks.

    The level-k norm of a block-diagonal element is the largest of its blocks'
    level-k norms, so each block's norm is computed once per c and serves both
    sides: ‖A‖ is the maximum over all blocks, ‖B‖ over the unmasked ones.
    Blocks of one size are stacked and share one batched SVD; none is padded.
    """
    coords = [cover.coords(a) for a in a_basis]
    sizes = cover.block_sizes
    stacks, order = [], []
    for n in sorted(set(sizes)):
        ks = [k for k, m in enumerate(sizes) if m == n]
        stacks.append(np.array([[c[k] for c in coords] for k in ks]))
        order += ks
    kept = np.array([k not in mask for k in order])

    def deviation(cs):
        norms = np.concatenate([level_k_norms(st, cs) for st in stacks], axis=1)
        return np.abs(norms[:, kept].max(axis=1, initial=0.0) - norms.max(axis=1))

    return deviation


def _span_kernel_element(a_basis, cover: FinDimCStar, mask, tol=TOL):
    """A nonzero element of span(a_basis) with zero coordinates off the mask.

    With every block masked there are no coordinates to vanish, and this is
    the first nonzero generator."""
    a_basis = [np.asarray(a, dtype=complex) for a in a_basis]
    outside = [k for k in range(len(cover.block_sizes)) if k not in mask]
    rows = []
    for a in a_basis:
        coords = cover.coords(a)
        rows.append(np.concatenate([np.zeros(0, dtype=complex)]
                                   + [coords[k].ravel() for k in outside]))
    # coefficient rows c with c·rows = 0
    for c in _null_space(np.array(rows).T, tol).T:
        el = sum(ci * a for ci, a in zip(c, a_basis))
        if operator_norm(el) > 1e-7:
            return el
    return None


def shilov_ideal(a_basis, cover: FinDimCStar, levels=None, samples=25,
                 tol=1e-9, seed=0, verdicts=None) -> ShilovResult:
    """Largest boundary ideal, union first.

    The exact kernel pre-test runs on each single block, and one
    `is_boundary_ideal` on the union of the blocks that pass: if that
    certifies, the union is the mask. The Shilov ideal contains every
    boundary ideal and each of its sub-ideals is boundary, so it is the union
    of the boundary single blocks, and blocks the pre-test rejects are not
    boundary. Only if the union is rejected are the singles decided, then
    their certified combinations, largest first; the first certified one is
    the mask.

    The generators must generate the cover; the search does not count that
    again (`generated_dim`).

    `verdicts` maps masks to `IsometryVerdict`s the caller has already decided
    on these generators and this cover, exactly or with at least these levels
    and samples. The search reads such a mask's verdict instead of deciding
    it, and records it in `ShilovResult.verdicts` as its own.
    """
    a_basis = [np.asarray(a, dtype=complex) for a in a_basis]
    levels = search_levels(cover, levels)
    seeded = {frozenset(mask): v for mask, v in (verdicts or {}).items()}
    verdicts = {}

    def certified(mask):
        if mask not in verdicts:
            verdicts[mask] = seeded[mask] if mask in seeded else \
                is_boundary_ideal(a_basis, cover, mask, levels, samples, tol, seed)
        return verdicts[mask].certified

    def result(mask):
        return ShilovResult(mask, cover, verdicts, levels)

    passing = []
    for k in range(len(cover.block_sizes)):
        witness = _span_kernel_element(a_basis, cover, {k})
        if witness is None:
            passing.append(k)
        else:
            verdicts[frozenset({k})] = _kernel_rejection(witness, tol)
    union = frozenset(passing)
    if not union or certified(union):
        return result(union)
    candidates = [k for k in passing if certified(frozenset({k}))]
    for size in range(len(candidates), 0, -1):
        for combo in map(frozenset, itertools.combinations(candidates, size)):
            if certified(combo):
                return result(combo)
    return result(frozenset())


def generated_dim(perms) -> int:
    """Dimension of the *-algebra the index arrays `perms` generate:
    `perm.exact_dim` where it applies, else `AlgebraSpan`'s of their matrices."""
    dim = perm.exact_dim(perms)
    return AlgebraSpan(perm.dense(perms), selfadjoint=True).dim if dim is None else dim


def detects_ideals(d_basis, cover: FinDimCStar) -> bool:
    """Every nonzero block ideal must intersect span(D) nontrivially.

    Each contains a single block, so the single blocks are asked (with one
    block, the algebra itself). D is read in the cover's coordinates, so on a
    quotient cover this is the question for the image of D."""
    d_coords = [cover.coords(d) for d in d_basis]
    d_rank = matrix_rank([np.concatenate([c.ravel() for c in coords])
                          for coords in d_coords])
    if d_rank == 0:
        return False
    dependencies = len(d_basis) - d_rank
    nblocks = len(cover.block_sizes)
    for k in range(nblocks if nblocks > 1 else 0):
        rows = [np.concatenate([c.ravel() for j, c in enumerate(coords) if j != k])
                for coords in d_coords]
        # kernel elements beyond the dependencies of D land inside block k
        if len(rows) - matrix_rank(rows) <= dependencies:
            return False
    return True


# -- linear *-maps between spanned algebras --------------------------------------


class SpannedStarMap:
    """A linear map defined on a spanning family.

    Pairs (x_i, y_i) must satisfy every dependency among the x's among the y's
    too, or construction raises `ValueError`; `star_homomorphism_witness` tests
    whether products and adjoints map consistently.
    """

    def __init__(self, pairs):
        self.xs = [np.asarray(x, dtype=complex) for x, _ in pairs]
        self.ys = [np.asarray(y, dtype=complex) for _, y in pairs]
        self.domain_dim = matrix_rank(self.xs)
        if _joint_rank(self.xs, self.ys) != self.domain_dim:
            raise ValueError("map is not well defined on the span")
        self._domain = SpanBasis()
        self._basis_y = np.array([y for x, y in zip(self.xs, self.ys)
                                  if self._domain.add(x)])

    def apply(self, m) -> np.ndarray:
        """The image of m; ValueError if m is outside the domain span."""
        return np.tensordot(self._domain.coordinates(m), self._basis_y, 1)

    def star_homomorphism_witness(self, rng_seed=3, trials=8):
        """None when products and adjoints map consistently on `trials` seeded
        random pairs (a, b) of the domain; else (defect, a, b) for the first that
        fails: the largest |entry| of π(ab) − π(a)π(b) and π(a*) − π(a)*, or inf
        off the domain span."""
        rng = np.random.default_rng(rng_seed)
        basis_x = self._domain.members
        n = len(basis_x)
        for _ in range(trials):
            c1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = sum(c * b for c, b in zip(c1, basis_x))
            b = sum(c * m for c, m in zip(c2, basis_x))
            try:
                sides = [(self.apply(a @ b), self.apply(a) @ self.apply(b)),
                         (self.apply(a.conj().T), self.apply(a).conj().T)]
            except ValueError:
                return np.inf, a, b
            if not all(np.allclose(x, y, atol=1e-7) for x, y in sides):
                return max(float(np.abs(x - y).max()) for x, y in sides), a, b
        return None


def quotient_kernel_mask(cover: FinDimCStar, star_map: SpannedStarMap,
                         tol=1e-8) -> frozenset:
    """Blocks of the cover killed by a *-homomorphism (or anti-homomorphism)
    defined on its algebra: its kernel is an ideal, so those whose E_00 it kills."""
    return frozenset(k for k in range(len(cover.block_sizes))
                     if operator_norm(star_map.apply(cover.block_element(k, 0, 0))) <= tol)
