"""Finite-dimensional C*-structure: block decompositions, boundary ideals, the
Shilov ideal search, and realization of the canonical surjection onto the
envelope for category fixtures.

Boundary-ideal trials compare level-k norms block by block in the cover's
coordinates (the norm of a block-diagonal element is its largest block norm);
null spaces come from a thin SVD unless the matrix is wide.

Certification semantics: REJECT verdicts carry an explicit witness and are
sound; CERTIFY verdicts are numerical certificates with stated effort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matrixrep import (AlgebraSpan, IsometryVerdict, NotSelfAdjoint, SpanBasis,
                        TOL, _joint_rank, _rank, deviation_search, direct_sum,
                        level_k_norms, matrix_rank, operator_norm)


class NotACover(ValueError):
    pass


@dataclass
class FinDimCStar:
    """⊕ M_{n_k} structure of a selfadjoint matrix algebra: per block an isometry
    W_k (ambient_dim × n_k) with coordinates b ↦ W_k* b W_k."""

    block_sizes: list[int]
    isometries: list[np.ndarray]
    algebra: AlgebraSpan

    @property
    def dim(self):
        return sum(n * n for n in self.block_sizes)

    def coords(self, m) -> list[np.ndarray]:
        m = np.asarray(m, dtype=complex)
        return [w.conj().T @ m @ w for w in self.isometries]

    def rep(self, m, mask=frozenset()) -> np.ndarray:
        """Block-diagonal image, omitting the masked blocks."""
        blocks = [c for k, c in enumerate(self.coords(m)) if k not in mask]
        return direct_sum(blocks)

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
            raise RuntimeError(f"central block of dimension {subdim} is not a full matrix algebra")
        csub = _commutant_basis(sub, q.shape[1])
        vecs2 = None
        for attempt in range(8):
            zc = _span_solve(csub, q.shape[1], seed + 1 + attempt)
            eigclusters = _spectral_clusters(zc)
            if eigclusters[0][1].shape[1] == n:
                vecs2 = eigclusters[0][1]
                break
        if vecs2 is None:
            raise RuntimeError("failed to cut a multiplicity copy of the block")
        q2, _ = np.linalg.qr(vecs2)
        w = q @ q2
        img = [w.conj().T @ b @ w for b in basis]
        if matrix_rank(img) != n * n:
            raise RuntimeError("block compression is not irreducible")
        sizes.append(n)
        isoms.append(w)
    order = sorted(range(len(sizes)), key=lambda k: (sizes[k], k))
    fd = FinDimCStar([sizes[k] for k in order], [isoms[k] for k in order], algebra)
    if fd.dim != algebra.dim:
        raise RuntimeError(f"block dimensions {fd.block_sizes} miss the algebra "
                           f"dimension {algebra.dim}")
    _verify_iso(fd)
    return fd


def _support_projection(algebra: AlgebraSpan, tol=1e-8):
    acc = np.zeros_like(algebra.basis[0])
    for b in algebra.basis:
        acc = acc + b @ b.conj().T
    vals, vecs = np.linalg.eigh(acc)
    keep = vecs[:, vals > tol * max(1.0, vals[-1])]
    return keep @ keep.conj().T


def _verify_iso(fd: FinDimCStar, tol=1e-7):
    rng = np.random.default_rng(7)
    basis = fd.algebra.basis
    for _ in range(6):
        c1 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c2 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = sum(x * b for x, b in zip(c1, basis))
        b = sum(x * m for x, m in zip(c2, basis))
        left = fd.coords(a @ b)
        right = [ca @ cb for ca, cb in zip(fd.coords(a), fd.coords(b))]
        for l, r in zip(left, right):
            if not np.allclose(l, r, atol=tol):
                raise RuntimeError("block coordinates are not multiplicative")
        if abs(fd.norm(a) - operator_norm(a)) > 1e-6 * max(1.0, operator_norm(a)):
            raise RuntimeError("block coordinates do not preserve norms")


# -- boundary ideals and the Shilov ideal ---------------------------------------


@dataclass
class ShilovResult:
    mask: frozenset
    cover: FinDimCStar
    verdicts: dict
    levels: int
    quotient_blocks: list[int] = field(init=False)

    def __post_init__(self):
        self.quotient_blocks = [n for k, n in enumerate(self.cover.block_sizes)
                                if k not in self.mask]


def is_boundary_ideal(a_basis, cover: FinDimCStar, mask, levels=None,
                      samples=25, tol=1e-9, seed=0) -> IsometryVerdict:
    """Does quotienting by the masked blocks stay completely isometric on A?

    A sound exact pre-test first: an isometry is injective, so any nonzero
    element of span(A) supported inside the masked blocks refutes the mask.
    Then `deviation_search` on `_blockwise_deviation`.
    """
    mask = frozenset(mask)
    if len(mask) == len(cover.block_sizes):
        nonzero = any(operator_norm(np.asarray(a)) > tol for a in a_basis)
        return IsometryVerdict(not nonzero, 1.0 if nonzero else 0.0,
                               0, 0, 0, tol, witness="full mask")
    kernel_witness = _span_kernel_element(a_basis, cover, mask)
    if kernel_witness is not None:
        return IsometryVerdict(False, operator_norm(kernel_witness), 0, 0, 0,
                               tol, witness=kernel_witness)
    if levels is None:
        levels = max(cover.block_sizes)
    return deviation_search(_blockwise_deviation(a_basis, cover, mask), len(a_basis),
                            levels, samples=samples, tol=tol, seed=seed)


def _blockwise_deviation(a_basis, cover: FinDimCStar, mask):
    """c ↦ |‖Σ c⊗q(a_b)‖ − ‖Σ c⊗a_b‖| for the quotient q by the masked blocks.

    The level-k norm of a block-diagonal element is the largest of its blocks'
    level-k norms, so each block's norm is computed once per c and serves both
    sides: ‖A‖ is the maximum over all blocks, ‖B‖ over the unmasked ones.
    Blocks are zero-padded to the largest size, which keeps their norms, so
    one batched SVD gives them all.
    """
    n = max(cover.block_sizes)
    blocks = np.zeros((len(cover.block_sizes), len(a_basis), n, n), dtype=complex)
    for b, a in enumerate(a_basis):
        for k, c in enumerate(cover.coords(a)):
            blocks[k, b, :len(c), :len(c)] = c
    kept = np.array([k not in mask for k in range(len(blocks))])

    def deviation(c):
        norms = level_k_norms(blocks, c)
        return float(abs(norms[kept].max() - norms.max()))

    return deviation


def _span_kernel_element(a_basis, cover: FinDimCStar, mask, tol=TOL):
    """A nonzero element of span(a_basis) with zero coordinates off the mask."""
    a_basis = [np.asarray(a, dtype=complex) for a in a_basis]
    outside = [k for k in range(len(cover.block_sizes)) if k not in mask]
    rows = []
    for a in a_basis:
        coords = cover.coords(a)
        rows.append(np.concatenate([coords[k].ravel() for k in outside]))
    # coefficient rows c with c·rows = 0
    for c in _null_space(np.array(rows).T, tol).T:
        el = sum(ci * a for ci, a in zip(c, a_basis))
        if operator_norm(el) > 1e-7:
            return el
    return None


def shilov_ideal(a_basis, cover: FinDimCStar, levels=None, samples=25,
                 tol=1e-9, seed=0) -> ShilovResult:
    """Largest boundary ideal, by descending mask cardinality with rejection pruning."""
    a_basis = [np.asarray(a, dtype=complex) for a in a_basis]
    generated = AlgebraSpan(a_basis, selfadjoint=True)
    if generated.dim != cover.dim:
        raise NotACover(f"A generates dimension {generated.dim}, cover has {cover.dim}")
    nblocks = len(cover.block_sizes)
    verdicts = {}
    rejected_singles = set()
    for k in range(nblocks):
        v = is_boundary_ideal(a_basis, cover, {k}, levels, samples, tol, seed)
        verdicts[frozenset({k})] = v
        if not v.certified:
            rejected_singles.add(k)
    candidates = [k for k in range(nblocks) if k not in rejected_singles]
    for size in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, size):
            mask = frozenset(combo)
            v = verdicts.get(mask)
            if v is None:
                v = is_boundary_ideal(a_basis, cover, mask, levels, samples, tol, seed)
                verdicts[mask] = v
            if v.certified:
                return ShilovResult(mask, cover, verdicts, levels or max(cover.block_sizes))
    return ShilovResult(frozenset(), cover, verdicts, levels or max(cover.block_sizes))


def detects_ideals(d_basis, cover: FinDimCStar, tol=TOL) -> bool:
    """Every nonzero block ideal must intersect span(D) nontrivially."""
    d_basis = [np.asarray(d, dtype=complex) for d in d_basis]
    d_rank = matrix_rank(d_basis)
    if d_rank == 0:
        return False
    dependencies = len(d_basis) - d_rank
    nblocks = len(cover.block_sizes)
    d_coords = [cover.coords(d) for d in d_basis]
    for r in range(1, nblocks):
        for combo in itertools.combinations(range(nblocks), r):
            outside = [k for k in range(nblocks) if k not in combo]
            rows = [np.concatenate([coords[k].ravel() for k in outside])
                    for coords in d_coords]
            # kernel elements beyond the dependencies of D land inside the ideal
            if len(rows) - matrix_rank(rows) <= dependencies:
                return False
    return True


# -- linear *-maps between spanned algebras --------------------------------------


class SpannedStarMap:
    """A linear map defined on a spanning family, validated to be a *-homomorphism.

    Pairs (x_i, y_i) must satisfy: every dependency among the x's holds among the
    y's; products and adjoints of spanning elements map consistently.
    """

    def __init__(self, pairs):
        self.xs = [np.asarray(x, dtype=complex) for x, _ in pairs]
        self.ys = [np.asarray(y, dtype=complex) for _, y in pairs]
        if _joint_rank(self.xs, self.ys) != matrix_rank(self.xs):
            raise ValueError("map is not well defined on the span")
        self._domain = SpanBasis()
        self._basis_y = np.array([y for x, y in zip(self.xs, self.ys)
                                  if self._domain.add(x)])

    def apply(self, m) -> np.ndarray:
        """The image of m; ValueError if m is outside the domain span."""
        return np.tensordot(self._domain.coordinates(m), self._basis_y, 1)

    @property
    def image_dim(self):
        return matrix_rank(self.ys)

    @property
    def domain_dim(self):
        return matrix_rank(self.xs)

    def is_injective(self):
        return self.domain_dim == self.image_dim

    def check_star_homomorphism(self, rng_seed=3, trials=8):
        rng = np.random.default_rng(rng_seed)
        basis_x = self._domain.members
        n = len(basis_x)
        for _ in range(trials):
            c1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = sum(c * b for c, b in zip(c1, basis_x))
            b = sum(c * m for c, m in zip(c2, basis_x))
            try:
                img_ab = self.apply(a @ b)
                img_astar = self.apply(a.conj().T)
            except ValueError:
                return False
            if not np.allclose(img_ab, self.apply(a) @ self.apply(b), atol=1e-7):
                return False
            if not np.allclose(img_astar, self.apply(a).conj().T, atol=1e-7):
                return False
        return True


def quotient_kernel_mask(cover: FinDimCStar, star_map: SpannedStarMap,
                         tol=1e-8) -> frozenset:
    """Blocks of the cover killed by a *-homomorphism defined on its algebra."""
    return frozenset(k for k, n in enumerate(cover.block_sizes)
                     if all(operator_norm(star_map.apply(cover.block_element(k, i, j))) <= tol
                            for i in range(n) for j in range(n)))
