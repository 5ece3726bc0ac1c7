"""Concrete matrix models: left regular representation, groupoid regular
representations, the germ bases of the boundary compressions ϑ_χ, norms at
matrix levels, and the numerical complete-isometry certifier.

Matrices live over explicitly labelled bases. Every Λ_s and every spanning
matrix M_s is a 0/1 partial permutation, built once per hull number as an
index array of `perm` (`LambdaRep.inverse_perm`, `GermModel.spanning_perm`).
`jack_check` works on those arrays alone. The dense complex matrices
(`spanning_matrix`) are derived from them for the float consumers: covers,
norms and ranks. Reduced norms are operator norms computed by SVD; the
independent eigen-solve oracle lives in the test suite. Norms on truncation
windows of infinite inputs are computed matrix-free by `windowed_norm`.

Linear algebra has one engine: `SpanBasis` keeps an incremental orthonormal
basis for span membership, growth and coordinates, and `AlgebraSpan` closes
generators under products semi-naively on it; `_rank` is the one numerical
rank threshold. The least-squares membership test it replaced is kept in the
test suite as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import perm
from .categories import CategoryPresentation, Morphism
from .germs import GermGroupoid
from .gpd import FiniteGroupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection
from .ideals import Character

TOL = 1e-9


class NotBoundary(ValueError):
    pass


class NotSelfAdjoint(ValueError):
    pass


class NumericalFailure(RuntimeError):
    """A numerical construction that exact arithmetic would complete did not:
    a closure that keeps growing, or a block decomposition that fails its own
    checks. An internal failure, not a verdict on the input."""


# -- linear algebra helpers ----------------------------------------------------


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


# effort of the block subspace iteration in `windowed_norm`
_WINDOW_ITERATIONS = 110
_WINDOW_BLOCK = 4


def _segment_sum(coef, take, put, n):
    """v ↦ w with w[put[i]] += coef[i]·v[take[i]], as one sorted segment sum:
    the terms ordered by `put` and summed over each run of equal targets."""
    order = np.argsort(put, kind="stable")
    coef, take, put = coef[order][:, None], take[order], put[order]
    starts = np.flatnonzero(np.diff(put, prepend=-1))  # targets are ≥ 0

    def apply(v):
        w = np.zeros((n,) + v.shape[1:], dtype=complex)
        w[put[starts]] = np.add.reduceat(coef * v[take], starts)
        return w
    return apply


def window_arrays(basis, action, xs) -> dict:
    """T_x e_d = e_{action(x, d)} on ℓ²(basis) for each x in xs, as a (2, m)
    array: positions of the columns d, over those of their images. Images that
    are None or outside the basis are dropped: the truncation window."""
    index = {m: i for i, m in enumerate(basis)}
    return {x: np.array([(j, index[y]) for j, d in enumerate(basis)
                         if (y := action(x, d)) is not None and y in index],
                        dtype=np.intp).reshape(-1, 2).T for x in xs}


def windowed_norm(combo, arrays, n) -> float:
    """Operator norm of A = Σ c·T_x on ℓ²(basis), for combo = [(c, x), ...],
    with T_x from `window_arrays` on a basis of n members.

    Matrix-free: block subspace iteration on A*A from a seeded start, A and
    A* each a sorted segment sum, then the largest Ritz value.
    """
    if n == 0:
        return 0.0
    coef = np.concatenate([np.full(arrays[x].shape[1], c, dtype=complex) for c, x in combo])
    src, dst = (np.concatenate([arrays[x][k] for _, x in combo]) for k in (0, 1))
    a, a_star = _segment_sum(coef, src, dst, n), _segment_sum(coef.conj(), dst, src, n)

    block = min(_WINDOW_BLOCK, n)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((n, block)) + 1j * rng.standard_normal((n, block))
    v, _ = np.linalg.qr(v)
    for _ in range(_WINDOW_ITERATIONS):
        w = a_star(a(v))
        if np.linalg.norm(w) < 1e-30:
            return 0.0
        v, _ = np.linalg.qr(w)
    ritz = v.conj().T @ a_star(a(v))
    lam = max(np.linalg.eigvalsh((ritz + ritz.conj().T) / 2).max(), 0.0)
    return float(np.sqrt(lam))


def _rank(sv, tol=TOL) -> int:
    """Numerical rank from singular values in descending order: the one
    threshold every rank and null-space computation uses."""
    return int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 1.0)))


def matrix_rank(ms, tol=TOL) -> int:
    """Rank of the stack of flattened matrices. A wide stack's SVD is taken of
    its transpose, which has the same singular values and is faster."""
    if not len(ms):
        return 0
    a = np.array([m.ravel() for m in ms])
    return _rank(np.linalg.svd(a.T if a.shape[1] > a.shape[0] else a,
                               compute_uv=False), tol)


def _joint_rank(va, vb):
    return matrix_rank([np.concatenate([a.ravel(), b.ravel()]) for a, b in zip(va, vb)])


class SpanBasis:
    """An incrementally grown linear span of equally shaped matrices.

    `members` are the matrices accepted so far, each outside the span of the
    ones before it. An orthonormal basis of their vectorisations (Gram–Schmidt,
    orthogonalised twice) makes a membership test two pairs of products, and
    `extend` tests a whole batch at once. m is in the span when its orthogonal
    projection p satisfies np.allclose(p, m, atol=1e-8).
    """

    def __init__(self):
        self.members: list[np.ndarray] = []
        self._q = None  # orthonormal rows, one per member
        self._pinv = None

    def _residuals(self, rows, start=0):
        """Rows minus their projection onto the basis rows from `start` on."""
        if self._q is not None:
            for _ in range(2):
                rows = rows - (rows @ self._q[start:].conj().T) @ self._q[start:]
        return rows

    @staticmethod
    def _inside(rows, residuals):
        return np.all(np.abs((rows - residuals) - rows) <= 1e-8 + 1e-5 * np.abs(rows),
                      axis=-1)

    def contains_each(self, ms) -> np.ndarray:
        """One bool per matrix of the stack ms: does it lie in the span?"""
        ms = np.asarray(ms, dtype=complex)
        rows = ms.reshape(len(ms), np.prod(ms.shape[1:], dtype=int))
        return self._inside(rows, self._residuals(rows))

    def contains(self, m) -> bool:
        return bool(self.contains_each(np.asarray(m)[None])[0])

    def add(self, m) -> bool:
        """Accept m if it is outside the span; report whether it was."""
        return bool(self.extend(np.asarray(m, dtype=complex)[None]))

    def extend(self, ms) -> list:
        """Accept, in order, each of ms outside the span of the members and of
        the ms accepted before it; return the accepted ones."""
        accepted = self.accept(ms)
        return self.members[len(self.members) - len(accepted):]

    def accept(self, ms) -> list:
        """`extend`, returning the positions in ms of the accepted ones."""
        ms = np.asarray(ms, dtype=complex)
        if not len(ms):
            return []
        rows = ms.reshape(len(ms), -1)
        if self._q is None:
            self._q = np.zeros((0, rows.shape[1]), dtype=complex)
        start, res = len(self._q), self._residuals(rows)
        accepted = []
        for i in np.flatnonzero(~self._inside(rows, res)):
            r = self._residuals(res[i:i + 1], start)  # against this call's acceptances
            if not self._inside(rows[i:i + 1], r)[0]:
                self._q = np.vstack([self._q, r / np.linalg.norm(r)])
                self.members.append(ms[i].copy())
                accepted.append(int(i))
        if accepted:
            self._pinv = None
        return accepted

    def coordinates(self, m) -> np.ndarray:
        """Coefficients c with m = Σ c_i members[i], of m or each of a stack
        of them; ValueError if one is outside."""
        m = np.asarray(m, dtype=complex)
        stack = m.reshape((-1,) + self.members[0].shape)
        if not self.contains_each(stack).all():
            raise ValueError("element outside the span")
        if self._pinv is None:
            self._pinv = np.linalg.pinv(np.array([b.ravel() for b in self.members]).T)
        return (stack.reshape(len(stack), -1) @ self._pinv.T).reshape(m.shape[:-2] + (-1,))


# a closure that still grows after this many rounds of products is reported
_CLOSURE_ROUNDS = 60


class AlgebraSpan:
    """Linear basis of the algebra (or *-algebra) generated by some matrices.

    `generators`, those accepted (and adjoints), are a prefix of `basis`.
    Semi-naive closure by rounds: one `SpanBasis.extend` of all a·g, then one
    of all g·a, in the order (a, g), for the generators g and the members a
    the last round added: the candidates, in order, of re-multiplying the
    whole basis every round, so the greedy selection is theirs."""

    def __init__(self, generators, selfadjoint=False):
        gens = np.array([np.asarray(g, dtype=complex) for g in generators])
        if selfadjoint and len(gens):
            gens = np.concatenate([gens, gens.conj().transpose(0, 2, 1)])
        self._span = SpanBasis()
        self.generators = new = self._span.extend(gens)
        for _ in range(_CLOSURE_ROUNDS):
            if not new:
                break
            a = np.array(new)[:, None]
            new = self._span.extend((a @ gens).reshape((-1,) + gens.shape[1:])) \
                + self._span.extend((gens @ a).reshape((-1,) + gens.shape[1:]))
        if new:
            raise NumericalFailure("algebra closure did not stabilize")
        self.basis = self._span.members

    @property
    def dim(self):
        return len(self.basis)

    def closed_under_adjoint(self) -> bool:
        return bool(self._span.contains_each([b.conj().T for b in self.basis]).all())


# -- the left regular representation -------------------------------------------


def _read_only(cache: dict, n: int, build) -> np.ndarray:
    """cache[n], built by build() on the first call and read-only."""
    if n not in cache:
        cache[n] = build()
        cache[n].flags.writeable = False
    return cache[n]


@dataclass
class LambdaRep:
    """λ on ℓ²(ball(N)), the whole category when N is None."""

    pres: CategoryPresentation
    basis: list[Morphism]
    index: dict = field(init=False)
    _perms: dict = field(init=False, repr=False, default_factory=dict)  # by hull number

    def __post_init__(self):
        self.index = {m: i for i, m in enumerate(self.basis)}

    @classmethod
    def build(cls, pres: CategoryPresentation, radius=None):
        return cls(pres, pres.ball(radius))

    def lam(self, c: Morphism) -> np.ndarray:
        return perm.dense(perm.from_map(self.basis, self.index,
                                        lambda x: self.pres.compose(c, x)))

    def inverse_perm(self, hull_ctx: InverseHull, s: PiecewiseBijection) -> np.ndarray:
        """Λ_s e_x = e_{s(x)} as an index array, built once per hull number and read-only."""
        return _read_only(self._perms, hull_ctx.index(s), lambda: perm.from_map(
            self.basis, self.index, lambda x: hull_ctx.apply(s, x)))

    def toeplitz_algebra(self) -> AlgebraSpan:
        gens = [self.lam(c) for c in self.basis]
        return AlgebraSpan(gens, selfadjoint=True)


# -- groupoid regular representations ------------------------------------------


class GroupoidRep:
    """⊕ of one left regular representation per unit orbit (multiplicity pruned).

    Read off the groupoid's index arrays: `positions` holds the element
    indices of the basis, and `column` maps an element index to its basis
    column, −1 off the basis."""

    def __init__(self, g: FiniteGroupoid):
        self.g = g
        self.rep_units = [orbit[0] for orbit in g.orbits()]
        labels, s = g.elements, g._s[:len(g.elements)]
        blocks = [sorted(np.flatnonzero(s == g._index[u]).tolist(),
                         key=lambda i: str(labels[i])) for u in self.rep_units]
        self._sizes = [len(block) for block in blocks]
        self.positions = np.array([i for block in blocks for i in block], dtype=np.intp)
        self.basis = [labels[i] for i in self.positions.tolist()]
        self.column = np.full(len(labels), -1, dtype=np.intp)
        self.column[self.positions] = np.arange(len(self.positions))

    def block_sizes(self):
        """Sizes ℓ²(G_χ) per orbit representative."""
        return list(self._sizes)


# -- spanning families over germ groupoids --------------------------------------


class GermModel:
    """The spanning family 1_{[s, Ω(dom s)]} of a germ groupoid, as matrices."""

    def __init__(self, germ_gpd: GermGroupoid, closure: HullClosure):
        self.gg = germ_gpd
        self.rep = GroupoidRep(germ_gpd.groupoid)
        self.closure = closure
        self._perm_cache: dict[int, np.ndarray] = {}  # by hull number, read-only
        self._matrix_cache: dict[int, np.ndarray] = {}  # by hull number, read-only

    def spanning_perm(self, s: PiecewiseBijection) -> np.ndarray:
        """Σ of the bisection's element matrices as an index array, cached and
        read-only: its germs have distinct sources, so it is one partial
        permutation t ↦ g_{r(t)}·t, one gather of the product table."""
        gg, rep = self.gg, self.rep
        n = gg.ctx.hull.index(s)

        def build():
            g = rep.g
            at_source = np.full(len(g.elements), -1, dtype=np.intp)
            for x in sorted(gg.char_by_min):
                key = gg.ctx._settle(n, x)
                if key >= 0:
                    at = gg.position[key]
                    at_source[g._s[at]] = at
            left, t = at_source[g._r[rep.positions]], rep.positions
            return np.where(left >= 0, rep.column[g._P[left, t]], -1)
        return _read_only(self._perm_cache, n, build)

    @cached_property
    def spanning_stack(self) -> np.ndarray:
        """`spanning_perm` over `closure.nonzero()`, one row each, read-only."""
        stack = np.array([self.spanning_perm(s) for s in self.closure.nonzero()],
                         dtype=np.intp).reshape(-1, len(self.rep.basis))
        stack.flags.writeable = False
        return stack

    @cached_property
    def generator_rows(self) -> list[int]:
        """The rows of `spanning_stack` that hold the morphism maps, in the
        order of `operator_algebra_generators`."""
        hull = self.gg.ctx.hull
        row = {hull.index(s): k for k, s in enumerate(self.closure.nonzero())}
        return [row[hull.index(hull.from_morphism(c))] for c in hull._ball]

    def spanning_matrix(self, s: PiecewiseBijection) -> np.ndarray:
        """The dense matrix of `spanning_perm`, cached and read-only."""
        return _read_only(self._matrix_cache, self.gg.ctx.hull.index(s),
                          lambda: perm.dense(self.spanning_perm(s)))

    def reduced_algebra(self) -> AlgebraSpan:
        return AlgebraSpan(perm.dense(self.spanning_stack), selfadjoint=True)

    def operator_algebra_generators(self):
        """Generators 1_{[c, Ω(𝔡(c)𝔠)]} for the morphism maps c, built once."""
        return self._generators

    @cached_property
    def _generators(self):
        hull = self.gg.ctx.hull
        return [(c, self.spanning_matrix(hull.from_morphism(c))) for c in hull._ball]


def jack_check(hull_ctx: InverseHull, closure: HullClosure, model: GermModel,
               lam: LambdaRep):
    """Certify the spanning-element correspondence 1_{[s,Ω(dom s)]} ↦ Λ_s is a
    *-isomorphism: products and adjoints match, and the two spanning
    families have identical linear dependencies.

    Products are compared on the walk's Cayley edges only, M_t·M_a = M_{t∘a}
    for each nonzero t and atom a (`closure.atoms`), and adjoints on the
    atoms, M_{a⁻¹} = M_a*. That decides every pair: each element is a right
    product of atoms, so M_s·M_u = M_{s∘u} by induction on u's atom word
    (M_s·M_{u'}·M_a = M_{s∘u'}·M_a, with M_0 = 0), and as the atoms are closed
    under inverse, M_{u⁻¹} = M_{a_k⁻¹}⋯M_{a₁⁻¹} = M_u* for u = a₁∘⋯∘a_k. The
    witness is the first failing edge (t, a), or an atom whose adjoint fails.
    Exact, on index arrays: per atom, one gather of each stack (its last row
    is M_0) compared by `np.array_equal`; adjoints by `perm.is_adjoint`, and
    each of the three ranks on `perm.support_rows`."""
    elements = closure.nonzero()
    position = {hull_ctx.index(s): k for k, s in enumerate(elements)}  # in stack order
    zero = len(elements)
    stacks = [np.array([*(lam.inverse_perm(hull_ctx, s) for s in elements),
                        np.full(len(lam.basis), -1)], dtype=np.intp),
              np.vstack([model.spanning_stack, np.full(len(model.rep.basis), -1)])]
    for a in closure.atoms:
        k, ainv = position[a], position[hull_ctx._inverses[a]]
        ta = [position.get(hull_ctx._compose(n, a), zero) for n in position]
        bad = np.any([(perm.product(p[:zero], p[k]) != p[ta]).any(axis=1) for p in stacks], 0)
        if bad.any():
            return False, (elements[int(np.argmax(bad))], elements[k])
        if not all(perm.is_adjoint(p[k], p[ainv]) for p in stacks):
            return False, elements[k]
    va, vb = (perm.support_rows(p[:zero]) for p in stacks)
    ra, rb = matrix_rank(va), matrix_rank(vb)
    rjoint = _joint_rank(va, vb)
    if not (ra == rb == rjoint):
        return False, ("dependency mismatch", ra, rb, rjoint)
    return True, ra


# -- the boundary compressions ϑ_χ ----------------------------------------------


class ThetaRep:
    """The germ basis [𝔠, χ] of ϑ_χ, labelled by morphisms (cancellative
    categories); a truncation window of it when `radius` is given."""

    def __init__(self, pres, hull_ctx: InverseHull, chi, radius=None,
                 boundary_chars=None):
        if boundary_chars is not None and chi not in boundary_chars:
            raise NotBoundary(f"{chi} is not among the boundary characters")
        self.p = pres
        self.hull = hull_ctx
        self.chi = chi
        self.basis = [d for d in pres.ball(radius) if self._admits(d)]
        self.index = {d: i for i, d in enumerate(self.basis)}

    def _admits(self, d: Morphism) -> bool:
        parts = (self.p.identity(d.dom),)
        if isinstance(self.chi, Character):
            lat = self.chi.lattice
            ideal = lat.canonical(parts)
            return bool(self.chi.value(lat.index[ideal]))
        return bool(self.chi.value_on_parts(parts))


def direct_sum(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


# -- norms at matrix levels and the complete-isometry certifier -------------------


def level_k_norms(stacks, coeffs) -> np.ndarray:
    """Operator norms of Σ coeffs[i, j, b] · E_ij ⊗ basis[b] for each of t
    coefficient arrays, coeffs of shape (t, k, k, nb), and each basis in
    stacks, shape (m, nb, n, n): a (t, m) array from one batched SVD. Each
    entry is bit for bit the norm of that coefficient array and basis alone."""
    m, _, n, _ = stacks.shape
    t, k = coeffs.shape[:2]
    big = np.einsum("tijb,mbxy->tmixjy", coeffs, stacks).reshape(t, m, k * n, k * n)
    return np.linalg.svd(big, compute_uv=False)[..., 0]


@dataclass
class IsometryVerdict:
    """A complete-isometry verdict and its effort: `samples` and `restarts` of
    a numerical search, or an exact `certificate` that holds at every level
    with no search. A certificate is of one of two kinds: masked block →
    (kept block, coordinates), from `envelope.compression_certificate`, or
    the labeling φ of the ambient coordinates by G, one group element per
    coordinate, with which `Coaction.normality_verdict` writes δ as
    Ad W ∘ (·⊗1)."""

    certified: bool
    max_deviation: float
    levels: int
    samples: int
    restarts: int
    tol: float
    witness: object = None
    certificate: dict | tuple | None = None

    @property
    def status(self):
        return "certified" if self.certified else "rejected"


def complete_isometry_check(pairs, levels=None, samples=40, restarts=3,
                            tol=1e-9, seed=0) -> IsometryVerdict:
    """Compare ‖Σ c ⊗ A_b‖ against ‖Σ c ⊗ B_b‖ over matrix levels, by
    `deviation_search` on dense pairs (A_b, B_b)."""
    amats = np.array([np.asarray(a, dtype=complex) for a, _ in pairs])
    bmats = np.array([np.asarray(b, dtype=complex) for _, b in pairs])
    if levels is None:
        levels = max(amats.shape[1], bmats.shape[1])

    def deviation(cs):
        return np.abs(level_k_norms(bmats[None], cs)[:, 0]
                      - level_k_norms(amats[None], cs)[:, 0])

    return deviation_search(deviation, len(pairs), levels, samples, restarts,
                            tol, seed)


# the perturbation ascent: chains per level, steps per restart
_CHAINS, _ASCENT_STEPS = 3, 20


def deviation_search(deviation, nb, levels, samples=40, restarts=3, tol=1e-9,
                     seed=0) -> IsometryVerdict:
    """Search coefficient arrays c of shape (k, k, nb), k ≤ levels, for a
    deviation(c) beyond tol.

    Deterministic basis sweeps plus seeded random coefficients with local
    perturbation ascent on the deviation. Rejection (a deviation beyond tol) is
    sound; certification is an effort-stamped numerical certificate.

    Batched contract: `deviation` maps a stack of t coefficient arrays, shape
    (t, k, k, nb), to their t deviations, each equal bit for bit to the
    deviation of that array alone. A level's initial trials are scored in one
    call; its ascent chains run in lockstep, one call per step, on noise drawn
    up front in the order the chains would draw it one after another. The
    bookkeeping is then replayed in that order, so the verdict, the witness
    and `samples` (the trials counted one at a time, up to the one that
    decided a rejection) are those of scoring every trial by itself.

    `levels` must be at least 1: a search that runs no trials certifies nothing.
    """
    if levels < 1:
        raise ValueError(f"a deviation search needs levels >= 1, got {levels}")
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    tried = 0
    for k in range(1, levels + 1):
        trials = np.zeros((nb + 1 + samples, k, k, nb), dtype=complex)
        trials[np.arange(nb), 0, 0, np.arange(nb)] = 1.0  # single basis elements
        trials[nb, 0, 0, :] = 1.0  # and their sum, at the corner
        noise = rng.standard_normal((samples, 2, k, k, nb))
        trials[nb + 1:] = noise[:, 0] + 1j * noise[:, 1]
        scores = deviation(trials).tolist()
        for i, d0 in enumerate(scores):
            tried += 1
            if d0 > worst:
                worst, witness = d0, (k, trials[i])
            if worst > tol:
                return IsometryVerdict(False, worst, levels, tried, restarts,
                                       tol, witness)
        # local perturbation ascent from the most promising starting points only
        starts = sorted(range(len(scores)), key=lambda i: -scores[i])[:_CHAINS]
        chains = _ascend(deviation, [trials[i] for i in starts],
                         [scores[i] for i in starts], restarts, rng)
        for best_d, best_c in chains:
            tried += restarts * _ASCENT_STEPS
            if best_d > worst:
                worst, witness = best_d, (k, best_c)
            if worst > tol:
                return IsometryVerdict(False, worst, levels, tried, restarts,
                                       tol, witness)
    return IsometryVerdict(True, worst, levels, tried, restarts, tol)


def _ascend(deviation, starts, start_scores, restarts, rng):
    """One perturbation-ascent chain from each start, run in lockstep.

    A chain makes `restarts` runs of `_ASCENT_STEPS` steps, each run from its
    best point so far; the step shrinks whenever a step fails to climb.
    Returns (best deviation, best c) per chain."""
    n = len(starts)
    noise = rng.standard_normal((n, restarts * _ASCENT_STEPS, 2) + starts[0].shape)
    noise = noise[:, :, 0] + 1j * noise[:, :, 1]
    best = list(zip(start_scores, starts))
    for r in range(restarts):
        cur, step = list(best), [0.5] * n
        for s in range(r * _ASCENT_STEPS, (r + 1) * _ASCENT_STEPS):
            cands = []
            for j in range(n):
                cand = cur[j][1] + step[j] * noise[j, s]
                scale = np.linalg.norm(cand)
                if scale > 0:
                    cand = cand / scale
                cands.append(cand)
            for j, d_new in enumerate(deviation(np.array(cands)).tolist()):
                if d_new > cur[j][0]:
                    cur[j] = (d_new, cands[j])
                else:
                    step[j] *= 0.7
        best = [c if c[0] > b[0] else b for b, c in zip(best, cur)]
    return best
