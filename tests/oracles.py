"""Reference implementations the fast library paths are tested against.

Each is the straightforward formula the library replaced: a fresh least-squares
solve per question instead of a maintained basis or factorization, loops over
labels instead of integer tables, closure rounds that visit every pair, hull
products formed from their pieces with no cache and no interning, a Shilov
search that runs the numerical search on every single block before any union,
and a deviation search that scores one trial at a time.
"""

import itertools

import numpy as np

from catenv.coactions import GradedAlgebra, NoExtensionFound
from catenv.envelope import NotACover, ShilovResult, is_boundary_ideal
from catenv.gpd import GroupoidError
from catenv.hull import HullClosure, InconsistentPieces, PiecewiseBijection
from catenv.matrixrep import (AlgebraSpan, IsometryVerdict, SpanBasis, matrix_rank,
                              operator_norm)


def in_span(m, basis, tol=1e-8) -> bool:
    """Membership by a least-squares solve against the whole basis."""
    if not basis:
        return np.allclose(m, 0, atol=tol)
    A = np.array([b.ravel() for b in basis]).T
    coef, *_ = np.linalg.lstsq(A, m.ravel(), rcond=None)
    return np.allclose(A @ coef, m.ravel(), atol=tol)


def algebra_span_by_rescan(generators, selfadjoint=False, rounds=60):
    """Greedy basis of the generated algebra: every round multiplies the whole
    basis by the generators and re-selects the whole list with `in_span`."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if selfadjoint:
        gens = gens + [g.conj().T for g in gens]

    def independent(ms):
        out = []
        for m in ms:
            if not in_span(m, out):
                out.append(m)
        return out

    basis = independent(gens)
    for _ in range(rounds):
        products = [a @ b for a in basis for b in gens] + \
                   [b @ a for a in basis for b in gens]
        new_basis = independent(basis + products)
        if len(new_basis) == len(basis):
            return basis
        basis = new_basis
    raise RuntimeError("algebra closure did not stabilize")


def delta_per_degree(graded, m):
    """δ(m) = Σ_g m_g ⊗ λ_g, solving for m's graded coefficients once per g."""
    m = np.asarray(m, dtype=complex)
    A = np.array([b.ravel() for b in graded.basis]).T
    out = 0
    for g in graded.group.elements:
        coef, *_ = np.linalg.lstsq(A, m.ravel(), rcond=None)
        assert np.allclose(A @ coef, m.ravel(), atol=1e-8)
        part = sum((c * b for c, b, d in zip(coef, graded.basis, graded.degrees) if d == g),
                   np.zeros_like(m))
        out = out + np.kron(part, graded.group.lam(g))
    return out


def tilde_delta_by_lstsq(dcp, y, delta):
    """δ̃(y): rebuild the basis δ_λ(a_i)⊗E_pq and every δ_λ(a_i)⊗E_pq⊗λ_{deg a_i},
    solve for y's coefficients, and conjugate the combination by I⊗I⊗U."""
    G = delta.group
    n = len(G)
    basis, mats = [], []
    for a, g in zip(delta.graded.basis, delta.graded.degrees):
        for p in G.elements:
            for q in G.elements:
                e_pq = np.zeros((n, n), dtype=complex)
                e_pq[G.index[p], G.index[q]] = 1.0
                basis.append(np.kron(delta.delta(a), e_pq))
                mats.append(np.kron(basis[-1], G.lam(g)))
    A = np.array([b.ravel() for b in basis]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(y, dtype=complex).ravel(), rcond=None)
    assert np.allclose(A @ coef, np.asarray(y).ravel(), atol=1e-8)
    middle = sum(c * m for c, m in zip(coef, mats))
    big_u = np.kron(np.eye(dcp.h_dim * n), dcp.data.U)
    return big_u.conj().T @ middle @ big_u


def extend_grading_by_all_pairs(graded, env_basis, kappa):
    """`extend_grading` with closure rounds, at most 40, that multiply every
    pair of members, skipping products of operator norm at most 1e-10."""
    G = graded.group
    env_span = AlgebraSpan([np.asarray(b, dtype=complex) for b in env_basis],
                           selfadjoint=True)
    degree_spans = {g: SpanBasis() for g in G.elements}
    for a, g in zip(graded.basis, graded.degrees):
        img = np.asarray(kappa(a), dtype=complex)
        degree_spans[g].add(img)
        degree_spans[G.inv(g)].add(img.conj().T)
    spans = {g: span.members for g, span in degree_spans.items()}
    for _ in range(40):
        grew = False
        items = [(g, m) for g in G.elements for m in list(spans[g])]
        for g1, m1 in items:
            for g2, m2 in items:
                prod = m1 @ m2
                if operator_norm(prod) > 1e-10 \
                        and degree_spans[G.mul(g1, g2)].add(prod):
                    grew = True
        if not grew:
            break
    total = sum(matrix_rank(spans[g]) for g in G.elements)
    flat = [m for g in G.elements for m in spans[g]]
    if matrix_rank(flat) != env_span.dim:
        raise NoExtensionFound("monomial spans do not fill the envelope")
    if total != env_span.dim:
        raise NoExtensionFound("degree spans are not in direct sum; no extension")
    return GradedAlgebra(G, {g: spans[g] for g in G.elements if spans[g]})


def groupoid_by_scan(elements, source, range_, product, units=None):
    """The groupoid constructor as label-by-label loops: the inverse scan over
    element pairs and the axiom checks over pairs and triples, each hashing
    labels per lookup. Returns the inverse dict or raises what the scan raises."""
    elements, source, range_, product = \
        tuple(elements), dict(source), dict(range_), dict(product)
    if units is None:
        units = tuple(sorted((g for g in elements
                              if source[g] == g and range_[g] == g), key=str))
    unit_set = set(units)
    inverse = {}
    for g in elements:
        for h in elements:
            if product.get((g, h)) == range_[g] and product.get((h, g)) == source[g]:
                inverse[g] = h
                break

    def mul(g, h):
        try:
            return product[(g, h)]
        except KeyError:
            raise GroupoidError(f"{g!r}·{h!r} undefined") from None

    if not unit_set <= set(elements):
        raise GroupoidError("units not among elements")
    for g in elements:
        if source[g] not in unit_set or range_[g] not in unit_set:
            raise GroupoidError(f"source/range of {g!r} is not a unit")
        if g not in inverse:
            raise GroupoidError(f"no inverse for {g!r}")
    for (g, h), gh in product.items():
        if source[g] != range_[h]:
            raise GroupoidError(f"product defined on non-composable pair {(g, h)!r}")
        if source[gh] != source[h] or range_[gh] != range_[g]:
            raise GroupoidError(f"endpoints broken at {(g, h)!r}")
    for g, h in itertools.product(elements, repeat=2):
        defined = (g, h) in product
        if defined != (source[g] == range_[h]):
            raise GroupoidError(f"composability/table mismatch at {(g, h)!r}")
    for g in elements:
        if mul(g, source[g]) != g or mul(range_[g], g) != g:
            raise GroupoidError(f"units not neutral at {g!r}")
    for g, h, k in itertools.product(elements, repeat=3):
        if source[g] == range_[h] and source[h] == range_[k]:
            if mul(mul(g, h), k) != mul(g, mul(h, k)):
                raise GroupoidError(f"associativity fails at {(g, h, k)!r}")
    return inverse


def hull_closure_by_full_scan(hull, bound=None):
    """The hull closure as a fixpoint over all pairs: seed with the map of every
    ball morphism and its inverse, then in each round, over the closure sorted
    by cost and `str`, add every inverse and every product of two members at the
    sum of their costs, until no cost drops. Complete when the category is
    finite and no pair's cost was over the bound."""
    cost = {}

    def offer(s, c):
        if bound is not None and c > bound:
            return False
        if s not in cost or cost[s] > c:
            cost[s] = c
            return True
        return False

    for c in hull.p.ball(bound):
        s = hull.from_morphism(c)
        offer(s, len(c.word))
        offer(hull.hinverse(s), len(c.word))
    truncated = False
    changed = True
    while changed:
        changed = False
        items = sorted(cost.items(), key=lambda kv: (kv[1], str(kv[0])))
        for s, cs in items:
            if offer(hull.hinverse(s), cs):
                changed = True
            for t, ct in items:
                if bound is not None and cs + ct > bound:
                    truncated = True
                    continue
                if offer(hull.hcompose(s, t), cs + ct):
                    changed = True
    elements = sorted(cost, key=lambda s: (len(s.pieces),
                                           [(hull.p.sort_key(b), hull.p.sort_key(a))
                                            for a, b in s.pieces]))
    return HullClosure(elements=elements, bound=bound,
                       complete=hull.p.is_finite and not truncated)


def hull_product_by_definition(hull, s, t):
    """s∘t from the pieces, using only the presentation's oracles: every
    cross-piece product (a·v, b2·u) over the alignments b·v = a2·u, then the
    general canonical form: each domain generator replaced by the least
    generator of its ideal, pieces deduplicated and sorted, checked to be
    single-valued and injective, and pieces inside an earlier one dropped.
    A fresh element each call: no cache, no interning."""
    p = hull.p
    raw = [(p.compose(a, v), p.compose(b2, u))
           for a, b in s.pieces for a2, b2 in t.pieces for u, v in p.align(a2, b)]
    pieces = set()
    for a, b in raw:
        best, x = b, p.identity(b.dom)
        if not p.trivial_units_only:
            for m in p.ball(None):
                if p.in_ideal(b, m) and p.in_ideal(m, b) and p.sort_key(m) < p.sort_key(best):
                    best, x = m, p.divide_left(b, m)
        pieces.add((a if x.is_identity else p.compose(a, x), best))
    pieces = sorted(pieces, key=lambda ab: (p.sort_key(ab[1]), p.sort_key(ab[0])))
    for direction in (pieces, [(b, a) for a, b in pieces]):
        for (a1, b1), (a2, b2) in itertools.combinations(direction, 2):
            for x, y in p.align(b1, b2):
                if p.compose(a1, x) != p.compose(a2, y):
                    raise InconsistentPieces(f"pieces disagree on {b1}·{x}")
    kept = []
    for a, b in pieces:
        if not any((x := p.divide_left(b2, b)) is not None and p.compose(a2, x) == a
                   for a2, b2 in kept):
            kept.append((a, b))
    return PiecewiseBijection(tuple(kept))


def shilov_ideal_by_singles(a_basis, cover, levels=None, samples=25, tol=1e-9,
                            seed=0):
    """The Shilov search with a numerical search on every single block first,
    then on the combinations of the certified singles, largest first."""
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


def deviation_search_by_trial(deviation, nb, levels, samples=40, restarts=3,
                              tol=1e-9, seed=0):
    """`deviation_search` scoring one coefficient array per call, with the
    ascent chains run one after another."""
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    tried = 0

    def score(c):
        return float(deviation(c[None])[0])

    for k in range(1, levels + 1):
        trials = []
        for b in range(nb):  # single basis elements at the corner
            c = np.zeros((k, k, nb), dtype=complex)
            c[0, 0, b] = 1.0
            trials.append(c)
        c = np.zeros((k, k, nb), dtype=complex)
        c[0, 0, :] = 1.0
        trials.append(c)
        for _ in range(samples):
            trials.append(rng.standard_normal((k, k, nb))
                          + 1j * rng.standard_normal((k, k, nb)))
        scored = []
        for c0 in trials:
            tried += 1
            d0 = score(c0)
            scored.append((d0, c0))
            if d0 > worst:
                worst, witness = d0, (k, c0)
            if worst > tol:
                return IsometryVerdict(False, worst, levels, tried, restarts,
                                       tol, witness)
        # local perturbation ascent from the most promising starting points only
        scored.sort(key=lambda t: -t[0])
        for d0, c0 in scored[:3]:
            best_c, best_d = c0, d0
            for _ in range(restarts):
                step = 0.5
                c_cur, d_cur = best_c, best_d
                for _ in range(20):
                    tried += 1
                    cand = c_cur + step * (rng.standard_normal(c_cur.shape)
                                           + 1j * rng.standard_normal(c_cur.shape))
                    scale = np.linalg.norm(cand)
                    if scale > 0:
                        cand = cand / scale
                    d_new = score(cand)
                    if d_new > d_cur:
                        c_cur, d_cur = cand, d_new
                    else:
                        step *= 0.7
                if d_cur > best_d:
                    best_c, best_d = c_cur, d_cur
            if best_d > worst:
                worst, witness = best_d, (k, best_c)
            if worst > tol:
                return IsometryVerdict(False, worst, levels, tried, restarts,
                                       tol, witness)
    return IsometryVerdict(True, worst, levels, tried, restarts, tol)
