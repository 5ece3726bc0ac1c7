"""Reference implementations the fast library paths are tested against.

Each is the straightforward formula the library replaced: a fresh least-squares
solve per question instead of a maintained basis or factorization, loops over
labels instead of integer tables, and closure rounds that visit every pair.
"""

import itertools

import numpy as np

from catenv.coactions import GradedAlgebra, NoExtensionFound
from catenv.gpd import GroupoidError
from catenv.hull import HullClosure
from catenv.matrixrep import AlgebraSpan, SpanBasis, matrix_rank, operator_norm


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
    """`InverseHull.generate` with an inner loop that visits every pair of the
    round, including the pairs whose cost is already over the bound."""
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
