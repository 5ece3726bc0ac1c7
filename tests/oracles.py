"""Reference implementations the fast library paths are tested against.

Each is the straightforward formula the library replaced: a fresh least-squares
solve per question instead of a maintained basis or factorization, loops over
labels instead of integer tables, closure rounds that visit every pair, k-graph paths
enumerated over every degree vector up to the size bound, hull
products formed from their pieces with no cache and no interning, a Shilov
search that runs the numerical search on every single block before any union,
a deviation search that scores one trial at a time, the duality checks of
a coaction with every permutation unitary and 0/1 diagonal a dense matrix,
germs compared by their pieces with every ideal containment derived from the
parts, the spanning-family correspondence checked one pair at a time and on
dense stacks with `isclose` (the exact index-array check replaced both), the
exact generation count with every idempotent support listed, ideal
detection asked of every set of blocks, the restriction π as a linear map on
its spanning pairs with seeded *-homomorphism trials (`SpannedStarMap`), its
kernel mask read off one matrix unit per block or every one, each unit the
algebra element solved for from its block coordinates, and the boundary-core chain of a monoid (fractions, κ₀,
germ equality at the full-support character) on morphisms, through the
presentation's `align` and `compose` instead of the hull's morphism numbers.

The second half keeps reference formulas that only tests compare against: the
separation criterion checked point by point on every fixed-point set (and on a
planted `ExplicitBijection`, which no hull produces), the compression and
inclusion–exclusion identities of ϑ_χ, groupoid functions as sums of element
matrices, the one-array level-k norm, word inverses and evaluation in a
group, the dual action of a crossed product, and the coaction axioms of a
linear map δ given on a basis, one leg and one basis product at a time: the
grading validation implies them, and planted maps fail them. `entry` reads one
entry of a pipeline result by its check name; `hcompose`, `hinverse` and
`hrestrict` form the product of two hull elements, the inverse and a
restriction of one as elements, and `germ` and `bisection` read germs as
objects: only tests ask for these.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from catenv.coactions import GradedAlgebra, KatayamaReport, NoExtensionFound
from catenv.envelope import NotACover, ShilovResult, is_boundary_ideal, search_levels
from catenv.germs import InfiniteCharacterSpace
from catenv.gpd import FiniteGroupoid, GroupoidError
from catenv.hull import InconsistentPieces, PiecewiseBijection
from catenv.lcm import NotCore, core_membership
from catenv.matrixrep import (AlgebraSpan, IsometryVerdict, SpanBasis, _joint_rank,
                              level_k_norms, matrix_rank, operator_norm)
from catenv.perm import adjoint, components, conjugate, dense, from_map
from catenv.report import Entry
from catenv.univgroup import IsoLetter, OrbitData, UGWord, XLetter, reduce_word


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
    solve for y's coefficients, and conjugate the combination by I⊗I⊗U, taken
    from the `DenseDoubleCrossedProduct` dcp."""
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


def extend_grading_by_products(graded, kappa):
    """The degree spans `extend_grading` closes, {g: members}, grown one
    product at a time: each round multiplies each new member m by each
    generator stack (those of one degree, degrees as first met), m·gens then
    gens·m, with one `SpanBasis.extend` per product and side."""
    G = graded.group
    degree_spans = {g: SpanBasis() for g in G.elements}
    candidates = []
    for a, g in zip(graded.basis, graded.degrees):
        img = np.asarray(kappa(a), dtype=complex)
        candidates += [(g, img), (G.inv(g), img.conj().T)]
    new = [(g, m) for g, m in candidates if degree_spans[g].add(m)]
    gens = {}
    for g, m in new:
        gens.setdefault(g, []).append(m)
    gens = {h: np.array(ms) for h, ms in gens.items()}
    while new:
        new = [(G.mul(g, h), p) for g, m in new for h, ms in gens.items()
               for p in degree_spans[G.mul(g, h)].extend(m @ ms)] \
            + [(G.mul(h, g), p) for g, m in new for h, ms in gens.items()
               for p in degree_spans[G.mul(h, g)].extend(ms @ m)]
    return {g: span.members for g, span in degree_spans.items()}


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


def kgraph_ball_by_degrees(g, n=None):
    """`KGraph.ball` over every degree vector up to total n, or up to
    len(edges)·len(objects) when n is None, with no stop at an empty total."""
    if n is None:
        n = len(g.edges) * max(1, len(g.objects))
    out = [m for total in range(n + 1)
           for degvec in itertools.product(range(total + 1), repeat=g.k) if sum(degvec) == total
           for obj in g.objects for m in g._extensions(obj, degvec)]
    return sorted(set(out), key=g.sort_key)


@dataclass
class GivenClosure:
    """A closure given by its elements, as the full scan finds them or a test
    doctors them; the library's `HullClosure` is the record of a walk."""

    elements: list
    bound: int | None
    complete: bool


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
        offer(hinverse(hull, s), len(c.word))
    truncated = False
    changed = True
    while changed:
        changed = False
        items = sorted(cost.items(), key=lambda kv: (kv[1], str(kv[0])))
        for s, cs in items:
            if offer(hinverse(hull, s), cs):
                changed = True
            for t, ct in items:
                if bound is not None and cs + ct > bound:
                    truncated = True
                    continue
                if offer(hcompose(hull, s, t), cs + ct):
                    changed = True
    elements = sorted(cost, key=lambda s: (len(s.pieces),
                                           [(hull.p.sort_key(b), hull.p.sort_key(a))
                                            for a, b in s.pieces]))
    return GivenClosure(elements, bound, hull.p.is_finite and not truncated)


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


def contains_by_parts(lat, i, j) -> bool:
    """ideals[j] ⊆ ideals[i], derived from the parts on every call."""
    return all(any(lat.p.in_ideal(b, c) for b in lat.ideals[i].parts)
               for c in lat.ideals[j].parts)


def act_by_definition(ctx, s, chi) -> dict:
    """s.χ on every ideal X, evaluated as χ(dom(id_X ∘ s))."""
    hull, lat = ctx.hull, ctx.lat
    out = {}
    for j, X in enumerate(lat.ideals):
        pulled = lat.canonical(hull.domain_parts(hcompose(hull, hull.idempotent(X.parts), s)))
        out[j] = int(contains_by_parts(lat, lat.index[pulled], chi.min_index))
    return out


@dataclass(frozen=True)
class StructuralGerm:
    """A germ compared and hashed by its pieces."""
    chi_min: int
    restricted: PiecewiseBijection

    def __repr__(self):
        return f"[{self.restricted} @ χ{self.chi_min}]"


def germ_groupoid_by_definition(ctx, closure, chars):
    """The germ groupoid over `chars` as a FiniteGroupoid of `StructuralGerm`s:
    each (element, character) pair settled from the parts, the ideal of the
    domain re-derived on every call, and products tried on every pair of germs."""
    hull, lat = ctx.hull, ctx.lat
    if not lat.complete:
        raise InfiniteCharacterSpace("finite character space required")
    char_mins = {chi.min_index for chi in chars}

    def settle(s, x):
        """([s, χ_X], index of the minimal ideal of s.χ_X) for X = ideals[x]."""
        dom = lat.index[lat.canonical(hull.domain_parts(s))]
        if not contains_by_parts(lat, dom, x):
            raise NotInDomain(f"χ({lat.ideals[dom]}) = 0")
        restricted = hrestrict(hull, s, lat.ideals[x].parts)
        return (StructuralGerm(x, restricted),
                lat.index[lat.canonical(hull.image_parts(restricted))])

    members = {}  # germ -> (source min, range min)
    for chi in chars:
        for s in closure.nonzero():
            try:
                germ, image = settle(s, chi.min_index)
            except NotInDomain:
                continue
            if image in char_mins:
                members[germ] = (chi.min_index, image)
    elements = sorted(members, key=lambda g: (g.chi_min, str(g.restricted)))
    unit_of = {chi.min_index: settle(hull.idempotent(chi.min_ideal().parts),
                                     chi.min_index)[0] for chi in chars}
    product = {}
    for g in elements:
        for h in elements:
            if members[h][1] == members[g][0]:
                st = hcompose(hull, g.restricted, h.restricted)
                product[(g, h)] = settle(st, members[h][0])[0]
    return FiniteGroupoid.from_labels(
        elements, source={g: unit_of[members[g][0]] for g in elements},
        range_={g: unit_of[members[g][1]] for g in elements}, product=product,
        units=tuple(unit_of[chi.min_index] for chi in chars))


def inverse_rep(lam, hull_ctx, s) -> np.ndarray:
    """Λ_s as a dense 0/1 matrix, from its index array. A test double that
    plants dense matrices no index array holds has its own `inverse_rep`."""
    planted = getattr(lam, "inverse_rep", None)
    return planted(hull_ctx, s) if planted else dense(lam.inverse_perm(hull_ctx, s))


def jack_check_by_pairs(hull_ctx, closure, model, lam, tol=1e-8):
    """The spanning-element correspondence checked one pair (s, t) at a time,
    with two `np.allclose` per pair."""
    elements = closure.nonzero()
    lam_mats = {s: inverse_rep(lam, hull_ctx, s) for s in elements}
    grm_mats = {s: model.spanning_matrix(s) for s in elements}
    for s in elements:
        for t in elements:
            st = hcompose(hull_ctx, s, t)
            lhs_l = lam_mats[s] @ lam_mats[t]
            lhs_g = grm_mats[s] @ grm_mats[t]
            rhs_l = lam_mats.get(st, np.zeros_like(lhs_l))
            rhs_g = grm_mats.get(st, np.zeros_like(lhs_g))
            if st.is_zero:
                rhs_l, rhs_g = np.zeros_like(lhs_l), np.zeros_like(lhs_g)
            if not (np.allclose(lhs_l, rhs_l, atol=tol)
                    and np.allclose(lhs_g, rhs_g, atol=tol)):
                return False, (s, t)
        sinv = hinverse(hull_ctx, s)
        if not (np.allclose(lam_mats[s].conj().T, lam_mats[sinv], atol=tol)
                and np.allclose(grm_mats[s].conj().T, grm_mats[sinv], atol=tol)):
            return False, s
    va = [lam_mats[s] for s in elements]
    vb = [grm_mats[s] for s in elements]
    ra, rb = matrix_rank(va), matrix_rank(vb)
    rjoint = _joint_rank(va, vb)
    if not (ra == rb == rjoint):
        return False, ("dependency mismatch", ra, rb, rjoint)
    return True, ra


def jack_check_dense(hull_ctx, closure, model, lam, tol=1e-8):
    """The spanning-element correspondence on dense matrices: for each s, M_s M_t
    over all t compared in one `isclose` per family with M_st, gathered from
    the stack (its last matrix is zero), adjoints by `allclose`, and the three
    ranks of the full flattened stacks."""
    elements = closure.nonzero()
    numbers = [hull_ctx.index(s) for s in elements]
    position = {n: k for k, n in enumerate(numbers)}
    zero = len(elements)
    stacks = [np.array([*ms, np.zeros((d, d))], dtype=complex) for ms, d in (
        ([inverse_rep(lam, hull_ctx, s) for s in elements], len(lam.basis)),
        ([model.spanning_matrix(s) for s in elements], len(model.rep.basis)))]
    for k, s in enumerate(elements):
        st = [position.get(hull_ctx._compose(numbers[k], n), zero) for n in numbers]
        bad = np.zeros(zero, dtype=bool)
        for m in stacks:
            bad |= ~np.isclose(m[k] @ m[:zero], m[st], atol=tol).all(axis=(1, 2))
        if bad.any():
            return False, (s, elements[int(np.argmax(bad))])
        sinv = position[hull_ctx.index(hinverse(hull_ctx, s))]
        if not all(np.allclose(m[k].conj().T, m[sinv], atol=tol) for m in stacks):
            return False, s
    va, vb = (m[:zero] for m in stacks)
    ra, rb = matrix_rank(va), matrix_rank(vb)
    rjoint = _joint_rank(va, vb)
    if not (ra == rb == rjoint):
        return False, ("dependency mismatch", ra, rb, rjoint)
    return True, ra


def refine_by_unique(keys):
    """`perm.refine` by `np.unique(axis=0)`: each row's rank among the
    distinct rows, as `perm.exact_dim` first refined its classes."""
    return np.unique(keys, axis=0, return_inverse=True)[1].ravel()


def exact_dim_by_unique(stack):
    """`perm.exact_dim` with each round refined by `refine_by_unique`."""
    perms = np.asarray(stack, dtype=np.intp)
    if not perms.size:
        return None
    n = perms.shape[1]
    gens = np.concatenate([perms, adjoint(perms)])
    classes, count = np.zeros(n, dtype=np.intp), 0
    while count <= classes.max():
        count = classes.max() + 1
        keys = np.column_stack([classes, np.append(classes, -1)[gens].T])
        classes = refine_by_unique(keys)
    if count < n or not (gens >= 0).any(axis=0).all():
        return None
    label = components(n, np.nonzero(gens >= 0)[1], gens[gens >= 0])
    return int((np.unique(label, return_counts=True)[1] ** 2).sum())


def exact_dim_by_support_closure(stack):
    """`perm.exact_dim` with the idempotent supports listed: the generators'
    domains, closed by pulling back along each generator and inverse, then the
    coordinates compared by the supports that hold them. The family can have
    2ⁿ members."""
    perms = np.asarray(stack, dtype=np.intp)
    if not perms.size:
        return None
    n = perms.shape[1]
    gens = np.concatenate([perms, adjoint(perms)])
    supports, batch = {}, gens >= 0
    while len(batch):
        fresh = {d.tobytes(): d for d in batch if d.tobytes() not in supports}
        supports.update(fresh)
        # index −1 reads the False column appended at n
        pulled = np.pad(np.reshape(list(fresh.values()), (-1, n)), ((0, 0), (0, 1)))
        batch = pulled[:, gens].reshape(-1, n)
    patterns = np.array(list(supports.values())).T  # coordinate x: the supports holding x
    if not patterns.any(axis=1).all() or len({x.tobytes() for x in patterns}) < n:
        return None
    x, y = np.nonzero(gens >= 0)[1], gens[gens >= 0]
    label, low = None, np.arange(n)
    while not np.array_equal(label, low):
        label = low[low]
        low = label.copy()
        np.minimum.at(low, x, label[y])
    return int((np.unique(label, return_counts=True)[1] ** 2).sum())


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
                return ShilovResult(mask, cover, verdicts, search_levels(cover, levels))
    return ShilovResult(frozenset(), cover, verdicts, search_levels(cover, levels))


def detects_ideals_by_subsets(d_basis, cover) -> bool:
    """Ideal detection asked of every proper nonempty set of blocks, not only
    the single ones."""
    d_coords = [cover.coords(d) for d in d_basis]
    d_rank = matrix_rank([np.concatenate([c.ravel() for c in coords])
                          for coords in d_coords])
    if d_rank == 0:
        return False
    dependencies = len(d_basis) - d_rank
    nblocks = len(cover.block_sizes)
    for r in range(1, nblocks):
        for combo in itertools.combinations(range(nblocks), r):
            outside = [k for k in range(nblocks) if k not in combo]
            rows = [np.concatenate([coords[k].ravel() for k in outside])
                    for coords in d_coords]
            # kernel elements beyond the dependencies of D land inside the ideal
            if len(rows) - matrix_rank(rows) <= dependencies:
                return False
    return True


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


def block_element(cover, basis, k, i, j, tol=1e-8) -> np.ndarray:
    """The element of span(basis) whose cover coordinates are the matrix unit
    E_ij in block k and zero in every other block, by a least-squares solve
    of `cover.coords` over the basis; ValueError when the span has none.

    For block k's isometry W, W e_i (W e_j)* is that element only when the
    block has multiplicity 1; above it, it lies outside the algebra."""
    basis = np.asarray(basis, dtype=complex)
    rows = np.array([np.concatenate([c.ravel() for c in cover.coords(b)]) for b in basis]).T
    n, start = cover.block_sizes[k], sum(m * m for m in cover.block_sizes[:k])
    target = np.zeros(len(rows), dtype=complex)
    target[start + i * n + j] = 1
    coef, *_ = np.linalg.lstsq(rows, target, rcond=None)
    if not np.allclose(rows @ coef, target, atol=tol):
        raise ValueError(f"no element of the span has E_{i}{j} of block {k} as coordinates")
    return np.tensordot(coef, basis, 1)


def quotient_kernel_mask(cover, star_map, tol=1e-8) -> frozenset:
    """Blocks of the cover killed by a *-homomorphism (or anti-homomorphism)
    defined on its algebra, the span of `star_map.xs`: its kernel is an
    ideal, so those whose E_00 it kills."""
    return frozenset(k for k in range(len(cover.block_sizes))
                     if operator_norm(star_map.apply(
                         block_element(cover, star_map.xs, k, 0, 0))) <= tol)


def quotient_kernel_mask_by_units(cover, star_map, tol=1e-8) -> frozenset:
    """The blocks on every one of whose matrix units the map vanishes."""
    return frozenset(k for k, n in enumerate(cover.block_sizes)
                     if all(operator_norm(star_map.apply(
                         block_element(cover, star_map.xs, k, i, j))) <= tol
                            for i in range(n) for j in range(n)))


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


# -- coactions: groups and the dense duality formulas -----------------------------


def point_mass(group, g) -> np.ndarray:
    n = len(group)
    out = np.zeros((n, n), dtype=complex)
    out[group.index[g], group.index[g]] = 1.0
    return out


def rho(group, g) -> np.ndarray:
    """The right regular matrix ρ_g e_h = e_{hg⁻¹} of a `FiniteGroup`."""
    return dense(group.rho_perms[group.index[g]])


def commutation_check(group) -> bool:
    return all(np.allclose(group.lam(g) @ rho(group, h), rho(group, h) @ group.lam(g))
               for g in group.elements for h in group.elements)


def fell_absorption_check(group) -> bool:
    """λ_g ↦ λ_g⊗λ_g is multiplicative with independent images."""
    images = []
    for g in group.elements:
        images.append(np.kron(group.lam(g), group.lam(g)))
    for g in group.elements:
        for h in group.elements:
            lhs = np.kron(group.lam(g), group.lam(g)) @ np.kron(group.lam(h), group.lam(h))
            rhs = np.kron(group.lam(group.mul(g, h)), group.lam(group.mul(g, h)))
            if not np.allclose(lhs, rhs):
                return False
    return matrix_rank(images) == len(group.elements)


def spectral_subspace_dims_from_reduction(delta) -> dict:
    """Solve {a : δ_λ(a) = a⊗λ_g} inside the algebra span, per g."""
    span = delta.graded.basis
    return {g: len(span) - matrix_rank([da - np.kron(a, delta.group.lam(g))
                                        for a, da in zip(span, delta.images)])
            for g in delta.group.elements}


class DenseCrossedProduct:
    """A ⋊_δ G on H⊗ℓ²(G), generated by δ_λ(a)·(I⊗M_f), with the dual action's
    unitaries I⊗ρ_g as dense matrices in `rho`."""

    def __init__(self, delta):
        self.delta = delta
        self.group = delta.group
        self.h_dim = delta.graded.ambient_dim
        eye = np.eye(self.h_dim)
        self.generators = []
        self.generator_tags = []
        for da, g in zip(delta.images, delta.graded.degrees):
            for f in self.group.elements:
                mat = da @ np.kron(eye, point_mass(self.group, f))
                self.generators.append(mat)
                self.generator_tags.append((da, g, f))
        self.rho = {g: np.kron(eye, rho(self.group, g)) for g in self.group.elements}

    def dual_action(self, g, x) -> np.ndarray:
        """δ̂_g = Ad(I⊗ρ_g)."""
        u = self.rho[g]
        return u @ x @ u.conj().T

    def dual_action_formula_check(self) -> bool:
        """δ̂_g(δ_λ(a) j(f)) = δ_λ(a) j(σ_g f) with σ_g(f)(h) = f(hg)."""
        eye = np.eye(self.h_dim)
        for (da, dg, f), mat in zip(self.generator_tags, self.generators):
            for g in self.group.elements:
                shifted = point_mass(self.group, self.group.mul(f, self.group.inv(g)))
                rhs = da @ np.kron(eye, shifted)
                if not np.allclose(self.dual_action(g, mat), rhs, atol=1e-9):
                    return False
        return True

    def dual_action_group_law_check(self) -> bool:
        for g in self.group.elements:
            for h in self.group.elements:
                gh = self.group.mul(g, h)
                for mat in self.generators:
                    if not np.allclose(self.dual_action(g, self.dual_action(h, mat)),
                                       self.dual_action(gh, mat), atol=1e-9):
                        return False
        return True


@dataclass
class KatayamaData:
    U: np.ndarray
    S: np.ndarray
    V: np.ndarray  # I_H ⊗ U S


class DenseDoubleCrossedProduct:
    """A ⋊_δ G ⋊^r G on H⊗ℓ²(G)⊗ℓ²(G) with the duality unitaries, k_{c₀}(δ_f)
    and k_G(g) as dense matrices (`data`, `c0`, `kg`)."""

    def __init__(self, delta):
        self.delta = delta
        self.group = delta.group
        self.h_dim = delta.graded.ambient_dim
        n = len(self.group)
        self.n = n
        U = np.zeros((n * n, n * n), dtype=complex)
        S = np.zeros((n * n, n * n), dtype=complex)
        idx = self.group.index
        for g in self.group.elements:
            for h in self.group.elements:
                U[idx[g] * n + idx[self.group.mul(g, h)], idx[g] * n + idx[h]] = 1.0
                S[idx[g] * n + idx[self.group.inv(h)], idx[g] * n + idx[h]] = 1.0
        V = np.kron(np.eye(self.h_dim), U @ S)
        self.data = KatayamaData(U, S, V)
        self.c0 = {}
        for f_point in self.group.elements:
            diag = np.zeros((n * n, n * n), dtype=complex)
            for p in self.group.elements:
                for q in self.group.elements:
                    if self.group.mul(p, self.group.inv(q)) == f_point:
                        diag[idx[p] * n + idx[q], idx[p] * n + idx[q]] = 1.0
            self.c0[f_point] = np.kron(np.eye(self.h_dim), diag)
        self.kg = {g: np.kron(np.eye(self.h_dim * n), self.group.lam(g))
                   for g in self.group.elements}

    @cached_property
    def kron_basis(self):
        """(span, accepted) grown one δ_λ(a_k)⊗E_r at a time."""
        units = np.eye(self.n * self.n).reshape(-1, self.n, self.n)
        span, accepted = SpanBasis(), []
        for k, da in enumerate(self.delta.images):
            for r, e_pq in enumerate(units):
                if span.add(np.kron(da, e_pq)):
                    accepted.append(k * len(units) + r)
        return span, np.array(accepted, dtype=np.intp)

    def k_c0(self, f_point) -> np.ndarray:
        """k_{c₀(G)}(δ_k): diagonal (p, q) ↦ [p = k·q] on the two group legs."""
        return self.c0[f_point]

    def k_G(self, g) -> np.ndarray:
        return self.kg[g]

    def generators(self):
        """((a, deg a, f, g), k_A(a) k_{c₀}(δ_f) k_G(g)) over the graded basis
        and G×G, with k_A(a) = δ_λ(a)⊗I."""
        out = []
        graded, eye = self.delta.graded, np.eye(self.n)
        for a, da, dg in zip(graded.basis, self.delta.images, graded.degrees):
            for f in self.group.elements:
                for g in self.group.elements:
                    out.append(((a, dg, f, g),
                                np.kron(da, eye) @ self.k_c0(f) @ self.k_G(g)))
        return out

    def double_dual(self, x) -> np.ndarray:
        """δ̂̂(x) = (I⊗I⊗U)(x ⊗ I)(I⊗I⊗U)*, the U acting on the last two legs."""
        n = self.n
        big_u = np.kron(np.eye(self.h_dim * n), self.data.U)
        return big_u @ np.kron(x, np.eye(n)) @ big_u.conj().T

    def double_dual_formula_check(self, sample=slice(None)) -> bool:
        """δ̂̂(k_A k_{c₀} k_G(g)) = (same) ⊗ λ_g on the generators in `sample`."""
        for (a, dg, f, g), mat in self.generators()[sample]:
            rhs = np.kron(mat, self.group.lam(g))
            if not np.allclose(self.double_dual(mat), rhs, atol=1e-9):
                return False
        return True


def tilde_delta_dense(dcp, y, delta):
    """δ̃(δ_λ(a)⊗K) = (I⊗I⊗U)*(δ_λ(a)⊗K⊗λ_g)(I⊗I⊗U), extended linearly, through
    y's coordinates in `dcp.kron_basis`; ValueError if y is outside."""
    G = delta.group
    n = len(G)
    span, accepted = dcp.kron_basis
    coef = np.zeros(len(delta.images) * n * n, dtype=complex)
    coef[accepted] = span.coordinates(y)
    middle = sum(np.kron(np.kron(da, c), G.lam(g))
                 for da, c, g in zip(delta.images, coef.reshape(-1, n, n),
                                     delta.graded.degrees))
    big_u = np.kron(np.eye(dcp.h_dim * n), dcp.data.U)
    return big_u.conj().T @ middle @ big_u


def katayama_verify_dense(delta, dcp=None, tol=1e-12, sample=slice(None)) -> KatayamaReport:
    """`katayama_verify` with dense conjugations, one generator at a time, on
    the `DenseDoubleCrossedProduct` dcp (built from delta when None). The
    conjugation identity visits the generators in `sample`, all by default."""
    dcp = dcp or DenseDoubleCrossedProduct(delta)
    G = delta.group
    n = len(G)
    V = dcp.data.V

    def ad_v(x):
        return V @ x @ V.conj().T

    ok_i = all(np.allclose(ad_v(np.kron(da, np.eye(n))), np.kron(da, G.lam(g)), atol=tol)
               for da, g in zip(delta.images, delta.graded.degrees))
    ok_ii = all(np.allclose(ad_v(dcp.k_c0(f)),
                            np.kron(np.eye(dcp.h_dim * n), point_mass(G, f)), atol=tol)
                for f in G.elements)
    ok_iii = all(np.allclose(ad_v(dcp.k_G(g)),
                             np.kron(np.eye(dcp.h_dim * n), rho(G, g)), atol=tol)
                 for g in G.elements)

    generators = [m for _, m in dcp.generators()]
    images = [ad_v(m) for m in generators]
    target = dcp.kron_basis[0].members
    ri, rt = matrix_rank(images), matrix_rank(target)
    rj = matrix_rank(images + target)
    span_ok = ri == rt == rj

    def tilde(y):
        try:
            return tilde_delta_dense(dcp, y, delta)
        except ValueError:
            return None

    def matches(a, b):
        return a is not None and b is not None and np.allclose(a, b, atol=tol)

    v_n = np.kron(V, np.eye(n))
    conj_ok = all(matches(v_n @ dcp.double_dual(mat) @ v_n.conj().T, tilde(image))
                  for mat, image in list(zip(generators, images))[sample])
    pe = point_mass(G, G.identity)
    ys = [(np.kron(da, pe), g) for da, g in zip(delta.images, delta.graded.degrees)]
    pe_ok = all(matches(tilde(y), np.kron(y, G.lam(g))) for y, g in ys)
    return KatayamaReport(ok_i, ok_ii, ok_iii, span_ok, ri, conj_ok, pe_ok)


# -- the boundary-core chain on morphisms ------------------------------------------


@dataclass(frozen=True)
class Fraction:
    num: object
    den: object

    def __repr__(self):
        return f"{self.num}·{self.den}⁻¹"


class MorphismOreGroup:
    """Fractions c·d⁻¹ of core elements as pairs of morphisms, resolved through
    the presentation's `align` and `compose` on every call."""

    def __init__(self, pres, bound=4):
        if len(pres.objects) != 1:
            raise ValueError("fractions need a monoid")
        self.p = pres
        self.bound = bound

    def _check_core(self, m):
        cert = core_membership(self.p, m, self.bound)
        if cert.status == "not_in_core":
            raise NotCore(f"{m} is not in the core (witness {cert.witness})")

    def fraction(self, num, den) -> Fraction:
        self._check_core(num)
        self._check_core(den)
        return Fraction(num, den)

    @property
    def identity(self) -> Fraction:
        e = self.p.identity(self.p.objects[0])
        return Fraction(e, e)

    def equal(self, f1, f2) -> bool:
        """(c,d) ~ (a,b) iff dx = by and cx = ay at the least common multiple."""
        pairs = self.p.align(f1.den, f2.den)
        if not pairs:
            raise NotCore(f"denominators {f1.den}, {f2.den} never meet")
        x, y = pairs[0]
        return self.p.compose(f1.num, x) == self.p.compose(f2.num, y)

    def mul(self, f1, f2) -> Fraction:
        """c d⁻¹ · a b⁻¹ = (cx)(by)⁻¹ where dx = ay."""
        pairs = self.p.align(f1.den, f2.num)
        if not pairs:
            raise NotCore(f"{f1.den} and {f2.num} never meet")
        x, y = pairs[0]
        return Fraction(self.p.compose(f1.num, x), self.p.compose(f2.den, y))

    def is_identity(self, f) -> bool:
        return self.equal(f, self.identity)


def kappa0(hull_ctx, s, ore) -> Fraction:
    """κ₀ of a germ of s at a boundary character with full support (χ∞ regime).

    Every piece (a, b) with core entries yields the fraction a·b⁻¹; pieces of one
    element must agree, which is the well-definedness of the cocycle.
    """
    if s.is_zero:
        raise NotCore("zero element has no fraction")
    fractions = [ore.fraction(a, b) for a, b in s.pieces]
    first = fractions[0]
    for other in fractions[1:]:
        if not ore.equal(first, other):
            raise NotCore(f"pieces of {s} give inequivalent fractions")
    return first


def germ_equal_at_full_support(hull_ctx, s, t) -> bool:
    """[s,χ] = [t,χ] for the everything-is-one character: agreement on some
    principal ideal inside both domains."""
    p = hull_ctx.p
    for a1, b1 in s.pieces:
        for a2, b2 in t.pieces:
            for x, y in p.align(b1, b2):
                if p.compose(a1, x) == p.compose(a2, y):
                    return True
    return False


def transformation_iso_check_by_morphisms(hull_ctx, closure, ore, sample_limit=200):
    """The fraction-germ correspondence on morphisms: κ₀ of each sampled
    element, then every germ pair and every cocycle product compared through
    the presentation's oracles, with hull products formed by `hcompose`."""
    items = []
    for s in closure.nonzero()[:sample_limit]:
        try:
            items.append((s, kappa0(hull_ctx, s, ore)))
        except NotCore:
            continue
    fraction_of = {hull_ctx.index(s): f for s, f in items}
    for i, (s, fs) in enumerate(items):
        for t, ft in items[i + 1:]:
            same_germ = germ_equal_at_full_support(hull_ctx, s, t)
            same_frac = ore.equal(fs, ft)
            if same_germ != same_frac:
                return False, (s, t)
    checked = 0
    for s, fs in items:
        for t, ft in items:
            fst = fraction_of.get(hull_ctx.index(hcompose(hull_ctx, s, t)))
            if fst is None:  # zero, or outside the sample
                continue
            if not ore.equal(fst, ore.mul(fs, ft)):
                return False, ("cocycle", s, t)
            checked += 1
    return True, checked


def chain_entries_by_morphisms(hull_ctx, closure, bound=4, sample=40) -> list:
    """The "fraction-germ-correspondence" and "cocycle-kernel" entries of
    `starling_report`, from the chain on morphisms, with κ₀ recomputed for the
    kernel entry."""
    pres = hull_ctx.p
    ore = MorphismOreGroup(pres, bound=bound)
    try:
        iso_ok, info = transformation_iso_check_by_morphisms(hull_ctx, closure, ore, sample)
        entries = [Entry("fraction-germ-correspondence",
                         ("certified" if pres.is_finite else "bounded-evidence") if iso_ok
                         else "rejected",
                         f"{info} composable pairs matched" if iso_ok else f"mismatch {info}")]
    except NotCore as exc:
        entries = [Entry("fraction-germ-correspondence", "bounded-evidence",
                         f"partial core: {exc}")]
    kernel_ok = True
    for s in closure.nonzero()[:sample]:
        try:
            f = kappa0(hull_ctx, s, ore)
        except NotCore:
            continue
        if ore.is_identity(f) and f.num != f.den:
            kernel_ok = False
    entries.append(Entry("cocycle-kernel",
                         "certified" if pres.is_finite and kernel_ok
                         else ("bounded-evidence" if kernel_ok else "rejected"),
                         "trivial fractions come from equal numerator and denominator"))
    return entries


# -- the closed form of an acyclic path category -------------------------------------


def acyclic_path_counts(pres):
    """(spectrum blocks, envelope blocks, closure size) of `thesis` on the path
    category of a finite acyclic graph with at least two vertices, read off
    the graph alone.

    An arc v → w is a morphism with domain v, and a path c is defined on
    𝔡(c)𝔠 = {t : t ends at 𝔡(c)}. Let m_v count the paths with domain v, the
    unit included: the unit, and each arc v → w followed by a path with
    domain w. Two principal ideals of a path category are nested or disjoint,
    so a product of one-piece maps has at most one piece. The hull is
    therefore the zero, which the two units' maps of distinct vertices
    multiply to, and the maps b·t ↦ a·t with 𝔡(a) = 𝔡(b), each equal to
    (a, 1)∘(1, b): 1 + Σ m_v² elements. Each character of the idempotents
    is the filter of the ideals holding one path c. The map of (a, b) moves
    χ_{b·t} to χ_{a·t}, so the orbit of χ_c is the m_v paths with domain
    v = 𝔡(c), with no isotropy: C*(G_Ω) = ⊕_v M_{m_v}. χ_c is maximal when
    no longer path c·t exists, that is when 𝔡(c) has no incoming arc. On a
    finite space the boundary is the maximal characters, so the envelope is
    ⊕ M_{m_v} over the vertices with no incoming arc.
    """
    out, targets = {v: [] for v in pres.objects}, set()
    for v, w in pres.edges.values():
        out[v].append(w)
        targets.add(w)
    m = {}

    def paths(v):
        if v not in m:
            m[v] = 1 + sum(paths(w) for w in out[v])
        return m[v]

    return (sorted(map(paths, pres.objects)),
            sorted(paths(v) for v in pres.objects if v not in targets),
            1 + sum(paths(v) ** 2 for v in pres.objects))


# -- reading a pipeline result, and products and inverses of hull elements ---------------------


def entry(result, check) -> Entry:
    """The entry of a `PipelineResult` with the given check name; KeyError if none."""
    for e in result.entries:
        if e.check == check:
            return e
    raise KeyError(check)


def hcompose(hull, s, t) -> PiecewiseBijection:
    """s∘t in `hull`, as an element: the library forms products on element
    numbers only."""
    return hull.element(hull._compose(hull.index(s), hull.index(t)))


def hinverse(hull, s) -> PiecewiseBijection:
    """s⁻¹ in `hull`, as an element: the library inverts element numbers only."""
    return hull.element(hull._inverses[hull.index(s)])


def hrestrict(hull, s, parts) -> PiecewiseBijection:
    """s restricted to the ideal ⋃ x𝔠 over x in parts, from the pieces: a
    piece (a, b) meets x𝔠 in b·u for each alignment (u, _) of b and x. The
    library restricts by composing with the idempotent on the ideal."""
    p = hull.p
    return hull.canonical([(p.compose(a, u), p.compose(b, u)) for a, b in s.pieces
                           for x in parts for u, _ in p.align(b, x)])


class NotInDomain(ValueError):
    pass


def germ(ctx, s, chi):
    """The germ [s, χ], read off `GermContext.at`; NotInDomain when χ(dom s) = 0."""
    found = ctx.at(ctx.hull.index(s), chi.min_index)
    if found is None:
        raise NotInDomain(f"χ({ctx.lat.ideals[ctx.lat.domain_index(ctx.hull.index(s))]}) = 0")
    return found[0]


def bisection(model, s) -> list:
    """The germs of s over the characters of `model`'s groupoid, in the
    order of their minimal ideals."""
    ctx = model.gg.ctx
    n = ctx.hull.index(s)
    return [found[0] for x in sorted(model.gg.char_by_min)
            if (found := ctx.at(n, x)) is not None]


# -- reference formulas for identities the library does not compute --------------


@dataclass(frozen=True)
class ExplicitBijection:
    """A hand-given partial bijection of the ground category, as an explicit graph.

    Not an element of any inverse hull; planted into a closure to exercise the
    rejection path of `separation_by_fixed_sets`."""

    graph: tuple

    def fixed_points(self):
        return [x for x, y in self.graph if x == y]

    @property
    def is_zero(self):
        return not self.graph


@dataclass
class SeparationVerdict:
    status: str  # "certified" | "counterexample" | "bounded"
    witness: object = None


def fix_set(hull, s):
    """Fixed points of s as principal-ideal parts.

    A piece (a, b) fixes b·t exactly when a·t = b·t; the fixed set is right
    invariant, so on cancellative presentations a piece contributes its whole
    domain (a = b) or nothing, and finite presentations are settled pointwise.
    """
    p = hull.p
    parts = []
    for a, b in s.pieces:
        if a == b:
            parts.append(b)
        elif p.is_finite:
            fixed = [x for x in p.ball(None)
                     if (t := p.divide_left(b, x)) is not None and p.compose(a, t) == x]
            parts.extend(hull._ideal_parts(fixed))
        elif not p.structurally_cancellative:
            raise NotImplementedError(
                "bounded fixed-point analysis for infinite non-cancellative input")
    return hull._ideal_parts(parts)


def separation_by_fixed_sets(hull, closure) -> SeparationVerdict:
    """The separation criterion checked element by element. On a finite
    category every fixed-point set, taken point by point, must be covered by
    the domains of closure elements that lie inside it; a stray fixed point is
    the witness. On an infinite one each element's fixed set is read by
    `fix_set` and the verdict is `bounded`, an explicit bijection included."""
    p = hull.p
    if not p.is_finite:
        for s in closure.elements:
            if isinstance(s, ExplicitBijection):
                return SeparationVerdict("bounded", s)
            fix_set(hull, s)
        return SeparationVerdict("bounded")
    ground = p.ball(None)
    domains = [members for t in closure.elements if isinstance(t, PiecewiseBijection)
               if (members := {m for m in ground if any(
                   p.in_ideal(b, m) for b in hull.domain_parts(t))})]
    for s in closure.elements:
        if isinstance(s, ExplicitBijection):
            fixed = set(s.fixed_points())
        else:
            fixed = {x for x in ground if hull.apply(s, x) == x}
        covered = set().union(*(d for d in domains if d <= fixed))
        stray = sorted(fixed - covered, key=p.sort_key)
        if stray:
            return SeparationVerdict("counterexample", (s, stray[0]))
    return SeparationVerdict("certified" if closure.complete else "bounded")


def theta_matrix(theta, s) -> np.ndarray:
    """ϑ_χ(s) on the germ basis [𝔠, χ]: e_d ↦ e_{s(d)}."""
    return dense(from_map(theta.basis, theta.index, lambda d: theta.hull.apply(s, d)))


def diagonal_indicator(theta, parts) -> np.ndarray:
    """ϑ_χ(1_{Ω(X)}): the projection onto basis germs lying in X = ⋃ b𝔠."""
    return np.diag([1.0 + 0j if any(theta.p.in_ideal(b, d) for b in parts) else 0j
                    for d in theta.basis])


def compression_identity_check(model, theta, tol=1e-9):
    """P_χ ρ_χ(1_{[c,Ω(𝔡c𝔠)]}) P_χ = ϑ_χ on the morphism generators.

    Requires the χ-fiber of the groupoid representation; the projection P picks the
    germs [d,χ] of morphisms d.
    """
    ctx = model.gg.ctx
    chi = theta.chi
    g = model.gg.groupoid
    fiber = sorted((x for x in g.elements if x.chi_min == chi.min_index), key=str)
    fiber_index = {x: i for i, x in enumerate(fiber)}
    morphism_germ = {}
    for d in theta.basis:
        morphism_germ[d] = germ_d = germ(ctx, ctx.hull.from_morphism(d), chi)
        if germ_d not in fiber_index:
            return False, f"germ of {d} missing from the χ-fiber"
    proj = np.zeros((len(theta.basis), len(fiber)), dtype=complex)
    for d, i in theta.index.items():
        proj[i, fiber_index[morphism_germ[d]]] = 1.0
    for c in ctx.hull.p.ball(None):
        s = ctx.hull.from_morphism(c)
        rho_fiber = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for j, t in enumerate(fiber):
            for el in bisection(model, s):
                if g.source[el] == g.range[t]:
                    rho_fiber[fiber_index[g.mul(el, t)], j] += 1.0
        lhs = proj @ rho_fiber @ proj.conj().T
        if not np.allclose(lhs, theta_matrix(theta, s), atol=tol):
            return False, c
    return True, None


def inclusion_exclusion_check(hull, s, theta, tol=1e-9):
    """ϑ_χ(1_{ℱ_s}) via signed meets of Ω(X) indicators equals 1_{[fix(s),χ]}."""
    parts = fix_set(hull, s)
    direct = np.diag([1.0 + 0j if hull.apply(s, d) == d else 0j for d in theta.basis])
    signed = np.zeros_like(direct)
    for r in range(1, len(parts) + 1):
        for combo in itertools.combinations(parts, r):
            meet_parts = [combo[0]]
            for b in combo[1:]:
                meet_parts = hull._ideal_parts([hull.p.compose(m, x) for m in meet_parts
                                                for x, _ in hull.p.align(m, b)])
            signed += ((-1) ** (r - 1)) * diagonal_indicator(theta, meet_parts)
    return np.allclose(signed, direct, atol=tol)


def element_matrix(rep, el) -> np.ndarray:
    """The indicator function of a single groupoid element under `GroupoidRep` rep."""
    g, index = rep.g, {x: i for i, x in enumerate(rep.basis)}
    return dense(from_map(rep.basis, index,
                          lambda t: g.mul(el, t) if g.source[el] == g.range[t] else None))


def function_matrix(rep, coeffs: dict) -> np.ndarray:
    """Σ c · element_matrix(el) over coeffs = {el: c}."""
    n = len(rep.basis)
    return sum((c * element_matrix(rep, el) for el, c in coeffs.items()),
               np.zeros((n, n), dtype=complex))


class DimensionMismatch(ValueError):
    pass


def norm_level_k(basis, coeffs) -> float:
    """Operator norm of Σ coeffs[i,j,b] · E_ij ⊗ basis[b], by `level_k_norms`
    on one coefficient array."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim == 1:
        coeffs = coeffs.reshape(1, 1, -1)
    k1, k2, nb = coeffs.shape
    if nb != len(basis) or k1 != k2:
        raise DimensionMismatch(f"need (k, k, {len(basis)}) coefficients")
    return float(level_k_norms(np.asarray(basis, dtype=complex)[None],
                               coeffs[None])[0, 0])


def word_inverse(od: OrbitData, w: UGWord) -> UGWord:
    out = []
    for letter in reversed(w.letters):
        if isinstance(letter, XLetter):
            out.append(XLetter(letter.orbit_rep, letter.unit, -letter.exp))
        else:
            out.append(IsoLetter(letter.orbit_rep, od.groupoid.inv(letter.element)))
    return reduce_word(od, out)


def evaluate_in_group(w: UGWord, x_images: dict, iso_images: dict, mul, inv, unit):
    """Universal property: evaluate a word under X-letter and isotropy images."""
    acc = unit
    for letter in w.letters:
        if isinstance(letter, XLetter):
            step = x_images[letter.unit] if letter.exp > 0 else inv(x_images[letter.unit])
            for _ in range(abs(letter.exp)):
                acc = mul(acc, step)
        else:
            acc = mul(acc, iso_images[letter.element])
    return acc


def crossed_dual_action(cp, g, x) -> np.ndarray:
    """δ̂_g = Ad(I⊗ρ_g) on x or a stack of x, for the `CrossedProduct` cp."""
    return conjugate(x, cp.rho_perms[cp.group.index[g]])


def verify_coaction_axioms(basis, images, group, tol=1e-9) -> dict:
    """Axioms for the linear map δ(basis[i]) = images[i], graded or planted.

    Multiplicativity (a product outside the span is a failure), the coaction
    identity against Δ(λ_g) = λ_g⊗λ_g, and nondegeneracy as a span equality.
    """
    basis = [np.asarray(b, dtype=complex) for b in basis]
    images = [np.asarray(m, dtype=complex) for m in images]
    n = len(group)
    d = basis[0].shape[0]
    delta = SpannedStarMap(list(zip(basis, images))).apply

    def image(m):
        """δ(m), or None when m is outside the span of the basis."""
        try:
            return delta(m)
        except ValueError:
            return None

    def maps_to(m, target):
        dm = image(m)
        return dm is not None and np.allclose(dm, target, atol=tol)

    def identity_holds(da):
        # (δ⊗id)∘δ needs δ applied to the A-leg of δ(a); expand over a product basis
        da = da.reshape(d, n, d, n)
        lhs = np.zeros((d, n, n, d, n, n), dtype=complex)
        for p in range(n):
            for q in range(n):
                leg = image(da[:, p, :, q])
                if leg is None:
                    return False
                lhs[:, :, p, :, :, q] = leg.reshape(d, n, d, n)
        rhs = np.zeros_like(lhs)
        for g in group.elements:
            lg = group.lam(g)
            comp = np.einsum("ipjq,pq->ij", da, lg.conj()) / n
            rhs += np.einsum("ij,pq,rs->iprjqs", comp, lg, lg)
        return np.allclose(lhs, rhs, atol=tol)

    out = {"homomorphism": all(maps_to(a @ b, da @ db)
                               for a, da in zip(basis, images)
                               for b, db in zip(basis, images))}
    out["coaction_identity"] = all(identity_holds(da) for da in images)
    out["nondegenerate"] = _nondegenerate(basis, images, group)
    return out


def _nondegenerate(basis, images, group) -> bool:
    """span δ(A)(I⊗C*(G)) = A⊗C*(G) for the map δ(basis[i]) = images[i]."""
    eye = np.eye(basis[0].shape[0])
    prods = [da @ np.kron(eye, group.lam(h)) for da in images for h in group.elements]
    target = [np.kron(a, group.lam(h)) for a in basis for h in group.elements]
    return matrix_rank(prods) == matrix_rank(target)


_AXIOM_FAILURES = (("homomorphism", "δ is not multiplicative"),
                   ("coaction_identity", "coaction identity fails"),
                   ("nondegenerate", "coaction is degenerate"))


def axiom_failures(basis, images, group) -> list:
    """The message of each axiom `verify_coaction_axioms` finds failing."""
    axioms = verify_coaction_axioms(basis, images, group)
    return [message for axiom, message in _AXIOM_FAILURES if not axioms[axiom]]
