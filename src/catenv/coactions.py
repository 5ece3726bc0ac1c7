"""Finite-group coactions on finite-dimensional operator algebras.

The group algebra is represented on ℓ²(G) via the left regular representation
(full = reduced for finite groups), so a coaction is the same thing as a grading
and every identity below is a concrete matrix identity. δ is one linear map:
its images a⊗λ_g on the graded basis are stored once, in closed form, and any
other element goes through its coordinates in one span basis of the graded
basis. `GradedAlgebra.validate` is the one gate: a grading it accepts defines
a coaction, by the argument in `coaction_from_grading`. Every unitary of the
crossed products and of duality (λ, ρ, U, V = I⊗US, k_G) is a `perm` index
array from the group table, and each k_{c₀}(δ_f), I⊗M_f a 0/1 diagonal held
as a mask. Ψ = Ad V maps each generator of the double crossed product to a
δ_λ(a_k)⊗E_pq, and δ̂̂ and δ̃ conjugate by I⊗I⊗U on the group legs only, so
the duality identities past (i)–(iii) are decided on index arrays of those
legs, exactly, and no matrix of side d·n³ is built; the dense formulas are
the test oracles. A coaction builds each of its crossed products once.

Normality is decided exactly when the grading is spatial: some labeling φ of
the ambient coordinates by G has φ(i) = g·φ(j) at every nonzero entry (i, j)
of every degree-g basis element. Then W = Σᵢ eᵢᵢ⊗λ_{φ(i)} is a permutation
unitary with W(a⊗1)W* = Σ a_ij eᵢⱼ⊗λ_{φ(i)φ(j)⁻¹} = a⊗λ_g = δ(a) on the
graded basis, so δ = Ad W ∘ (·⊗1) and ‖[δ(a_kl)]‖ = ‖[a_kl]‖ at every matrix
level, for any finite G. A breadth-first pass over the nonzero pattern finds
φ with group-table arithmetic, and the gather Ad W on a⊗1 must reproduce each
stored image exactly; without such a φ, normality is the boundary-ideal
search on the blocks of C*(G).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import perm
from .envelope import FinDimCStar, block_decompose, is_boundary_ideal
from .gpd import group_as_groupoid
from .matrixrep import AlgebraSpan, IsometryVerdict, SpanBasis


class GradingInvalid(ValueError):
    pass


class NotDirectSum(GradingInvalid):
    pass


class NoExtensionFound(RuntimeError):
    pass


class FiniteGroup:
    """A finite group with its left regular matrices on ℓ²(G), and its table
    on positions: `mul_index[i, j]` is that of gᵢgⱼ, `inv_index[i]`
    that of gᵢ⁻¹, `lam_perms[i]` (`rho_perms[i]`) is the index array of
    λ_{gᵢ} (ρ_{gᵢ}) and `lams[i]` the matrix of λ_{gᵢ}."""

    def __init__(self, elements, mul_table, identity):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.table = dict(mul_table)
        self.identity = identity
        # the groupoid axioms on one unit; a GroupoidError is a ValueError
        self.inverse = group_as_groupoid(self.elements, self.table, identity).inverse
        self.mul_index = np.array([[self.index[self.mul(g, h)] for h in self.elements]
                                   for g in self.elements])
        self.inv_index = np.array([self.index[self.inverse[g]] for g in self.elements])
        self.lam_perms = self.mul_index  # λ_g e_h = e_{gh}
        self.rho_perms = self.mul_index[:, self.inv_index].T.copy()  # ρ_g e_h = e_{hg⁻¹}
        self.lams = perm.dense(self.lam_perms)

    @classmethod
    def cyclic(cls, n):
        els = list(range(n))
        table = {(i, j): (i + j) % n for i in els for j in els}
        return cls(els, table, 0)

    def mul(self, g, h):
        return self.table[(g, h)]

    def inv(self, g):
        return self.inverse[g]

    def lam(self, g) -> np.ndarray:
        return self.lams[self.index[g]]

    def __len__(self):
        return len(self.elements)


class GradedAlgebra:
    """A matrix algebra with a G-grading: components g → list of basis matrices."""

    def __init__(self, group: FiniteGroup, components: dict):
        self.group = group
        self.components = {g: [np.asarray(m, dtype=complex) for m in ms]
                           for g, ms in components.items() if ms}
        self.ambient_dim = next(iter(self.components.values()))[0].shape[0]
        self.basis = []
        self.degrees = []
        for g in sorted(self.components, key=group.elements.index):
            for m in self.components[g]:
                self.basis.append(m)
                self.degrees.append(g)
        self.validate()

    def validate(self):
        """Direct sum, then A_g·A_h ⊆ A_gh, both in `SpanBasis`'s one sense of
        independence: the span of the whole basis (`span`) must accept, in
        each degree, as many members as that degree's own span. A member
        absorbed by the members of other degrees is refused, so the accepted
        members of each degree span its component. Products go by stacks."""
        spans = {g: SpanBasis() for g in self.group.elements}
        for g, ms in self.components.items():
            spans[g].extend(ms)
        _, accepted = self.span
        per_degree = Counter(self.degrees[i] for i in accepted)
        if any(per_degree[g] != len(spans[g].members) for g in self.components):
            raise NotDirectSum("components are not in direct sum")
        stacks = {g: np.array(ms) for g, ms in self.components.items()}
        for (g, ms), (h, ns) in itertools.product(stacks.items(), repeat=2):
            gh, products = self.group.mul(g, h), ms[:, None] @ ns[None]
            if not spans[gh].contains_each(products.reshape(-1, *ms.shape[1:])).all():
                raise GradingInvalid(f"A_{g}·A_{h} escapes A_{gh}")

    @cached_property
    def span(self) -> tuple[SpanBasis, list]:
        """(span, accepted): a span basis of the algebra grown from the graded
        basis, and the positions in `basis` of the members it accepted. The
        span is the algebra: validation showed it closed under products, and
        that the accepted members of each degree span that component."""
        span = SpanBasis()
        return span, span.accept(self.basis)

    def unit(self) -> np.ndarray | None:
        """The algebra unit if the span contains one acting neutrally on the basis."""
        span, _ = self.span
        side = np.concatenate(self.basis, axis=1)
        vals, vecs = np.linalg.eigh(side @ side.conj().T)
        keep = vecs[:, vals > 1e-9 * max(1.0, vals[-1])]
        u = keep @ keep.conj().T
        stack = np.array(self.basis)
        fixed = np.allclose(u @ stack, stack) and np.allclose(stack @ u, stack)
        return u if span.contains(u) and fixed else None


class Coaction:
    """δ(a) = Σ_g a_g ⊗ u_g with u_g realized as λ_g (full = reduced for finite G).

    `images[i]` = basis[i]⊗λ_{degrees[i]} is δ of the i-th graded basis element,
    one stack; δ of any other element extends these linearly through its
    coordinates in `GradedAlgebra.span`. Those coordinates are unique, and
    validation showed that the accepted members of each degree span that
    component, so the extension is Σ_g m_g⊗λ_g.
    """

    def __init__(self, graded: GradedAlgebra):
        self.graded = graded
        self.group = G = graded.group
        self.images = _kron(np.array(graded.basis), G.lams[[G.index[g] for g in graded.degrees]])
        self._span, accepted = graded.span
        self._span_images = self.images[accepted]

    def delta(self, m) -> np.ndarray:
        """δ(m), of one matrix or along the first axis of a stack."""
        try:
            coords = self._span.coordinates(m)
        except ValueError:
            raise GradingInvalid("element outside the algebra") from None
        return np.tensordot(coords, self._span_images, 1)

    def fourier(self, m, g) -> np.ndarray:
        """𝔼_g(m): the degree-g component read back from δ(m) by trace contraction."""
        n, d = len(self.group), self.graded.ambient_dim
        dm4 = self.delta(m).reshape(d, n, d, n)
        return np.einsum("ipjq,pq->ij", dm4, self.group.lam(g).conj()) / n

    def normality_verdict(self, levels=None, samples=25, tol=1e-9, seed=0):
        """Is a ↦ δ(a) completely isometric, up to `levels` (default 3)?

        `levels` below 1 raise `ValueError` first. When the grading is spatial
        (`spatial_labeling`), δ = Ad W ∘ (·⊗1) keeps every norm at every
        level: the verdict is certified with deviation 0, no samples and the
        labeling φ as its certificate. Otherwise `is_boundary_ideal` on
        `normality_cover`, with no dense matrices."""
        levels = 3 if levels is None else levels
        if levels < 1:
            raise ValueError(f"a normality search needs levels >= 1, got {levels}")
        if self.spatial_certificate is not None:
            return IsometryVerdict(True, 0.0, levels, 0, 0, tol,
                                   certificate=self.spatial_certificate)
        return is_boundary_ideal(self.images, *self.normality_cover(), levels=levels,
                                 samples=samples, tol=tol, seed=seed)

    def spatial_labeling(self):
        """Positions φ(i) in the group, one per ambient coordinate, with
        φ(i) = g·φ(j) at every nonzero entry (i, j) of every degree-g basis
        element; None when the entries conflict.

        Breadth-first over the nonzero pattern, from φ = e at the first
        unlabeled coordinate of each connected piece: an entry (i, j) of
        degree g sets φ(j) = g⁻¹·φ(i) from i and φ(i) = g·φ(j) from j, by
        table lookups only."""
        G, d = self.group, self.graded.ambient_dim
        links = [[] for _ in range(d)]
        for b, g in zip(self.graded.basis, self.graded.degrees):
            k = G.index[g]
            for i, j in zip(*np.nonzero(b)):
                links[i].append((j, G.inv_index[k]))
                links[j].append((i, k))
        phi = [None] * d
        for root in range(d):
            if phi[root] is not None:
                continue
            phi[root] = G.index[G.identity]
            queue = deque([root])
            while queue:
                i = queue.popleft()
                for j, g in links[i]:
                    label = G.mul_index[g, phi[i]]
                    if phi[j] is None:
                        phi[j] = label
                        queue.append(j)
                    elif phi[j] != label:
                        return None
        return np.array(phi, dtype=np.intp)

    @cached_property
    def spatial_certificate(self) -> tuple | None:
        """φ as a tuple of group elements, one per ambient coordinate, when
        `spatial_labeling` finds one and W(a⊗1)W*, a gather with W the
        permutation unitary Σᵢ eᵢᵢ⊗λ_{φ(i)}, equals each stored image
        exactly; else None."""
        phi = self.spatial_labeling()
        if phi is None:
            return None
        n = len(self.group)
        w = (np.arange(len(phi))[:, None] * n + self.group.lam_perms[phi]).ravel()
        conjugates = perm.conjugate(_kron(np.array(self.graded.basis), np.eye(n)), w)
        if not np.array_equal(conjugates, self.images):
            return None
        return tuple(self.group.elements[i] for i in phi)

    def normality_cover(self):
        """(cover, mask) on which normality is a boundary-ideal question.

        C*(G) = span{λ_g} splits by `block_decompose` into blocks W_π, so
        1_d⊗W_π covers M_d⊗C*(G) ∋ δ(a). The trivial character's block reads
        a⊗λ_g as a; masking every other block leaves ‖Σ c⊗a‖ against
        ‖Σ c⊗δ(a)‖, exactly the dense comparison of the pairs (a, δ(a))."""
        lam = [self.group.lam(g) for g in self.group.elements]
        regular = block_decompose(AlgebraSpan(lam, selfadjoint=True))
        trivial = next(k for k, n in enumerate(regular.block_sizes)
                       if n == 1 and all(np.allclose(regular.coords(u)[k], 1) for u in lam))
        eye = np.eye(self.graded.ambient_dim)
        cover = FinDimCStar([len(eye) * n for n in regular.block_sizes],
                            [np.kron(eye, w) for w in regular.isometries])
        return cover, frozenset(range(len(regular.block_sizes))) - {trivial}

    @cached_property
    def crossed_product(self) -> CrossedProduct:
        return CrossedProduct(self)

    @cached_property
    def double_crossed_product(self) -> DoubleCrossedProduct:
        return DoubleCrossedProduct(self)


def coaction_from_grading(graded: GradedAlgebra) -> Coaction:
    """The coaction δ(a_g) = a_g⊗λ_g of a validated grading.

    `GradedAlgebra.validate` has checked that the components are in direct
    sum and that A_g·A_h ⊆ A_gh; the coaction axioms follow from these:

    - homomorphism: δ(a_g)δ(b_h) = a_g b_h⊗λ_gh. By validation a_g b_h lies
      in A_gh, and the components are in direct sum, so its only component
      is of degree gh and δ(a_g b_h) = a_g b_h⊗λ_gh;
    - coaction identity: (δ⊗id)δ(a_g) = a_g⊗λ_g⊗λ_g = (id⊗Δ)δ(a_g);
    - nondegeneracy: δ(a_g)(1⊗λ_{g⁻¹h}) = a_g⊗λ_h, and these span A⊗C*(G).

    The direct sum and the containment A_g·A_h ⊆ A_gh are both read from
    `SpanBasis`, whose test is atol 1e-8 and rtol 1e-5 on the projection
    residual; δ reads its coordinates from a span basis of the same kind, so
    δ is multiplicative to that tolerance. The reference axiom checker in
    `tests/oracles.py`, for graded and planted maps, compares δ(ab) with
    δ(a)δ(b) on that same residual at atol 1e-9.
    """
    return Coaction(graded)


# -- crossed products and duality -------------------------------------------------


def _kron(xs, ys):
    """np.kron on the last two axes of two broadcasting stacks."""
    (a, b), (c, d) = xs.shape[-2:], ys.shape[-2:]
    out = xs[..., :, None, :, None] * ys[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a * c, b * d))


class CrossedProduct:
    """A ⋊_δ G on H⊗ℓ²(G), generated by δ_λ(a)·(I⊗M_f).

    `generators[k·n + f]` is δ_λ(a_k) with the columns off the ℓ²(G) leg f
    cleared, which is its product with the diagonal I⊗M_f. The dual action
    δ̂_g = Ad(I⊗ρ_g) is a gather by `rho_perms[g]`. Its dimension is n·dim A
    (`dim`): δ_λ(a)(I⊗M_f) = a⊗E_{df,f} for a of degree d, and ⊕_{d,f}
    A_d⊗E_{df,f} is closed under products. `span` is built only when read.
    """

    def __init__(self, delta: Coaction):
        self.delta = delta
        self.group = delta.group
        self.h_dim = delta.graded.ambient_dim
        n = len(self.group)
        leg = np.tile(np.arange(n), self.h_dim)
        masks = leg == np.arange(n)[:, None]
        self.generators = (delta.images[:, None] * masks[:, None, :]).reshape(-1, len(leg), len(leg))
        self.rho_perms = perm.lift(self.group.rho_perms, self.h_dim)
        self.dim = n * len(delta.graded.span[1])

    @cached_property
    def span(self) -> AlgebraSpan:
        return AlgebraSpan(self.generators, selfadjoint=False)

    def dual_action_formula_check(self) -> bool:
        """δ̂_g(δ_λ(a) j(f)) = δ_λ(a) j(σ_g f) with σ_g(f)(h) = f(hg)."""
        G, gens = self.group, self.generators
        k, f = np.divmod(np.arange(len(gens)), len(G))
        return all(np.array_equal(perm.conjugate(gens, rho),
                                  gens[k * len(G) + G.mul_index[f, G.inv_index[g]]])
                   for g, rho in enumerate(self.rho_perms))

    def dual_action_group_law_check(self) -> bool:
        moved = [perm.conjugate(self.generators, rho) for rho in self.rho_perms]
        return all(np.array_equal(perm.conjugate(moved[h], self.rho_perms[g]),
                                  moved[self.group.mul_index[g, h]])
                   for g, h in np.ndindex(self.group.mul_index.shape))


class DoubleCrossedProduct:
    """A ⋊_δ G ⋊^r G on H⊗ℓ²(G)⊗ℓ²(G) with the duality unitaries.

    The unitaries are index arrays: `u_perm` for U e_p⊗e_q = e_p⊗e_{pq},
    `v_perm` for V = I⊗US and `g_perms[g]` for k_G(g) = I⊗I⊗λ_g;
    k_{c₀}(δ_f) is the diagonal `c0_masks[f]`, (p, q) ↦ [p = f·q]. A
    generator k_A(a) k_{c₀}(δ_f) k_G(g) is (δ_λ(a)⊗I)·P with P =
    k_{c₀}(δ_f) k_G(g) a partial permutation, and δ̂̂ and δ̃ conjugate by
    I⊗I⊗U, which leaves δ_λ(a) alone: their checks run on index arrays of P
    and of the group legs, and no matrix of side d·n³ is built.
    """

    def __init__(self, delta: Coaction):
        self.delta = delta
        self.group = G = delta.group
        self.h_dim = d = delta.graded.ambient_dim
        self.n = n = len(G)
        mul, inv = G.mul_index, G.inv_index
        p, q = np.divmod(np.arange(n * n), n)
        self.u_perm = p * n + mul[p, q]
        self.v_perm = perm.lift(p * n + mul[p, inv[q]], d)  # US e_p⊗e_q = e_p⊗e_{pq⁻¹}
        self.c0_masks = np.tile(mul[p, inv[q]], d) == np.arange(n)[:, None]
        self.g_perms = perm.lift(G.lam_perms, d * n)
        self.images = delta.images  # δ_λ(a_k)
        self.degrees = np.array([G.index[g] for g in delta.graded.degrees], dtype=np.intp)

    def generator_legs(self) -> np.ndarray:
        """P = k_{c₀}(δ_f) k_G(g) at [f, g], the index arrays with which the
        generators are k_A(a)·P."""
        c0 = np.where(self.c0_masks, np.arange(self.c0_masks.shape[1]), -1)
        return np.array([perm.product(c, self.g_perms) for c in c0])

    def double_dual_legs(self, ps) -> np.ndarray:
        """Ad(I⊗I⊗U)(P⊗1) for a stack of P: δ̂̂((δ_λ(a)⊗I)·P) is δ_λ(a)⊗I⊗I
        times it, for I⊗I⊗U commutes with δ_λ(a)⊗I⊗I."""
        big_u = perm.lift(self.u_perm, self.h_dim * self.n)
        return perm.product(big_u, perm.kron(ps, np.arange(self.n))[..., perm.adjoint(big_u)])

    def tilde_delta_legs(self, xs) -> np.ndarray:
        """U*XU for a stack of index arrays X on the group legs: δ̃(δ_λ(a)⊗C)
        is δ_λ(a)⊗U*(C⊗λ_{deg a})U, for δ̃ = Ad(I⊗I⊗U)* acts on those legs only."""
        return perm.product(perm.adjoint(self.u_perm), xs[..., self.u_perm])

    def double_dual_formula_check(self) -> bool:
        """δ̂̂(x) = x⊗λ_g on every generator x = (δ_λ(a)⊗I)·P, P = k_{c₀}(δ_f) k_G(g).

        By `double_dual_legs`, Ad(I⊗I⊗U)(P⊗1) = P⊗λ_g, compared on index
        arrays of d·n³ points for every (f, g), implies the formula for
        every a. It is sufficient, not necessary: a U that moved only
        columns δ_λ(a)⊗I⊗I kills would fail here and not in the formula."""
        ps = self.generator_legs()
        return np.array_equal(self.double_dual_legs(ps),
                              perm.kron(ps, self.group.lam_perms[None]))


@dataclass
class KatayamaReport:
    identity_i: bool
    identity_ii: bool
    identity_iii: bool
    span_equality: bool
    image_dim: int
    conjugation_match: bool  # certifies δ̂̂ only with double_dual_formula_check
    pe_invariance: bool

    @property
    def failed(self) -> list:
        """The names of the checks that fail, in field order."""
        return [f.name for f in fields(self)
                if f.type == "bool" and not getattr(self, f.name)]


def katayama_verify(delta: Coaction) -> KatayamaReport:
    """Katayama duality through Ψ = Ad(V): the conjugation identities
    (i) Ψ(k_A(a)) = δ_λ(a)⊗λ_{deg a}, (ii) Ψ(k_{c₀}(δ_f)) = I⊗M_f and
    (iii) Ψ(k_G(g)) = I⊗ρ_g, the span equality Ψ(A ⋊ G ⋊ G) = δ_λ(A)⊗𝕂,
    (Ψ⊗id)∘δ̂̂ = δ̃∘Ψ on generators and the invariance of δ_λ(A)⊗P_e under δ̃.

    (i) is decided on the group legs. k_A(a) = δ_λ(a)⊗1 = a⊗λ_d⊗1 with
    d = deg a, and V = I⊗US exactly when its index array is `lift` of its
    first n² entries. Then Ψ(k_A(a)) = a⊗US(λ_d⊗1)(US)*, and for a ≠ 0,
    a⊗X = a⊗Y exactly when X = Y: (i) holds exactly when
    US(λ_d⊗1)(US)* = λ_d⊗λ_d, a gather on n² points for each degree d of a
    nonzero a_k (a zero a_k satisfies (i) trivially). A V not of the form
    I⊗US fails (i) here; the library builds V in that form.

    Ψ is multiplicative, so (i)–(iii) give Ψ(k_A(a_k) k_{c₀}(δ_f) k_G(g)) =
    δ_λ(a_k)⊗λ_d M_f ρ_g = δ_λ(a_k)⊗E_{df,fg}, d = deg a_k. As (f, g) runs
    over G×G, (df, fg) runs over every matrix unit, so the span equality holds
    exactly when (i)–(iii) do; the image has dimension n²·dim A, dim A read
    from `GradedAlgebra.span` as for the crossed product. δ̃ acts by I⊗I⊗U
    on the last two legs only, so δ̃(δ_λ(a_k)⊗C) = δ_λ(a_k)⊗U*(C⊗λ_d)U, and
    (Ψ⊗id)δ̂̂(x) is taken as Ψ(x)⊗λ_g, which the match certifies only where
    `double_dual_formula_check` passes. With (p, q) = (df, fg), the match
    holds exactly when (i)–(iii) do and U*(E_pq⊗λ_d)U = E_pq⊗λ_{p⁻¹dq} for
    every degree d of a nonzero a_k and every (p, q): a gather on n² points
    each. δ_λ(a_k)⊗P_e is invariant exactly when the cell (p, q) = (e, e) of
    that table holds. Every side moves graded-basis entries or multiplies
    them by 0 or 1, so each identity is compared exactly.
    """
    dcp = delta.double_crossed_product
    G, n, v = delta.group, dcp.n, dcp.v_perm
    das = dcp.images
    degrees = np.unique(dcp.degrees[das.any(axis=(1, 2))])
    us, lams = v[:n * n], G.lam_perms[degrees]
    ok_i = np.array_equal(v, perm.lift(us, dcp.h_dim)) and np.array_equal(
        perm.product(us, perm.kron(lams, np.arange(n))[:, perm.adjoint(us)]),
        perm.kron(lams, lams))
    v_star = perm.adjoint(v)
    last_leg = np.tile(np.arange(n), dcp.h_dim * n)
    ok_ii = np.array_equal(dcp.c0_masks[:, v_star], last_leg == np.arange(n)[:, None])
    ok_iii = np.array_equal(perm.product(v, dcp.g_perms[:, v_star]),
                            perm.lift(G.rho_perms, dcp.h_dim * n))
    span_ok = ok_i and ok_ii and ok_iii
    image_dim = n * n * len(delta.graded.span[1])

    mul, inv = G.mul_index, G.inv_index
    d, p, q = np.ix_(degrees, range(n), range(n))
    units = np.where(np.arange(n) == q[..., None], p[..., None], -1)  # E_pq
    table = (dcp.tilde_delta_legs(perm.kron(units, G.lam_perms[d]))
             == perm.kron(units, G.lam_perms[mul[mul[inv[p], d], q]])).all(axis=-1)
    conj_ok = span_ok and bool(table.all())
    e = G.index[G.identity]
    pe_ok = bool(table[:, e, e].all())

    return KatayamaReport(ok_i, ok_ii, ok_iii, span_ok, image_dim, conj_ok, pe_ok)


# -- extension of the coaction to a computed envelope -----------------------------


def extend_grading(graded: GradedAlgebra, env_basis, kappa):
    """Search a grading of the envelope extending the image grading of A.

    Degree-g span = closed span of monomials in κ(A_h) and adjoints with total
    degree g. The extension exists exactly when these spans fill the envelope
    and are in direct sum, in `GradedAlgebra.validate`'s sense; otherwise
    NoExtensionFound. The fill test compares `SpanBasis` counts, the
    envelope's of `env_basis` unclosed: κ of a *-algebra's basis, κ a
    *-homomorphism, spans a closed space. Semi-naive closure by rounds: the
    last round's new members m times the generators g, all m·g then all g·m
    in the order (m, g), one `SpanBasis.extend` per target degree and side,
    meet each span in the per-product order; of one m, the generators of
    one degree reach a given target, so their order across degrees is free.
    It stops when no span grows."""
    G = graded.group
    degree_spans = {g: SpanBasis() for g in G.elements}
    images = [np.asarray(kappa(a), dtype=complex) for a in graded.basis]
    new = _extend_by_degree(degree_spans, [d for g in graded.degrees for d in (g, G.inv(g))],
                            [m for img in images for m in (img, img.conj().T)])
    gen_degrees, gen_stack = [h for h, _ in new], np.array([m for _, m in new])
    while new:
        degrees, stack = [g for g, _ in new], np.array([m for _, m in new])[:, None]
        new = _extend_by_degree(degree_spans, [G.mul(g, h) for g in degrees for h in gen_degrees],
                                stack @ gen_stack) \
            + _extend_by_degree(degree_spans, [G.mul(h, g) for g in degrees for h in gen_degrees],
                                gen_stack @ stack)
    spans = {g: span.members for g, span in degree_spans.items()}
    flat = [m for g in G.elements for m in spans[g]]
    if len(SpanBasis().accept(flat)) != len(SpanBasis().accept(env_basis)):
        raise NoExtensionFound("monomial spans do not fill the envelope")
    try:
        return GradedAlgebra(G, {g: spans[g] for g in G.elements if spans[g]})
    except NotDirectSum:
        raise NoExtensionFound("degree spans are not in direct sum; no extension") from None


def _extend_by_degree(spans, degrees, stack) -> list:
    """Extend spans[t], for each degree t in `degrees`, by the matrices of
    `stack` (flattened to one axis) of degree t, in one `SpanBasis.extend`
    per degree; the accepted (degree, matrix) pairs, in stack order."""
    stack, accepted = np.reshape(stack, (len(degrees),) + np.shape(stack)[-2:]), []
    for t in dict.fromkeys(degrees):
        rows = [i for i, d in enumerate(degrees) if d == t]
        accepted += [rows[k] for k in spans[t].accept(stack[rows])]
    return [(degrees[i], stack[i]) for i in sorted(accepted)]


def equivariance_check(graded: GradedAlgebra, env_delta: Coaction, kappa,
                       tol=1e-9) -> bool:
    """δ_env(κ(a)) = (κ⊗id)(δ(a)) on the graded basis of A, as one stack."""
    G, images = graded.group, np.array([np.asarray(kappa(a), dtype=complex) for a in graded.basis])
    lams = G.lams[[G.index[g] for g in graded.degrees]]
    return bool(np.allclose(env_delta.delta(images), _kron(images, lams), atol=tol))


def approx_identity_checks(delta: Coaction) -> dict:
    """The degree-e part of the unit is again a unit; the crossed product's net
    δ_λ(1)j(χ_G) acts as a two-sided identity on generators."""
    out = {}
    unit = delta.graded.unit()
    out["unital"] = unit is not None
    if unit is None:
        return out
    ee = delta.fourier(unit, delta.group.identity)
    basis = np.array(delta.graded.basis)
    out["fourier_unit_is_unit"] = bool(
        np.allclose(ee @ basis, basis, atol=1e-9) and np.allclose(basis @ ee, basis, atol=1e-9))
    gens = delta.crossed_product.generators
    cai = delta.delta(unit)  # j(χ_G) = I
    out["crossed_product_identity"] = bool(
        np.allclose(cai @ gens, gens, atol=1e-9) and np.allclose(gens @ cai, gens, atol=1e-9))
    return out
