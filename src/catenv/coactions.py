"""Finite-group coactions on finite-dimensional operator algebras.

The group algebra is represented on ℓ²(G) via the left regular representation
(full = reduced for finite groups), so a coaction is the same thing as a grading
and every identity below is a concrete matrix identity. The duality data (U, S,
V = I⊗US) and the double crossed product follow the explicit unitary picture.
δ is one linear map: its images a⊗λ_g on the graded basis are stored once, in
closed form, and any other element goes through its span-engine coordinates.
`verify_coaction_axioms` is the one axiom checker, for graded and planted maps
alike. A double crossed product keeps one span basis over δ_λ(aᵢ)⊗E_pq, from
which every δ̃ takes its coefficients. A coaction builds each of its crossed
products once, for every check that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envelope import SpannedStarMap
from .gpd import group_as_groupoid
from .matrixrep import AlgebraSpan, SpanBasis, complete_isometry_check, matrix_rank


class GradingInvalid(ValueError):
    pass


class NoExtensionFound(RuntimeError):
    pass


class FiniteGroup:
    """A finite group with its left and right regular matrices on ℓ²(G)."""

    def __init__(self, elements, mul_table, identity):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.table = dict(mul_table)
        self.identity = identity
        # the groupoid axioms on one unit; a GroupoidError is a ValueError
        self.inverse = group_as_groupoid(self.elements, self.table, identity).inverse
        n = len(self.elements)
        self._lam = {}
        self._rho = {}
        for g in self.elements:
            L = np.zeros((n, n), dtype=complex)
            R = np.zeros((n, n), dtype=complex)
            for h in self.elements:
                L[self.index[self.mul(g, h)], self.index[h]] = 1.0
                R[self.index[self.mul(h, self.inverse[g])], self.index[h]] = 1.0
            self._lam[g] = L
            self._rho[g] = R

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
        return self._lam[g]

    def rho(self, g) -> np.ndarray:
        """Right regular representation: ρ_g e_h = e_{hg⁻¹} (a homomorphism)."""
        return self._rho[g]

    def point_mass(self, g) -> np.ndarray:
        n = len(self.elements)
        out = np.zeros((n, n), dtype=complex)
        out[self.index[g], self.index[g]] = 1.0
        return out

    def __len__(self):
        return len(self.elements)

    def commutation_check(self) -> bool:
        return all(np.allclose(self.lam(g) @ self.rho(h), self.rho(h) @ self.lam(g))
                   for g in self.elements for h in self.elements)

    def fell_absorption_check(self) -> bool:
        """λ_g ↦ λ_g⊗λ_g is multiplicative with independent images."""
        images = []
        for g in self.elements:
            images.append(np.kron(self.lam(g), self.lam(g)))
        for g in self.elements:
            for h in self.elements:
                lhs = np.kron(self.lam(g), self.lam(g)) @ np.kron(self.lam(h), self.lam(h))
                rhs = np.kron(self.lam(self.mul(g, h)), self.lam(self.mul(g, h)))
                if not np.allclose(lhs, rhs):
                    return False
        return matrix_rank(images) == len(self.elements)


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
        comp_dims = {g: matrix_rank(ms) for g, ms in self.components.items()}
        total = matrix_rank(self.basis)
        if sum(comp_dims.values()) != total:
            raise GradingInvalid("components are not in direct sum")
        spans = {g: SpanBasis() for g in self.group.elements}
        for g, ms in self.components.items():
            spans[g].extend(ms)
        for g, ms in self.components.items():
            for h, ns in self.components.items():
                tgt = spans[self.group.mul(g, h)]
                for a in ms:
                    for b in ns:
                        if not tgt.contains(a @ b):
                            raise GradingInvalid(
                                f"A_{g}·A_{h} escapes A_{self.group.mul(g, h)}")

    def unit(self) -> np.ndarray | None:
        """The algebra unit if the span contains one acting neutrally on the basis."""
        span = AlgebraSpan(self.basis, selfadjoint=False)
        candidate = sum(b @ b.conj().T for b in self.basis)
        vals, vecs = np.linalg.eigh(candidate)
        keep = vecs[:, vals > 1e-9 * max(1.0, vals[-1])]
        u = keep @ keep.conj().T
        if span.contains(u) and all(np.allclose(u @ b, b) and np.allclose(b @ u, b)
                                    for b in self.basis):
            return u
        return None


class Coaction:
    """δ(a) = Σ_g a_g ⊗ u_g with u_g realized as λ_g (full = reduced for finite G).

    `images[i]` = basis[i]⊗λ_{degrees[i]} is δ of the i-th graded basis element;
    δ of any other element extends these linearly through its coordinates.
    """

    def __init__(self, graded: GradedAlgebra):
        self.graded = graded
        self.group = graded.group
        self.images = [np.kron(a, self.group.lam(g))
                       for a, g in zip(graded.basis, graded.degrees)]
        self._map = SpannedStarMap(list(zip(graded.basis, self.images)))

    def delta(self, m) -> np.ndarray:
        try:
            return self._map.apply(m)
        except ValueError:
            raise GradingInvalid("element outside the algebra") from None

    def fourier(self, m, g) -> np.ndarray:
        """𝔼_g(m): the degree-g component read back from δ(m) by trace contraction."""
        n = len(self.group)
        dm = self.delta(m)
        d = self.graded.ambient_dim
        dm4 = dm.reshape(d, n, d, n)
        lam_g = self.group.lam(g)
        comp = np.einsum("ipjq,pq->ij", dm4, lam_g.conj()) / n
        return comp

    def spectral_subspace_dims_from_reduction(self) -> dict:
        """Solve {a : δ_λ(a) = a⊗λ_g} inside the algebra span, per g."""
        span = self.graded.basis
        return {g: len(span) - matrix_rank([da - np.kron(a, self.group.lam(g))
                                            for a, da in zip(span, self.images)])
                for g in self.group.elements}

    def normality_verdict(self, levels=None, samples=25, seed=0):
        pairs = list(zip(self.graded.basis, self.images))
        return complete_isometry_check(pairs, levels=levels or 3,
                                       samples=samples, seed=seed)

    @cached_property
    def crossed_product(self) -> CrossedProduct:
        return CrossedProduct(self)

    @cached_property
    def double_crossed_product(self) -> DoubleCrossedProduct:
        return DoubleCrossedProduct(self)


def verify_coaction_axioms(basis, images, group: FiniteGroup, tol=1e-9) -> dict:
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


def _nondegenerate(basis, images, group: FiniteGroup) -> bool:
    """span δ(A)(I⊗C*(G)) = A⊗C*(G) for the map δ(basis[i]) = images[i]."""
    eye = np.eye(basis[0].shape[0])
    prods = [da @ np.kron(eye, group.lam(h)) for da in images for h in group.elements]
    target = [np.kron(a, group.lam(h)) for a in basis for h in group.elements]
    return matrix_rank(prods) == matrix_rank(target)


_AXIOM_FAILURES = (("homomorphism", "δ is not multiplicative"),
                   ("coaction_identity", "coaction identity fails"),
                   ("nondegenerate", "coaction is degenerate"))


def coaction_from_grading(graded: GradedAlgebra) -> Coaction:
    """Build the coaction attached to a grading and verify its axioms."""
    delta = Coaction(graded)
    axioms = verify_coaction_axioms(graded.basis, delta.images, graded.group)
    for axiom, message in _AXIOM_FAILURES:
        if not axioms[axiom]:
            raise GradingInvalid(message)
    return delta


# -- crossed products and duality -------------------------------------------------


class CrossedProduct:
    """A ⋊_δ G on H⊗ℓ²(G), generated by δ_λ(a)·(I⊗M_f)."""

    def __init__(self, delta: Coaction):
        self.delta = delta
        self.group = delta.group
        self.h_dim = delta.graded.ambient_dim
        eye = np.eye(self.h_dim)
        self.generators = []
        self.generator_tags = []
        for da, g in zip(delta.images, delta.graded.degrees):
            for f in self.group.elements:
                mat = da @ np.kron(eye, self.group.point_mass(f))
                self.generators.append(mat)
                self.generator_tags.append((da, g, f))
        self.span = AlgebraSpan(self.generators, selfadjoint=False)

    def dual_action(self, g, x) -> np.ndarray:
        """δ̂_g = Ad(I⊗ρ_g)."""
        u = np.kron(np.eye(self.h_dim), self.group.rho(g))
        return u @ x @ u.conj().T

    def dual_action_formula_check(self) -> bool:
        """δ̂_g(δ_λ(a) j(f)) = δ_λ(a) j(σ_g f) with σ_g(f)(h) = f(hg)."""
        eye = np.eye(self.h_dim)
        for (da, dg, f), mat in zip(self.generator_tags, self.generators):
            for g in self.group.elements:
                shifted = self.group.point_mass(self.group.mul(f, self.group.inv(g)))
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


class DoubleCrossedProduct:
    """A ⋊_δ G ⋊^r G on H⊗ℓ²(G)⊗ℓ²(G) with the duality unitaries."""

    def __init__(self, delta: Coaction):
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

    @cached_property
    def kron_basis(self):
        """(span, accepted): a span basis of δ_λ(A)⊗𝕂 grown from the
        B_kr = δ_λ(a_k)⊗E_r, a_k running over the graded basis and E_r over the
        n² matrix units E_pq of G×G, and the positions k·n² + r of the B_kr
        it accepted."""
        units = np.eye(self.n * self.n).reshape(-1, self.n, self.n)
        span, accepted = SpanBasis(), []
        for k, da in enumerate(self.delta.images):
            for r, e_pq in enumerate(units):
                if span.add(np.kron(da, e_pq)):
                    accepted.append(k * len(units) + r)
        return span, np.array(accepted, dtype=np.intp)

    def k_c0(self, f_point) -> np.ndarray:
        """k_{c₀(G)}(δ_k): diagonal (p, q) ↦ [p = k·q] on the two group legs."""
        n = self.n
        idx = self.group.index
        diag = np.zeros((n * n, n * n), dtype=complex)
        for p in self.group.elements:
            for q in self.group.elements:
                if self.group.mul(p, self.group.inv(q)) == f_point:
                    diag[idx[p] * n + idx[q], idx[p] * n + idx[q]] = 1.0
        return np.kron(np.eye(self.h_dim), diag)

    def k_G(self, g) -> np.ndarray:
        return np.kron(np.eye(self.h_dim * self.n), self.group.lam(g))

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

    def double_dual_formula_check(self) -> bool:
        """δ̂̂(k_A k_{c₀} k_G(g)) = (same) ⊗ λ_g."""
        for (a, dg, f, g), mat in self.generators():
            rhs = np.kron(mat, self.group.lam(g))
            if not np.allclose(self.double_dual(mat), rhs, atol=1e-9):
                return False
        return True


@dataclass
class KatayamaReport:
    identity_i: bool
    identity_ii: bool
    identity_iii: bool
    span_equality: bool
    image_dim: int
    conjugation_match: bool
    pe_invariance: bool

    @property
    def all_ok(self):
        return all([self.identity_i, self.identity_ii, self.identity_iii,
                    self.span_equality, self.conjugation_match, self.pe_invariance])


def katayama_verify(delta: Coaction, tol=1e-12) -> KatayamaReport:
    dcp = delta.double_crossed_product
    G = delta.group
    n = len(G)
    V = dcp.data.V

    def ad_v(x):
        return V @ x @ V.conj().T

    ok_i = all(np.allclose(ad_v(np.kron(da, np.eye(n))), np.kron(da, G.lam(g)), atol=tol)
               for da, g in zip(delta.images, delta.graded.degrees))
    ok_ii = all(np.allclose(ad_v(dcp.k_c0(f)),
                            np.kron(np.eye(dcp.h_dim * n), G.point_mass(f)), atol=tol)
                for f in G.elements)
    ok_iii = all(np.allclose(ad_v(dcp.k_G(g)),
                             np.kron(np.eye(dcp.h_dim * n), G.rho(g)), atol=tol)
                 for g in G.elements)

    # span equality Ad(V)(double crossed product) = δ_λ(A) ⊗ 𝕂
    generators = [m for _, m in dcp.generators()]
    images = [ad_v(m) for m in generators]
    target = dcp.kron_basis[0].members
    ri, rt = matrix_rank(images), matrix_rank(target)
    rj = matrix_rank(images + target)
    span_ok = ri == rt == rj
    image_dim = ri

    # conjugation: (Ψ⊗id)∘δ̂̂ = δ̃∘Ψ on generators, with δ̃ the explicit formula
    v_n = np.kron(V, np.eye(n))
    conj_ok = all(np.allclose(v_n @ dcp.double_dual(mat) @ v_n.conj().T,
                              _tilde_delta(dcp, image, delta), atol=tol)
                  for mat, image in zip(generators, images))

    # invariance of δ_λ(A)⊗P_e under δ̃
    pe = G.point_mass(G.identity)
    ys = [(np.kron(da, pe), g) for da, g in zip(delta.images, delta.graded.degrees)]
    pe_ok = all(np.allclose(_tilde_delta(dcp, y, delta), np.kron(y, G.lam(g)), atol=tol)
                for y, g in ys)

    return KatayamaReport(ok_i, ok_ii, ok_iii, span_ok, image_dim, conj_ok, pe_ok)


def _tilde_delta(dcp: DoubleCrossedProduct, y, delta: Coaction):
    """δ̃(δ_λ(a)⊗K) = (I⊗I⊗U)*(δ_λ(a)⊗K⊗λ_g)(I⊗I⊗U), extended linearly.

    Takes y's coordinates in the span basis δ_λ(a_k)⊗E_pq with a_k graded
    (ValueError if y is outside δ_λ(A)⊗𝕂) as one n×n block C_k per a_k, so that
    y = Σ_k δ_λ(a_k)⊗C_k; the middle term is Σ_k δ_λ(a_k)⊗C_k⊗λ_{deg a_k}.
    """
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


# -- extension of the coaction to a computed envelope -----------------------------


def extend_grading(graded: GradedAlgebra, env_basis, kappa):
    """Search a grading of the envelope extending the image grading of A.

    Degree-g span = closed span of monomials in κ(A_h) and adjoints with total
    degree g. The extension exists exactly when these spans are in direct sum and
    fill the envelope; otherwise NoExtensionFound. Semi-naive closure: each round
    multiplies only the previous round's new members by the generators, on the
    right and then on the left; it stops when no span grows, which their
    dimensions bound.
    """
    G = graded.group
    env_span = AlgebraSpan([np.asarray(b, dtype=complex) for b in env_basis],
                           selfadjoint=True)
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
    spans = {g: span.members for g, span in degree_spans.items()}
    total = sum(matrix_rank(spans[g]) for g in G.elements)
    flat = [m for g in G.elements for m in spans[g]]
    if matrix_rank(flat) != env_span.dim:
        raise NoExtensionFound("monomial spans do not fill the envelope")
    if total != env_span.dim:
        raise NoExtensionFound("degree spans are not in direct sum; no extension")
    env_graded = GradedAlgebra(G, {g: spans[g] for g in G.elements if spans[g]})
    return env_graded


def equivariance_check(graded: GradedAlgebra, env_delta: Coaction, kappa,
                       tol=1e-9) -> bool:
    """δ_env(κ(a)) = (κ⊗id)(δ(a)) on the graded basis of A."""
    G = graded.group
    for a, g in zip(graded.basis, graded.degrees):
        lhs = env_delta.delta(np.asarray(kappa(a), dtype=complex))
        rhs = np.kron(np.asarray(kappa(a), dtype=complex), G.lam(g))
        if not np.allclose(lhs, rhs, atol=tol):
            return False
    return True


def approx_identity_checks(delta: Coaction) -> dict:
    """The degree-e part of the unit is again a unit; the crossed product's net
    δ_λ(1)j(χ_G) acts as a two-sided identity on generators."""
    out = {}
    unit = delta.graded.unit()
    out["unital"] = unit is not None
    if unit is None:
        return out
    ee = delta.fourier(unit, delta.group.identity)
    out["fourier_unit_is_unit"] = all(
        np.allclose(ee @ b, b, atol=1e-9) and np.allclose(b @ ee, b, atol=1e-9)
        for b in delta.graded.basis)
    cp = delta.crossed_product
    chi_g = sum(delta.group.point_mass(f) for f in delta.group.elements)
    cai = delta.delta(unit) @ np.kron(np.eye(delta.graded.ambient_dim), chi_g)
    out["crossed_product_identity"] = all(
        np.allclose(cai @ m, m, atol=1e-9) and np.allclose(m @ cai, m, atol=1e-9)
        for m in cp.generators)
    return out
