"""Finite-group coactions on finite-dimensional operator algebras.

The group algebra is represented on ℓ²(G) via the left regular representation
(full = reduced for finite groups), so a coaction is the same thing as a grading
and every identity below is a concrete matrix identity. The duality data (U, S,
V = I⊗US) and the double crossed product follow the explicit unitary picture.
δ(m) solves for m's graded coefficients once per call; a double crossed product
builds the basis δ_λ(aᵢ)⊗E_pq of δ_λ(A)⊗𝕂 once and reuses it for every δ̃.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrixrep import (AlgebraSpan, SpanBasis, _rank, complete_isometry_check,
                        matrix_rank, operator_norm)


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
        self.inverse = {}
        for g in self.elements:
            for h in self.elements:
                if self.table[(g, h)] == identity and self.table[(h, g)] == identity:
                    self.inverse[g] = h
        n = len(self.elements)
        for g in self.elements:
            if g not in self.inverse:
                raise ValueError(f"no inverse for {g!r}")
        for g, h, k in itertools.product(self.elements, repeat=3):
            if self.mul(self.mul(g, h), k) != self.mul(g, self.mul(h, k)):
                raise ValueError("multiplication table is not associative")
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

    def __init__(self, group: FiniteGroup, components: dict, check=True):
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
        self._flat = np.array([b.ravel() for b in self.basis]).T  # basis as columns
        if check:
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

    def components_of(self, m) -> dict:
        """Degree parts g → m_g of an algebra element, from one solve for its
        coefficients in the graded basis."""
        m = np.asarray(m, dtype=complex)
        coef, *_ = np.linalg.lstsq(self._flat, m.ravel(), rcond=None)
        if not np.allclose(self._flat @ coef, m.ravel(), atol=1e-8):
            raise GradingInvalid("element outside the algebra")
        parts = {g: np.zeros_like(m) for g in self.group.elements}
        for c, b, d in zip(coef, self.basis, self.degrees):
            parts[d] = parts[d] + c * b
        return parts

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
    """δ(a) = Σ_g a_g ⊗ u_g with u_g realized as λ_g; axioms verified as matrices."""

    def __init__(self, graded: GradedAlgebra):
        self.graded = graded
        self.group = graded.group

    def delta(self, m) -> np.ndarray:
        out = None
        for g, part in self.graded.components_of(m).items():
            part = np.kron(part, self.group.lam(g))
            out = part if out is None else out + part
        return out

    def delta_lambda(self, m) -> np.ndarray:
        return self.delta(m)  # u_g and λ_g are the same matrices for finite G

    def homomorphism_check(self) -> bool:
        basis = self.graded.basis
        images = [self.delta(a) for a in basis]
        for a, da in zip(basis, images):
            for b, db in zip(basis, images):
                if not np.allclose(self.delta(a @ b), da @ db, atol=1e-9):
                    return False
        return True

    def coaction_identity_check(self) -> bool:
        """(δ⊗id)∘δ = (id⊗Δ)∘δ with Δ(λ_g) = λ_g⊗λ_g, on the graded basis."""
        n = len(self.group)
        for a, g in zip(self.graded.basis, self.graded.degrees):
            lhs = np.kron(self.delta(a), self.group.lam(g))
            rhs = np.kron(a, np.kron(self.group.lam(g), self.group.lam(g)))
            if not np.allclose(lhs, rhs, atol=1e-9):
                return False
        return True

    def nondegeneracy_check(self) -> bool:
        basis = self.graded.basis
        return _nondegenerate(basis, [self.delta(a) for a in basis], self.group)

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
        dims = {}
        for g in self.group.elements:
            rows = []
            for a in span:
                rows.append((self.delta_lambda(a) - np.kron(a, self.group.lam(g))).ravel())
            dims[g] = len(span) - _rank(np.linalg.svd(np.array(rows), compute_uv=False))
        return dims

    def normality_verdict(self, levels=None, samples=25, seed=0):
        pairs = [(a, self.delta_lambda(a)) for a in self.graded.basis]
        return complete_isometry_check(pairs, levels=levels or 3,
                                       samples=samples, seed=seed)


def verify_coaction_axioms(basis, images, group: FiniteGroup, tol=1e-9) -> dict:
    """Axioms for an arbitrary linear map given by δ(basis[i]) = images[i].

    Used on planted maps that are not of graded form: multiplicativity, the
    coaction identity against Δ(λ_g) = λ_g⊗λ_g, and nondegeneracy as a span
    equality.
    """
    basis = [np.asarray(b, dtype=complex) for b in basis]
    images = [np.asarray(m, dtype=complex) for m in images]
    n = len(group)
    d = basis[0].shape[0]

    A = np.array([b.ravel() for b in basis]).T

    def delta(m):
        coef, *_ = np.linalg.lstsq(A, np.asarray(m, complex).ravel(), rcond=None)
        return sum(c * im for c, im in zip(coef, images))

    out = {}
    out["homomorphism"] = all(
        np.allclose(delta(a @ b), delta(a) @ delta(b), atol=tol)
        for a in basis for b in basis)
    # (δ⊗id)∘δ needs δ applied to the A-leg of δ(a); expand over a product basis
    ok = True
    for a in basis:
        da = np.asarray(delta(a)).reshape(d, n, d, n)
        lhs = np.zeros((d, n, n, d, n, n), dtype=complex)
        for p in range(n):
            for q in range(n):
                block = delta(da[:, p, :, q]).reshape(d, n, d, n)
                lhs[:, :, p, :, :, q] += block
        rhs = np.zeros_like(lhs)
        for g in group.elements:
            comp = np.einsum("ipjq,pq->ij", da, group.lam(g).conj()) / n
            lg = group.lam(g)
            rhs += np.einsum("ij,pq,rs->iprjqs", comp, lg, lg)
        if not np.allclose(lhs, rhs, atol=tol):
            ok = False
            break
    out["coaction_identity"] = ok
    out["nondegenerate"] = _nondegenerate(basis, [delta(a) for a in basis], group)
    return out


def _nondegenerate(basis, images, group: FiniteGroup) -> bool:
    """span δ(A)(I⊗C*(G)) = A⊗C*(G) for the map δ(basis[i]) = images[i]."""
    eye = np.eye(basis[0].shape[0])
    prods = [da @ np.kron(eye, group.lam(h)) for da in images for h in group.elements]
    target = [np.kron(a, group.lam(h)) for a in basis for h in group.elements]
    return matrix_rank(prods) == matrix_rank(target)


def coaction_from_grading(graded: GradedAlgebra) -> Coaction:
    """Build and verify the coaction attached to a grading."""
    delta = Coaction(graded)
    if not delta.homomorphism_check():
        raise GradingInvalid("δ is not multiplicative")
    if not delta.coaction_identity_check():
        raise GradingInvalid("coaction identity fails")
    if not delta.nondegeneracy_check():
        raise GradingInvalid("coaction is degenerate")
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
        for a, g in zip(delta.graded.basis, delta.graded.degrees):
            for f in self.group.elements:
                mat = delta.delta_lambda(a) @ np.kron(eye, self.group.point_mass(f))
                self.generators.append(mat)
                self.generator_tags.append((a, g, f))
        self.span = AlgebraSpan(self.generators, selfadjoint=False)

    def dual_action(self, g, x) -> np.ndarray:
        """δ̂_g = Ad(I⊗ρ_g)."""
        u = np.kron(np.eye(self.h_dim), self.group.rho(g))
        return u @ x @ u.conj().T

    def dual_action_formula_check(self) -> bool:
        """δ̂_g(δ_λ(a) j(f)) = δ_λ(a) j(σ_g f) with σ_g(f)(h) = f(hg)."""
        eye = np.eye(self.h_dim)
        for (a, dg, f), mat in zip(self.generator_tags, self.generators):
            for g in self.group.elements:
                shifted = self.group.point_mass(self.group.mul(f, self.group.inv(g)))
                rhs = self.delta.delta_lambda(a) @ np.kron(eye, shifted)
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
        """(B, degrees): the basis B_i = δ_λ(a_i)⊗E_pq of δ_λ(A)⊗𝕂 as a stack,
        a_i running over the graded basis and (p, q) over G×G, and the group
        index of each a_i's degree."""
        graded, units = self.delta.graded, np.eye(self.n * self.n).reshape(-1, self.n, self.n)
        stack = np.array([np.kron(self.delta.delta_lambda(a), e_pq)
                          for a in graded.basis for e_pq in units])
        return stack, np.repeat([self.group.index[g] for g in graded.degrees], len(units))

    def k_A(self, a) -> np.ndarray:
        return np.kron(self.delta.delta_lambda(a), np.eye(self.n))

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
        out = []
        for a, dg in zip(self.delta.graded.basis, self.delta.graded.degrees):
            for f in self.group.elements:
                for g in self.group.elements:
                    out.append(((a, dg, f, g),
                                self.k_A(a) @ self.k_c0(f) @ self.k_G(g)))
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
    dcp = DoubleCrossedProduct(delta)
    G = delta.group
    n = len(G)
    V = dcp.data.V

    def ad_v(x):
        return V @ x @ V.conj().T

    ok_i = all(np.allclose(ad_v(dcp.k_A(a)),
                           np.kron(delta.delta_lambda(a), G.lam(g)), atol=tol)
               for a, g in zip(delta.graded.basis, delta.graded.degrees))
    ok_ii = all(np.allclose(ad_v(dcp.k_c0(f)),
                            np.kron(np.eye(dcp.h_dim * n), G.point_mass(f)), atol=tol)
                for f in G.elements)
    ok_iii = all(np.allclose(ad_v(dcp.k_G(g)),
                             np.kron(np.eye(dcp.h_dim * n), G.rho(g)), atol=tol)
                 for g in G.elements)

    # span equality Ad(V)(double crossed product) = δ_λ(A) ⊗ 𝕂
    generators = [m for _, m in dcp.generators()]
    images = [ad_v(m) for m in generators]
    target = list(dcp.kron_basis[0])
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
    ys = [(np.kron(delta.delta_lambda(a), pe), g)
          for a, g in zip(delta.graded.basis, delta.graded.degrees)]
    pe_ok = all(np.allclose(_tilde_delta(dcp, y, delta), np.kron(y, G.lam(g)), atol=tol)
                for y, g in ys)

    return KatayamaReport(ok_i, ok_ii, ok_iii, span_ok, image_dim, conj_ok, pe_ok)


def _tilde_delta(dcp: DoubleCrossedProduct, y, delta: Coaction):
    """δ̃(δ_λ(a)⊗K) = (I⊗I⊗U)*(δ_λ(a)⊗K⊗λ_g)(I⊗I⊗U), extended linearly.

    Decomposes y = Σ cᵢBᵢ over the basis Bᵢ = δ_λ(aᵢ)⊗E_pq with aᵢ graded; the
    middle term is Σ_g (Σ_{deg i = g} cᵢBᵢ)⊗λ_g.
    """
    G = delta.group
    n = len(G)
    stack, degrees = dcp.kron_basis
    A = stack.reshape(len(stack), -1).T
    y = np.asarray(y, dtype=complex).ravel()
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if not np.allclose(A @ coef, y, atol=1e-8):
        raise ValueError("element outside δ_λ(A)⊗𝕂")
    middle = sum(np.kron(np.tensordot(coef[degrees == i], stack[degrees == i], 1), G.lam(g))
                 for i, g in enumerate(G.elements))
    big_u = np.kron(np.eye(dcp.h_dim * n), dcp.data.U)
    return big_u.conj().T @ middle @ big_u


# -- extension of the coaction to a computed envelope -----------------------------


def extend_grading(graded: GradedAlgebra, env_basis, kappa, max_rounds=40):
    """Search a grading of the envelope extending the image grading of A.

    Degree-g span = closed span of monomials in κ(A_h) and adjoints with total
    degree g. The extension exists exactly when these spans are in direct sum and
    fill the envelope; otherwise NoExtensionFound.
    """
    G = graded.group
    env_span = AlgebraSpan([np.asarray(b, dtype=complex) for b in env_basis],
                           selfadjoint=True)
    degree_spans = {g: SpanBasis() for g in G.elements}
    for a, g in zip(graded.basis, graded.degrees):
        img = np.asarray(kappa(a), dtype=complex)
        degree_spans[g].add(img)
        degree_spans[G.inv(g)].add(img.conj().T)
    spans = {g: span.members for g, span in degree_spans.items()}
    for _ in range(max_rounds):
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
    cp = CrossedProduct(delta)
    chi_g = sum(delta.group.point_mass(f) for f in delta.group.elements)
    cai = delta.delta_lambda(unit) @ np.kron(np.eye(delta.graded.ambient_dim), chi_g)
    out["crossed_product_identity"] = all(
        np.allclose(cai @ m, m, atol=1e-9) and np.allclose(m @ cai, m, atol=1e-9)
        for m in cp.generators)
    return out
