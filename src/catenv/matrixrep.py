"""Concrete matrix models: left regular representation, groupoid regular
representations, the boundary compressions ϑ_χ, norms at matrix levels, and the
numerical complete-isometry certifier.

All matrices are dense complex arrays over explicitly labelled bases. Reduced
norms are operator norms computed by SVD; the independent eigen-solve oracle
lives in the test suite. Norms on truncation windows of infinite inputs are
computed matrix-free by `windowed_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .categories import CategoryPresentation, Morphism
from .germs import Germ, GermGroupoid
from .gpd import FiniteGroupoid
from .hull import HullClosure, InverseHull, PiecewiseBijection
from .ideals import Character

TOL = 1e-9


class DimensionMismatch(ValueError):
    pass


class NotBoundary(ValueError):
    pass


class NotSelfAdjoint(ValueError):
    pass


# -- linear algebra helpers ----------------------------------------------------


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


# effort of the block subspace iteration in `windowed_norm`
_WINDOW_ITERATIONS = 110
_WINDOW_BLOCK = 4


def windowed_norm(combo, basis, action) -> float:
    """Operator norm of A = Σ c·T_x on ℓ²(basis), for combo = [(c, x), ...].

    T_x e_d = e_{action(x, d)}; images that are None or outside the basis are
    dropped, which is the truncation window of a partial-isometry
    representation. Matrix-free: block subspace iteration on A*A from a seeded
    start, then the largest Ritz value.
    """
    n = len(basis)
    if n == 0:
        return 0.0
    index = {m: i for i, m in enumerate(basis)}
    coef, src, dst = [], [], []
    for c, x in combo:
        for j, d in enumerate(basis):
            image = action(x, d)
            if image is not None and image in index:
                coef.append(c)
                src.append(j)
                dst.append(index[image])
    coef = np.array(coef, dtype=complex)[:, None]
    src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)

    def gram(v):
        av = np.zeros_like(v)
        np.add.at(av, dst, coef * v[src])
        out = np.zeros_like(v)
        np.add.at(out, src, coef.conj() * av[dst])
        return out

    block = min(_WINDOW_BLOCK, n)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((n, block)) + 1j * rng.standard_normal((n, block))
    v, _ = np.linalg.qr(v)
    for _ in range(_WINDOW_ITERATIONS):
        w = gram(v)
        if np.linalg.norm(w) < 1e-30:
            return 0.0
        v, _ = np.linalg.qr(w)
    ritz = v.conj().T @ gram(v)
    lam = max(np.linalg.eigvalsh((ritz + ritz.conj().T) / 2).max(), 0.0)
    return float(np.sqrt(lam))


def _vec(ms):
    return np.array([m.ravel() for m in ms])


def matrix_rank(ms, tol=TOL) -> int:
    if not len(ms):
        return 0
    sv = np.linalg.svd(_vec(ms), compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 1.0)))


def in_span(m, basis, tol=1e-8) -> bool:
    if not basis:
        return np.allclose(m, 0, atol=tol)
    A = _vec(basis).T
    coef, *_ = np.linalg.lstsq(A, m.ravel(), rcond=None)
    return np.allclose(A @ coef, m.ravel(), atol=tol)


class AlgebraSpan:
    """Linear basis of the algebra (or *-algebra) generated by some matrices."""

    def __init__(self, generators, selfadjoint=False, unit=None, max_rounds=60):
        gens = [np.asarray(g, dtype=complex) for g in generators]
        if selfadjoint:
            gens = gens + [g.conj().T for g in gens]
        if unit is not None:
            gens = [np.asarray(unit, dtype=complex)] + gens
        basis = self._independent(gens)
        for _ in range(max_rounds):
            products = [a @ b for a in basis for b in gens] + \
                       [b @ a for a in basis for b in gens]
            new_basis = self._independent(basis + products)
            if len(new_basis) == len(basis):
                break
            basis = new_basis
        else:
            raise RuntimeError("algebra closure did not stabilize")
        self.basis = basis

    @staticmethod
    def _independent(ms, tol=TOL):
        out = []
        for m in ms:
            if not in_span(m, out):
                out.append(m)
        return out

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, m) -> bool:
        return in_span(np.asarray(m, dtype=complex), self.basis)

    def closed_under_adjoint(self) -> bool:
        return all(in_span(b.conj().T, self.basis) for b in self.basis)


# -- the left regular representation -------------------------------------------


@dataclass
class LambdaRep:
    """λ on ℓ²(ball(N)); exact when the category is finite and the ball exhausts it."""

    pres: CategoryPresentation
    basis: list[Morphism]
    exact: bool
    index: dict = field(init=False)

    def __post_init__(self):
        self.index = {m: i for i, m in enumerate(self.basis)}

    @classmethod
    def build(cls, pres: CategoryPresentation, radius=None):
        basis = pres.ball(radius)
        exact = pres.is_finite and (radius is None or set(basis) == set(pres.ball(None)))
        return cls(pres, basis, exact)

    def lam(self, c: Morphism) -> np.ndarray:
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for j, x in enumerate(self.basis):
            cx = self.pres.compose(c, x)
            if cx is not None and cx in self.index:
                out[self.index[cx], j] = 1.0
        return out

    def inverse_rep(self, hull_ctx: InverseHull, s: PiecewiseBijection) -> np.ndarray:
        """Λ_s e_x = e_{s(x)}; partial permutation matrix."""
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for j, x in enumerate(self.basis):
            y = hull_ctx.apply(s, x)
            if y is not None and y in self.index:
                out[self.index[y], j] = 1.0
        return out

    def toeplitz_algebra(self) -> AlgebraSpan:
        gens = [self.lam(c) for c in self.basis]
        return AlgebraSpan(gens, selfadjoint=True)


# -- groupoid regular representations ------------------------------------------


class GroupoidRep:
    """⊕ of one left regular representation per unit orbit (multiplicity pruned)."""

    def __init__(self, g: FiniteGroupoid):
        self.g = g
        self.rep_units = [orbit[0] for orbit in g.orbits()]
        self.basis = [x for u in self.rep_units for x in sorted(
            (y for y in g.elements if g.source[y] == u), key=str)]
        self.index = {x: i for i, x in enumerate(self.basis)}

    def element_matrix(self, el) -> np.ndarray:
        """The indicator function of a single groupoid element, represented."""
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for j, t in enumerate(self.basis):
            if self.g.source[el] == self.g.range[t]:
                out[self.index[self.g.mul(el, t)], j] = 1.0
        return out

    def function_matrix(self, coeffs: dict) -> np.ndarray:
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for el, c in coeffs.items():
            out += c * self.element_matrix(el)
        return out

    def block_sizes(self):
        """Sizes ℓ²(G_χ) per orbit representative."""
        return [sum(1 for x in self.basis if self.g.source[x] == u)
                for u in self.rep_units]

    def unit_diagonal(self, m: np.ndarray) -> np.ndarray:
        """The conditional expectation onto functions on units: keep the diagonal."""
        return np.diag(np.diag(m))


# -- spanning families over germ groupoids --------------------------------------


class GermModel:
    """The spanning family 1_{[s, Ω(dom s)]} of a germ groupoid, as matrices."""

    def __init__(self, germ_gpd: GermGroupoid, closure: HullClosure):
        self.gg = germ_gpd
        self.rep = GroupoidRep(germ_gpd.groupoid)
        self.closure = closure
        self._bisection_cache = {}

    def bisection(self, s: PiecewiseBijection):
        """All germs of s over the groupoid's character set."""
        if s not in self._bisection_cache:
            ctx = self.gg.ctx
            out = []
            dom = ctx.lat.index[ctx.lat.canonical(ctx.hull.domain_parts(s))]
            for _, chi in sorted(self.gg.char_by_min.items()):
                if chi.value(dom):
                    out.append(ctx.germ(s, chi))
            self._bisection_cache[s] = out
        return self._bisection_cache[s]

    def spanning_matrix(self, s: PiecewiseBijection) -> np.ndarray:
        return self.rep.function_matrix({g: 1.0 for g in self.bisection(s)})

    def reduced_algebra(self) -> AlgebraSpan:
        mats = [self.spanning_matrix(s) for s in self.closure.nonzero()]
        return AlgebraSpan(mats, selfadjoint=True)

    def operator_algebra_generators(self):
        """Generators 1_{[c, Ω(𝔡(c)𝔠)]} for the morphism maps c."""
        p = self.gg.ctx.p
        out = []
        for c in p.ball(None):
            out.append((c, self.spanning_matrix(self.gg.ctx.hull.from_morphism(c))))
        return out


def jack_check(hull_ctx: InverseHull, closure: HullClosure, model: GermModel,
               lam: LambdaRep, tol=1e-8):
    """Certify the spanning-element correspondence 1_{[s,Ω(dom s)]} ↦ Λ_s is a
    *-isomorphism: products and adjoints match pairwise, and the two spanning
    families have identical linear dependencies."""
    elements = closure.nonzero()
    lam_mats = {s: lam.inverse_rep(hull_ctx, s) for s in elements}
    grm_mats = {s: model.spanning_matrix(s) for s in elements}
    for s in elements:
        for t in elements:
            st = hull_ctx.hcompose(s, t)
            lhs_l = lam_mats[s] @ lam_mats[t]
            lhs_g = grm_mats[s] @ grm_mats[t]
            rhs_l = lam_mats.get(st, np.zeros_like(lhs_l))
            rhs_g = grm_mats.get(st, np.zeros_like(lhs_g))
            if st.is_zero:
                rhs_l, rhs_g = np.zeros_like(lhs_l), np.zeros_like(lhs_g)
            if not (np.allclose(lhs_l, rhs_l, atol=tol)
                    and np.allclose(lhs_g, rhs_g, atol=tol)):
                return False, (s, t)
        sinv = hull_ctx.hinverse(s)
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


def _joint_rank(va, vb):
    rows = [np.concatenate([a.ravel(), b.ravel()]) for a, b in zip(va, vb)]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > TOL * max(1.0, sv[0])))


# -- the boundary compressions ϑ_χ ----------------------------------------------


class ThetaRep:
    """ϑ_χ over the germ basis [𝔠, χ]; cancellative categories let morphisms label it."""

    def __init__(self, pres, hull_ctx: InverseHull, chi, radius=None,
                 boundary_chars=None):
        if boundary_chars is not None and chi not in boundary_chars:
            raise NotBoundary(f"{chi} is not among the boundary characters")
        self.p = pres
        self.hull = hull_ctx
        self.chi = chi
        ball = pres.ball(radius)
        self.exact = pres.is_finite and radius is None
        self.basis = [d for d in ball if self._admits(d)]
        self.index = {d: i for i, d in enumerate(self.basis)}

    def _admits(self, d: Morphism) -> bool:
        parts = (self.p.identity(d.dom),)
        if isinstance(self.chi, Character):
            lat = self.chi.lattice
            ideal = lat.canonical(parts)
            return bool(self.chi.value(lat.index[ideal]))
        return bool(self.chi.value_on_parts(parts))

    def theta(self, s: PiecewiseBijection) -> np.ndarray:
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for j, d in enumerate(self.basis):
            y = self.hull.apply(s, d)
            if y is not None and y in self.index:
                out[self.index[y], j] = 1.0
        return out

    def diagonal_indicator(self, parts) -> np.ndarray:
        """ϑ_χ(1_{Ω(X)}): the projection onto basis germs lying in X = ⋃ b𝔠."""
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for j, d in enumerate(self.basis):
            if any(self.p.in_ideal(b, d) for b in parts):
                out[j, j] = 1.0
        return out


def direct_sum(mats) -> np.ndarray:
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


def compression_identity_check(model: GermModel, theta: ThetaRep, tol=1e-9):
    """P_χ ρ_χ(1_{[c,Ω(𝔡c𝔠)]}) P_χ = ϑ_χ on the morphism generators.

    Requires the χ-fiber of the groupoid representation; the projection P picks the
    germs [d,χ] of morphisms d.
    """
    ctx = model.gg.ctx
    chi = theta.chi
    g = model.gg.groupoid
    fiber = [x for x in g.elements if x.chi_min == chi.min_index]
    fiber.sort(key=lambda x: str(x))
    fiber_index = {x: i for i, x in enumerate(fiber)}
    morphism_germ = {}
    for d in theta.basis:
        germ = ctx.germ(ctx.hull.from_morphism(d), chi)
        morphism_germ[d] = germ
        if germ not in fiber_index:
            return False, f"germ of {d} missing from the χ-fiber"
    proj = np.zeros((len(theta.basis), len(fiber)), dtype=complex)
    for d, i in theta.index.items():
        proj[i, fiber_index[morphism_germ[d]]] = 1.0
    for c in ctx.p.ball(None):
        s = ctx.hull.from_morphism(c)
        rho_fiber = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for j, t in enumerate(fiber):
            for el in model.bisection(s):
                if g.source[el] == g.range[t]:
                    rho_fiber[fiber_index[g.mul(el, t)], j] += 1.0
        lhs = proj @ rho_fiber @ proj.conj().T
        if not np.allclose(lhs, theta.theta(s), atol=tol):
            return False, c
    return True, None


def inclusion_exclusion_check(hull_ctx: InverseHull, s: PiecewiseBijection,
                              theta: ThetaRep, tol=1e-9):
    """ϑ_χ(1_{ℱ_s}) via signed meets of Ω(X) indicators equals 1_{[fix(s),χ]}."""
    import itertools as it

    parts = hull_ctx.fix_set(s)
    n = len(theta.basis)
    direct = np.zeros((n, n), dtype=complex)
    for j, d in enumerate(theta.basis):
        if hull_ctx.apply(s, d) == d:
            direct[j, j] = 1.0
    signed = np.zeros((n, n), dtype=complex)
    for r in range(1, len(parts) + 1):
        for combo in it.combinations(parts, r):
            meet_parts = [combo[0]]
            for b in combo[1:]:
                new_parts = []
                for m in meet_parts:
                    for x, _ in hull_ctx.p.align(m, b):
                        new_parts.append(hull_ctx.p.compose(m, x))
                meet_parts = hull_ctx._ideal_parts(new_parts)
            signed += ((-1) ** (r - 1)) * theta.diagonal_indicator(meet_parts)
    return np.allclose(signed, direct, atol=tol)


# -- norms at matrix levels and the complete-isometry certifier -------------------


def norm_level_k(basis, coeffs) -> float:
    """Operator norm of Σ coeffs[i,j,b] · E_ij ⊗ basis[b]."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim == 1:
        coeffs = coeffs.reshape(1, 1, -1)
    k1, k2, nb = coeffs.shape
    if nb != len(basis) or k1 != k2:
        raise DimensionMismatch(f"need (k, k, {len(basis)}) coefficients")
    stack = np.asarray(basis, dtype=complex)
    n = stack.shape[1]
    big = np.einsum("ijb,bxy->ixjy", coeffs, stack).reshape(k1 * n, k1 * n)
    return operator_norm(big)


@dataclass
class IsometryVerdict:
    certified: bool
    max_deviation: float
    levels: int
    samples: int
    restarts: int
    tol: float
    witness: object = None

    @property
    def status(self):
        return "certified" if self.certified else "rejected"


def complete_isometry_check(pairs, levels=None, samples=40, restarts=3,
                            tol=1e-9, seed=0) -> IsometryVerdict:
    """Compare ‖Σ c ⊗ A_b‖ against ‖Σ c ⊗ B_b‖ over matrix levels.

    Deterministic basis sweeps plus seeded random coefficients with local
    perturbation ascent on the deviation. Rejection (a deviation beyond tol) is
    sound; certification is an effort-stamped numerical certificate.
    """
    amats = [np.asarray(a, dtype=complex) for a, _ in pairs]
    bmats = [np.asarray(b, dtype=complex) for _, b in pairs]
    nb = len(pairs)
    if levels is None:
        levels = max(m.shape[0] for m in amats + bmats)
    rng = np.random.default_rng(seed)

    def deviation(c):
        return abs(norm_level_k(bmats, c) - norm_level_k(amats, c))

    worst, witness = 0.0, None
    tried = 0
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
            d0 = deviation(c0)
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
                    d_new = deviation(cand)
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


def expectation_units_checks(rep: GroupoidRep, rng_seed=0, trials=10, tol=1e-9):
    """Idempotence, positivity (diagonal compression), and faithfulness samples."""
    rng = np.random.default_rng(rng_seed)
    n = len(rep.basis)
    for _ in range(trials):
        coeffs = {el: complex(rng.standard_normal(), rng.standard_normal())
                  for el in rep.g.elements}
        m = rep.function_matrix(coeffs)
        e = rep.unit_diagonal(m)
        if not np.allclose(rep.unit_diagonal(e), e, atol=tol):
            return False, "not idempotent"
        pos = m.conj().T @ m
        diag = rep.unit_diagonal(pos)
        if np.any(np.diag(diag).real < -tol):
            return False, "not positive"
        if np.allclose(diag, 0, atol=tol) and not np.allclose(m, 0, atol=tol):
            return False, "not faithful"
    return True, None
