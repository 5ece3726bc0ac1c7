"""Reference implementations the fast library paths are tested against.

Each is the straightforward formula the library replaced: a fresh least-squares
solve per question instead of a maintained basis or factorization.
"""

import numpy as np


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
                basis.append(np.kron(delta.delta_lambda(a), e_pq))
                mats.append(np.kron(basis[-1], G.lam(g)))
    A = np.array([b.ravel() for b in basis]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(y, dtype=complex).ravel(), rcond=None)
    assert np.allclose(A @ coef, np.asarray(y).ravel(), atol=1e-8)
    middle = sum(c * m for c, m in zip(coef, mats))
    big_u = np.kron(np.eye(dcp.h_dim * n), dcp.data.U)
    return big_u.conj().T @ middle @ big_u
