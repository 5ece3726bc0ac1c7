"""0/1 partial permutations as index arrays: the one format, and each
operation on it once.

An index array p of length n is the n×n 0/1 matrix P with P e_j = e_{p[j]},
and P e_j = 0 where p[j] = −1; a stack holds one array per row. PQ is the
gather p[q] (`product`), P* the inverse map (`adjoint`), Ad P a gather by the
array of P* (`conjugate`), P⊗Q is `kron` and I_m⊗P is `lift`: each gives the
entries of the dense product.
"""

from __future__ import annotations

import numpy as np


def from_map(basis, index, image) -> np.ndarray:
    """The index array of e_j ↦ e_{image(basis[j])}: the image's position, −1
    where the image is None or outside the basis."""
    return np.array([-1 if (y := image(x)) is None else index.get(y, -1) for x in basis],
                    dtype=np.intp)


def dense(p) -> np.ndarray:
    """The complex 0/1 matrix of an index array, or the matrices of a stack."""
    p = np.asarray(p)
    out = np.zeros(p.shape + p.shape[-1:], dtype=complex)
    *stack, cols = np.nonzero(p >= 0)
    out[(*stack, p[p >= 0], cols)] = 1.0
    return out


def adjoint(p) -> np.ndarray:
    """The index array of P*, for an array or a stack: the inverse map.
    ValueError when two columns share an image, for then P* is no partial
    permutation."""
    p = np.asarray(p)
    *stack, cols = np.nonzero(p >= 0)
    out = np.full_like(p, -1)
    out[(*stack, p[p >= 0])] = cols
    if np.count_nonzero(out >= 0) != len(cols):
        raise ValueError("a non-injective index array has no partial-permutation adjoint")
    return out


def is_adjoint(p, q) -> bool:
    """Whether Q = P*: q[p[j]] = j wherever p[j] ≥ 0 and p[q[i]] = i wherever
    q[i] ≥ 0. False whenever p is not injective."""
    return all(np.array_equal(b[a[a >= 0]], np.flatnonzero(a >= 0))
               for a, b in ((p, q), (q, p)))


def product(p, q) -> np.ndarray:
    """The index array of PQ, for one array p and an array or a stack q, or a
    stack p and one array q: the gather p[q], −1 where q or p is −1."""
    return np.concatenate([p, np.full(np.shape(p)[:-1] + (1,), -1, np.intp)], axis=-1)[..., q]


def kron(p, q) -> np.ndarray:
    """The index array of P⊗Q, for two arrays or broadcasting stacks."""
    p, q = np.asarray(p)[..., :, None], np.asarray(q)[..., None, :]
    out = np.where((p >= 0) & (q >= 0), p * q.shape[-1] + q, -1)
    return out.reshape(out.shape[:-2] + (-1,))


def lift(p, outer) -> np.ndarray:
    """The index array of I_outer ⊗ P, for an array or a stack."""
    return kron(np.arange(outer), p)


def conjugate(xs, p) -> np.ndarray:
    """P X P* on the last two axes of a matrix or stack xs: entry (r, c) is
    X[q[r], q[c]] for q the array of P*, and zero where q is −1."""
    q = adjoint(p)
    flat = (q[:, None] * len(q) + q).ravel()
    out = np.take(xs.reshape(xs.shape[:-2] + (-1,)), flat, axis=-1).reshape(xs.shape)
    out[..., q < 0, :] = 0
    out[..., :, q < 0] = 0
    return out


def support_rows(stack) -> np.ndarray:
    """The 0/1 matrices of a stack, flattened and kept only at the positions
    where one of them is nonzero: the dense stack's rank, on fewer columns."""
    members, cols = np.nonzero(stack >= 0)
    flat = stack[members, cols] * stack.shape[1] + cols
    used = np.zeros(stack.shape[1] ** 2, dtype=bool)
    used[flat] = True
    # complex, like every other rank: a real SVD would load LAPACK's real routines too
    rows = np.zeros((len(stack), int(used.sum())), dtype=complex)
    rows[members, (np.cumsum(used) - 1)[flat]] = 1.0
    return rows


def exact_dim(stack):
    """Exact dimension of the *-algebra a stack of partial permutations
    generates, or None when this argument does not apply.

    That algebra is the span of the inverse semigroup S the generators and
    their inverses generate. An idempotent of S is the identity on the domain
    of some word, so two coordinates lie in exactly the same idempotent
    supports when every word is defined at both or at neither. A word w·g is
    defined at x when g is and w is at g(x): that equivalence is the coarsest
    partition that separates where each generator is defined and is stable
    under each, which Moore's partition refinement finds in at most n rounds
    without listing the supports (they can number 2ⁿ). When each coordinate
    lies in some support and no two are equivalent, each has its own least
    support, so Möbius inversion over the ∩-closed supports gives every E_xx
    in span S (Steinberg 2006, "Möbius functions and semigroup representation
    theory"). Then E_yx = s·E_xx lies in span S exactly when a path of
    generators and inverses joins x to y, and every s is a sum of such E_yx:
    span S is ⊕ M_|K| over the classes K of that relation, of dimension Σ|K|²,
    each class named by its least coordinate. Otherwise (isotropy, uncovered
    coordinates, an empty stack) the answer is None, which refutes nothing.
    """
    perms = np.asarray(stack, dtype=np.intp)
    if not perms.size:
        return None
    n = perms.shape[1]
    gens = np.concatenate([perms, adjoint(perms)])
    # a coordinate's key: its class, then each generator's image class, −1 where
    # it is undefined; the first round separates definedness, later ones refine
    classes, count = np.zeros(n, dtype=np.intp), 0
    while count <= classes.max():
        count = classes.max() + 1
        keys = np.column_stack([classes, np.append(classes, -1)[gens].T])
        classes = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    if count < n or not (gens >= 0).any(axis=0).all():
        return None
    x, y = np.nonzero(gens >= 0)[1], gens[gens >= 0]  # the edges x — g(x), both ways
    label, low = None, np.arange(n)
    while not np.array_equal(label, low):
        label = low[low]
        low = label.copy()
        np.minimum.at(low, x, label[y])
    return int((np.unique(label, return_counts=True)[1] ** 2).sum())
