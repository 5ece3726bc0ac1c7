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


def is_adjoint(p, q):
    """Whether Q = P*: q[p[j]] = j wherever p[j] ≥ 0 and p[q[i]] = i wherever
    q[i] ≥ 0. False whenever p is not injective. For stacks, row by row."""
    p, q = np.asarray(p), np.asarray(q)
    at = np.arange(p.shape[-1])

    def inverts(a, b):  # b[a[j]] = j wherever a[j] ≥ 0; a[j] = −1 reads the −1 appended to b
        back = np.take_along_axis(np.concatenate([b, np.full_like(b[..., :1], -1)], axis=-1),
                                  a, axis=-1)
        return ((a < 0) | (back == at)).all(axis=-1)
    return inverts(p, q) & inverts(q, p)


def product(p, q) -> np.ndarray:
    """The index array of PQ, for one array p and an array or a stack q, or a
    stack p and one array q: the gather p[q], −1 where q or p is −1. For
    stacks p and q it is every product, out[i, j] = p[i]·q[j]."""
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
        classes = refine(keys)
    if count < n or not (gens >= 0).any(axis=0).all():
        return None
    label = components(n, np.nonzero(gens >= 0)[1], gens[gens >= 0])  # x — g(x)
    return int((np.unique(label, return_counts=True)[1] ** 2).sum())


def refine(keys) -> np.ndarray:
    """Each row's rank among the distinct rows of the integer matrix `keys`,
    in lexicographic order: `np.unique(keys, axis=0, return_inverse=True)`'s
    inverse, from one `np.lexsort` and a difference of neighbouring rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    label = np.empty(len(keys), dtype=np.intp)
    label[order] = np.concatenate([[0], np.cumsum((ordered[1:] != ordered[:-1]).any(axis=1))])
    return label


def components(n, x, y) -> np.ndarray:
    """For each of n points, the least point joined to it by a path of the
    edges x[i] — y[i]: pointer jumping, then the least label over each edge."""
    label, low = None, np.arange(n)
    while not np.array_equal(label, low):
        label = low[low]
        low = label.copy()
        np.minimum.at(low, x, label[y])
        np.minimum.at(low, y, label[x])
    return label
