"""Symmetric/SPD matrix primitives.

Everything here reduces to one numerical kernel: the eigendecomposition of a
real symmetric matrix (delegated to LAPACK through ``numpy.linalg.eigh``).
Matrix log/exp, the two geodesic distances and the Daleckii-Krein
derivatives are built on top of it; the UDU^T factorization is read off a
Cholesky factor of the index-reversed matrix.  Each operation has one
batched kernel, and the single-matrix functions are stack-of-one calls of
it.  Every matrix function rebuilt from eigenpairs goes through
:func:`reconstruct`; pairwise squared distances between vector rows go
through :func:`pairwise_sq_dists`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative positive-definiteness threshold: an SPD matrix must have
# min(eig) > PD_TOLERANCE_FACTOR * max(|eig|).
PD_TOLERANCE_FACTOR = 1e-12

# Largest eigenvalue admitted by the matrix exponential; log(float64 max)
# is ~709.78, kept with a safety margin.
EXP_CAP = 700.0

# Relative eigenvalue gap below which the first divided difference of the
# log switches to its limit value 1/lambda.
LOEWNER_GAP_FACTOR = 1e-10

# Beyond this many pairs, squared distances switch from exact elementwise
# differences to the BLAS-backed Gram expansion.
_DIRECT_PAIRS = 250_000

# Element budget of the temporaries of the blocked stack helpers
# (:func:`reconstruct`, :func:`pairwise_sq_dists`).
_BLOCK_ELEMS = 1_000_000


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, batched over leading axes."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -2, -1))


def pd_tolerance(eigenvalues: np.ndarray) -> np.ndarray:
    """Positive-definiteness threshold relative to the spectral radius."""
    scale = np.max(np.abs(eigenvalues), axis=-1)
    return PD_TOLERANCE_FACTOR * scale


def reconstruct(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Q diag(f) Q^T from eigenvectors Q and (transformed) eigenvalues f, for
    one matrix (d, d) or a stack (b, d, d).  A stack is rebuilt by batched
    matmul in blocks, so the scaled copy of Q stays within ``_BLOCK_ELEMS``."""
    if vectors.ndim == 2:
        return reconstruct(values[None], vectors[None])[0]
    out = np.empty(vectors.shape)
    step = max(1, _BLOCK_ELEMS // vectors[0].size)
    for i in range(0, len(vectors), step):
        q = vectors[i:i + step]
        np.matmul(q * values[i:i + step, None, :], np.swapaxes(q, -2, -1), out=out[i:i + step])
    return out


class SymMatrix:
    """A real symmetric d x d matrix.

    Inputs are symmetrized on construction ((M + M^T)/2): covariance
    estimators routinely produce tiny asymmetries, so rejecting them would
    be hostile. The stored array is immutable.
    """

    __slots__ = ("array", "dim")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        a = symmetrize(a)
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "dim", a.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class SpdMatrix(SymMatrix):
    """A symmetric positive definite d x d matrix.

    The eigendecomposition ``eig``, the pair (w, Q) with M = Q diag(w) Q^T
    and w ascending, is computed at construction (it both validates positive
    definiteness and backs every subsequent operation). The matrix log is
    cached on first use; the cache fill is idempotent and therefore
    race-safe.
    """

    __slots__ = ("eig", "_log")

    def __init__(self, entries, _eig: tuple[np.ndarray, np.ndarray] | None = None):
        super().__init__(entries)
        w, q = np.linalg.eigh(self.array) if _eig is None else _eig
        tol = pd_tolerance(w)
        if w[0] <= tol:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {w[0]:.3e} is at or below tolerance {tol:.3e}"
            )
        object.__setattr__(self, "eig", (w, q))
        object.__setattr__(self, "_log", None)

    @property
    def log(self) -> SymMatrix:
        """Matrix logarithm, computed once and cached."""
        cached = object.__getattribute__(self, "_log")
        if cached is None:
            w, q = self.eig
            cached = SymMatrix(reconstruct(np.log(w), q))
            object.__setattr__(self, "_log", cached)
        return cached


def as_sym(x) -> SymMatrix:
    return x if isinstance(x, SymMatrix) and not isinstance(x, SpdMatrix) else SymMatrix(
        x.array if isinstance(x, SymMatrix) else x
    )


def as_spd(x) -> SpdMatrix:
    return x if isinstance(x, SpdMatrix) else SpdMatrix(x.array if isinstance(x, SymMatrix) else x)


def _check_same_dim(x: SymMatrix, y: SymMatrix) -> None:
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")


def sym_log(m) -> SymMatrix:
    """Matrix logarithm of an SPD matrix, Q diag(log w) Q^T."""
    return as_spd(m).log


def _exp_eig(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (exp w, Q) of the exponentials of a symmetric stack (b, d, d)."""
    w, q = np.linalg.eigh(mats)
    if np.any(w > EXP_CAP):
        raise OverflowError(f"eigenvalue {np.max(w):.3e} exceeds the exponential cap {EXP_CAP}")
    return np.exp(w), q


def sym_exp(s) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix, positive definite by construction."""
    ew, q = _exp_eig(as_sym(s).array[None])
    return SpdMatrix(reconstruct(ew[0], q[0]), _eig=(ew[0], q[0]))


def dist_log_euclidean(x, y) -> float:
    """Log-Euclidean geodesic distance ||log X - log Y||_F."""
    x, y = as_spd(x), as_spd(y)
    _check_same_dim(x, y)
    return float(np.linalg.norm(x.log.array - y.log.array))


def dist_affine_invariant(x, y) -> float:
    """Affine-invariant geodesic distance ||log(X^{-1/2} Y X^{-1/2})||_F."""
    x, y = as_spd(x), as_spd(y)
    _check_same_dim(x, y)
    return float(pairwise_ai_dists(x.array[None], y.array[None])[0, 0])


def pairwise_ai_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine-invariant distances (n, m) between the SPD stacks x (n, d, d)
    and y (m, d, d), through the whitened stacks X^{-1/2} Y X^{-1/2}."""
    wx, qx = eigh_stack(x)
    inv_sqrts = reconstruct(1.0 / np.sqrt(wx), qx)
    out = np.empty((len(x), len(y)))
    for i, inv_sqrt in enumerate(inv_sqrts):
        w = np.linalg.eigvalsh(symmetrize(inv_sqrt @ y @ inv_sqrt))
        if np.any(w[:, 0] <= pd_tolerance(w)):
            raise NotPositiveDefinite("whitened matrix lost positive definiteness")
        out[i] = np.sqrt(np.sum(np.log(w) ** 2, axis=1))
    return out


def _log_divided_differences(w: np.ndarray) -> np.ndarray:
    """Loewner matrix of the log: G_ij = (log w_i - log w_j)/(w_i - w_j),
    with the limit 1/w_i on (near-)coincident eigenvalues.

    Computed through log1p of the relative gap, which avoids the
    cancellation of log w_i - log w_j for close eigenvalues. Batched over
    leading axes of ``w``.
    """
    wi = w[..., :, None]
    wj = w[..., None, :]
    gap = wi - wj
    near = np.abs(gap) < LOEWNER_GAP_FACTOR * np.maximum(np.abs(wi), np.abs(wj))
    safe_gap = np.where(near, 1.0, gap)
    g = np.log1p(safe_gap / wj) / safe_gap
    return np.where(near, 1.0 / wi, g)


def _exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """Loewner matrix of the exp: (e^{w_i} - e^{w_j})/(w_i - w_j), via
    expm1 of the gap (stable for all gaps), limit e^{w_i} on the diagonal."""
    wi = w[..., :, None]
    wj = w[..., None, :]
    gap = wi - wj
    zero = gap == 0.0
    safe_gap = np.where(zero, 1.0, gap)
    g = np.exp(wj) * (np.expm1(safe_gap) / safe_gap)
    return np.where(zero, np.exp(wi), g)


def _daleckii_krein(q: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Q (G o Q^T H Q) Q^T for stacks of eigenvectors Q, Loewner matrices G
    and symmetric directions H, all (b, d, d)."""
    qt = np.swapaxes(q, -1, -2)
    return q @ (g * (qt @ h @ q)) @ qt


def log_frechet_derivative(m, h) -> SymMatrix:
    """Directional derivative of the matrix log at M along symmetric H
    (Daleckii-Krein first divided differences)."""
    m, h = as_spd(m), as_sym(h)
    _check_same_dim(m, h)
    w, q = m.eig
    return SymMatrix(log_frechet_stack(w[None], q[None], h.array[None])[0])


def exp_frechet_sym(s, h) -> SymMatrix:
    """Directional derivative of the matrix exp at symmetric S along
    symmetric H. Same divided-difference scheme as the log derivative."""
    s, h = as_sym(s), as_sym(h)
    _check_same_dim(s, h)
    w, q = np.linalg.eigh(s.array[None])
    return SymMatrix(_daleckii_krein(q, _exp_divided_differences(w), h.array[None])[0])


def udu_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor M = U D U^T with U unit upper triangular and D positive diagonal.

    Returns ``(U, D)`` with D as a length-d vector of diagonal entries.
    Raises NotPositiveDefinite on a nonpositive pivot.
    """
    u, d = udu_stack(as_spd(m).array[None])
    return u[0], d[0]


def udu_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched UDU^T factorization of a stack of SPD matrices (b, d, d).

    With J the index reversal, J M J = L L^T gives M = R R^T for the upper
    triangular R = J L J, so U = R diag(R)^-1.  D is formed as
    D_j = M_jj - sum_{k>j} R_jk^2, which is exact on diagonal input.
    """
    m = np.asarray(mats, dtype=float)
    try:
        r = np.linalg.cholesky(m[:, ::-1, ::-1])[:, ::-1, ::-1]
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("a matrix in the stack is not positive definite") from None
    u = r / np.diagonal(r, axis1=1, axis2=2)[:, None, :]
    diag = np.diagonal(m, axis1=1, axis2=2) - np.sum(np.triu(r, 1) ** 2, axis=-1)
    if np.any(diag <= 0.0):
        raise NotPositiveDefinite("nonpositive pivot in the UDU factorization")
    return u, diag


def eigh_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigendecomposition of SPD matrices (b, d, d), checked positive definite."""
    w, q = np.linalg.eigh(np.asarray(mats, dtype=float))
    bad = w[..., 0] <= pd_tolerance(w)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotPositiveDefinite(
            f"matrix {k} in the stack has smallest eigenvalue "
            f"{w[k, 0]:.3e} at or below tolerance"
        )
    return w, q


def log_stack(mats: np.ndarray) -> np.ndarray:
    """Matrix logarithms of a stack of SPD matrices (b, d, d)."""
    w, q = eigh_stack(mats)
    return reconstruct(np.log(w), q)


def exp_stack(mats: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a stack of symmetric matrices (b, d, d)."""
    return reconstruct(*_exp_eig(symmetrize(mats)))


def log_frechet_stack(w: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Batched Dlog at matrices given by their eigendecompositions (w, q),
    applied along the stack of symmetric directions ``h``."""
    return _daleckii_krein(q, _log_divided_differences(w), h)


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x (n, D) and y (m, D).

    Up to ``_DIRECT_PAIRS`` pairs the differences are formed exactly, in
    blocks of at most ``_BLOCK_ELEMS`` elements (at least one row pair);
    beyond, the Gram expansion is clipped at zero.  When ``y is x`` only the
    blocks on or above the diagonal are formed and the rest is mirrored:
    (x_j - x_i)^2 equals (x_i - x_j)^2 exactly, so this is bit-identical.
    """
    n, m, dim = x.shape[0], y.shape[0], x.shape[1]
    if n * m > _DIRECT_PAIRS:
        sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
        return np.maximum(sq, 0.0)
    out = np.empty((n, m))
    cols = min(m, max(1, _BLOCK_ELEMS // dim))
    rows = max(1, _BLOCK_ELEMS // (cols * dim))
    for i in range(0, n, rows):
        for j in range(i if y is x else 0, m, cols):
            diff = x[i:i + rows, None, :] - y[None, j:j + cols, :]
            out[i:i + rows, j:j + cols] = np.einsum("ijk,ijk->ij", diff, diff)
    if y is x:
        lower = np.tril_indices(n, -1)
        out[lower] = out.T[lower]
    return out


# Isometric vectorization of symmetric matrices: off-diagonal entries are
# scaled by sqrt(2) so the Euclidean norm of the vector equals the
# Frobenius norm of the matrix.


def sym_dim(d: int) -> int:
    """Dimension d(d+1)/2 of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


def vech_isometric(mats: np.ndarray) -> np.ndarray:
    """Map symmetric matrices (..., d, d) to vectors (..., d(d+1)/2)
    preserving the Frobenius inner product."""
    m = np.asarray(mats, dtype=float)
    d = m.shape[-1]
    iu = np.triu_indices(d, k=1)
    diag = m[..., np.arange(d), np.arange(d)]
    off = m[..., iu[0], iu[1]] * np.sqrt(2.0)
    return np.concatenate([diag, off], axis=-1)


def unvech_isometric(vecs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vech_isometric`."""
    v = np.asarray(vecs, dtype=float)
    n = v.shape[-1]
    d = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if sym_dim(d) != n:
        raise DimensionMismatch(f"vector length {n} is not a triangular number")
    out = np.zeros(v.shape[:-1] + (d, d))
    idx = np.arange(d)
    out[..., idx, idx] = v[..., :d]
    iu = np.triu_indices(d, k=1)
    off = v[..., d:] / np.sqrt(2.0)
    out[..., iu[0], iu[1]] = off
    out[..., iu[1], iu[0]] = off
    return out
