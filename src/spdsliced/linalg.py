"""Symmetric/SPD matrix primitives.

Everything here reduces to one numerical kernel: the eigendecomposition of a
real symmetric matrix, or of the Hermitian iK of a skew K, by LAPACK through
``numpy.linalg.eigh``.  Matrix log/exp (rotations included), the geodesic
distances and the Daleckii-Krein derivatives are built on top of it; the UDU^T
factorization is read off a Cholesky factor of the index-reversed matrix.
Each operation has one batched kernel, and the single-matrix functions are
stack-of-one calls of it.  Every matrix function rebuilt from eigenpairs is the batched
matmul of :func:`reconstruct`, which :func:`log_stack` runs on each chunk it decomposes; pairwise
squared distances go through :func:`pairwise_sq_dists`; stacks are chunked by :func:`stack_map`.
One element budget, ``_CHUNK_ELEMS``, sizes a chunk of a stack (of Wishart draws too, serially)
and a column block of the pairwise distances, so no temporary grows with n or n * m.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative positive-definiteness threshold: an SPD matrix must have
# min(eig) > PD_TOLERANCE_FACTOR * max(|eig|).
PD_TOLERANCE_FACTOR = 1e-12

# Largest eigenvalue admitted by the matrix exponential; log(float64 max)
# is ~709.78, kept with a safety margin.
EXP_CAP = 700.0

# Largest imaginary part J admitted in exp(K) = R + iJ of a skew K: R^T R - I = -J^T J, within
# d * 1e-14 entrywise.  Past angles of ~1e9, eigh's error in mu breaks the conjugate pairing of
# the eigenvalues, J grows to O(1), and float64 resolves no rotation.
ROTATION_RESIDUE = 1e-7

# Relative eigenvalue gap below which the first divided difference of the
# log switches to its limit value 1/lambda.
LOEWNER_GAP_FACTOR = 1e-10

# Beyond this many pairs, squared distances switch from exact elementwise
# differences to the BLAS-backed Gram expansion.
_DIRECT_PAIRS = 250_000

# Element budget of one chunk of :func:`stack_map`, and of one column block of
# the pairwise distances: the only input to the chunk and block boundaries,
# which therefore never depend on the worker count.
_CHUNK_ELEMS = 40_000
# Workers of the stack maps run in this context; the CLI sets it per call.
THREADS: contextvars.ContextVar[int | None] = contextvars.ContextVar("threads", default=None)
_pools = {}  # (pid, workers) -> ThreadPoolExecutor; a forked child makes its own


def stack_map(fn, count: int, item_elems: int) -> list:
    """``[fn(start, stop), ...]`` over chunks of ``count`` items of ``item_elems``
    elements, as many as fit in ``_CHUNK_ELEMS``; ``fn`` writes only its own
    slice of any output and calls no stack map.  One chunk or worker (:data:`THREADS`,
    else SPDSLICED_THREADS, else the CPU affinity) runs inline; else a pool of
    ``workers - 1`` threads takes chunks from the front while the caller takes the
    not yet started ones from the back, and the first exception in chunk order
    is raised after all finish."""
    step = max(1, _CHUNK_ELEMS // max(1, item_elems))
    bounds = [(i, min(i + step, count)) for i in range(0, count, step)]
    workers = THREADS.get() or _env_threads() or (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if len(bounds) < 2 or workers < 2:
        return [fn(*bound) for bound in bounds]
    from concurrent.futures import Future, ThreadPoolExecutor, wait
    key = (os.getpid(), workers)  # setdefault: a racing thread's spare pool is dropped unused
    pool = _pools.get(key) or _pools.setdefault(key, ThreadPoolExecutor(workers - 1, "spdsliced"))
    futures = [pool.submit(fn, *bound) for bound in bounds]
    for k in reversed(range(len(futures))):
        if not futures[k].cancel():  # the pool has reached this chunk, hence all before it
            break
        futures[k] = Future()
        try:
            futures[k].set_result(fn(*bounds[k]))
        except Exception as exc:  # raised in chunk order below, like the pool's
            futures[k].set_exception(exc)
    wait(futures)
    return [future.result() for future in futures]


def _env_threads() -> int | None:
    """SPDSLICED_THREADS under the rule of the CLI's --threads, a positive integer
    (ValueError naming the variable otherwise); None when it is unset."""
    text = os.environ.get("SPDSLICED_THREADS")
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"SPDSLICED_THREADS must be a positive integer, got {text!r}")
    return value


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, batched over leading axes."""
    a = np.asarray(a, dtype=float)
    out = a + np.swapaxes(a, -2, -1)
    return np.multiply(out, 0.5, out=out)


def _finite(x, what: str):
    """``x`` itself, or OverflowError when it holds a non-finite value: a
    sum, product or power overflowed (an adaptation step treats it as too large)."""
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"{what} overflowed to non-finite values")
    return x


def pd_tolerance(eigenvalues: np.ndarray) -> np.ndarray:
    """Positive-definiteness threshold relative to the spectral radius."""
    scale = np.max(np.abs(eigenvalues), axis=-1)
    return PD_TOLERANCE_FACTOR * scale


def reconstruct(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Q diag(f) Q^H from a stack of eigenvectors Q (b, d, d) and (transformed)
    eigenvalues f, by batched matmul chunk by chunk."""
    out = np.empty(vectors.shape, vectors.dtype)
    stack_map(lambda i, j: np.matmul(vectors[i:j] * values[i:j, None, :],
                                     np.swapaxes(vectors[i:j], -2, -1).conj(), out=out[i:j]),
              len(vectors), vectors[0].size)
    return out


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a stack (b, d, d), chunk by chunk into one output."""
    w, q = np.empty(mats.shape[:-1]), np.empty(mats.shape, mats.dtype)

    def chunk(i, j):
        w[i:j], q[i:j] = np.linalg.eigh(mats[i:j])

    stack_map(chunk, len(mats), mats.shape[-1] ** 2)
    return w, q


def sym_stack(points) -> np.ndarray:
    """The (n, d, d) stack ``points``, symmetrized: DimensionMismatch on another
    shape, ValueError on a non-finite entry, OverflowError where (A + A^T)/2 does.
    A single matrix M is checked as the stack ``[M]``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != pts.shape[2]:
        raise DimensionMismatch(f"expected an (n, d, d) stack, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # an overflow is reported by _finite
        return _finite(symmetrize(pts), "symmetrized stack")


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two matrices as symmetrized stacks of one, of the same dimension."""
    x, y = sym_stack([x]), sym_stack([y])
    if x.shape != y.shape:
        raise DimensionMismatch(f"dimensions differ: {x.shape[-1]} vs {y.shape[-1]}")
    return x, y


def sym_log(m) -> np.ndarray:
    """Matrix logarithm of an SPD matrix, Q diag(log w) Q^T."""
    return log_stack(sym_stack([m]))[0]


def _generator_eig(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (mu, U), K = U diag(mu) U^H, of a stack (b, d, d) of real generators: all
    skew, by eigh of the Hermitian iK (real lambda, mu = -i lambda), or else symmetrized, by
    their own eigh (OverflowError where exp(mu) would overflow)."""
    if np.any(mats) and np.array_equal(mats, -np.swapaxes(mats, -2, -1)):
        lam, u = _eigh(1j * mats)
        return -1j * lam, u
    with np.errstate(over="ignore"):  # an overflow is reported by _finite
        w, q = _eigh(_finite(symmetrize(mats), "symmetrized stack"))
    if not np.all(w <= EXP_CAP):  # a NaN fails too
        raise OverflowError(f"eigenvalue {np.max(w):.3e} exceeds the exponential cap {EXP_CAP}")
    return w, q


def sym_exp(s) -> np.ndarray:
    """Matrix exponential of a symmetric matrix."""
    return exp_stack(sym_stack([s]))[0]


def dist_log_euclidean(x, y) -> float:
    """Log-Euclidean geodesic distance ||log X - log Y||_F."""
    log_x, log_y = log_stack(np.concatenate(_pair(x, y)))
    return float(np.linalg.norm(log_x - log_y))


def dist_affine_invariant(x, y) -> float:
    """Affine-invariant geodesic distance ||log(X^{-1/2} Y X^{-1/2})||_F."""
    return float(pairwise_ai_dists(*_pair(x, y))[0, 0])


def pairwise_ai_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine-invariant distances (n, m) between the SPD stacks x (n, d, d)
    and y (m, d, d), through the whitened stacks X^{-1/2} Y X^{-1/2}."""
    wx, qx = eigh_stack(x)
    inv_sqrts = reconstruct(1.0 / np.sqrt(wx), qx)
    out = np.empty((len(x), len(y)))
    cols = min(len(y), max(1, _CHUNK_ELEMS // y[0].size))  # per-matrix work: blocks keep the bits

    def rows(i, stop):
        for j in range(0, len(y), cols):
            w = np.linalg.eigvalsh(symmetrize(inv_sqrts[i:stop, None] @ y[j:j + cols]
                                              @ inv_sqrts[i:stop, None]))
            if np.any(w[..., 0] <= pd_tolerance(w)):
                raise NotPositiveDefinite("whitened matrix lost positive definiteness")
            out[i:stop, j:j + cols] = np.sqrt(np.sum(np.log(w) ** 2, axis=-1))

    stack_map(rows, len(x), cols * y[0].size)
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
    """Loewner matrix of the exp: (e^{w_i} - e^{w_j})/(w_i - w_j), via expm1 of the gap,
    limit e^{w_i} where expm1(gap)/gap is not finite at a gap below 1: 0/0 on the
    diagonal, and numpy's complex division, which overflows at subnormal gaps."""
    wi = w[..., :, None]
    wj = w[..., None, :]
    gap = wi - wj
    quotient = np.expm1(gap)  # overflows (and warns) only past a gap of ~709
    with np.errstate(over="ignore", invalid="ignore"):  # the division alone: 0/0, subnormal gaps
        np.divide(quotient, gap, out=quotient)
    limit = ~np.isfinite(quotient) & (np.abs(gap) < 1.0)
    quotient[limit] = 1.0
    return np.where(limit, np.exp(wi), np.exp(wj) * quotient)


def _daleckii_krein(q: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Q (G o Q^H H Q) Q^H for stacks of eigenvectors Q, Loewner matrices G
    and directions H, all (b, d, d)."""
    qt = np.swapaxes(q, -1, -2).conj()
    return q @ (g * (qt @ h @ q)) @ qt


def log_frechet_derivative(m, h) -> np.ndarray:
    """Directional derivative of the matrix log at M along symmetric H
    (Daleckii-Krein first divided differences)."""
    m, h = _pair(m, h)
    return log_frechet_stack(*eigh_stack(m), h)[0]


def udu_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor M = U D U^T with U unit upper triangular and D positive diagonal.

    Returns ``(U, D)`` with D as a length-d vector of diagonal entries.
    Raises NotPositiveDefinite on a nonpositive pivot.
    """
    m = sym_stack([m])
    eigh_stack(m)  # the positive-definiteness check of every SPD input
    u, d = udu_stack(m)
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
    w, q = _eigh(np.asarray(mats, dtype=float))
    return _check_pd(w), q


def _check_pd(w: np.ndarray, first: int = 0) -> np.ndarray:
    """Eigenvalues ``w`` of matrices ``first``, ``first + 1``, ..., checked positive definite."""
    bad = w[..., 0] <= pd_tolerance(w)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotPositiveDefinite(f"matrix {first + k} in the stack has smallest eigenvalue "
                                  f"{w[k, 0]:.3e} at or below tolerance")
    return w


def log_stack(mats: np.ndarray) -> np.ndarray:
    """Matrix logarithms of a stack of SPD matrices (b, d, d), checked like :func:`eigh_stack`;
    each chunk is decomposed and rebuilt in turn, so no (b, d, d) temporary is formed."""
    mats = np.asarray(mats, dtype=float)
    out = np.empty(mats.shape)

    def chunk(i, j):
        w, q = np.linalg.eigh(mats[i:j])
        np.matmul(q * np.log(_check_pd(w, i))[:, None, :], np.swapaxes(q, 1, 2), out=out[i:j])

    stack_map(chunk, len(mats), mats.shape[-1] ** 2)
    return out


def exp_stack(mats: np.ndarray) -> np.ndarray:
    """exp(K) = U e^mu U^H of a stack (b, d, d) of generators as :func:`_generator_eig` reads
    them: SPD, or rotations exact at K = 0 (OverflowError past float64's ROTATION_RESIDUE)."""
    mu, u = _generator_eig(mats)
    e = reconstruct(np.exp(mu), u)
    residue = np.max(np.abs(e.imag)) if np.iscomplexobj(e) else 0.0
    if not residue <= ROTATION_RESIDUE:
        raise OverflowError(f"rotation angle beyond float64 resolution (residue {residue:.1e})")
    return e.real


def exp_frechet_adjoint(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the Frechet derivative of exp at one generator K (d, d),
    applied to G: the derivative at K^T, Re(U (conj(Gamma) o U^H G U) U^H)."""
    mu, u = _generator_eig(k[None])
    return _daleckii_krein(u, np.conj(_exp_divided_differences(mu)), g[None])[0].real


def log_frechet_stack(w: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Batched Dlog at matrices given by their eigendecompositions (w, q),
    applied along the stack of symmetric directions ``h``."""
    return _daleckii_krein(q, _log_divided_differences(w), h)


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x (n, D) and y (m, D).

    Up to ``_DIRECT_PAIRS`` pairs the differences are formed exactly, over
    the row chunks of :func:`stack_map`, each split into column blocks of
    ``cols`` rows of y, about ``_CHUNK_ELEMS`` elements per row of x (at
    least two rows of y); beyond, the Gram expansion is clipped at zero.
    Every pair is summed inside a block of two or more pairs, because
    ``np.einsum`` sums a lone (1, 1, D) pair in another order: the last
    block of a row ends at m, overlapping the one before, and with m == 1 a
    one-row chunk borrows a neighbouring row.  When ``y is x`` only the
    blocks on or above the diagonal are formed and the rest is mirrored:
    (x_j - x_i)^2 equals (x_i - x_j)^2 exactly, so this is bit-identical.
    """
    n, m, dim = x.shape[0], y.shape[0], x.shape[1]
    if n * m > _DIRECT_PAIRS:
        sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
        return np.maximum(sq, 0.0)
    out = np.empty((n, m))
    cols = min(m, max(2, _CHUNK_ELEMS // dim))

    def rows(i, stop):
        lo, hi = (max(0, i - 1), max(2, stop)) if stop - i == 1 == cols and n > 1 else (i, stop)
        for j in range(i if y is x else 0, m, cols):
            j = min(j, m - cols)
            diff = x[lo:hi, None, :] - y[None, j:j + cols, :]  # its layout sets einsum's order
            out[i:stop, j:j + cols] = np.einsum("ijk,ijk->ij", diff, diff)[i - lo:stop - lo]
            del diff  # before the next block is formed

    stack_map(rows, n, cols * dim)
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
