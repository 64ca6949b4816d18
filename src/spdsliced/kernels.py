"""Hilbertian feature map, Gaussian kernels on sliced distances, and
kernel ridge regression.

The feature of a measure is the M x L table of empirical quantiles of its
projections, scaled by 1/sqrt(ML); squared Euclidean distance between two
features discretizes the squared sliced distance, which makes the Gaussian
kernel positive semidefinite.

The median heuristic and the Gaussian Gram have squared-distance cores
(:func:`median_heuristic_sq`, :func:`gaussian_gram`); the feature-list
functions are those cores applied to :func:`feature_sq_distances`.  A caller
that needs many blocks of one distance matrix, such as cross-validation over
folds, computes that matrix once and passes index blocks of it to the cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DataValidationError, IllConditioned, SizeMismatch
from .linalg import pairwise_sq_dists
from .sampling import ProjectionBasis
from .sliced import EmpiricalSpdMeasure

DEFAULT_QUANTILE_COUNT = 100


def midpoint_quantile_levels(m: int = DEFAULT_QUANTILE_COUNT) -> np.ndarray:
    """Midpoint grid (j - 1/2)/M, which halves the discretization bias of
    the L2 quantile integral."""
    if m < 1:
        raise ValueError("need at least one quantile level")
    return (np.arange(1, m + 1) - 0.5) / m


@dataclass(frozen=True)
class QuantileFeature:
    """Approximate Hilbertian feature: projected quantiles, (M, L) scaled
    by 1/sqrt(ML)."""

    quantile_levels: np.ndarray
    basis_ref: ProjectionBasis
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        q = np.array(self.quantile_levels, dtype=float)  # own the frozen copy
        if v.shape != (q.size, self.basis_ref.count):
            raise SizeMismatch(f"values shape {v.shape} does not match (M, L)")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        v.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "quantile_levels", q)

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def _quantile_indices(levels: np.ndarray, n: int) -> np.ndarray:
    # Left-continuous generalized inverse: order statistic ceil(q*n),
    # nudged so levels sitting exactly on a breakpoint stay on it.
    idx = np.ceil(levels * n - 1e-9).astype(int) - 1
    return np.clip(idx, 0, n - 1)


def quantile_feature(
    mu: EmpiricalSpdMeasure,
    basis: ProjectionBasis,
    quantile_levels: np.ndarray | None = None,
) -> QuantileFeature:
    """Empirical quantiles of the projected measure on the given levels."""
    levels = midpoint_quantile_levels() if quantile_levels is None else np.asarray(quantile_levels, float)
    if np.any(levels <= 0.0) or np.any(levels >= 1.0) or np.any(np.diff(levels) <= 0.0):
        raise ValueError("quantile levels must be strictly increasing in (0, 1)")
    coords = np.sort(basis.project_symmetric(mu.logs), axis=-1)  # (L, n)
    idx = _quantile_indices(levels, len(mu))
    scale = 1.0 / np.sqrt(levels.size * basis.count)
    return QuantileFeature(
        quantile_levels=levels, basis_ref=basis, values=coords[:, idx].T * scale
    )


def _check_shared_grid(features: list[QuantileFeature]) -> None:
    first = features[0]
    for f in features[1:]:
        same_basis = f.basis_ref is first.basis_ref or (
            f.basis_ref.sampler_kind == first.basis_ref.sampler_kind
            and f.basis_ref.seed == first.basis_ref.seed
            and f.basis_ref.count == first.basis_ref.count
            and f.basis_ref.dim == first.basis_ref.dim
        )
        if not same_basis or not np.array_equal(f.quantile_levels, first.quantile_levels):
            raise BasisMismatch("features must share one projection basis and quantile grid")


def feature_sq_distances(features: list[QuantileFeature]) -> np.ndarray:
    """Pairwise squared feature distances (each approximates the squared
    sliced distance between the underlying measures)."""
    _check_shared_grid(features)
    flat = np.stack([f.flat() for f in features])
    return pairwise_sq_dists(flat, flat)


def cross_sq_distances(left: list[QuantileFeature], right: list[QuantileFeature]) -> np.ndarray:
    _check_shared_grid(list(left) + list(right))
    return pairwise_sq_dists(
        np.stack([f.flat() for f in left]), np.stack([f.flat() for f in right])
    )


def median_heuristic_sq(sq: np.ndarray) -> float:
    """sigma with sigma^2 the median off-diagonal entry of a square matrix
    of squared distances."""
    off = sq[~np.eye(sq.shape[0], dtype=bool)]
    if off.size == 0:
        raise DataValidationError(f"median heuristic needs two or more entries; got {sq.shape[0]}")
    med = float(np.median(off))
    if med <= 0.0:
        raise DataValidationError("median squared distance is zero; features are all identical")
    return float(np.sqrt(med))


def median_heuristic_bandwidth(features: list[QuantileFeature]) -> float:
    """sigma with sigma^2 the median off-diagonal squared feature distance."""
    return median_heuristic_sq(feature_sq_distances(features))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix; ``bandwidth`` is None for summed kernels."""

    entries: np.ndarray
    bandwidth: float | None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SizeMismatch("Gram matrix must be square")
        e = 0.5 * (e + e.T)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def gaussian_weights(sq: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-sq / (2 sigma^2)) entrywise, for any block of squared distances."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0.0 and two_var > 0.0):  # a zero distance over 2 sigma^2 == 0 is 0/0
        raise ValueError(f"sigma must be positive with 2*sigma^2 > 0, got {sigma!r}")
    return np.exp(-sq / two_var)


def gaussian_gram(sq: np.ndarray, sigma: float) -> GramMatrix:
    """Gaussian Gram matrix of a square matrix of squared distances; unit
    diagonal exactly."""
    k = gaussian_weights(sq, sigma)
    np.fill_diagonal(k, 1.0)
    return GramMatrix(entries=k, bandwidth=float(sigma))


def gaussian_kernel(features: list[QuantileFeature], sigma: float) -> GramMatrix:
    """K_ij = exp(-||Phi_i - Phi_j||^2 / (2 sigma^2)); unit diagonal exactly."""
    return gaussian_gram(feature_sq_distances(features), sigma)


def sum_kernels(grams: list[GramMatrix]) -> GramMatrix:
    """Entrywise sum; the sum of PSD matrices stays PSD."""
    if not grams:
        raise ValueError("need at least one Gram matrix")
    size = grams[0].size
    for g in grams[1:]:
        if g.size != size:
            raise SizeMismatch(f"Gram sizes differ: {g.size} vs {size}")
    total = np.sum([g.entries for g in grams], axis=0)
    return GramMatrix(entries=total, bandwidth=None)


@dataclass(frozen=True)
class KernelRidgeFit:
    """Dual solution of (K + alpha I) c = y - mean(y); the target mean is
    re-added at prediction (Gaussian kernels carry no intercept)."""

    coefficients: np.ndarray
    intercept: float


def kernel_ridge_fit(gram: GramMatrix, targets, alpha: float) -> KernelRidgeFit:
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(targets, dtype=float)
    if y.shape != (gram.size,):
        raise SizeMismatch(f"targets shape {y.shape} does not match Gram size {gram.size}")
    system = gram.entries + alpha * np.eye(gram.size)
    eigs = np.linalg.eigvalsh(system)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > 1e14:
        raise IllConditioned(
            f"condition estimate {eigs[-1] / max(eigs[0], 1e-300):.3e} exceeds 1e14"
        )
    intercept = float(y.mean())
    centered = y - intercept
    coeffs = np.linalg.solve(system, centered)
    residual = np.linalg.norm(system @ coeffs - centered)
    if residual > 1e-8 * max(np.linalg.norm(y), 1e-300):
        raise IllConditioned(f"dual solve residual {residual:.3e} too large")
    return KernelRidgeFit(coefficients=coeffs, intercept=intercept)


def kernel_ridge_predict(
    train_features: list[QuantileFeature],
    fit: KernelRidgeFit,
    test_features: list[QuantileFeature],
    sigma: float,
) -> np.ndarray:
    """Predictions sum_i c_i K(test, train_i) + intercept."""
    k = gaussian_weights(cross_sq_distances(test_features, train_features), sigma)
    return k @ fit.coefficients + fit.intercept


def kfold_indices(n: int, folds: int, shuffle_seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """K-fold partition of a ``shuffle_seed``-determined permutation of
    range(n); folds partition the indices exactly."""
    if not 2 <= folds <= n:
        raise ValueError("folds must be between 2 and n")
    key = np.array([shuffle_seed, 0], dtype=np.uint64)
    order = np.random.Generator(np.random.Philox(key=key)).permutation(n)
    parts = np.array_split(order, folds)
    out = []
    for k in range(folds):
        test = np.sort(parts[k])
        train = np.sort(np.concatenate([parts[j] for j in range(folds) if j != k]))
        out.append((train, test))
    return out
