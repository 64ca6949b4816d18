"""Coordinates along geodesics, 1D Wasserstein, and the sliced estimators.

The estimator family follows one template: project both empirical measures
onto each of L slicing directions, compute the closed-form 1D Wasserstein
distance between the projected samples, and average over directions.  What
varies is the projection map (geodesic coordinate, plain Frobenius inner
product, or horospherical coordinate) and the law of the directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    EmptyMeasure,
    NotUnitNorm,
)
from .linalg import _finite, _pair, log_stack, stack_map, sym_stack, udu_stack
from .sampling import ProjectionBasis, RngState, build_projection_basis

# Eigenvalue gap below which a slicing direction is treated as degenerate
# for the horospherical coordinate (the sorted eigenbasis is ill defined).
DEGENERATE_GAP = 1e-9

# Stream offset for redrawing degenerate directions, far away from the
# offsets any experiment uses for its own substreams.
_RESAMPLE_STREAM_OFFSET = 2**48


def _symmetric_bits(a) -> bool:
    """Whether (A + A^T)/2 returns the bits of ``a``: a float64 (n, d, d) array, bitwise
    symmetric (so signed zeros match too) and with 2A finite (so the sum cannot overflow)."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 3):
        return False
    bits = a.view(np.uint64)
    with np.errstate(over="ignore"):  # an overflow (or a NaN) only fails the test
        extremes = 2.0 * np.array([a.max(initial=0.0), a.min(initial=0.0)])
    return bool(np.all(np.isfinite(extremes))) and np.array_equal(bits, np.swapaxes(bits, 1, 2))


class EmpiricalSymMeasure:
    """Uniformly weighted points in the space of symmetric matrices."""

    __slots__ = ("points", "_logs")

    def __init__(self, points):
        self._adopt(sym_stack(points))  # own the frozen copy

    @classmethod
    def _owning(cls, stack: np.ndarray):
        """Measure that takes ownership of a freshly built stack, with no copy, where
        symmetrizing it would return its own bits (:func:`_symmetric_bits`).  Any other
        stack goes through :func:`sym_stack`, which copies it or raises what ``cls(stack)``
        raises."""
        measure = object.__new__(cls)
        measure._adopt(stack if _symmetric_bits(stack) else sym_stack(stack))
        return measure

    def _adopt(self, pts: np.ndarray) -> None:
        """Freeze the checked, symmetric float stack ``pts`` and make it the points."""
        if pts.shape[0] < 1:
            raise EmptyMeasure("an empirical measure needs at least one point")
        pts.flags.writeable = False
        self.points = pts
        self._logs = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


class EmpiricalSpdMeasure(EmpiricalSymMeasure):
    """Uniformly weighted SPD matrices, with the matrix logs of the support
    computed once and cached (every slicing operation reuses them)."""

    __slots__ = ()

    @property
    def logs(self) -> np.ndarray:
        """Stack of matrix logarithms, (n, d, d).  Validates positive
        definiteness on first access; the fill is idempotent."""
        if self._logs is None:
            logs = log_stack(self.points)
            logs.flags.writeable = False
            self._logs = logs
        return self._logs

    def log_pushforward(self) -> EmpiricalSymMeasure:
        """The measure pushed to the log space (shares the cached logs)."""
        out = EmpiricalSymMeasure.__new__(EmpiricalSymMeasure)
        out._adopt(self.logs)
        return out


@dataclass(frozen=True)
class DiscrepancyReport:
    """Value and metadata emitted by every distance computation.

    ``value`` is the raw estimator W_p^p (the p-th power), matching the
    return of the sliced algorithms; use :attr:`root` for the distance.
    """

    value: float
    estimator: str
    order_p: float
    num_projections: int | None = None
    seed: RngState | None = None
    degenerate_resampled: int = 0
    converged: bool | None = None  # entropic solvers only

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"discrepancy value must be finite and nonnegative, got {self.value}")

    @property
    def root(self) -> float:
        """The distance, value^(1/p)."""
        return self.value ** (1.0 / self.order_p)


def _direction_pair(a, m) -> tuple[np.ndarray, np.ndarray]:
    """A unit-norm direction and a matrix, as stacks of one of the same dimension."""
    a, m = _pair(a, m)
    if abs(np.linalg.norm(a) - 1.0) > 1e-10:
        raise NotUnitNorm("direction must have unit Frobenius norm (1e-10)")
    return a, m


def geodesic_coordinate(a, m) -> float:
    """Signed coordinate <A, log M>_F of M along the geodesic {exp(tA)}."""
    a, m = _direction_pair(a, m)
    return float(np.sum(a * log_stack(m)))


def _busemann_frames(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each direction of a stack (L, d, d): its eigenvalues sorted descending,
    the matching eigenvectors, and whether a gap between them is below DEGENERATE_GAP."""
    w, q = np.linalg.eigh(directions)
    theta, frames = w[:, ::-1], q[:, :, ::-1]
    degenerate = np.any(theta[:, :-1] - theta[:, 1:] < DEGENERATE_GAP, axis=1)
    return theta, frames, degenerate


def busemann_coordinate_ai(a, m) -> float:
    """Horospherical (Busemann) coordinate of M along the affine-invariant
    geodesic through the identity with direction A.

    Diagonalize A = P diag(theta) P^T with theta sorted descending, move M
    to that basis, UDU-factor it, and return -sum_i theta_i log D_ii.
    """
    a, m = _direction_pair(a, m)
    (theta,), (frame,), (degenerate,) = _busemann_frames(a)
    if degenerate:
        raise DegenerateDirection("direction has (near-)repeated eigenvalues")
    return float(_busemann_coords_stack(m, frame, theta)[0])


# -- 1D Wasserstein ----------------------------------------------------------


def _merged_quantile_grid(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval lengths and atom indices of the merged quantile grid of two
    uniform empirical measures of sizes n and m (exact integer arithmetic)."""
    common = math.lcm(n, m)
    bx = np.arange(1, n + 1, dtype=np.int64) * (common // n)
    by = np.arange(1, m + 1, dtype=np.int64) * (common // m)
    qs = np.union1d(bx, by)
    lens = np.diff(np.concatenate(([np.int64(0)], qs))) / common
    ix = np.searchsorted(bx, qs)
    iy = np.searchsorted(by, qs)
    return lens, ix, iy


def _matched(xs_sorted: np.ndarray, ys_sorted: np.ndarray, out=None):
    """Matched differences of pre-sorted coordinate rows, the merged quantile grid's cell
    lengths and each cell's source atom; at equal sizes the k-th x minus the k-th y,
    formed in ``out`` when given, and None for the grid."""
    n, m = xs_sorted.shape[-1], ys_sorted.shape[-1]
    if n == m:
        return np.subtract(xs_sorted, ys_sorted, out=out), None, None
    lens, ix, iy = _merged_quantile_grid(n, m)
    diff = xs_sorted[..., ix]  # the target's gather is subtracted into the source's
    return np.subtract(diff, ys_sorted[..., iy], out=diff), lens, ix


def _wpp_rows(xs_sorted: np.ndarray, ys_sorted: np.ndarray, p: float, out=None) -> np.ndarray:
    """W_p^p along the last axis of pre-sorted coordinate rows (``out`` as for
    :func:`_matched`; it may be one of the rows' own arrays)."""
    diff, lens, _ = _matched(xs_sorted, ys_sorted, out)
    powered = _abs_power(diff, p)
    return np.mean(powered, axis=-1) if lens is None else powered @ lens


def _abs_power(diff: np.ndarray, p: float) -> np.ndarray:
    """|d|^p in place, as a square at p = 2: the float power's bits, without its pow loop."""
    return np.square(diff, out=diff) if p == 2.0 else np.power(np.abs(diff, out=diff), p, out=diff)


def _check_order(p: float) -> None:
    """ValueError unless 1 <= p < inf: a NaN order fails too."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"order p must be finite and >= 1, got {p!r}")


def wasserstein_1d(x, y, p: float = 2.0) -> float:
    """W_p^p between two uniform empirical measures on the line.

    Equal sizes reduce to the sorted matching; unequal sizes evaluate the
    quantile-function integral exactly on the merged quantile grid.
    Returns the p-th power.
    """
    _check_order(p)
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise EmptyMeasure("1D Wasserstein needs nonempty samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("1D samples must be finite")
    return _mean_wpp(x[None], y[None], p)


# -- Sliced estimators -------------------------------------------------------

# Metric name -> (estimator function name, required sampler kind; None
# accepts any kind).  Names are resolved at call time, so whatever is bound
# under them in this module is what runs.
SLICED_ESTIMATORS = {
    "spdsw": ("spdsw", None),
    "logsw": ("log_sw", "vec_sphere"),
    "hspdsw": ("hspdsw", "eig_uniform"),
}


def _check_pair(
    estimator: str,
    mu: EmpiricalSymMeasure,
    nu: EmpiricalSymMeasure,
    basis: ProjectionBasis,
    p: float,
):
    name, kind = SLICED_ESTIMATORS.get(estimator, (estimator, None))
    if kind is not None and basis.sampler_kind != kind:
        raise ValueError(f"{name} requires a {kind!r} basis, got {basis.sampler_kind!r}")
    _check_order(p)
    if mu.dim != nu.dim or mu.dim != basis.dim:
        raise DimensionMismatch(
            f"dimensions differ: mu {mu.dim}, nu {nu.dim}, basis {basis.dim}"
        )


def _report(estimator: str, basis: ProjectionBasis, p: float, value: float,
            resampled: int = 0) -> DiscrepancyReport:
    return DiscrepancyReport(
        value=value,
        estimator=estimator,
        order_p=p,
        num_projections=basis.count,
        seed=basis.seed,
        degenerate_resampled=resampled,
    )


def _mean_wpp(xs_sorted: np.ndarray, ys_sorted: np.ndarray, p: float, out=None) -> float:
    """Mean over the rows of W_p^p between pre-sorted coordinate rows (``out`` as for
    :func:`_wpp_rows`)."""
    with np.errstate(over="ignore"):  # an overflow is reported by _finite
        value = float(np.mean(_wpp_rows(xs_sorted, ys_sorted, p, out)))
    return _finite(value, f"W_p^p at order {p:g}")


def _sliced_mean(coords_mu: np.ndarray, coords_nu: np.ndarray, p: float) -> float:
    """Mean W_p^p between the coordinate rows; sorts its (fresh) arguments in place,
    and forms an equal-size difference in ``coords_mu``."""
    coords_mu.sort(axis=-1)
    coords_nu.sort(axis=-1)
    return _mean_wpp(coords_mu, coords_nu, p, out=coords_mu)


def _frobenius_sliced(estimator: str, mu, nu, basis: ProjectionBasis, p: float,
                      support) -> DiscrepancyReport:
    """The linear estimators: slice ``support(measure)`` (an (n, d, d)
    symmetric stack) through <A, .>_F."""
    _check_pair(estimator, mu, nu, basis, p)
    value = _sliced_mean(
        basis.project_symmetric(support(mu)), basis.project_symmetric(support(nu)), p
    )
    return _report(estimator, basis, p, value)


def spdsw(mu: EmpiricalSpdMeasure, nu: EmpiricalSpdMeasure, basis: ProjectionBasis, p: float = 2.0) -> DiscrepancyReport:
    """Sliced discrepancy between SPD-valued measures: average over the
    basis directions of W_p^p between geodesic-coordinate pushforwards."""
    return _frobenius_sliced("spdsw", mu, nu, basis, p, lambda m: m.logs)


def sym_sw(mu_log: EmpiricalSymMeasure, nu_log: EmpiricalSymMeasure, basis: ProjectionBasis, p: float = 2.0) -> DiscrepancyReport:
    """Sliced discrepancy between measures of symmetric matrices, slicing
    through the Frobenius inner product <A, B>."""
    return _frobenius_sliced("symsw", mu_log, nu_log, basis, p, lambda m: m.points)


def log_sw(mu: EmpiricalSpdMeasure, nu: EmpiricalSpdMeasure, basis: ProjectionBasis, p: float = 2.0) -> DiscrepancyReport:
    """Euclidean sliced Wasserstein on the log-mapped measures, with
    directions drawn uniformly on the sphere of the isometric
    vectorization (``vec_sphere`` basis)."""
    return _frobenius_sliced("logsw", mu, nu, basis, p, lambda m: m.logs)


def _busemann_coords_stack(points: np.ndarray, p_tilde: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Horospherical coordinates of a stack of SPD matrices for one sorted
    direction eigenbasis."""
    m_tilde = p_tilde.T @ points @ p_tilde
    _, diag = udu_stack(m_tilde)
    return -(np.log(diag) @ theta)


def hspdsw(mu: EmpiricalSpdMeasure, nu: EmpiricalSpdMeasure, basis: ProjectionBasis, p: float = 2.0) -> DiscrepancyReport:
    """Horospherical sliced discrepancy under the affine-invariant geometry.

    Each direction is diagonalized with eigenvalues sorted descending; both
    measures are rotated into that basis, UDU-factored, and projected via
    the Busemann coordinate.  Directions with (near-)repeated eigenvalues
    are redrawn from a reserved substream of the basis seed and counted.
    """
    _check_pair("hspdsw", mu, nu, basis, p)

    thetas, frames, degenerate = _busemann_frames(basis.directions)
    resampled = 0
    for i in np.flatnonzero(degenerate):  # in order, so the substreams are too
        while degenerate[i]:
            if basis.seed is None:
                raise DegenerateDirection(
                    f"direction {i} has (near-)repeated eigenvalues and the basis "
                    "carries no seed to redraw from"
                )
            redraw = build_projection_basis(
                basis.seed.substream(_RESAMPLE_STREAM_OFFSET + resampled), mu.dim, 1, "eig_uniform"
            )
            (thetas[i],), (frames[i],), (degenerate[i],) = _busemann_frames(redraw.directions)
            resampled += 1
    coords_mu = np.empty((basis.count, len(mu)))
    coords_nu = np.empty((basis.count, len(nu)))

    def directions(start, stop):
        for i in range(start, stop):
            coords_mu[i] = _busemann_coords_stack(mu.points, frames[i], thetas[i])
            coords_nu[i] = _busemann_coords_stack(nu.points, frames[i], thetas[i])

    stack_map(directions, basis.count, (len(mu) + len(nu)) * mu.dim ** 2)
    return _report("hspdsw", basis, p, _sliced_mean(coords_mu, coords_nu, p), resampled)


def mc_error_estimate(
    mu: EmpiricalSpdMeasure,
    nu: EmpiricalSpdMeasure,
    p: float,
    L_values,
    repetitions: int,
    rng: RngState,
    L_star: int = 10_000,
) -> list[dict]:
    """Monte Carlo error of the sliced estimator versus the number of
    projections, on ``eig_uniform`` bases.

    The reference value uses a fixed basis of ``L_star`` directions drawn
    from ``rng`` itself; each (L, repetition) estimate uses a fresh basis
    on its own substream.  Requesting L == L_star reuses the reference
    basis (the estimate is the reference, error exactly zero).
    """
    reference_basis = build_projection_basis(rng, mu.dim, L_star, "eig_uniform")
    reference = spdsw(mu, nu, reference_basis, p).value

    rows = []
    for k, L in enumerate(L_values):
        if L == L_star:
            errors = np.zeros(1)
        else:
            errors = np.empty(repetitions)
            for r in range(repetitions):
                basis = build_projection_basis(
                    rng.substream(1 + r * len(L_values) + k), mu.dim, L, "eig_uniform"
                )
                errors[r] = abs(spdsw(mu, nu, basis, p).value - reference)
        half_ci = 1.96 * errors.std(ddof=1) / np.sqrt(errors.size) if errors.size > 1 else 0.0
        rows.append(
            {
                "L": int(L),
                "mean_abs_error": float(errors.mean()),
                "ci95_low": float(errors.mean() - half_ci),
                "ci95_high": float(errors.mean() + half_ci),
                "repetitions": int(errors.size),
            }
        )
    return rows
