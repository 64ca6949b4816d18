"""Exact and entropic Wasserstein baselines on precomputed ground costs.

Exact transport between uniform empirical measures reduces to a balanced
assignment (solved by scipy's shortest-augmenting-path routine); Sinkhorn
runs unconditionally in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditioned, InstanceTooLarge
from .linalg import pairwise_ai_dists, pairwise_sq_dists, vech_isometric
from .sliced import EmpiricalSpdMeasure

GROUND_METRICS = ("log_euclidean", "affine_invariant")

# Default cap on n*m for the exact solver; desk-scale baselines only.
EXACT_SIZE_CAP = 512 * 512

# Largest replicated-grid size for unequal-size exact transport.
_LCM_CAP = 4096


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise ground costs d(X_i, Y_j)^p."""

    entries: np.ndarray
    ground_metric: str
    power: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise DimensionMismatch("cost entries must be a 2D array")
        if not np.all(np.isfinite(e)) or np.any(e < 0.0):
            raise ValueError("cost entries must be finite and nonnegative")
        if self.ground_metric not in GROUND_METRICS:
            raise ValueError(f"unknown ground metric {self.ground_metric!r}")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two uniform empirical measures and its cost.

    ``marginal_violation`` is 0 for exact plans; a non-converged Sinkhorn
    iterate records its actual violation, and the marginal invariants are
    enforced at that level (floored at 1e-8).
    """

    plan: np.ndarray
    cost: float
    marginal_violation: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.plan, dtype=float)
        n, m = g.shape
        slack = max(1e-8, 1.01 * self.marginal_violation)
        if np.max(np.abs(g.sum(axis=1) - 1.0 / n)) > slack:
            raise ValueError(f"plan row sums deviate from 1/n beyond {slack:.3e}")
        if np.max(np.abs(g.sum(axis=0) - 1.0 / m)) > slack:
            raise ValueError(f"plan column sums deviate from 1/m beyond {slack:.3e}")
        g.flags.writeable = False
        object.__setattr__(self, "plan", g)


def build_cost_matrix(
    mu: EmpiricalSpdMeasure,
    nu: EmpiricalSpdMeasure,
    metric: str = "log_euclidean",
    p: float = 2.0,
) -> CostMatrix:
    """Pairwise geodesic distances to the p-th power."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if metric == "log_euclidean":
        sq = pairwise_sq_dists(vech_isometric(mu.logs), vech_isometric(nu.logs))
        entries = sq if p == 2.0 else sq ** (p / 2.0)
    elif metric == "affine_invariant":
        dist = pairwise_ai_dists(mu.points, nu.points)
        entries = dist * dist if p == 2.0 else dist**p
    else:
        raise ValueError(f"unknown ground metric {metric!r}")
    return CostMatrix(entries=entries, ground_metric=metric, power=p)


def exact_wasserstein(cost: CostMatrix, size_cap: int = EXACT_SIZE_CAP) -> TransportPlan:
    """Optimal transport between uniform marginals, solved as a balanced
    assignment (n == m) or on the replicated common-denominator grid for
    small unequal sizes."""
    from scipy.optimize import linear_sum_assignment  # scipy loads only where a command runs it

    n, m = cost.shape
    if n * m > size_cap:
        raise InstanceTooLarge(f"instance {n}x{m} exceeds the size cap {size_cap}")
    if n == m:
        rows, cols = linear_sum_assignment(cost.entries)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        value = float(cost.entries[rows, cols].sum() / n)
        return TransportPlan(plan=plan, cost=value)
    common = math.lcm(n, m)
    if common > _LCM_CAP:
        raise InstanceTooLarge(
            f"unequal sizes {n} and {m} need a replicated grid of {common} > {_LCM_CAP}"
        )
    rep_i = np.repeat(np.arange(n), common // n)
    rep_j = np.repeat(np.arange(m), common // m)
    rows, cols = linear_sum_assignment(cost.entries[np.ix_(rep_i, rep_j)])
    plan = np.zeros((n, m))
    np.add.at(plan, (rep_i[rows], rep_j[cols]), 1.0 / common)
    value = float(np.sum(plan * cost.entries))
    return TransportPlan(plan=plan, cost=value)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=axis)`` for finite real ``a``, step
    for step so results are bit-identical, without scipy's extra full-size
    ``exp`` pass for non-finite fallbacks."""
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=axis, keepdims=True, dtype=a.dtype)
    shifted = np.where(is_max, -np.inf, a)
    shifted -= a_max
    s = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.squeeze(np.log1p(s) + np.log(m) + a_max, axis=axis)


def sinkhorn(
    cost: CostMatrix,
    epsilon: float,
    max_iter: int = 100_000,
    threshold: float = 1e-10,
) -> tuple[TransportPlan, bool]:
    """Entropically regularized transport via log-domain Sinkhorn iterations.

    Stops when the worst row-marginal violation of the implied plan falls
    below ``threshold``. Returns the (best) plan and a convergence flag;
    never raises on non-convergence.  Raises ``IllConditioned`` when
    cost/epsilon is not finite or so large (>= 1/machine epsilon) that the
    potentials, which grow to that size, can no longer resolve the
    marginals' unit-scale log masses.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    n, m = cost.shape
    log_a = -math.log(n)
    log_b = -math.log(m)
    with np.errstate(over="ignore"):  # an overflow is reported below
        c = cost.entries / epsilon
    c_max = float(np.max(c))
    if not math.isfinite(c_max) or c_max * np.finfo(float).eps >= 1.0:
        raise IllConditioned(
            f"cost/epsilon reaches {c_max:.3e} (epsilon {epsilon:.3e}); log-domain "
            f"Sinkhorn needs it below {1.0 / np.finfo(float).eps:.3e}; raise epsilon"
        )
    f = np.zeros(n)
    g = np.zeros(m)
    converged = False
    violation = np.inf
    for it in range(max_iter):
        # Column marginals are exact right after each g-update, so only the
        # row violation needs monitoring; it reuses the f-update reduction.
        lse_rows = logsumexp(g[None, :] - c + log_b, axis=1)
        if it > 0:
            violation = np.max(np.abs(np.exp(f + lse_rows) - 1.0)) / n
            if violation < threshold:
                converged = True
                break
        f = -lse_rows
        g = -logsumexp(f[:, None] - c + log_a, axis=0)
    plan = np.exp(f[:, None] + g[None, :] - c + log_a + log_b)
    if not converged:  # the last violation measured an earlier iterate
        violation = max(np.max(np.abs(plan.sum(axis=1) - 1.0 / n)),
                        np.max(np.abs(plan.sum(axis=0) - 1.0 / m)))
    value = float(np.sum(plan * cost.entries))
    return TransportPlan(plan=plan, cost=value, marginal_violation=float(violation)), converged
