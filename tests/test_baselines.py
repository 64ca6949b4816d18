import importlib.util
import itertools
import math
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp as scipy_logsumexp

from spdsliced import (
    EmpiricalSpdMeasure,
    build_cost_matrix,
    exact_wasserstein,
    sinkhorn,
    sym_exp,
    wasserstein_1d,
)
from spdsliced import baselines
from spdsliced.baselines import CostMatrix, TransportPlan, logsumexp
from spdsliced.errors import DimensionMismatch, IllConditioned, InstanceTooLarge

from conftest import random_sym, wishart_measure


def brute_force_assignment(cost):
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def linprog_transport(cost):
    """Independent LP oracle for small unequal-size instances."""
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def _oracle_exact_wasserstein(entries):
    """The two-branch solver the single grid replaced: a plain assignment at
    n == m, the replicated grid at n != m with the cost summed over the plan."""
    n, m = entries.shape
    if n == m:
        rows, cols = linear_sum_assignment(entries)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        return plan, float(entries[rows, cols].sum() / n)
    common = math.lcm(n, m)
    rep_i = np.repeat(np.arange(n), common // n)
    rep_j = np.repeat(np.arange(m), common // m)
    rows, cols = linear_sum_assignment(entries[np.ix_(rep_i, rep_j)])
    plan = np.zeros((n, m))
    np.add.at(plan, (rep_i[rows], rep_j[cols]), 1.0 / common)
    return plan, float(np.sum(plan * entries))


class TestCostMatrix:
    def test_zero_diagonal_on_self(self):
        mu = wishart_measure(1, 8, 3)
        cost = build_cost_matrix(mu, mu)
        assert np.all(np.diag(cost.entries) == 0.0)
        assert np.array_equal(cost.entries, cost.entries.T)

    def test_commuting_diagonal_metrics_agree(self, nprng):
        pts_a = np.stack([np.diag(nprng.uniform(0.5, 4.0, 3)) for _ in range(5)])
        pts_b = np.stack([np.diag(nprng.uniform(0.5, 4.0, 3)) for _ in range(6)])
        mu, nu = EmpiricalSpdMeasure(pts_a), EmpiricalSpdMeasure(pts_b)
        le = build_cost_matrix(mu, nu, "log_euclidean", 2.0).entries
        ai = build_cost_matrix(mu, nu, "affine_invariant", 2.0).entries
        assert np.max(np.abs(le - ai)) <= 1e-10 * max(1.0, np.max(le))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_cost_matrix(wishart_measure(1, 3, 2), wishart_measure(2, 3, 3))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CostMatrix(entries=np.array([[-1.0]]), ground_metric="log_euclidean", power=2.0)


class TestExactWasserstein:
    def test_single_pair(self):
        cost = CostMatrix(entries=np.array([[3.5]]), ground_metric="log_euclidean", power=2.0)
        plan = exact_wasserstein(cost)
        assert plan.cost == 3.5
        assert plan.plan[0, 0] == 1.0

    def test_matches_permutation_brute_force(self, nprng):
        for n in (2, 4, 6):
            entries = nprng.uniform(0.0, 5.0, (n, n))
            cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
            got = exact_wasserstein(cost).cost
            assert abs(got - brute_force_assignment(entries)) <= 1e-12

    def test_plan_is_scaled_permutation(self, nprng):
        entries = nprng.uniform(0.0, 5.0, (5, 5))
        plan = exact_wasserstein(
            CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        ).plan
        assert np.allclose(np.sort(plan.ravel())[-5:], 0.2)
        assert np.count_nonzero(plan) == 5

    def test_unequal_sizes_match_lp(self, nprng):
        for n, m in ((1, 3), (2, 3), (4, 6), (3, 5)):
            entries = nprng.uniform(0.0, 5.0, (n, m))
            cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
            got = exact_wasserstein(cost)
            assert abs(got.cost - linprog_transport(entries)) <= 1e-9

    def test_one_dimensional_embedding_matches_sorted(self, nprng):
        # All points on one geodesic: exact OT must equal the 1D solution.
        a = random_sym(nprng, 3)
        a /= np.linalg.norm(a)
        tx = nprng.uniform(-2.0, 2.0, 8)
        ty = nprng.uniform(-2.0, 2.0, 8)
        mu = EmpiricalSpdMeasure(np.stack([sym_exp(t * a) for t in tx]))
        nu = EmpiricalSpdMeasure(np.stack([sym_exp(t * a) for t in ty]))
        cost = build_cost_matrix(mu, nu, "log_euclidean", 2.0)
        assert abs(exact_wasserstein(cost).cost - wasserstein_1d(tx, ty, 2.0)) <= 1e-12

    def test_optimality_lower_bounds_random_plans(self, nprng):
        n = 6
        entries = nprng.uniform(0.0, 3.0, (n, n))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        opt = exact_wasserstein(cost).cost
        for _ in range(100):
            # Random feasible plan by Sinkhorn-scaling a positive matrix.
            raw = nprng.uniform(0.1, 1.0, (n, n))
            for _ in range(200):
                raw *= (1.0 / n) / raw.sum(axis=1, keepdims=True)
                raw *= (1.0 / n) / raw.sum(axis=0, keepdims=True)
            assert opt <= np.sum(raw * entries) + 1e-9

    def test_size_cap(self):
        entries = np.zeros((40, 40))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        with pytest.raises(InstanceTooLarge):
            exact_wasserstein(cost, size_cap=100)

    def test_unequal_lcm_cap(self):
        entries = np.zeros((512, 511))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        with pytest.raises(InstanceTooLarge):
            exact_wasserstein(cost, size_cap=10**9)


class TestOneAssignmentGrid:
    @pytest.mark.parametrize("n, m", [(1, 1), (5, 5), (40, 40), (30, 25), (7, 5), (12, 8),
                                      (25, 30), (1, 4), (6, 9)])
    def test_matches_two_branch_oracle(self, n, m):
        # Integer-valued costs leave ties, so the plan check covers the
        # solver's tie-breaking on the grid too.
        rng = np.random.default_rng(1000 * n + m)
        for entries in (rng.uniform(0.0, 5.0, (n, m)), rng.integers(0, 4, (n, m)) * 1.0):
            got = exact_wasserstein(
                CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0))
            plan, cost = _oracle_exact_wasserstein(entries)
            assert np.array_equal(got.plan, plan)
            if n == m:
                assert got.cost == cost
            else:  # the plan's atoms are summed in another order
                assert abs(got.cost - cost) <= 1e-15 * cost

    def test_equal_sizes_solve_the_cost_matrix_itself(self, monkeypatch):
        seen = []

        def solve(grid):
            seen.append(grid)
            return linear_sum_assignment(grid)

        monkeypatch.setattr(baselines, "_assignment_solver",
                            lambda: types.SimpleNamespace(linear_sum_assignment=solve))
        cost = CostMatrix(entries=np.arange(36.0).reshape(6, 6) % 7,
                          ground_metric="log_euclidean", power=2.0)
        exact_wasserstein(cost)
        assert seen[0] is cost.entries
        exact_wasserstein(CostMatrix(entries=np.ones((6, 4)), ground_metric="log_euclidean",
                                     power=2.0))
        assert seen[1].shape == (12, 12)


_IMPORT_ORDER_PROBE = """
import sys
import numpy as np
from spdsliced.baselines import _assignment_solver
cost = np.random.default_rng(5).integers(0, 4, (30, 30)).astype(float)
if sys.argv[1] == "solver-first":
    got = _assignment_solver().linear_sum_assignment(cost)
    assert "scipy.optimize" not in sys.modules
    from scipy.optimize import linear_sum_assignment
else:
    from scipy.optimize import linear_sum_assignment
    got = _assignment_solver().linear_sum_assignment(cost)
for rows, cols in (got, _assignment_solver().linear_sum_assignment(cost)):
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
"""


def _replicated_grid(rng, n, m):
    common = math.lcm(n, m)
    cost = rng.random((n, m))
    return cost[np.ix_(np.repeat(np.arange(n), common // n), np.repeat(np.arange(m), common // m))]


class TestAssignmentSolver:
    """The extension loaded from scipy's directory, and the public import
    that replaces it when the directory holds none, give the assignment of
    ``scipy.optimize.linear_sum_assignment``."""

    @pytest.fixture(params=["extension", "fallback"])
    def solver(self, request, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap", raising=False)
        if request.param == "fallback":
            (tmp_path / "optimize").mkdir()
            find_spec = importlib.util.find_spec
            monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: (
                types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
                if name == "scipy" else find_spec(name, package)))
        baselines._assignment_solver.cache_clear()
        solver = baselines._assignment_solver()
        yield request.param, solver
        baselines._assignment_solver.cache_clear()

    def test_loads_from_the_branch(self, solver):
        branch, module = solver
        assert module.__name__ == {"extension": "scipy.optimize._lsap",
                                   "fallback": "scipy.optimize"}[branch]

    @pytest.mark.parametrize("case", ["random", "ties", "grid"])
    def test_matches_scipy_optimize(self, solver, case):
        rng = np.random.default_rng(11)
        costs = {
            "random": [rng.random((k, k)) for k in (1, 2, 7, 50, 200)],
            "ties": [rng.integers(0, k, (40, 40)).astype(float) for k in (1, 2, 3)],
            "grid": [_replicated_grid(rng, n, m) for n, m in ((4, 6), (9, 6), (10, 25))],
        }[case]
        for cost in costs:
            rows, cols = solver[1].linear_sum_assignment(cost)
            ref_rows, ref_cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("order", ["solver-first", "scipy-first"])
    def test_either_import_order(self, order):
        out = subprocess.run([sys.executable, "-c", _IMPORT_ORDER_PROBE, order],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestLogsumexp:
    """``baselines.logsumexp`` repeats scipy's arithmetic, so it must agree
    with ``scipy.special.logsumexp`` bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (200, 200)])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("scale, offset, decimals", [
        (1.0, 0.0, None), (30.0, 0.0, None), (1e-3, 0.0, None),
        (3.0, 0.0, 0), (1.0, 0.0, 1),  # rounded entries tie for the max
        (5.0, 1e8, None), (5.0, -1e12, 0),  # large offsets
    ])
    def test_bitwise_equal_to_scipy(self, nprng, shape, axis, scale, offset, decimals):
        a = scale * nprng.standard_normal(shape) + offset
        if decimals is not None:
            a = np.round(a, decimals)
        ours, ref = logsumexp(a, axis), scipy_logsumexp(a, axis=axis)
        assert ours.shape == ref.shape
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))

    def test_all_entries_tied(self):
        a = np.full((4, 5), -2.5)
        for axis in (0, 1):
            assert np.array_equal(logsumexp(a, axis), scipy_logsumexp(a, axis=axis))


class TestSinkhorn:
    def test_large_epsilon_approaches_uniform_plan(self, nprng):
        entries = nprng.uniform(0.0, 2.0, (6, 6))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        plan, converged = sinkhorn(cost, epsilon=1e6)
        assert converged
        uniform_cost = entries.mean()
        assert abs(plan.cost - uniform_cost) <= 1e-4 * uniform_cost

    def test_small_epsilon_approaches_exact(self, nprng):
        # At eps this small the 1e-10 marginal threshold is out of reach
        # within the iteration cap (linear rate degrades with eps), but the
        # transport cost of the best iterate matches the exact optimum.
        mu = wishart_measure(3, 4, 2)
        nu = wishart_measure(4, 4, 2)
        cost = build_cost_matrix(mu, nu, "log_euclidean", 2.0)
        exact = exact_wasserstein(cost).cost
        eps = 1e-3 * float(np.median(cost.entries))
        plan, _ = sinkhorn(cost, epsilon=eps)
        assert abs(plan.cost - exact) <= 0.01 * exact

    @pytest.mark.parametrize("epsilon", [1e-320, 1e-300, 1e-15])
    def test_cost_over_epsilon_beyond_float_resolution_is_ill_conditioned(self, epsilon):
        # 1e-320 makes cost/epsilon overflow; at 1e-300 and 1e-15 it stays
        # finite but no potential that large resolves log(1/n).
        entries = np.array([[0.5, 30.0], [20.0, 1.0]])
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        with pytest.raises(IllConditioned):
            sinkhorn(cost, epsilon=epsilon)

    def test_marginals_on_convergence(self, nprng):
        entries = nprng.uniform(0.0, 2.0, (5, 7))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        plan, converged = sinkhorn(cost, epsilon=0.5)
        assert converged
        assert np.max(np.abs(plan.plan.sum(axis=1) - 1.0 / 5)) < 1e-10
        assert np.max(np.abs(plan.plan.sum(axis=0) - 1.0 / 7)) < 2e-10

    def test_cost_upper_bounds_exact(self, nprng):
        # Any feasible plan costs at least the optimum.
        entries = nprng.uniform(0.0, 2.0, (6, 6))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        exact = exact_wasserstein(cost).cost
        plan, _ = sinkhorn(cost, epsilon=0.1)
        assert plan.cost >= exact - 1e-10

    def test_non_convergence_returns_flag(self, nprng):
        entries = nprng.uniform(0.0, 2.0, (5, 5))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        plan, converged = sinkhorn(cost, epsilon=1e-4, max_iter=3)
        assert not converged
        assert np.isfinite(plan.cost)

    @pytest.mark.parametrize("size,epsilon,max_iter", [(5, 1e-2, 3), (20, 1e-3, 200)])
    def test_unconverged_violation_is_the_returned_plans(self, nprng, size, epsilon, max_iter):
        # The last in-loop violation measures the iterate before the final
        # f and g updates; the recorded one must be the returned plan's.
        entries = nprng.uniform(0.0, 2.0, (size, size))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        result, converged = sinkhorn(cost, epsilon=epsilon, max_iter=max_iter)
        g = result.plan
        actual = max(np.max(np.abs(g.sum(axis=1) - 1.0 / size)),
                     np.max(np.abs(g.sum(axis=0) - 1.0 / size)))
        assert not converged
        assert result.marginal_violation == pytest.approx(actual, rel=1e-12)

    def test_rejects_bad_epsilon(self):
        cost = CostMatrix(entries=np.ones((2, 2)), ground_metric="log_euclidean", power=2.0)
        with pytest.raises(ValueError):
            sinkhorn(cost, epsilon=0.0)


class TestTransportPlanInvariants:
    def test_cost_consistent_with_plan(self, nprng):
        entries = nprng.uniform(0.0, 3.0, (4, 4))
        cost = CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        plan = exact_wasserstein(cost)
        assert abs(plan.cost - np.sum(plan.plan * entries)) <= 1e-10 * max(1.0, plan.cost)

    def test_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            TransportPlan(plan=np.array([[0.6, 0.0], [0.0, 0.25]]), cost=0.0)
