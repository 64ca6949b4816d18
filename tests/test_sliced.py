import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdsliced import (
    EmpiricalSpdMeasure,
    EmpiricalSymMeasure,
    RngState,
    build_projection_basis,
    busemann_coordinate_ai,
    dist_log_euclidean,
    geodesic_coordinate,
    hspdsw,
    log_sw,
    mc_error_estimate,
    spdsw,
    sym_exp,
    sym_log,
    sym_sw,
    wasserstein_1d,
)
from spdsliced.errors import (
    DegenerateDirection,
    DimensionMismatch,
    EmptyMeasure,
    NotUnitNorm,
)
from spdsliced import sliced
from spdsliced.sampling import ProjectionBasis
from spdsliced.sliced import DiscrepancyReport

from conftest import assert_all_equal, random_spd, random_sym, wishart_measure


def unit_sym(rng, d):
    a = random_sym(rng, d)
    return a / np.linalg.norm(a)


def brute_force_wpp(x, y, p):
    """Independent oracle: exact W_p^p between small uniform empirical
    measures, by permutation enumeration (n == m) or sorted matching on
    the replicated common-denominator grid (n != m)."""
    x, y = np.sort(np.asarray(x, float)), np.sort(np.asarray(y, float))
    n, m = len(x), len(y)
    if n == m:
        best = math.inf
        for perm in itertools.permutations(range(n)):
            cost = sum(abs(x[i] - y[perm[i]]) ** p for i in range(n)) / n
            best = min(best, cost)
        return best
    common = math.lcm(n, m)
    xr = np.sort(np.repeat(x, common // n))
    yr = np.sort(np.repeat(y, common // m))
    return float(np.mean(np.abs(xr - yr) ** p))


class TestGeodesicCoordinate:
    def test_rejects_non_unit_direction(self, nprng):
        with pytest.raises(NotUnitNorm):
            geodesic_coordinate(2.0 * unit_sym(nprng, 3), np.eye(3))

    def test_identity_is_zero(self, nprng):
        assert geodesic_coordinate(unit_sym(nprng, 4), np.eye(4)) == 0.0

    def test_coordinate_along_geodesic(self, nprng):
        a = unit_sym(nprng, 3)
        for s in (2.5, -2.5):
            t = geodesic_coordinate(a, sym_exp(s * a))
            assert abs(t - s) <= 1e-10

    def test_lipschitz(self, nprng):
        for _ in range(1000):
            a = unit_sym(nprng, 2)
            x, y = random_spd(nprng, 2), random_spd(nprng, 2)
            gap = abs(geodesic_coordinate(a, x) - geodesic_coordinate(a, y))
            assert gap <= dist_log_euclidean(x, y) + 1e-12


class TestBusemannCoordinate:
    def test_diagonal_commuting_case(self):
        a = np.diag([0.8, -0.6]) / np.linalg.norm(np.diag([0.8, -0.6]))
        m = np.diag([2.0, 0.5])
        got = busemann_coordinate_ai(a, m)
        expected = -np.trace(a @ sym_log(m))
        assert abs(got - expected) <= 1e-14

    def test_identity_is_zero(self, nprng):
        # Zero up to the rounding of the eigh-conjugation P^T I P.
        a = unit_sym(nprng, 3)
        assert abs(busemann_coordinate_ai(a, np.eye(3))) <= 1e-12

    def test_unit_upper_triangular_invariance(self, nprng):
        # In the sorted eigenbasis (diagonal descending direction), the
        # coordinate is invariant under congruence by unit upper
        # triangular matrices.
        for _ in range(50):
            theta = np.sort(nprng.standard_normal(3))[::-1]
            theta /= np.linalg.norm(theta)
            if np.min(theta[:-1] - theta[1:]) < 1e-6:
                continue
            a = np.diag(theta)
            m = random_spd(nprng, 3)
            g = np.eye(3)
            g[np.triu_indices(3, 1)] = nprng.standard_normal(3)
            base = busemann_coordinate_ai(a, m)
            moved = busemann_coordinate_ai(a, g @ m @ g.T)
            assert abs(base - moved) <= 1e-8 * max(1.0, abs(base))

    def test_degenerate_direction_rejected(self):
        a = np.eye(2) / np.sqrt(2.0)
        with pytest.raises(DegenerateDirection):
            busemann_coordinate_ai(a, np.diag([2.0, 1.0]))


class TestWasserstein1d:
    def test_identical_samples_zero(self, nprng):
        x = nprng.standard_normal(10)
        assert wasserstein_1d(x, x, 2.0) == 0.0

    def test_two_point_example(self):
        assert wasserstein_1d([0.0, 2.0], [1.0, 3.0], 2.0) == 1.0

    def test_matches_brute_force_equal_sizes(self, nprng):
        for _ in range(30):
            n = int(nprng.integers(1, 7))
            x = nprng.standard_normal(n)
            y = nprng.standard_normal(n)
            p = float(nprng.choice([1.0, 2.0, 3.0]))
            assert abs(wasserstein_1d(x, y, p) - brute_force_wpp(x, y, p)) <= 1e-12

    def test_matches_brute_force_unequal_sizes(self, nprng):
        for _ in range(30):
            n, m = int(nprng.integers(1, 7)), int(nprng.integers(1, 7))
            x = nprng.standard_normal(n)
            y = nprng.standard_normal(m)
            p = float(nprng.choice([1.0, 2.0]))
            assert abs(wasserstein_1d(x, y, p) - brute_force_wpp(x, y, p)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.sampled_from([1.0, 2.0]),
    )
    def test_brute_force_property(self, x, y, p):
        got = wasserstein_1d(x, y, p)
        want = brute_force_wpp(x, y, p)
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMeasure):
            wasserstein_1d([], [1.0], 2.0)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([0.0], [1.0], 0.5)

    def test_overflowing_order_raises(self):
        # 3^1000 overflows; the W_p^p helper the estimators share reports it.
        with pytest.raises(OverflowError):
            wasserstein_1d([0.0], [3.0], 1000.0)
        # Finite samples whose squared gap overflows, at the default order.
        with pytest.raises(OverflowError):
            wasserstein_1d([1e200, -1e200], [0.0, 1.0])

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, p):
        # p < 1 is false for NaN, and the mean of |gap|^inf is no W_inf.
        with pytest.raises(ValueError, match="order p must be finite"):
            wasserstein_1d([0.0, 1.0], [0.5, 2.0], p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # A non-finite sample is bad input, not an overflow of W_p^p.
        for x, y in (([bad, 1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, bad])):
            with pytest.raises(ValueError, match="must be finite"):
                wasserstein_1d(x, y)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimator, kind", [
    (spdsw, "eig_uniform"), (log_sw, "vec_sphere"), (sym_sw, "eig_uniform"), (hspdsw, "eig_uniform"),
])
def test_sliced_estimators_reject_non_finite_order(estimator, kind, p):
    mu, nu = wishart_measure(1, 6, 3), wishart_measure(2, 5, 3)
    if estimator is sym_sw:
        mu, nu = EmpiricalSymMeasure(mu.logs), EmpiricalSymMeasure(nu.logs)
    basis = build_projection_basis(RngState(3), 3, 4, kind)
    with pytest.raises(ValueError, match="order p must be finite"):
        estimator(mu, nu, basis, p)


class TestSpdsw:
    def test_self_distance_zero(self):
        mu = wishart_measure(1, 15, 3)
        basis = build_projection_basis(RngState(5), 3, 20)
        assert spdsw(mu, mu, basis).value == 0.0

    def test_symmetry_exact(self):
        mu = wishart_measure(1, 12, 3)
        nu = wishart_measure(2, 12, 3)
        basis = build_projection_basis(RngState(5), 3, 20)
        assert spdsw(mu, nu, basis).value == spdsw(nu, mu, basis).value

    def test_single_atom_formula(self, nprng):
        x, y = random_spd(nprng, 3), random_spd(nprng, 3)
        mu = EmpiricalSpdMeasure(x[None])
        nu = EmpiricalSpdMeasure(y[None])
        basis = build_projection_basis(RngState(3), 3, 64)
        s = sym_log(x) - sym_log(y)
        direct = np.mean([np.sum(a * s) ** 2 for a in basis.directions])
        rep = spdsw(mu, nu, basis, 2.0)
        assert abs(rep.value - direct) <= 1e-12 * max(1.0, direct)
        assert rep.value <= dist_log_euclidean(x, y) ** 2 + 1e-12

    def test_point_order_invariance(self, nprng):
        pts = np.stack([random_spd(nprng, 3) for _ in range(8)])
        mu = EmpiricalSpdMeasure(pts)
        mu_perm = EmpiricalSpdMeasure(pts[::-1])
        nu = wishart_measure(9, 8, 3)
        basis = build_projection_basis(RngState(4), 3, 16)
        assert spdsw(mu, nu, basis).value == spdsw(mu_perm, nu, basis).value

    def test_unequal_sizes(self):
        mu = wishart_measure(1, 10, 3)
        nu = wishart_measure(2, 7, 3)
        basis = build_projection_basis(RngState(5), 3, 32)
        rep = spdsw(mu, nu, basis)
        assert rep.value > 0.0
        # Oracle on one slice: merged-grid value equals the replication oracle.
        coords_mu = basis.project_symmetric(mu.logs)[0]
        coords_nu = basis.project_symmetric(nu.logs)[0]
        assert abs(
            wasserstein_1d(coords_mu, coords_nu, 2.0)
            - brute_force_wpp(coords_mu, coords_nu, 2.0)
        ) <= 1e-12

    def test_dimension_mismatch(self):
        mu = wishart_measure(1, 5, 3)
        nu = wishart_measure(2, 5, 4)
        basis = build_projection_basis(RngState(5), 3, 4)
        with pytest.raises(DimensionMismatch):
            spdsw(mu, nu, basis)
        with pytest.raises(DimensionMismatch):
            EmpiricalSpdMeasure(np.ones((2, 3, 4)))

    def test_accepts_vec_sphere_basis(self):
        mu = wishart_measure(1, 10, 3)
        nu = wishart_measure(2, 10, 3)
        vec = build_projection_basis(RngState(6), 3, 16, "vec_sphere")
        rep = spdsw(mu, nu, vec)
        assert rep.value > 0.0
        assert rep.seed == RngState(6)

    def test_triangle_inequality_shared_basis(self):
        basis = build_projection_basis(RngState(0), 3, 30)
        mu, nu, rho = (wishart_measure(s, 10, 3) for s in (1, 2, 3))
        d_mu_nu = spdsw(mu, nu, basis).root
        d_mu_rho = spdsw(mu, rho, basis).root
        d_rho_nu = spdsw(rho, nu, basis).root
        assert d_mu_nu <= d_mu_rho + d_rho_nu + 1e-10


class TestSymSwEquivalence:
    def test_equivalence_with_spdsw(self):
        # Prop-level identity: slicing the log-pushforward with the plain
        # Frobenius inner product reproduces the SPD estimator.
        basis = build_projection_basis(RngState(4), 3, 25)
        for p in (1.0, 2.0):
            for seed in range(10):
                mu = wishart_measure(seed, 9, 3)
                nu = wishart_measure(100 + seed, 11, 3)
                a = spdsw(mu, nu, basis, p).value
                b = sym_sw(mu.log_pushforward(), nu.log_pushforward(), basis, p).value
                assert abs(a - b) <= 1e-10 * max(1.0, a)

    def test_zero_on_identical(self, nprng):
        pts = np.stack([random_sym(nprng, 3) for _ in range(6)])
        mu = EmpiricalSymMeasure(pts)
        basis = build_projection_basis(RngState(1), 3, 10)
        assert sym_sw(mu, mu, basis).value == 0.0

    def test_translation_invariance(self, nprng):
        pts_a = np.stack([random_sym(nprng, 3) for _ in range(6)])
        pts_b = np.stack([random_sym(nprng, 3) for _ in range(6)])
        shift = random_sym(nprng, 3)
        basis = build_projection_basis(RngState(2), 3, 12)
        base = sym_sw(EmpiricalSymMeasure(pts_a), EmpiricalSymMeasure(pts_b), basis).value
        moved = sym_sw(
            EmpiricalSymMeasure(pts_a + shift), EmpiricalSymMeasure(pts_b + shift), basis
        ).value
        assert abs(base - moved) <= 1e-12 * max(1.0, base)


class TestLogSw:
    def test_zero_on_identical(self):
        mu = wishart_measure(1, 8, 3)
        basis = build_projection_basis(RngState(1), 3, 10, "vec_sphere")
        assert log_sw(mu, mu, basis).value == 0.0

    def test_single_atom_bounded_by_ground_distance(self, nprng):
        x, y = random_spd(nprng, 3), random_spd(nprng, 3)
        basis = build_projection_basis(RngState(2), 3, 50, "vec_sphere")
        rep = log_sw(EmpiricalSpdMeasure(x[None]), EmpiricalSpdMeasure(y[None]), basis, 2.0)
        assert rep.value <= dist_log_euclidean(x, y) ** 2 + 1e-12

    def test_requires_vec_sphere_basis(self):
        mu = wishart_measure(1, 5, 3)
        basis = build_projection_basis(RngState(1), 3, 4, "eig_uniform")
        with pytest.raises(ValueError):
            log_sw(mu, mu, basis)

    def test_law_differs_from_symmetric_uniform(self, nprng):
        # Same single-atom pair, both estimators converge to different
        # expectations (the direction laws differ); d=2, many projections.
        d = 2
        x = np.diag([5.0, 1.0])
        y = np.eye(d)
        mu, nu = EmpiricalSpdMeasure(x[None]), EmpiricalSpdMeasure(y[None])
        s = sym_log(x)  # log difference
        L = 100_000
        eig = build_projection_basis(RngState(10), d, L, "eig_uniform")
        vec = build_projection_basis(RngState(11), d, L, "vec_sphere")
        v_eig = spdsw(mu, nu, eig, 2.0).value
        v_vec = log_sw(mu, nu, vec, 2.0).value
        # Closed-form expectations for a point mass: E<A,S>^2 under each law.
        norm2, tr2 = np.sum(s * s), np.trace(s) ** 2
        expect_eig = (2.0 * norm2 + tr2) / (d * (d + 2))
        expect_vec = norm2 / (d * (d + 1) / 2)
        assert abs(v_eig - expect_eig) <= 0.01 * expect_eig
        assert abs(v_vec - expect_vec) <= 0.01 * expect_vec
        assert abs(expect_eig - expect_vec) > 0.05 * expect_vec


class TestHspdsw:
    def test_zero_on_identical(self):
        mu = wishart_measure(3, 10, 3)
        basis = build_projection_basis(RngState(2), 3, 15)
        assert hspdsw(mu, mu, basis).value == 0.0

    def test_symmetry_exact(self):
        mu = wishart_measure(3, 10, 3)
        nu = wishart_measure(4, 10, 3)
        basis = build_projection_basis(RngState(2), 3, 15)
        assert hspdsw(mu, nu, basis).value == hspdsw(nu, mu, basis).value

    def test_commuting_diagonal_equals_spdsw(self, nprng):
        # Diagonal measures, diagonal directions: the horospherical
        # coordinate reduces to the negated geodesic coordinate and the 1D
        # values coincide.
        d = 3
        diag_pts = lambda k: np.stack([np.diag(nprng.uniform(0.5, 3.0, d)) for _ in range(k)])
        mu = EmpiricalSpdMeasure(diag_pts(7))
        nu = EmpiricalSpdMeasure(diag_pts(7))
        dirs = []
        for _ in range(12):
            theta = nprng.standard_normal(d)
            while np.min(np.abs(np.diff(np.sort(theta)))) < 1e-3:
                theta = nprng.standard_normal(d)
            dirs.append(np.diag(theta / np.linalg.norm(theta)))
        basis = ProjectionBasis(dim=d, count=12, directions=np.stack(dirs),
                                sampler_kind="eig_uniform", seed=None)
        a = hspdsw(mu, nu, basis).value
        b = spdsw(mu, nu, basis).value
        assert abs(a - b) <= 1e-10 * max(1.0, b)

    def test_requires_eig_uniform(self):
        mu = wishart_measure(1, 5, 3)
        basis = build_projection_basis(RngState(1), 3, 4, "vec_sphere")
        with pytest.raises(ValueError):
            hspdsw(mu, mu, basis)

    def test_degenerate_direction_resampled(self):
        mu = wishart_measure(1, 6, 2)
        nu = wishart_measure(2, 6, 2)
        bad = np.eye(2) / np.sqrt(2.0)
        good = np.diag([1.0, -1.0]) / np.sqrt(2.0)
        basis = ProjectionBasis(dim=2, count=2,
                                directions=np.stack([bad, good]),
                                sampler_kind="eig_uniform", seed=RngState(123))
        rep = hspdsw(mu, nu, basis)
        assert rep.degenerate_resampled >= 1
        basis_no_seed = ProjectionBasis(dim=2, count=1, directions=bad[None],
                                        sampler_kind="eig_uniform", seed=None)
        with pytest.raises(DegenerateDirection):
            hspdsw(mu, nu, basis_no_seed)

    def test_split_pool_keeps_coordinates_and_redraws(self, on_workers, monkeypatch):
        # Directions 1 and 4 are degenerate: they are redrawn in index order
        # before the coordinates run chunk by chunk on the pool.
        mu, nu = wishart_measure(1, 8, 2), wishart_measure(2, 5, 2)
        dirs = build_projection_basis(RngState(9), 2, 6).directions.copy()
        dirs[[1, 4]] = np.eye(2) / np.sqrt(2.0)
        basis = ProjectionBasis(dim=2, count=6, directions=dirs, sampler_kind="eig_uniform",
                                seed=RngState(123))
        coords = []
        monkeypatch.setattr(sliced, "_sliced_mean", lambda a, b, p: coords.append((a, b)) or 1.0)
        reports = on_workers(lambda: hspdsw(mu, nu, basis))
        assert len(set(reports)) == 1 and reports[0].degenerate_resampled == 2
        assert_all_equal(coords)


class TestDiscrepancyReport:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            DiscrepancyReport(value=-1.0, estimator="spdsw", order_p=2.0)

    def test_root(self):
        rep = DiscrepancyReport(value=4.0, estimator="spdsw", order_p=2.0)
        assert rep.root == 2.0


class TestWeakConvergenceProxy:
    def test_value_vanishes_with_log_noise_scale(self):
        # Perturb a measure in log space with shrinking noise; the
        # estimator, averaged over seeds, must decrease monotonically to 0.
        from spdsliced.linalg import exp_stack, log_stack, symmetrize

        mu = wishart_measure(42, 30, 3)
        basis = build_projection_basis(RngState(43), 3, 100)
        logs = log_stack(mu.points)
        scales = [1.0, 0.5, 0.25, 0.125, 0.0625]
        means = []
        for scale in scales:
            values = []
            for seed in range(10):
                noise = RngState(44, seed).generator().standard_normal(logs.shape)
                perturbed = EmpiricalSpdMeasure(exp_stack(logs + scale * symmetrize(noise)))
                values.append(spdsw(perturbed, mu, basis, 2.0).value)
            means.append(np.mean(values))
        assert all(b < a for a, b in zip(means, means[1:]))
        assert means[-1] < 0.05 * means[0]


class TestMcError:
    def test_error_at_reference_is_zero(self):
        mu = wishart_measure(1, 30, 2)
        nu = wishart_measure(2, 30, 2)
        rows = mc_error_estimate(mu, nu, 2.0, [10, 200], 5, RngState(3), L_star=200)
        by_l = {r["L"]: r for r in rows}
        assert by_l[200]["mean_abs_error"] == 0.0
        assert by_l[10]["mean_abs_error"] > 0.0

    def test_error_trend_nonincreasing(self):
        mu = wishart_measure(5, 40, 2)
        nu = wishart_measure(6, 40, 2)
        rows = mc_error_estimate(
            mu, nu, 2.0, [5, 20, 80, 320], 40, RngState(7), L_star=4000
        )
        errors = [r["mean_abs_error"] for r in rows]
        violations = sum(1 for a, b in zip(errors, errors[1:]) if b > a)
        assert violations <= 0.10 * 4 + 1e-9  # allow 10% noise violations
