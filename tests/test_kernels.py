import math
import tracemalloc

import numpy as np
import pytest

from spdsliced import (
    EmpiricalSpdMeasure,
    RngState,
    build_projection_basis,
    gaussian_kernel,
    geodesic_coordinate,
    kernel_ridge_fit,
    kernel_ridge_predict,
    linalg,
    median_heuristic_bandwidth,
    midpoint_quantile_levels,
    quantile_feature,
    spdsw,
    sum_kernels,
)
from spdsliced.errors import BasisMismatch, IllConditioned, SizeMismatch
from spdsliced.kernels import GramMatrix, feature_sq_distances, gaussian_weights, kfold_indices

from conftest import on_threads, random_spd, wishart_measure


def features_for(seeds, basis, levels=None, n=40, d=3):
    return [quantile_feature(wishart_measure(s, n, d), basis, levels) for s in seeds]


class TestQuantileFeature:
    def test_single_atom_constant_columns(self, nprng):
        x = random_spd(nprng, 3)
        mu = EmpiricalSpdMeasure(x[None])
        basis = build_projection_basis(RngState(2), 3, 8)
        levels = midpoint_quantile_levels(16)
        feat = quantile_feature(mu, basis, levels)
        scale = 1.0 / np.sqrt(16 * 8)
        for i, a in enumerate(basis.directions):
            t = geodesic_coordinate(a, x)
            assert np.allclose(feat.values[:, i], t * scale, atol=1e-14)

    def test_identical_measures_bitwise_features(self):
        basis = build_projection_basis(RngState(1), 3, 10)
        mu = wishart_measure(5, 20, 3)
        nu = EmpiricalSpdMeasure(mu.points.copy())
        a = quantile_feature(mu, basis)
        b = quantile_feature(nu, basis)
        assert np.array_equal(a.values, b.values)

    def test_quantile_monotone_in_level(self):
        basis = build_projection_basis(RngState(1), 3, 6)
        feat = quantile_feature(wishart_measure(3, 30, 3), basis)
        assert np.all(np.diff(feat.values, axis=0) >= 0.0)

    def test_isometry_against_sliced_estimator(self):
        # M a multiple of n makes the midpoint discretization exact.
        basis = build_projection_basis(RngState(9), 3, 30)
        levels = midpoint_quantile_levels(500)
        mu = wishart_measure(21, 100, 3)
        nu = wishart_measure(22, 100, 3)
        fa = quantile_feature(mu, basis, levels)
        fb = quantile_feature(nu, basis, levels)
        sq = float(np.sum((fa.values - fb.values) ** 2))
        target = spdsw(mu, nu, basis, 2.0).value
        assert abs(sq - target) <= 0.05 * target

    def test_rejects_bad_levels(self):
        basis = build_projection_basis(RngState(1), 2, 3)
        mu = wishart_measure(1, 5, 2)
        with pytest.raises(ValueError):
            quantile_feature(mu, basis, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            quantile_feature(mu, basis, np.array([0.5, 0.5]))


class TestGaussianKernel:
    def test_unit_diagonal_exact(self):
        basis = build_projection_basis(RngState(4), 3, 8)
        feats = features_for(range(6), basis)
        gram = gaussian_kernel(feats, sigma=0.7)
        assert np.all(np.diag(gram.entries) == 1.0)
        assert np.array_equal(gram.entries, gram.entries.T)

    def test_sigma_whose_variance_underflows_is_rejected(self):
        # 2 sigma^2 rounds to 0 below ~1e-162, and a zero distance over it is 0/0.
        sq = np.array([[0.0, 1e-300], [1e-300, 0.0]])
        for sigma in (1e-200, 1e-163, 0.0, -1.0):
            with pytest.raises(ValueError):
                gaussian_weights(sq, sigma)
        assert np.all(np.isfinite(gaussian_weights(sq, 1e-161)))

    def test_large_sigma_saturates_to_one(self):
        basis = build_projection_basis(RngState(4), 3, 8)
        feats = features_for(range(5), basis)
        gram = gaussian_kernel(feats, sigma=1e8)
        assert np.min(gram.entries) >= 1.0 - 1e-10

    def test_gram_is_psd(self):
        basis = build_projection_basis(RngState(8), 3, 16)
        feats = features_for(range(30), basis)
        gram = gaussian_kernel(feats, median_heuristic_bandwidth(feats))
        assert gram.min_eigenvalue() >= -1e-8

    def test_basis_mismatch_rejected(self):
        basis_a = build_projection_basis(RngState(1), 3, 8)
        basis_b = build_projection_basis(RngState(2), 3, 8)
        feats = [
            quantile_feature(wishart_measure(1, 10, 3), basis_a),
            quantile_feature(wishart_measure(2, 10, 3), basis_b),
        ]
        with pytest.raises(BasisMismatch):
            gaussian_kernel(feats, 1.0)

    def test_shared_provenance_accepted(self):
        # Equal (seed, kind, count) bases are interchangeable.
        basis_a = build_projection_basis(RngState(1), 3, 8)
        basis_b = build_projection_basis(RngState(1), 3, 8)
        feats = [
            quantile_feature(wishart_measure(1, 10, 3), basis_a),
            quantile_feature(wishart_measure(2, 10, 3), basis_b),
        ]
        gaussian_kernel(feats, 1.0)


class TestSumKernels:
    def test_single_input_identity(self):
        basis = build_projection_basis(RngState(4), 3, 8)
        gram = gaussian_kernel(features_for(range(4), basis), 1.0)
        total = sum_kernels([gram])
        assert np.array_equal(total.entries, gram.entries)

    def test_diagonal_counts_bands(self):
        basis = build_projection_basis(RngState(4), 3, 8)
        feats = features_for(range(4), basis)
        grams = [gaussian_kernel(feats, s) for s in (0.5, 1.0, 2.0)]
        total = sum_kernels(grams)
        assert np.all(np.diag(total.entries) == 3.0)

    def test_sum_remains_psd(self):
        basis = build_projection_basis(RngState(4), 3, 8)
        feats = features_for(range(10), basis)
        total = sum_kernels([gaussian_kernel(feats, s) for s in (0.5, 2.0)])
        assert total.min_eigenvalue() >= -2e-8

    def test_size_mismatch(self):
        g1 = GramMatrix(entries=np.eye(3), bandwidth=1.0)
        g2 = GramMatrix(entries=np.eye(4), bandwidth=1.0)
        with pytest.raises(SizeMismatch):
            sum_kernels([g1, g2])


class TestKernelRidge:
    def test_identity_gram_closed_form(self):
        # Zero-mean targets keep the centering step inert: c = y / 2.
        gram = GramMatrix(entries=np.eye(4), bandwidth=1.0)
        y = np.array([1.0, -1.0, 2.0, -2.0])
        fit = kernel_ridge_fit(gram, y, alpha=1.0)
        assert np.allclose(fit.coefficients, y / 2.0, atol=1e-12)
        assert fit.intercept == 0.0

    def test_interpolation_limit(self):
        basis = build_projection_basis(RngState(3), 3, 16)
        feats = features_for(range(8), basis)
        gram = gaussian_kernel(feats, median_heuristic_bandwidth(feats))
        y = np.arange(8.0)
        fit = kernel_ridge_fit(gram, y, alpha=1e-10)
        preds = kernel_ridge_predict(feats, fit, feats, gram.bandwidth)
        assert np.max(np.abs(preds - y)) <= 1e-4

    def test_train_predictions_reproduce_gram_product(self):
        basis = build_projection_basis(RngState(3), 3, 16)
        feats = features_for(range(6), basis)
        sigma = median_heuristic_bandwidth(feats)
        gram = gaussian_kernel(feats, sigma)
        y = np.array([0.3, -1.2, 0.7, 2.0, -0.5, 1.1])
        fit = kernel_ridge_fit(gram, y, alpha=0.1)
        preds = kernel_ridge_predict(feats, fit, feats, sigma)
        direct = gram.entries @ fit.coefficients + fit.intercept
        assert np.max(np.abs(preds - direct)) <= 1e-12

    def test_constant_targets_predict_constant(self):
        basis = build_projection_basis(RngState(3), 3, 16)
        feats = features_for(range(6), basis)
        sigma = median_heuristic_bandwidth(feats)
        gram = gaussian_kernel(feats, sigma)
        fit = kernel_ridge_fit(gram, np.full(6, 3.25), alpha=0.5)
        preds = kernel_ridge_predict(feats, fit, features_for(range(20, 24), basis), sigma)
        assert np.max(np.abs(preds - 3.25)) <= 1e-8

    def test_permutation_equivariance(self):
        basis = build_projection_basis(RngState(3), 3, 16)
        feats = features_for(range(6), basis)
        gram = gaussian_kernel(feats, 1.0)
        y = np.array([0.3, -1.2, 0.7, 2.0, -0.5, 1.1])
        fit = kernel_ridge_fit(gram, y, alpha=0.1)
        perm = np.array([3, 0, 5, 1, 4, 2])
        gram_p = GramMatrix(entries=gram.entries[np.ix_(perm, perm)], bandwidth=1.0)
        fit_p = kernel_ridge_fit(gram_p, y[perm], alpha=0.1)
        assert np.allclose(fit_p.coefficients, fit.coefficients[perm], atol=1e-12)

    def test_ill_conditioned_rejected(self):
        entries = np.ones((5, 5))
        gram = GramMatrix(entries=entries, bandwidth=1.0)
        with pytest.raises(IllConditioned):
            kernel_ridge_fit(gram, np.arange(5.0), alpha=1e-16)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_alpha_that_is_not_positive_and_finite_rejected(self, alpha):
        # A NaN or infinite ridge would pass into the system and its eigvalsh.
        gram = GramMatrix(entries=np.eye(3), bandwidth=1.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            kernel_ridge_fit(gram, np.arange(3.0), alpha=alpha)

    def test_determinism(self):
        def run():
            basis = build_projection_basis(RngState(3), 3, 16)
            feats = features_for(range(6), basis)
            sigma = median_heuristic_bandwidth(feats)
            gram = gaussian_kernel(feats, sigma)
            fit = kernel_ridge_fit(gram, np.arange(6.0), alpha=0.1)
            return gram.entries, kernel_ridge_predict(feats, fit, feats, sigma)

        g1, p1 = run()
        g2, p2 = run()
        assert np.array_equal(g1, g2)
        assert np.array_equal(p1, p2)


class TestKfold:
    def test_partition_exact(self):
        for folds in (2, 3, 5):
            seen = []
            for train, test in kfold_indices(11, folds, shuffle_seed=1):
                assert np.intersect1d(train, test).size == 0
                seen.extend(test.tolist())
            assert sorted(seen) == list(range(11))

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 1, shuffle_seed=1)
        with pytest.raises(ValueError):
            kfold_indices(5, 6, shuffle_seed=1)


def test_feature_sq_distances_memory_is_bounded():
    # 60 features of M = L = 100: a full (60, 60, 10^4) difference is 288 MB.
    basis = build_projection_basis(RngState(9), 3, 100)
    feats = features_for(range(60), basis, midpoint_quantile_levels(100), n=20)
    tracemalloc.start()
    try:
        sq = feature_sq_distances(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.shape == (60, 60)
    assert peak < 100e6


def test_feature_sq_distances_blocks_stay_within_the_chunk_budget():
    # 40 features of M = L = 100, as in a kernel-ridge fold: beyond the
    # stacked features and the output, each of two workers holds one
    # difference block of about _CHUNK_ELEMS elements.
    basis = build_projection_basis(RngState(9), 3, 100)
    feats = features_for(range(40), basis, midpoint_quantile_levels(100), n=20)
    tracemalloc.start()
    try:
        sq = on_threads(2, lambda: feature_sq_distances(feats))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.shape == (40, 40)
    assert peak < (40 * 10_000 + 40 * 40 + 4 * linalg._CHUNK_ELEMS) * 8


def test_kernel_ridge_memory_is_bounded():
    # 200 features of M = L = 100: a full (200, 200, 10^4) difference is 3.2 GB.
    basis = build_projection_basis(RngState(9), 3, 100)
    feats = features_for(range(200), basis, midpoint_quantile_levels(100), n=20)
    targets = np.linspace(0.0, 1.0, 200)
    sigma = median_heuristic_bandwidth(feats)
    tracemalloc.start()
    try:
        fit = kernel_ridge_fit(gaussian_kernel(feats, sigma), targets, 1e-3)
        preds = kernel_ridge_predict(feats, fit, feats, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == (200,)
    assert peak < 100e6
