import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from spdsliced import (
    EmpiricalSpdMeasure,
    RngState,
    build_cost_matrix,
    exact_wasserstein,
    experiments,
    load_spd_dataset,
    save_spd_dataset,
    spdsw,
    wishart_stack,
)
from spdsliced.errors import DataValidationError
from spdsliced.experiments import (
    compute_distance,
    fit_loglog_slope,
    run_adapt,
    run_benchmark_runtime,
    run_distance,
    run_gen_wishart,
    run_kernel_ridge,
    run_projection_complexity,
    run_sample_complexity,
)
from spdsliced.linalg import exp_stack, log_stack, symmetrize
from spdsliced.sampling import build_projection_basis


@pytest.fixture
def dataset_pair(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_spd_dataset(str(a), wishart_stack(RngState(1), 8, 3, 9))
    save_spd_dataset(str(b), wishart_stack(RngState(2), 8, 3, 9))
    return str(a), str(b)


def test_fit_loglog_slope_recovers_power_law():
    xs = np.array([10.0, 100.0, 1000.0])
    ys = 3.0 * xs**-0.5
    assert abs(fit_loglog_slope(xs, ys) + 0.5) < 1e-12


class TestReproducibility:
    def test_distance_rerun_reproduces_values(self, dataset_pair):
        a, b = dataset_pair
        r1 = run_distance(a, b, "spdsw", projections=30, seed=9)
        r2 = run_distance(a, b, "spdsw", projections=30, seed=9)
        assert r1.rows == r2.rows
        assert r1.config == r2.config

    def test_sample_complexity_rerun_reproduces_values(self):
        kwargs = dict(dims=(2,), n_grid=(10, 20), repeats=3,
                      metrics=("spdsw",), projections=20, seed=4)
        r1 = run_sample_complexity(**kwargs)
        r2 = run_sample_complexity(**kwargs)
        assert r1.rows == r2.rows

    def test_projection_complexity_rerun_reproduces_values(self):
        kwargs = dict(dims=(2,), L_grid=(5, 10), L_star=50, repeats=3, n=20, seed=4)
        r1 = run_projection_complexity(**kwargs)
        r2 = run_projection_complexity(**kwargs)
        assert r1.rows == r2.rows


def _oracle_sample_complexity_values(d, n, rep, metric, projections, seed):
    """The sample-complexity inner loop as it stood before it called
    compute_distance: spdsw and exact lew restated inline."""
    stream = RngState(seed).substream(d * 1_000_000_000 + n * 100_000 + rep * 100)
    mu = EmpiricalSpdMeasure(wishart_stack(stream, n, d, 2 * d))
    nu = EmpiricalSpdMeasure(wishart_stack(stream.substream(1), n, d, 2 * d))
    if metric == "spdsw":
        basis = build_projection_basis(stream.substream(2), d, projections, "eig_uniform")
        return spdsw(mu, nu, basis, 2.0).root
    cost = build_cost_matrix(mu, nu, "log_euclidean", 2.0)
    return math.sqrt(exact_wasserstein(cost, size_cap=n * n).cost)


def test_sample_complexity_rows_equal_inline_oracle():
    repeats, projections, seed = 3, 40, 6
    report = run_sample_complexity(dims=(2, 5), n_grid=(10, 31), repeats=repeats,
                                   metrics=("spdsw", "lew"), projections=projections, seed=seed)
    want = []
    for d in (2, 5):
        for n in (10, 31):
            for metric in ("spdsw", "lew"):
                v = np.array([_oracle_sample_complexity_values(d, n, r, metric, projections, seed)
                              for r in range(repeats)])
                half = 1.96 * v.std(ddof=1) / math.sqrt(repeats)
                want.append({"metric": metric, "d": d, "n": n, "mean_abs": float(v.mean()),
                             "ci95_low": float(v.mean() - half),
                             "ci95_high": float(v.mean() + half), "repeats": repeats})
    assert report.rows == want


def test_compute_distance_rejects_unknown_metric(dataset_pair):
    mu, nu = (load_spd_dataset(p).measure for p in dataset_pair)
    with pytest.raises(ValueError, match="unknown metric"):
        compute_distance(mu, nu, "foo")


class TestBenchmarkRuntime:
    def test_row_count_is_grid_times_metrics(self):
        report = run_benchmark_runtime(
            n_grid=(10, 20, 40), d=2, projections=5,
            metrics=("spdsw", "lew"), repeats=1, seed=1,
        )
        assert len(report.rows) == 3 * 2

    def test_cost_cap_skips_quadratic_metrics(self):
        report = run_benchmark_runtime(
            n_grid=(10, 200), d=2, projections=5,
            metrics=("spdsw", "lew"), repeats=1, seed=1,
            max_cost_bytes=8.0 * 100 * 100,
        )
        lew = {r["n"]: r for r in report.rows if r["metric"] == "lew"}
        assert not lew[10]["skipped"]
        assert lew[200]["skipped"]
        spdsw_rows = [r for r in report.rows if r["metric"] == "spdsw"]
        assert not any(r["skipped"] for r in spdsw_rows)


class TestGenWishart:
    def test_class_counts_balanced(self, tmp_path):
        out = tmp_path / "g.json"
        run_gen_wishart(str(out), d=3, n=11, dof=7, seed=2, classes=3)
        from spdsliced import load_spd_dataset

        loaded = load_spd_dataset(str(out))
        counts = np.bincount(loaded.labels)
        assert counts.tolist() == [4, 4, 3]

    def test_rejects_bad_dof(self, tmp_path):
        with pytest.raises(DataValidationError):
            run_gen_wishart(str(tmp_path / "g.json"), d=5, n=3, dof=2)

    def test_shift_matches_einsum_form(self, tmp_path):
        # The shifted logs R^T L R + T against the einsum the shift used
        # before it became a batched matmul: 1e-13 relative to the largest
        # entry, at the learning benchmark's sizes.
        src, dst = tmp_path / "s.json", tmp_path / "t.json"
        run_gen_wishart(str(src), d=5, n=200, dof=40, seed=3, classes=2, shift_angle=0.5,
                        shift_identity=0.693, shift_random=0.5, output_shifted=str(dst))
        gen = RngState(3).substream(10_000).generator()
        omega = gen.standard_normal((5, 5))
        rotation = expm(experiments._with_norm(0.5 * (omega - omega.T), 0.5))
        translation = 0.693 * np.eye(5) + experiments._with_norm(
            symmetrize(gen.standard_normal((5, 5))), 0.5)
        logs = log_stack(load_spd_dataset(str(src)).measure.points)
        want = exp_stack(np.einsum("ba,nbc,cd->nad", rotation, logs, rotation) + translation)
        got = load_spd_dataset(str(dst)).measure.points
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestAdapt:
    def test_requires_source_labels(self, dataset_pair, tmp_path):
        a, b = dataset_pair
        with pytest.raises(DataValidationError):
            run_adapt(a, b, epochs=1, projections=5)

    def test_unlabeled_target_skips_accuracy(self, tmp_path):
        src, dst = tmp_path / "s.json", tmp_path / "t.json"
        run_gen_wishart(str(src), d=2, n=8, dof=6, seed=1, classes=2)
        save_spd_dataset(str(dst), wishart_stack(RngState(9), 8, 2, 6))
        report = run_adapt(str(src), str(dst), epochs=2, projections=5, seed=1)
        summary = report.rows[0]
        assert summary["before_accuracy"] is None
        assert summary["after_accuracy"] is None


class TestKernelRidgeManifests:
    def test_rejects_malformed_manifest(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps([{"target": 1.0}]))
        with pytest.raises(DataValidationError):
            run_kernel_ridge(str(bad))

    def test_rejects_band_count_disagreement(self, tmp_path, dataset_pair):
        a, b = dataset_pair
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"paths": [a], "target": 1.0},
            {"paths": [a, b], "target": 2.0},
        ]))
        with pytest.raises(DataValidationError):
            run_kernel_ridge(str(manifest))

    def test_multiband_sums_kernels(self, tmp_path):
        entries = []
        for i in range(6):
            p1, p2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            scale = 1.0 + 0.2 * i
            save_spd_dataset(str(p1), wishart_stack(RngState(50 + i), 15, 2, 8,
                                                    scale=scale * np.eye(2)))
            save_spd_dataset(str(p2), wishart_stack(RngState(80 + i), 15, 2, 8,
                                                    scale=scale * np.eye(2)))
            entries.append({"paths": [str(p1), str(p2)], "target": scale})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        report = run_kernel_ridge(str(manifest), folds=2, projections=15,
                                  quantiles=15, alpha=1e-8, seed=3)
        folds = [r for r in report.rows if r["record"] == "fold"]
        assert len(folds) == 2
        assert all(np.isfinite(r["mae"]) for r in folds)

    def test_more_folds_than_entries_names_both_counts(self, tmp_path):
        # Rejected from the manifest alone: the listed files are never read.
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            [{"path": str(tmp_path / f"missing{i}.json"), "target": float(i)} for i in range(6)]
        ))
        with pytest.raises(DataValidationError, match=r"9 folds exceed the 6 manifest entries"):
            run_kernel_ridge(str(manifest), folds=9)

    def test_each_dataset_loaded_once(self, tmp_path, monkeypatch):
        entries = []
        for i in range(6):
            p = tmp_path / f"m{i}.json"
            save_spd_dataset(str(p), wishart_stack(RngState(60 + i), 12, 2, 6))
            entries.append({"path": str(p), "target": float(i)})
        train, test = tmp_path / "train.json", tmp_path / "test.json"
        train.write_text(json.dumps(entries[:4]))
        test.write_text(json.dumps(entries[4:]))
        loaded = []
        real_load = experiments.load_spd_dataset

        def counting_load(path):
            loaded.append(path)
            return real_load(path)

        monkeypatch.setattr(experiments, "load_spd_dataset", counting_load)
        run_kernel_ridge(str(train), str(test), folds=2, projections=10, quantiles=10,
                         alpha=1e-6, seed=1)
        assert sorted(loaded) == sorted(e["path"] for e in entries)


# -- one feature-distance matrix per band and run ------------------------------


def _oracle_fit_predict(band_feats_train, band_feats_test, targets_train, sigma_flag, alpha):
    # The per-fold fit as it ran before each band's distances were computed
    # once per run: bandwidth, Gram and cross kernel from the features.
    from spdsliced.kernels import (
        cross_sq_distances,
        gaussian_kernel,
        kernel_ridge_fit,
        median_heuristic_bandwidth,
        sum_kernels,
    )

    sigmas, grams, crosses = [], [], []
    for feats_train, feats_test in zip(band_feats_train, band_feats_test):
        sigma = (
            median_heuristic_bandwidth(feats_train)
            if sigma_flag == "median"
            else float(sigma_flag)
        )
        sigmas.append(sigma)
        grams.append(gaussian_kernel(feats_train, sigma))
        crosses.append(
            np.exp(-cross_sq_distances(feats_test, feats_train) / (2.0 * sigma * sigma))
        )
    fit = kernel_ridge_fit(sum_kernels(grams), targets_train, alpha)
    return np.sum(crosses, axis=0) @ fit.coefficients + fit.intercept, sigmas


def _oracle_kernel_ridge_rows(train, test, folds, projections, quantiles, sigma, alpha, seed):
    from spdsliced.experiments import _band_features, _load_manifest, _scores
    from spdsliced.kernels import kfold_indices, midpoint_quantile_levels
    from spdsliced.sampling import build_projection_basis

    entries = _load_manifest(train)
    levels = midpoint_quantile_levels(quantiles)
    band_feats, basis = _band_features(
        entries, levels,
        lambda dim: build_projection_basis(RngState(seed), dim, projections, "eig_uniform"),
    )
    targets = np.array([e["target"] for e in entries])
    rows, predictions = [], []
    for fold, (train_idx, test_idx) in enumerate(kfold_indices(len(entries), folds, seed)):
        preds, sigmas = _oracle_fit_predict(
            [[fb[i] for i in train_idx] for fb in band_feats],
            [[fb[i] for i in test_idx] for fb in band_feats],
            targets[train_idx], sigma, alpha,
        )
        rows.append({"record": "fold", "fold": fold, **_scores(preds, targets[test_idx]),
                     "sigma": sigmas[0] if len(sigmas) == 1 else None})
        predictions.extend(
            {"record": "prediction", "fold": fold, "index": int(i),
             "target": float(targets[i]), "prediction": float(pv)}
            for i, pv in zip(test_idx, preds)
        )
    if test is not None:
        test_entries = _load_manifest(test)
        test_feats, _ = _band_features(test_entries, levels, lambda dim: basis)
        preds, _ = _oracle_fit_predict(band_feats, test_feats, targets, sigma, alpha)
        truth = np.array([e["target"] for e in test_entries])
        rows.append({"record": "test", "fold": None, **_scores(preds, truth), "sigma": None})
    return rows + predictions


def _two_band_manifest(tmp_path, name, count, seed):
    entries = []
    for i in range(count):
        scale = 1.0 + 0.15 * i
        paths = []
        for band in range(2):
            p = tmp_path / f"{name}{i}b{band}.json"
            save_spd_dataset(str(p), wishart_stack(RngState(seed + 100 * band + i), 12 + 3 * band,
                                                   3, 8, scale=scale * np.eye(3)))
            paths.append(str(p))
        entries.append({"paths": paths, "target": scale})
    manifest = tmp_path / f"{name}.json"
    manifest.write_text(json.dumps(entries))
    return str(manifest)


class TestKernelRidgeDistancesOncePerRun:
    @pytest.mark.parametrize("sigma", ["median", 0.2])
    @pytest.mark.parametrize("with_test", [False, True], ids=["cv", "cv-and-test"])
    def test_rows_equal_per_fold_oracle(self, tmp_path, with_test, sigma):
        train = _two_band_manifest(tmp_path, "train", 9, 300)
        test = _two_band_manifest(tmp_path, "test", 4, 700) if with_test else None
        args = dict(folds=3, projections=12, quantiles=11, sigma=sigma, alpha=1e-6, seed=5)
        report = run_kernel_ridge(train, test, **args)
        assert report.rows == _oracle_kernel_ridge_rows(train, test, **args)

    @pytest.mark.parametrize("with_test", [False, True], ids=["cv", "cv-and-test"])
    def test_one_distance_matrix_per_band(self, tmp_path, monkeypatch, with_test):
        from spdsliced import kernels

        train = _two_band_manifest(tmp_path, "train", 8, 900)
        test = _two_band_manifest(tmp_path, "test", 3, 950) if with_test else None
        shapes = []
        real = kernels.pairwise_sq_dists

        def counting(x, y):
            shapes.append((len(x), len(y)))
            return real(x, y)

        monkeypatch.setattr(kernels, "pairwise_sq_dists", counting)
        run_kernel_ridge(train, test, folds=4, projections=10, quantiles=10, seed=2)
        assert shapes == [(8, 8)] * 2 + ([(3, 8)] * 2 if with_test else [])
