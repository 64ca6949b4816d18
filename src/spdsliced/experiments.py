"""Synthetic experiment protocols: distance evaluation, runtime scaling,
sample and projection complexity, domain adaptation, and distribution
regression.  Each runner returns an :class:`ExperimentReport` that, replayed
with its echoed config, reproduces the result values.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from . import sliced
from .adaptation import (
    AdaptationConfig,
    evaluate_transfer,
    run_adaptation,
    train_log_linear_classifier,
)
from .baselines import EXACT_SIZE_CAP, build_cost_matrix, exact_wasserstein, sinkhorn
from .data_io import (
    ExperimentReport,
    encode_spd_dataset,
    load_spd_dataset,
    save_spd_dataset,
    staged_writes,
    write_report,
)
from .errors import DataValidationError, DimensionMismatch, MissingLabels
from .kernels import (
    cross_sq_distances,
    feature_sq_distances,
    gaussian_gram,
    gaussian_weights,
    kernel_ridge_fit,
    kfold_indices,
    median_heuristic_sq,
    midpoint_quantile_levels,
    quantile_feature,
    sum_kernels,
)
from .linalg import _finite, exp_stack, log_stack, sym_dim, symmetrize
from .sampling import RngState, build_projection_basis, wishart_stack
from .sliced import (
    SLICED_ESTIMATORS,
    DiscrepancyReport,
    EmpiricalSpdMeasure,
    mc_error_estimate,
)

SLICED_METRICS = tuple(SLICED_ESTIMATORS)
COST_METRICS = ("lew", "les", "aiw")
ALL_METRICS = SLICED_METRICS + COST_METRICS
SAMPLE_COMPLEXITY_METRICS = ("spdsw", "lew")


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def _measure_pair(paths: tuple[str, str]) -> tuple[EmpiricalSpdMeasure, EmpiricalSpdMeasure]:
    mu = load_spd_dataset(paths[0]).measure
    nu = load_spd_dataset(paths[1]).measure
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dataset dims differ: {mu.dim} vs {nu.dim}")
    return mu, nu


def compute_distance(
    mu: EmpiricalSpdMeasure,
    nu: EmpiricalSpdMeasure,
    metric: str,
    projections: int = 200,
    order: float = 2.0,
    rng: RngState = RngState(0),
    epsilon: float = 1.0,
    exact_size_cap: int = EXACT_SIZE_CAP,
) -> DiscrepancyReport:
    """Evaluate one discrepancy; a sliced metric draws its basis from ``rng``."""
    if metric in SLICED_ESTIMATORS:
        name, kind = SLICED_ESTIMATORS[metric]
        basis = build_projection_basis(rng, mu.dim, projections, kind or "eig_uniform")
        return getattr(sliced, name)(mu, nu, basis, order)
    if metric not in COST_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    ground = "affine_invariant" if metric == "aiw" else "log_euclidean"
    cost = build_cost_matrix(mu, nu, ground, order)
    converged = None
    if metric == "les":
        plan, converged = sinkhorn(cost, epsilon=epsilon)
    else:
        plan = exact_wasserstein(cost, size_cap=exact_size_cap)
    return DiscrepancyReport(
        value=plan.cost,
        estimator={"lew": "lew_exact", "les": "le_sinkhorn", "aiw": "aiw_exact"}[metric],
        order_p=order,
        converged=converged,
    )


def run_distance(
    file_a: str,
    file_b: str,
    metric: str,
    projections: int = 200,
    order: float = 2.0,
    seed: int = 0,
    epsilon: float = 1.0,
) -> ExperimentReport:
    """Distance between two dataset files.

    The report body is deterministic for a fixed seed (wall time is not
    serialized in it), so identical runs write identical bytes.
    """
    mu, nu = _measure_pair((file_a, file_b))
    rep = compute_distance(mu, nu, metric, projections, order, RngState(seed), epsilon=epsilon)
    config = {
        "file_a": file_a,
        "file_b": file_b,
        "metric": metric,
        "projections": projections if metric in SLICED_METRICS else None,
        "order": order,
        "seed": seed if metric in SLICED_METRICS else None,
        "sampler": "eig" if metric == "spdsw" else None,
        "epsilon": epsilon if metric == "les" else None,
        "sizes": [len(mu), len(nu)],
        "dim": mu.dim,
    }
    row = {
        "metric": metric,
        "estimator": rep.estimator,
        "value": rep.value,
        "root": rep.root,
        "order_p": rep.order_p,
        "num_projections": rep.num_projections,
        "degenerate_resampled": rep.degenerate_resampled,
        "converged": rep.converged,
    }
    return ExperimentReport(experiment="distance", config=config, rows=[row], timing=None)


# -- synthetic data provisioning ----------------------------------------------


def _with_norm(a: np.ndarray, size: float) -> np.ndarray:
    """``a`` rescaled to Frobenius norm ``size`` (zero if either is zero)."""
    norm = np.linalg.norm(a)
    return a * (size / norm) if size != 0.0 and norm > 0.0 else np.zeros_like(a)


def run_gen_wishart(
    output: str,
    d: int,
    n: int,
    dof: int,
    seed: int = 0,
    scale_path: str | None = None,
    classes: int | None = None,
    class_scale_step: float = 1.0,
    shift_angle: float = 0.0,
    shift_identity: float = 0.0,
    shift_random: float = 0.0,
    output_shifted: str | None = None,
) -> ExperimentReport:
    """Generate Wishart dataset files; with classes, per-class scales
    (1 + step*k) I; with a shift, a paired copy conjugated by a rotation
    and translated in log space (simulated domain gap)."""
    if dof < d:
        raise DataValidationError(f"dof ({dof}) must be at least the dimension ({d})")
    rng = RngState(seed)
    base_scale = None
    if scale_path is not None:
        base_scale = load_spd_dataset(scale_path).measure.points[0]

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by _finite
        if classes is not None and classes >= 2:
            counts = [n // classes + (1 if k < n % classes else 0) for k in range(classes)]
            blocks, labels = [], []
            for k, nk in enumerate(counts):
                factor = 1.0 + class_scale_step * k
                scale = _finite(factor * (np.eye(d) if base_scale is None else base_scale),
                                "class scale")
                blocks.append(wishart_stack(rng.substream(k), nk, d, dof, scale=scale))
                labels.extend([k] * nk)
            points = np.concatenate(blocks)
            labels = np.asarray(labels, dtype=int)
        else:
            points = wishart_stack(rng, n, d, dof, scale=base_scale)
            labels = None
        points = _finite(points, "Wishart stack")
    files = [(output, points)]  # saved once the shift has been computed: a failing one writes nothing
    if output_shifted is not None:
        if shift_angle == 0.0 and shift_identity == 0.0 and shift_random == 0.0:
            shifted = points  # identity shift: byte-identical pair
        else:
            gen = rng.substream(10_000).generator()
            omega = gen.standard_normal((d, d))
            rotation = exp_stack(_with_norm(0.5 * (omega - omega.T), shift_angle)[None])[0]
            rand_sym = _with_norm(symmetrize(gen.standard_normal((d, d))), shift_random)
            logs = log_stack(points)
            with np.errstate(over="ignore"):  # an overflow is reported by _finite or exp_stack
                translation = shift_identity * np.eye(d) + rand_sym
                shifted = exp_stack(_finite(rotation.T @ logs @ rotation + translation,
                                            "shifted log stack"))
        files.append((output_shifted, shifted))
    # The shifted file is written before the dataset is saved and renamed
    # after it, so a failing write leaves neither file.
    with staged_writes([(path, encode_spd_dataset(stack, labels)) for path, stack in files[1:]]):
        save_spd_dataset(output, points, labels)
    rows = [{"path": path, "count": int(n), "dim": int(d), "labels": labels is not None}
            for path, _ in files]

    config = {
        "d": d, "n": n, "dof": dof, "seed": seed, "scale_path": scale_path,
        "classes": classes, "class_scale_step": class_scale_step,
        "shift_angle": shift_angle, "shift_identity": shift_identity,
        "shift_random": shift_random,
    }
    return ExperimentReport(experiment="gen_wishart", config=config, rows=rows, timing=None)


# -- runtime scaling -----------------------------------------------------------


def run_benchmark_runtime(
    n_grid=(100, 215, 464, 1000, 2154, 4641, 10000, 21544, 46415, 100000),
    d: int = 20,
    projections: int = 200,
    metrics=("spdsw", "logsw", "lew", "les"),
    repeats: int = 20,
    seed: int = 0,
    epsilon: float = 1.0,
    max_cost_bytes: float = 2e8,
    dof: int | None = None,
) -> ExperimentReport:
    """Wall time of each discrepancy versus the number of samples.  Each repeat draws
    one read-only Wishart stack per side; every metric gets fresh measures that share
    those stacks as their points, so each run pays its full cost (logs included).
    Cost-matrix metrics are skipped where n^2 doubles exceed the byte cap."""
    t0 = time.perf_counter()
    dof = 2 * d if dof is None else dof
    rows = []
    for n in n_grid:
        base = RngState(seed).substream(int(n) * 100_000)
        skipped = {m for m in metrics if m in COST_METRICS and 8.0 * n * n > max_cost_bytes}
        times: dict[str, list[float]] = {m: [] for m in metrics}
        # One data pair per repeat, shared by all metrics (paired timing);
        # fresh measures per metric, adopting the same frozen stacks, so each
        # run pays its full cost, logs included.
        for rep in range(repeats):
            a = wishart_stack(base.substream(2 * rep + 1), n, d, dof)
            b = wishart_stack(base.substream(2 * rep + 2), n, d, dof)
            for metric in metrics:
                if metric in skipped:
                    continue
                mu, nu = EmpiricalSpdMeasure._owning(a), EmpiricalSpdMeasure._owning(b)
                start = time.perf_counter()
                compute_distance(
                    mu, nu, metric, projections=projections,
                    rng=RngState((seed + rep) % 2**64), epsilon=epsilon, exact_size_cap=n * n,
                )
                times[metric].append(time.perf_counter() - start)
                del mu, nu  # before the next metric's measures fill their logs
        for metric in metrics:
            if metric in skipped:
                rows.append({"metric": metric, "n": int(n), "skipped": True,
                             "seconds_median": None, "seconds_q25": None,
                             "seconds_q75": None, "repeats": 0})
                continue
            q25, q50, q75 = np.percentile(times[metric], [25, 50, 75])
            rows.append({"metric": metric, "n": int(n), "skipped": False,
                         "seconds_median": float(q50), "seconds_q25": float(q25),
                         "seconds_q75": float(q75), "repeats": repeats})
    config = {"n_grid": [int(v) for v in n_grid], "d": d, "projections": projections,
              "metrics": list(metrics), "repeats": repeats, "seed": seed,
              "epsilon": epsilon, "max_cost_bytes": max_cost_bytes, "dof": dof}
    return ExperimentReport(
        experiment="benchmark_runtime", config=config, rows=rows,
        timing=time.perf_counter() - t0,
    )


# -- sample complexity -----------------------------------------------------------


def run_sample_complexity(
    dims=(2, 20),
    n_grid=(10, 31, 100, 316, 1000),
    repeats: int = 100,
    metrics=("spdsw", "lew"),
    projections: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """Mean |D(mu_n, mu'_n)| between independent empirical draws of one
    Wishart law, versus n, for each dimension.  D is the distance (the
    p-th root), p = 2."""
    t0 = time.perf_counter()
    rows = []
    for d in dims:
        dof = 2 * d
        for n in n_grid:
            values = {metric: np.empty(repeats) for metric in metrics}
            for rep in range(repeats):
                # Disjoint substream blocks per (d, n, repetition): inner
                # offsets (1, 2) stay far below the 100-wide repetition step.
                stream = RngState(seed).substream(
                    int(d) * 1_000_000_000 + int(n) * 100_000 + rep * 100
                )
                mu = EmpiricalSpdMeasure._owning(wishart_stack(stream, n, d, dof))
                nu = EmpiricalSpdMeasure._owning(wishart_stack(stream.substream(1), n, d, dof))
                for metric in metrics:
                    report = compute_distance(mu, nu, metric, projections,
                                              rng=stream.substream(2), exact_size_cap=n * n)
                    # math.sqrt and .root (value ** 0.5) can differ in the last bit.
                    values[metric][rep] = math.sqrt(report.value) if metric == "lew" else report.root
            for metric in metrics:
                v = values[metric]
                half = 1.96 * v.std(ddof=1) / math.sqrt(repeats) if repeats > 1 else 0.0
                rows.append({"metric": metric, "d": int(d), "n": int(n),
                             "mean_abs": float(v.mean()),
                             "ci95_low": float(v.mean() - half),
                             "ci95_high": float(v.mean() + half),
                             "repeats": repeats})
    config = {"dims": [int(v) for v in dims], "n_grid": [int(v) for v in n_grid],
              "repeats": repeats, "metrics": list(metrics),
              "projections": projections, "seed": seed}
    return ExperimentReport(
        experiment="sample_complexity", config=config, rows=rows,
        timing=time.perf_counter() - t0,
    )


# -- projection complexity -------------------------------------------------------


def run_projection_complexity(
    dims=(2, 20),
    L_grid=(1, 3, 10, 32, 100, 316, 1000),
    L_star: int = 10_000,
    repeats: int = 100,
    n: int = 500,
    seed: int = 0,
) -> ExperimentReport:
    """Monte Carlo error of the sliced estimate (p = 2) versus the number of
    projections, against a reference with L_star projections."""
    t0 = time.perf_counter()
    rows = []
    for d in dims:
        dof = 2 * d
        stream = RngState(seed).substream(int(d) * 1_000_000_000)
        mu = EmpiricalSpdMeasure._owning(wishart_stack(stream, n, d, dof))
        nu = EmpiricalSpdMeasure._owning(wishart_stack(stream.substream(1), n, d, dof))
        table = mc_error_estimate(
            mu, nu, 2.0, list(L_grid), repeats, stream.substream(2), L_star=L_star
        )
        for row in table:
            rows.append({"d": int(d), **row})
    config = {"dims": [int(v) for v in dims], "L_grid": [int(v) for v in L_grid],
              "L_star": L_star, "repeats": repeats, "n": n, "seed": seed, "p": 2.0}
    return ExperimentReport(
        experiment="projection_complexity", config=config, rows=rows,
        timing=time.perf_counter() - t0,
    )


# -- domain adaptation ------------------------------------------------------------


def _default_lr(mode: str, loss: str, n: int, d: int) -> float:
    """Default step for a source of n matrices of dim d.  A particle step is
    1/c, half the stability edge 2/c, for the loss's largest expected
    curvature c per particle: 2/(n d) for spdsw (along the identity),
    2/(n d(d+1)/2) for the isotropic logsw and 2/n for the transport losses."""
    if mode == "transform":
        return 0.1 if loss in ("spdsw", "logsw") else 0.01
    return 0.5 * n * {"spdsw": d, "logsw": sym_dim(d)}.get(loss, 1)


def run_adapt(
    source_path: str,
    target_path: str,
    mode: str = "particles",
    loss: str = "spdsw",
    epochs: int = 500,
    learning_rate: float | None = None,
    projections: int = 500,
    seed: int = 0,
    epsilon: float = 1.0,
    safeguard: bool = True,
    output_adapted: str | None = None,
    require_evaluation: bool = False,
) -> ExperimentReport:
    """Align a labeled source dataset onto a target and score a log-linear
    classifier on the target before and after adaptation (when target
    labels are available; ``require_evaluation`` turns their absence into
    an error)."""
    t0 = time.perf_counter()
    source = load_spd_dataset(source_path)
    target = load_spd_dataset(target_path)
    if source.labels is None:
        raise DataValidationError(f"{source_path!r}: adaptation source needs labels")
    if require_evaluation and target.labels is None:
        raise MissingLabels(f"{target_path!r}: evaluation requested but target has no labels")
    if target.labels is not None and np.unique(source.labels).size < 2:
        raise DataValidationError(f"{source_path!r}: evaluation needs at least two source classes")
    if learning_rate is None:
        learning_rate = _default_lr(mode, loss, len(source.measure), source.measure.dim)
    config_obj = AdaptationConfig(
        loss_kind=loss, num_projections=projections, epochs=epochs,
        learning_rate=learning_rate, seed=seed, epsilon=epsilon, safeguard=safeguard,
    )
    trace = run_adaptation(mode, source, target.measure, config_obj)

    before = after = None
    if target.labels is not None:
        clf = train_log_linear_classifier(source)
        before = evaluate_transfer(clf, target)
        clf_adapted = train_log_linear_classifier(trace.final_source)
        after = evaluate_transfer(clf_adapted, target)
    if output_adapted is not None:
        save_spd_dataset(output_adapted, trace.final_source)

    rows = [{
        "record": "summary",
        "initial_loss": float(trace.losses[0]),
        "final_loss": float(trace.losses[-1]),
        "before_accuracy": before,
        "after_accuracy": after,
        "final_learning_rate": trace.final_learning_rate,
        "adapted_output": output_adapted,
    }]
    rows.extend(
        {"record": "epoch", "epoch": i, "loss": float(v)} for i, v in enumerate(trace.losses)
    )
    config = {"source": source_path, "target": target_path, "mode": mode,
              "loss": loss, "epochs": epochs, "learning_rate": learning_rate,
              "projections": projections, "seed": seed, "epsilon": epsilon,
              "safeguard": safeguard}
    return ExperimentReport(
        experiment="adapt", config=config, rows=rows, timing=time.perf_counter() - t0
    )


# -- distribution regression -------------------------------------------------------


def _load_manifest(path: str, bands: int | None = None) -> list[dict]:
    """Manifest entries, each listing ``bands`` paths (default: the first entry's count)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:  # bad JSON, bytes or an integer of > 4300 digits
        raise DataValidationError(f"cannot read manifest {path!r}: {exc}") from exc
    entries = doc.get("entries") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise DataValidationError(f"{path!r}: manifest must list at least one entry")
    out = []
    for e in entries:
        try:
            paths = [e["path"]] if "path" in e else e["paths"]
            target = e["target"]
        except (KeyError, TypeError) as exc:
            raise DataValidationError(f"{path!r}: malformed manifest entry: {exc}") from exc
        # Compared, not converted: an integer beyond the float range fails too.
        if type(target) not in (int, float) or not abs(target) <= sys.float_info.max:
            raise DataValidationError(f"{path!r}: target {target!r} is not a finite number")
        if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
            raise DataValidationError(f"{path!r}: dataset paths must be strings, got {paths!r}")
        if bands is None:
            bands = len(paths)
        elif len(paths) != bands:
            raise DataValidationError(f"{path!r}: an entry lists {len(paths)} bands, not {bands}")
        out.append({"paths": paths, "target": float(target)})
    return out


def _band_features(entries, levels, make_basis):
    """Quantile features per band and entry, and the slicing basis that
    ``make_basis(dim)`` builds from the first loaded measure."""
    basis = None
    features = []
    for b in range(len(entries[0]["paths"])):
        feats = []
        for e in entries:
            measure = load_spd_dataset(e["paths"][b]).measure
            if basis is None:
                basis = make_basis(measure.dim)
            feats.append(quantile_feature(measure, basis, levels))
        features.append(feats)
    return features, basis


def _fit_predict(train_sq, cross_sq, targets_train, sigma_flag, alpha):
    """Fit on each band's train x train squared feature distances and
    predict from its test x train ones."""
    sigmas, grams, crosses = [], [], []
    for sq, cross in zip(train_sq, cross_sq):
        sigma = median_heuristic_sq(sq) if sigma_flag == "median" else float(sigma_flag)
        sigmas.append(sigma)
        grams.append(gaussian_gram(sq, sigma))
        crosses.append(gaussian_weights(cross, sigma))
    gram = sum_kernels(grams)
    fit = kernel_ridge_fit(gram, targets_train, alpha)
    cross = np.sum(crosses, axis=0)
    return cross @ fit.coefficients + fit.intercept, sigmas


def _scores(preds: np.ndarray, truth: np.ndarray) -> dict:
    ss_res = float(np.sum((preds - truth) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    return {"mae": float(np.mean(np.abs(preds - truth))),
            "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else None}


def run_kernel_ridge(
    train_manifest: str,
    test_manifest: str | None = None,
    folds: int = 5,
    projections: int = 100,
    quantiles: int = 100,
    sigma: str | float = "median",
    alpha: float = 1e-6,
    seed: int = 0,
    output_predictions: str | None = None,
) -> ExperimentReport:
    """Kernel ridge regression over distributions: per-band Gaussian
    kernels on quantile features, summed, cross-validated on the train
    manifest (and optionally scored on a held-out test manifest).

    Each band's squared feature distances over the train entries are
    computed once per run; every fold, and the held-out fit, reads its
    train x train and test x train blocks from that matrix.  The held-out
    test entries add one test x train matrix per band."""
    t0 = time.perf_counter()
    entries = _load_manifest(train_manifest)
    if folds > len(entries):
        raise DataValidationError(f"{folds} folds exceed the {len(entries)} manifest entries")
    levels = midpoint_quantile_levels(quantiles)
    band_feats, basis = _band_features(
        entries, levels,
        lambda dim: build_projection_basis(RngState(seed), dim, projections, "eig_uniform"),
    )
    targets = np.array([e["target"] for e in entries])
    band_sq = [feature_sq_distances(fb) for fb in band_feats]

    rows = []
    predictions: list[dict] = []
    for fold, (train_idx, test_idx) in enumerate(kfold_indices(len(entries), folds, seed)):
        preds, sigmas = _fit_predict(
            [sq[np.ix_(train_idx, train_idx)] for sq in band_sq],
            [sq[np.ix_(test_idx, train_idx)] for sq in band_sq],
            targets[train_idx], sigma, alpha,
        )
        rows.append({"record": "fold", "fold": fold, **_scores(preds, targets[test_idx]),
                     "sigma": sigmas[0] if len(sigmas) == 1 else None})
        predictions.extend(
            {"record": "prediction", "fold": fold, "index": int(i),
             "target": float(targets[i]), "prediction": float(pv)}
            for i, pv in zip(test_idx, preds)
        )

    if test_manifest is not None:
        test_entries = _load_manifest(test_manifest, bands=len(band_feats))
        test_feats, _ = _band_features(test_entries, levels, lambda dim: basis)
        cross_sq = [cross_sq_distances(ft, fb) for ft, fb in zip(test_feats, band_feats)]
        preds, _ = _fit_predict(band_sq, cross_sq, targets, sigma, alpha)
        truth = np.array([e["target"] for e in test_entries])
        rows.append({"record": "test", "fold": None, **_scores(preds, truth), "sigma": None})

    rows_all = rows + predictions
    if output_predictions is not None:
        write_report(
            ExperimentReport(experiment="kernel_ridge_predictions",
                             config={"train_manifest": train_manifest},
                             rows=predictions),
            output_predictions,
            fmt="csv",
        )
    config = {"train_manifest": train_manifest, "test_manifest": test_manifest,
              "folds": folds, "projections": projections, "quantiles": quantiles,
              "sigma": sigma if sigma == "median" else float(sigma), "alpha": alpha,
              "seed": seed}
    return ExperimentReport(
        experiment="kernel_ridge", config=config, rows=rows_all,
        timing=time.perf_counter() - t0,
    )
