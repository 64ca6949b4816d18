"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import itertools
import math
import time

import numpy as np

from spdsliced import (
    AdaptationConfig,
    EmpiricalSpdMeasure,
    LabeledSpdDataset,
    RngState,
    build_cost_matrix,
    build_projection_basis,
    busemann_coordinate_ai,
    evaluate_transfer,
    exact_wasserstein,
    gaussian_kernel,
    kernel_ridge_fit,
    kernel_ridge_predict,
    log_frechet_derivative,
    loss_and_gradient_particles,
    loss_and_gradient_transform,
    median_heuristic_bandwidth,
    midpoint_quantile_levels,
    quantile_feature,
    run_adaptation,
    spdsw,
    sym_sw,
    train_log_linear_classifier,
    udu_decompose,
    wishart_stack,
)
from spdsliced.adaptation import (
    ChainParam,
    _fixed_target,
    _log_loss,
    _sliced_evaluate,
    _transform_loss,
)
from spdsliced.baselines import CostMatrix
from spdsliced.experiments import fit_loglog_slope, run_benchmark_runtime
from spdsliced.kernels import kfold_indices
from spdsliced.linalg import exp_stack, log_stack, symmetrize


def _report(number, name, started, **facts):
    elapsed = time.time() - started
    detail = " ".join(f"{k}={v}" for k, v in facts.items())
    print(f"[ACCEPTANCE] criterion {number:02d} ({name}): PASS in {elapsed:.1f}s {detail}")


def _wishart_measure(stream: RngState, n, d, dof):
    return EmpiricalSpdMeasure(wishart_stack(stream, n, d, dof))


def test_criterion_01_metric_axioms():
    started = time.time()
    d, n, L = 3, 20, 100
    basis = build_projection_basis(RngState(1001), d, L)
    worst_triangle = 0.0
    for trial in range(200):
        s = RngState(1002).substream(trial)
        mu = _wishart_measure(s, n, d, 6)
        nu = _wishart_measure(s.substream(1), n, d, 6)
        rho = _wishart_measure(s.substream(2), n, d, 6)
        assert spdsw(mu, mu, basis, 2.0).value <= 1e-12
        assert spdsw(mu, nu, basis, 2.0).value == spdsw(nu, mu, basis, 2.0).value
        d_mu_nu = spdsw(mu, nu, basis, 2.0).root
        d_mu_rho = spdsw(mu, rho, basis, 2.0).root
        d_rho_nu = spdsw(rho, nu, basis, 2.0).root
        worst_triangle = max(worst_triangle, d_mu_nu - d_mu_rho - d_rho_nu)
        assert d_mu_nu <= d_mu_rho + d_rho_nu + 1e-10
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(1, "metric axioms", started, worst_triangle_violation=f"{worst_triangle:.2e}")


def test_criterion_02_symsw_equivalence():
    started = time.time()
    d, L = 3, 40
    basis = build_projection_basis(RngState(2001), d, L)
    worst = 0.0
    for trial in range(100):
        s = RngState(2002).substream(trial)
        mu = _wishart_measure(s, 12, d, 6)
        nu = _wishart_measure(s.substream(1), 15, d, 6)
        for p in (1.0, 2.0):
            a = spdsw(mu, nu, basis, p).value
            b = sym_sw(mu.log_pushforward(), nu.log_pushforward(), basis, p).value
            rel = abs(a - b) / max(a, 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-10
    _report(2, "log-pushforward equivalence", started, worst_rel_diff=f"{worst:.2e}")


def test_criterion_03_upper_bound():
    started = time.time()
    # Validate the assignment solver against the permutation brute force.
    rng = np.random.default_rng(3001)
    for n in (2, 4, 6):
        entries = rng.uniform(0.0, 5.0, (n, n))
        got = exact_wasserstein(
            CostMatrix(entries=entries, ground_metric="log_euclidean", power=2.0)
        ).cost
        best = min(
            sum(entries[i, perm[i]] for i in range(n)) / n
            for perm in itertools.permutations(range(n))
        )
        assert abs(got - best) <= 1e-12

    L, n = 1000, 16
    min_slack = math.inf
    for d in (2, 5):
        for pair in range(50):
            s = RngState(3002 + pair).substream(d)
            mu = _wishart_measure(s, n, d, 2 * d)
            nu = _wishart_measure(s.substream(1), n, d, 2 * d)
            basis = build_projection_basis(s.substream(2), d, L)
            value = spdsw(mu, nu, basis, 2.0).value
            lew = exact_wasserstein(build_cost_matrix(mu, nu), size_cap=n * n).cost
            assert value <= lew / d + 1e-10
            min_slack = min(min_slack, lew / d - value)
    _report(3, "1/d upper bound vs exact LEW", started, min_absolute_slack=f"{min_slack:.3f}")


def test_criterion_04_projection_complexity():
    started = time.time()
    d, n = 2, 500
    stream = RngState(4001)
    mu = _wishart_measure(stream, n, d, 2 * d)
    nu = _wishart_measure(stream.substream(1), n, d, 2 * d)
    from spdsliced import mc_error_estimate

    rows = mc_error_estimate(
        mu, nu, 2.0, [10, 22, 46, 100, 215, 464, 1000], 100,
        stream.substream(2), L_star=10_000,
    )
    errors = [r["mean_abs_error"] for r in rows]
    slope = fit_loglog_slope([r["L"] for r in rows], errors)
    assert -0.65 <= slope <= -0.35
    assert errors[0] / errors[-1] >= 5.0
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(4, "Monte Carlo projection complexity", started, slope=f"{slope:.3f}")


def test_criterion_05_sample_complexity():
    started = time.time()
    from spdsliced.experiments import run_sample_complexity

    report = run_sample_complexity(
        dims=(2, 20), n_grid=(10, 31, 100, 316, 1000), repeats=20,
        metrics=("spdsw", "lew"), projections=1000, seed=5001,
    )
    slopes = {}
    for metric in ("spdsw", "lew"):
        for d in (2, 20):
            sel = [(r["n"], r["mean_abs"]) for r in report.rows
                   if r["metric"] == metric and r["d"] == d]
            ns, means = zip(*sorted(sel))
            violations = sum(1 for a, b in zip(means, means[1:]) if b > a)
            assert violations <= 0.10 * len(means) + 1e-9  # monotone trend
            slopes[(metric, d)] = fit_loglog_slope(ns, means)
    spdsw_gap = abs(slopes[("spdsw", 2)] - slopes[("spdsw", 20)])
    lew_gap = abs(slopes[("lew", 2)] - slopes[("lew", 20)])
    assert spdsw_gap <= 0.15
    assert lew_gap >= 0.10
    elapsed = time.time() - started
    assert elapsed < 900.0
    _report(5, "sample complexity dimension-independence", started,
            spdsw_slope_gap=f"{spdsw_gap:.3f}", lew_slope_gap=f"{lew_gap:.3f}")


def test_criterion_06_feature_map_isometry():
    started = time.time()
    d, n, M, L = 3, 100, 500, 50
    basis = build_projection_basis(RngState(6001), d, L)
    levels = midpoint_quantile_levels(M)
    worst = 0.0
    for pair in range(50):
        s = RngState(6002).substream(pair)
        mu = _wishart_measure(s, n, d, 2 * d)
        nu = _wishart_measure(s.substream(1), n, d, 2 * d)
        fa = quantile_feature(mu, basis, levels)
        fb = quantile_feature(nu, basis, levels)
        sq = float(np.sum((fa.values - fb.values) ** 2))
        target = spdsw(mu, nu, basis, 2.0).value
        rel = abs(sq - target) / target
        worst = max(worst, rel)
        assert rel <= 0.05

    feats = [
        quantile_feature(_wishart_measure(RngState(6100).substream(k), 40, d, 2 * d), basis, levels)
        for k in range(30)
    ]
    min_eig = math.inf
    for sigma in (0.5 * median_heuristic_bandwidth(feats), median_heuristic_bandwidth(feats), 2.0):
        gram = gaussian_kernel(feats, sigma)
        min_eig = min(min_eig, gram.min_eigenvalue())
        assert gram.min_eigenvalue() >= -1e-8
    _report(6, "Hilbertian feature-map isometry", started,
            worst_rel_err=f"{worst:.4f}", min_gram_eig=f"{min_eig:.2e}")


def test_criterion_07_distribution_regression():
    started = time.time()
    d, n_points, n_dists = 5, 100, 80
    gen = RngState(7001)
    u_values = gen.generator().uniform(0.0, 1.0, n_dists)
    measures = [
        EmpiricalSpdMeasure(
            wishart_stack(gen.substream(1 + k), n_points, d, 30,
                          scale=(1.0 + u_values[k]) * np.eye(d))
        )
        for k in range(n_dists)
    ]
    basis = build_projection_basis(RngState(7002), d, 100)
    levels = midpoint_quantile_levels(100)
    feats = [quantile_feature(m, basis, levels) for m in measures]

    preds = np.empty(n_dists)
    for train_idx, test_idx in kfold_indices(n_dists, 5, shuffle_seed=7003):
        train_feats = [feats[i] for i in train_idx]
        test_feats = [feats[i] for i in test_idx]
        sigma = median_heuristic_bandwidth(train_feats)
        gram = gaussian_kernel(train_feats, sigma)
        fit = kernel_ridge_fit(gram, u_values[train_idx], alpha=1e-6)
        preds[test_idx] = kernel_ridge_predict(train_feats, fit, test_feats, sigma)
    ss_res = float(np.sum((preds - u_values) ** 2))
    ss_tot = float(np.sum((u_values - u_values.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.9
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(7, "synthetic distribution regression", started, r2=f"{r2:.4f}")


def _adaptation_benchmark_pair(seed, d=5, n_per=100, dof=40):
    """Two-class Wishart source; target conjugated by a random rotation and
    translated in log space (identity component log 2 plus a random part)."""
    from scipy.linalg import expm

    g = RngState(seed)
    pts = np.concatenate([
        wishart_stack(g, n_per, d, dof),
        wishart_stack(g.substream(1), n_per, d, dof, scale=2.0 * np.eye(d)),
    ])
    labels = np.array([0] * n_per + [1] * n_per)
    rr = g.substream(2).generator()
    omega = rr.standard_normal((d, d))
    omega = 0.5 * (omega - omega.T)
    omega *= 0.5 / np.linalg.norm(omega)
    rotation = expm(omega)
    rand_sym = symmetrize(rr.standard_normal((d, d)))
    rand_sym *= 0.5 / np.linalg.norm(rand_sym)
    translation = math.log(2.0) * np.eye(d) + rand_sym
    logs = log_stack(pts)
    shifted = np.einsum("ba,nbc,cd->nad", rotation, logs, rotation) + translation
    source = LabeledSpdDataset(EmpiricalSpdMeasure(pts), labels)
    target = LabeledSpdDataset(EmpiricalSpdMeasure(exp_stack(shifted)), labels)
    return source, target


def test_criterion_08_domain_adaptation():
    started = time.time()
    befores, afters, ratios = [], [], []
    for seed in range(5):
        source, target = _adaptation_benchmark_pair(8001 + seed)
        clf = train_log_linear_classifier(source)
        befores.append(evaluate_transfer(clf, target))
        config = AdaptationConfig(
            loss_kind="spdsw", num_projections=500, epochs=500,
            learning_rate=1000.0, seed=seed, safeguard=True,
        )
        trace = run_adaptation("particles", source, target.measure, config)
        ratios.append(trace.losses[-1] / trace.losses[0])
        clf_adapted = train_log_linear_classifier(trace.final_source)
        afters.append(evaluate_transfer(clf_adapted, target))
    improvement = float(np.mean(afters) - np.mean(befores))
    mean_ratio = float(np.mean(ratios))
    assert improvement >= 0.15
    assert mean_ratio <= 0.5
    _report(8, "domain adaptation end to end", started,
            accuracy_gain=f"{improvement:.3f}", loss_ratio=f"{mean_ratio:.2e}")


def test_criterion_09_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(9001)
    d = 4

    # Fréchet derivative of the log, including near-degenerate spectra.
    import scipy.linalg

    worst_frechet = 0.0
    for case in range(100):
        if case % 3 == 0:
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            w = np.sort(rng.uniform(0.3, 3.0, d))
            w[1] = w[0] * (1.0 + 1e-7)  # eigenvalues within 1e-7
            m = (q * w) @ q.T
        else:
            g = rng.standard_normal((3 * d, d))
            m = g.T @ g / (3 * d)
        h = symmetrize(rng.standard_normal((d, d)))
        ours = log_frechet_derivative(m, h).array
        eps = 1e-5
        fd = (scipy.linalg.logm(m + eps * h) - scipy.linalg.logm(m - eps * h)) / (2 * eps)
        rel = np.linalg.norm(ours - fd) / np.linalg.norm(fd)
        worst_frechet = max(worst_frechet, rel)
        assert rel <= 1e-6

    # Particle-loss gradients at generic points.
    basis = build_projection_basis(RngState(9002), 3, 25)
    target = _wishart_measure(RngState(9003), 9, 3, 9)
    fixed = _fixed_target(target.logs, basis, "spdsw")
    worst_particle = 0.0
    for case in range(100):
        state = wishart_stack(RngState(9004).substream(case), 9, 3, 9)
        logs = log_stack(state)
        _, grads = loss_and_gradient_particles(logs, target, basis)
        i = case % 9
        h = symmetrize(rng.standard_normal((3, 3)))
        h /= np.linalg.norm(h)
        eps = 1e-6
        plus, minus = logs.copy(), logs.copy()
        plus[i] += eps * h
        minus[i] -= eps * h
        fd = (
            _sliced_evaluate(plus, fixed, basis, 2.0)[0]
            - _sliced_evaluate(minus, fixed, basis, 2.0)[0]
        ) / (2 * eps)
        rel = abs(float(np.sum(grads[i] * h)) - fd) / max(abs(fd), 1e-12)
        worst_particle = max(worst_particle, rel)
        assert rel <= 1e-5

    # Transform-chain gradients.
    source = _wishart_measure(RngState(9005), 8, 3, 9)
    chain_loss, _ = _transform_loss(source, *_log_loss("spdsw", fixed, basis, 2.0, 10.0))
    worst_chain = 0.0
    for case in range(100):
        crng = np.random.default_rng(9006 + case)
        params = [
            ChainParam("translation", 0.2 * symmetrize(crng.standard_normal((3, 3)))),
            ChainParam("rotation", 0.2 * (lambda z: 0.5 * (z - z.T))(crng.standard_normal((3, 3)))),
        ]
        _, grads = loss_and_gradient_transform(params, source, target, basis, loss_kind="spdsw")
        k = case % 2
        if params[k].kind == "translation":
            h = symmetrize(crng.standard_normal((3, 3)))
        else:
            z = crng.standard_normal((3, 3))
            h = 0.5 * (z - z.T)
        h /= np.linalg.norm(h)
        eps = 1e-6
        shifted = lambda sign: [
            ChainParam(p.kind, p.matrix + sign * eps * h) if j == k else p
            for j, p in enumerate(params)
        ]
        fd = (
            chain_loss(shifted(+1))[0] - chain_loss(shifted(-1))[0]
        ) / (2 * eps)
        rel = abs(float(np.sum(grads[k] * h)) - fd) / max(abs(fd), 1e-12)
        worst_chain = max(worst_chain, rel)
        assert rel <= 1e-4
    _report(9, "gradient correctness", started,
            frechet=f"{worst_frechet:.2e}", particles=f"{worst_particle:.2e}",
            chain=f"{worst_chain:.2e}")


def test_criterion_10_horospherical_structure():
    started = time.time()
    rng = np.random.default_rng(10001)
    d = 4

    worst_udu = 0.0
    for _ in range(100):
        g = rng.standard_normal((3 * d, d))
        m = g.T @ g / (3 * d)
        u, diag = udu_decompose(m)
        rel = np.linalg.norm((u * diag) @ u.T - m) / np.linalg.norm(m)
        worst_udu = max(worst_udu, rel)
        assert rel <= 1e-10

    for _ in range(100):
        theta = np.sort(rng.standard_normal(d))[::-1]
        theta /= np.linalg.norm(theta)
        if np.min(theta[:-1] - theta[1:]) < 1e-6:
            continue
        m_diag = np.diag(rng.uniform(0.5, 3.0, d))
        got = busemann_coordinate_ai(np.diag(theta), m_diag)
        want = -float(theta @ np.log(np.diag(m_diag)))
        assert got == want  # exact in the diagonal-commuting case

    worst_inv = 0.0
    for _ in range(100):
        theta = np.sort(rng.standard_normal(d))[::-1]
        theta /= np.linalg.norm(theta)
        if np.min(theta[:-1] - theta[1:]) < 1e-6:
            continue
        a = np.diag(theta)
        g = rng.standard_normal((3 * d, d))
        m = g.T @ g / (3 * d)
        tri = np.eye(d)
        tri[np.triu_indices(d, 1)] = rng.standard_normal(d * (d - 1) // 2)
        base = busemann_coordinate_ai(a, m)
        moved = busemann_coordinate_ai(a, tri @ m @ tri.T)
        worst_inv = max(worst_inv, abs(base - moved))
        assert abs(base - moved) <= 1e-8
    _report(10, "horospherical structure", started,
            worst_udu=f"{worst_udu:.2e}", worst_invariance=f"{worst_inv:.2e}")


def test_criterion_11_runtime_scaling():
    started = time.time()
    report = run_benchmark_runtime(
        n_grid=(1000, 3162, 10000, 31623, 100000), d=20, projections=200,
        metrics=("spdsw", "lew"), repeats=3, seed=11001, max_cost_bytes=2e8,
    )
    spdsw_rows = {r["n"]: r["seconds_median"] for r in report.rows
                  if r["metric"] == "spdsw" and not r["skipped"]}
    lew_rows = {r["n"]: r["seconds_median"] for r in report.rows
                if r["metric"] == "lew" and not r["skipped"]}
    slope = fit_loglog_slope(list(spdsw_rows), list(spdsw_rows.values()))
    assert slope <= 1.2
    shared = sorted(set(spdsw_rows) & set(lew_rows))
    assert len(shared) >= 2  # LEW truncated by the cost-matrix cap beyond
    ratios = [lew_rows[n] / spdsw_rows[n] for n in shared]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    _report(11, "runtime scaling", started, spdsw_slope=f"{slope:.3f}",
            lew_over_spdsw=[f"{r:.1f}" for r in ratios])
