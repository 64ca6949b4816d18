"""Sliced optimal-transport discrepancies between distributions of SPD
matrices, with exact/entropic Wasserstein baselines, kernel machinery for
distribution regression, and transport-driven domain adaptation.

Submodules are imported lazily so the command-line entry point can pin
thread environment variables before any numerical library loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # linalg
    "sym_log": "linalg",
    "sym_exp": "linalg",
    "dist_log_euclidean": "linalg",
    "dist_affine_invariant": "linalg",
    "log_frechet_derivative": "linalg",
    "udu_decompose": "linalg",
    "vech_isometric": "linalg",
    "unvech_isometric": "linalg",
    # sampling
    "RngState": "sampling",
    "ProjectionBasis": "sampling",
    "sample_sphere": "sampling",
    "sample_haar_orthogonal": "sampling",
    "sample_lambda_s": "sampling",
    "sample_wishart": "sampling",
    "wishart_stack": "sampling",
    "build_projection_basis": "sampling",
    # sliced
    "EmpiricalSpdMeasure": "sliced",
    "EmpiricalSymMeasure": "sliced",
    "DiscrepancyReport": "sliced",
    "geodesic_coordinate": "sliced",
    "busemann_coordinate_ai": "sliced",
    "wasserstein_1d": "sliced",
    "spdsw": "sliced",
    "sym_sw": "sliced",
    "log_sw": "sliced",
    "hspdsw": "sliced",
    "mc_error_estimate": "sliced",
    # baselines
    "CostMatrix": "baselines",
    "TransportPlan": "baselines",
    "build_cost_matrix": "baselines",
    "exact_wasserstein": "baselines",
    "sinkhorn": "baselines",
    # kernels
    "QuantileFeature": "kernels",
    "GramMatrix": "kernels",
    "quantile_feature": "kernels",
    "gaussian_kernel": "kernels",
    "sum_kernels": "kernels",
    "kernel_ridge_fit": "kernels",
    "kernel_ridge_predict": "kernels",
    "median_heuristic_bandwidth": "kernels",
    "midpoint_quantile_levels": "kernels",
    # adaptation
    "LabeledSpdDataset": "adaptation",
    "AdaptationConfig": "adaptation",
    "AdaptationTrace": "adaptation",
    "loss_and_gradient_particles": "adaptation",
    "loss_and_gradient_transform": "adaptation",
    "run_adaptation": "adaptation",
    "train_log_linear_classifier": "adaptation",
    "evaluate_transfer": "adaptation",
    # file formats
    "load_spd_dataset": "data_io",
    "save_spd_dataset": "data_io",
    "ExperimentReport": "data_io",
    "write_report": "data_io",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
