"""Benchmark workloads: inputs made from the workload seed, the op mix of
one pass, and the checks on every op's report.

Every op is one ``spdsliced.cli.main(argv)`` call.  Inputs are written in
set-up from the seed (dataset files, manifests, and the seeds passed in
argv), so the program sees only those files and that argv.  Sizes are the
``full`` ones for the benchmark and ``smoke`` ones for its tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An op's output did not pass its check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI call: ``metric`` names its per-command timing, ``report`` is
    where its report lands, ``check`` inspects the parsed report (with the
    reports of earlier ops of the same pass, keyed by op key)."""

    key: str
    metric: str
    argv: list[str]
    report: Path
    check: Callable[[dict, dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    metrics: tuple[str, ...]
    setup: Callable[[Path, int, dict], list[Op]]
    sizes: dict


# -- inputs written by the benchmark itself ------------------------------------


def _wishart(rng: np.random.Generator, n: int, d: int, dof: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, dof, d))
    w = np.einsum("nki,nkj->nij", g, g) * (scale / dof)
    return 0.5 * (w + np.swapaxes(w, 1, 2))


def _write_dataset(path: Path, mats: np.ndarray) -> None:
    n, d, _ = mats.shape
    doc = {"format_version": "1", "dim": d, "count": n,
           "matrices": [m.ravel().tolist() for m in mats]}
    path.write_text(json.dumps(doc))


def _read_dataset(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    return np.asarray(doc["matrices"], dtype=float).reshape(doc["count"], doc["dim"], doc["dim"])


def _argv_seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.default_rng([seed, 7]).integers(0, 2**31, size=count)]


# -- plain-numpy reference for the sliced estimators ---------------------------


def _log_eigh(mats: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, 1, 2)))
    return (q * np.log(w)[:, None, :]) @ np.swapaxes(q, 1, 2)


def sliced_reference(a: np.ndarray, b: np.ndarray, directions: np.ndarray) -> float:
    """Mean over directions of W_2^2 between equal-size projected samples:
    eigh log, Frobenius projection, sort, mean squared difference."""
    flat = directions.reshape(len(directions), -1)
    pa = np.sort(_log_eigh(a).reshape(len(a), -1) @ flat.T, axis=0)
    pb = np.sort(_log_eigh(b).reshape(len(b), -1) @ flat.T, axis=0)
    return float(np.mean((pa - pb) ** 2))


def _value(doc: dict) -> float:
    return doc["rows"][0]["value"]


def _close(value: float, reference: float, what: str) -> None:
    require(abs(value - reference) <= 1e-9 * abs(reference),
            f"{what}: {value!r} differs from the reference {reference!r} beyond 1e-9 relative")


# -- file-distance --------------------------------------------------------------


def _setup_file_distance(work: Path, seed: int, size: dict) -> list[Op]:
    from spdsliced.cli import main as cli_main
    from spdsliced.sampling import RngState, build_projection_basis

    n, d, dof, L = size["n"], size["d"], size["dof"], size["projections"]
    rng = np.random.default_rng([seed, 1])
    a, b = _wishart(rng, n, d, dof), _wishart(rng, n, d, dof)
    paths = {k: work / f"{k}.json" for k in ("A", "B", "X")}
    _write_dataset(paths["A"], a)
    _write_dataset(paths["B"], b)
    x_seed, spd_seed, log_seed = _argv_seeds(seed, 3)
    gen_argv = ["gen-wishart", "--d", str(d), "--n", str(n), "--dof", str(dof),
                "--seed", str(x_seed), "--output", str(paths["X"])]
    if cli_main(gen_argv + ["--report", str(work / "gen-setup.json")]) != 0:
        raise CheckFailed("set-up gen-wishart failed")
    x_bytes = paths["X"].read_bytes()
    x = _read_dataset(paths["X"])
    ref_spd = sliced_reference(
        x, b, build_projection_basis(RngState(spd_seed), d, L, "eig_uniform").directions)
    ref_log = sliced_reference(
        a, x, build_projection_basis(RngState(log_seed), d, L, "vec_sphere").directions)

    def check_x(doc, earlier):
        require(paths["X"].read_bytes() == x_bytes, "rewritten X differs from its set-up copy")

    return [
        Op("gen", "gen_wishart_s", gen_argv + ["--report", str(work / "gen.json")],
           work / "gen.json", check_x),
        Op("spdsw", "distance_s",
           ["distance", str(paths["X"]), str(paths["B"]), "--metric", "spdsw",
            "--projections", str(L), "--seed", str(spd_seed), "--output", str(work / "spdsw.json")],
           work / "spdsw.json", lambda doc, e: _close(_value(doc), ref_spd, "spdsw")),
        Op("logsw", "distance_s",
           ["distance", str(paths["A"]), str(paths["X"]), "--metric", "logsw",
            "--projections", str(L), "--seed", str(log_seed), "--output", str(work / "logsw.json")],
           work / "logsw.json", lambda doc, e: _close(_value(doc), ref_log, "logsw")),
    ]


# -- sliced-scaling ----------------------------------------------------------------


def _setup_sliced_scaling(work: Path, seed: int, size: dict) -> list[Op]:
    runtime_seed, proj_seed = _argv_seeds(seed, 2)
    dims = size["dims"]

    def check_runtime(doc, earlier):
        rows = doc["rows"]
        require(len(rows) == 2 and not any(r["skipped"] for r in rows),
                "benchmark-runtime skipped a metric")
        require(all(r["seconds_median"] > 0 for r in rows), "non-positive runtime")

    def check_projection(doc, earlier):
        for d in dims:
            err = {r["L"]: r["mean_abs_error"] for r in doc["rows"] if r["d"] == d}
            require(err[100] < err[1], f"d={d}: error at L=100 is not below error at L=1")

    return [
        Op("runtime", "runtime_scaling_s",
           ["benchmark-runtime", "--n-grid", str(size["runtime_n"]), "--d", "20",
            "--projections", "200", "--metrics", "spdsw,logsw", "--repeats", "1",
            "--seed", str(runtime_seed), "--output", str(work / "runtime.json")],
           work / "runtime.json", check_runtime),
        Op("projection", "projection_complexity_s",
           ["projection-complexity", "--dims", ",".join(map(str, dims)),
            "--L-grid", "1,3,10,32,100", "--L-star", str(size["l_star"]),
            "--repeats", str(size["repeats"]), "--n", str(size["n"]),
            "--seed", str(proj_seed), "--output", str(work / "projection.json")],
           work / "projection.json", check_projection),
    ]


# -- transport ------------------------------------------------------------------------


def _setup_transport(work: Path, seed: int, size: dict) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    a, b = work / "A2.json", work / "B2.json"
    _write_dataset(a, _wishart(rng, size["n"], size["d"], size["dof"]))
    _write_dataset(b, _wishart(rng, size["n"], size["d"], size["dof"]))
    (hs_seed,) = _argv_seeds(seed, 1)

    def op(key, flags, check):
        report = work / f"{key}.json"
        return Op(key, f"{key}_s",
                  ["distance", str(a), str(b), "--metric", key, *flags, "--output", str(report)],
                  report, check)

    def positive(doc, earlier):
        require(_value(doc) > 0, "distance between independent draws is not positive")

    def check_les(doc, earlier):
        require(doc["rows"][0]["converged"] is True, "Sinkhorn did not converge")
        lew = _value(earlier["lew"])
        require(_value(doc) >= lew * (1 - 1e-9), f"les {_value(doc)!r} below lew {lew!r}")

    return [
        op("hspdsw", ["--projections", str(size["projections"]), "--seed", str(hs_seed)], positive),
        op("aiw", [], positive),
        op("lew", [], positive),
        op("les", ["--epsilon", "1.0"], check_les),
    ]


# -- learning ---------------------------------------------------------------------------


def _setup_learning(work: Path, seed: int, size: dict) -> list[Op]:
    from spdsliced.cli import main as cli_main

    src, tgt, manifest = work / "source.json", work / "target.json", work / "manifest.json"
    gen_seed, adapt_seed, ridge_seed = _argv_seeds(seed, 3)
    gen = ["gen-wishart", "--d", "5", "--n", "200", "--dof", "40", "--classes", "2",
           "--seed", str(gen_seed), "--output", str(src), "--output-shifted", str(tgt),
           "--shift-angle", "0.5", "--shift-identity", "0.693", "--shift-random", "0.5",
           "--report", str(work / "gen.json")]
    if cli_main(gen) != 0:
        raise CheckFailed("set-up gen-wishart failed")
    rng = np.random.default_rng([seed, 3])
    entries = []
    for k in range(size["datasets"]):
        u = float(rng.uniform())
        path = work / f"dist{k:03d}.json"
        _write_dataset(path, _wishart(rng, size["points"], 5, 30, scale=1.0 + u))
        entries.append({"path": str(path), "target": u})
    manifest.write_text(json.dumps(entries))

    def check_adapt(doc, earlier):
        s = doc["rows"][0]
        require(s["final_loss"] < s["initial_loss"], "adaptation did not lower the loss")
        gain = s["after_accuracy"] - s["before_accuracy"]
        require(gain >= 0.15, f"accuracy gain {gain:.3f} below 0.15")

    def check_ridge(doc, earlier):
        r2 = [r["r2"] for r in doc["rows"] if r["record"] == "fold"]
        require(float(np.mean(r2)) >= 0.9, f"mean fold R^2 {np.mean(r2):.3f} below 0.9")

    def adapt(mode, epochs):
        report = work / f"adapt-{mode}.json"
        return Op(f"adapt_{mode}", f"adapt_{mode}_s",
                  ["adapt", "--source", str(src), "--target", str(tgt), "--mode", mode,
                   "--loss", "spdsw", "--epochs", str(epochs), "--projections", "500",
                   "--seed", str(adapt_seed), "--evaluate", "--output", str(report)],
                  report, check_adapt)

    return [
        adapt("particles", size["particle_epochs"]),
        adapt("transform", size["transform_epochs"]),
        Op("kernel_ridge", "kernel_ridge_s",
           ["kernel-ridge", "--train", str(manifest), "--folds", "5", "--projections", "100",
            "--quantiles", "100", "--seed", str(ridge_seed), "--output", str(work / "ridge.json")],
           work / "ridge.json", check_ridge),
    ]


# Sizes keep one pass between ~0.6 and ~2 s; NOTES.md gives the rationale.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("file-distance", ("gen_wishart_s", "distance_s"), _setup_file_distance,
                 {"full": dict(n=600, d=20, dof=40, projections=200),
                  "smoke": dict(n=40, d=4, dof=8, projections=20)}),
        Workload("sliced-scaling", ("runtime_scaling_s", "projection_complexity_s"),
                 _setup_sliced_scaling,
                 {"full": dict(runtime_n=1000, dims=(2, 20), l_star=1000, repeats=5, n=300),
                  "smoke": dict(runtime_n=50, dims=(2, 3), l_star=200, repeats=3, n=50)}),
        Workload("transport", ("hspdsw_s", "aiw_s", "lew_s", "les_s"), _setup_transport,
                 {"full": dict(n=200, d=10, dof=20, projections=100),
                  "smoke": dict(n=30, d=4, dof=8, projections=10)}),
        Workload("learning", ("adapt_particles_s", "adapt_transform_s", "kernel_ridge_s"),
                 _setup_learning,
                 {"full": dict(particle_epochs=40, transform_epochs=10, datasets=40, points=100),
                  "smoke": dict(particle_epochs=20, transform_epochs=5, datasets=20, points=40)}),
    )
}


def report_fingerprint(text: str) -> str:
    """The report with its wall-clock fields removed: the top-level
    ``timing`` and any ``seconds_*`` row field.  Reports without timing are
    compared byte for byte."""
    doc = json.loads(text)
    if doc.get("timing") is None and not any(
            k.startswith("seconds_") for r in doc.get("rows", []) for k in r):
        return text
    doc.pop("timing", None)
    doc["rows"] = [{k: v for k, v in r.items() if not k.startswith("seconds_")}
                   for r in doc.get("rows", [])]
    return json.dumps(doc, sort_keys=True)


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return True
