"""Dataset and report file formats.

Datasets are JSON documents holding a stack of SPD matrices (row-major
flattened) with optional integer labels; experiment reports are JSON or
long-format CSV.  All writes are atomic (temp file + rename), so a partial
write never parses as a valid file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .adaptation import LabeledSpdDataset
from .errors import DataValidationError, NotPositiveDefinite
from .sliced import EmpiricalSpdMeasure

FORMAT_VERSION = "1"

# Loader tolerance on |M - M^T| before symmetrization.
SYMMETRY_TOLERANCE = 1e-8


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_spd_dataset(path: str, points, labels=None) -> None:
    """Write a dataset file; ``points`` is an (n, d, d) stack, a measure,
    or a LabeledSpdDataset (whose labels win unless overridden)."""
    if isinstance(points, LabeledSpdDataset):
        if labels is None:
            labels = points.labels
        points = points.measure.points
    elif isinstance(points, EmpiricalSpdMeasure):
        points = points.points
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape[0], pts.shape[1]
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "dim": int(d),
        "count": int(n),
    }
    if labels is not None:
        doc["labels"] = [int(v) for v in np.asarray(labels).ravel()]
    doc["matrices"] = [row.ravel().tolist() for row in pts]
    _atomic_write_text(path, json.dumps(doc))


def load_spd_dataset(path: str) -> LabeledSpdDataset:
    """Read and validate a dataset file.

    Validation failures (schema, ``dim`` or ``count`` not a JSON integer,
    asymmetry beyond 1e-8, non-SPD matrices, labels that are not ``count``
    nonnegative integers) raise DataValidationError.  Positive definiteness
    is checked by filling the measure's log cache, so each matrix is
    decomposed once.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"cannot read dataset {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise DataValidationError(f"{path!r}: unsupported or missing format_version")
    d, n, matrices = doc.get("dim"), doc.get("count"), doc.get("matrices")
    if type(d) is not int or type(n) is not int or not isinstance(matrices, list):
        raise DataValidationError(f"{path!r}: dim and count must be integers and matrices a list")
    if d < 1 or n < 1 or len(matrices) != n:
        raise DataValidationError(f"{path!r}: dim/count inconsistent with matrices")
    try:
        pts = np.asarray(matrices, dtype=float).reshape(n, d, d)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{path!r}: matrices are not {n} rows of {d * d} numbers") from exc
    if not np.all(np.isfinite(pts)):
        raise DataValidationError(f"{path!r}: non-finite entries")
    asym = np.max(np.abs(pts - np.swapaxes(pts, -2, -1)))
    if asym > SYMMETRY_TOLERANCE:
        raise DataValidationError(f"{path!r}: asymmetry {asym:.3e} exceeds {SYMMETRY_TOLERANCE}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise DataValidationError(f"{path!r}: labels must be a list of length count {n}")
        if not all(type(v) is int and v >= 0 for v in labels):
            raise DataValidationError(f"{path!r}: labels must be nonnegative integers")
        labels = np.asarray(labels, dtype=int)
    measure = EmpiricalSpdMeasure(pts)
    try:
        measure.logs
    except NotPositiveDefinite as exc:
        raise DataValidationError(f"{path!r}: not positive definite: {exc}") from exc
    return LabeledSpdDataset(measure=measure, labels=labels)


@dataclass
class ExperimentReport:
    """Machine-readable result of one experiment run."""

    experiment: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    timing: float | None = None
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "config": self.config,
                "rows": self.rows,
                "timing": self.timing,
                "version": self.version,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.rows:
            columns: list[str] = []
            for row in self.rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            writer = csv.DictWriter(buf, fieldnames=columns, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _csv_value(v) for k, v in row.items()})
        return buf.getvalue()


def _csv_value(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_report(report: ExperimentReport, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        _atomic_write_text(path, report.to_json())
    elif fmt == "csv":
        _atomic_write_text(path, report.to_csv())
    else:
        raise ValueError(f"unknown report format {fmt!r}")
