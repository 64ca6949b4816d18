"""Dataset and report file formats.

Datasets are JSON documents holding a stack of SPD matrices (row-major
flattened) with optional integer labels, read and written with orjson;
experiment reports are JSON or long-format CSV.  All writes are atomic
(temp file + rename), so a partial write never parses as a valid file; a
write that fails (missing directory, no permission, full disk) raises
InputError naming the path.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import orjson

from . import __version__
from .adaptation import LabeledSpdDataset
from .errors import DataValidationError, InputError, NotPositiveDefinite
from .sliced import EmpiricalSpdMeasure

FORMAT_VERSION = "1"

# Loader tolerance on |M - M^T| before symmetrization.
SYMMETRY_TOLERANCE = 1e-8

# Labels load into a C long array.
_LABEL_LIMIT = 2**63


def _cannot_write(path: str, exc: OSError) -> InputError:
    return InputError(f"cannot write {path!r}: {exc.strerror or exc}")


def _stage(path: str, data: bytes) -> str:
    """Write ``data`` to a new temp file beside ``path``; return its name.
    The file is created as ``open(path, "w")`` would create it, so it gets
    the umask's default mode."""
    if os.path.isdir(path):  # refused here, before any staged file is renamed
        raise InputError(f"cannot write {path!r}: Is a directory")
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    return tmp


@contextmanager
def staged_writes(files):
    """Write each ``(path, bytes)`` pair to a temp file beside its path, run
    the block, then rename every temp file into place.  Nothing is renamed
    until all files are written and the block has returned, so a write or a
    block that fails leaves none of these files behind."""
    staged: list[tuple[str, str]] = []
    try:
        for path, data in files:
            staged.append((_stage(path, data), path))
        yield
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise _cannot_write(path, exc) from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _atomic_write(path: str, data: bytes) -> None:
    with staged_writes([(path, data)]):
        pass


def encode_spd_dataset(points, labels=None) -> bytes:
    """The dataset file bytes of ``points``: an (n, d, d) stack, a measure,
    or a LabeledSpdDataset (whose labels win unless overridden).  A stack
    with a non-finite entry raises DataValidationError, as no JSON number
    spells it."""
    if isinstance(points, LabeledSpdDataset):
        if labels is None:
            labels = points.labels
        points = points.measure.points
    elif isinstance(points, EmpiricalSpdMeasure):
        points = points.points
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise DataValidationError("cannot save a stack with non-finite entries")
    n, d = pts.shape[0], pts.shape[1]
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "dim": int(d),
        "count": int(n),
    }
    if labels is not None:
        doc["labels"] = _label_list(labels, n)
    doc["matrices"] = pts.reshape(n, d * d)
    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)


def _checked_labels(labels, n: int, where: str) -> list:
    """``labels`` if they are the format's labels of ``n`` matrices, a list of ``n`` exact
    integers in 0..2**63-1, else DataValidationError prefixed by ``where``."""
    if not isinstance(labels, list) or len(labels) != n:
        raise DataValidationError(f"{where}labels must be a list of length count {n}")
    if not all(type(v) is int and 0 <= v < _LABEL_LIMIT for v in labels):
        raise DataValidationError(f"{where}labels must be integers in 0..2**63-1")
    return labels


def _label_list(labels, n: int) -> list:
    """Labels to write, checked as the loader checks them: numpy integers become ints,
    while a float or a boolean is refused rather than truncated."""
    values = np.asarray(labels, dtype=object).ravel().tolist()
    if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        values = [int(v) for v in values]
    return _checked_labels(values, n, "cannot save: ")


def save_spd_dataset(path: str, points, labels=None) -> None:
    """Write a dataset file; ``points`` and ``labels`` are as for
    :func:`encode_spd_dataset`."""
    _atomic_write(path, encode_spd_dataset(points, labels))


def load_spd_dataset(path: str) -> LabeledSpdDataset:
    """Read and validate a dataset file.

    Validation failures (malformed JSON, ``dim`` or ``count`` not a JSON
    integer, non-finite entries, asymmetry beyond 1e-8, non-SPD matrices,
    labels that are not ``count`` integers in 0..2**63-1) raise
    DataValidationError.  Positive definiteness is checked by filling the
    measure's log cache, so each matrix is decomposed once.
    """
    try:
        with open(path, "rb") as handle:
            doc = orjson.loads(handle.read())
    except (OSError, orjson.JSONDecodeError) as exc:
        raise DataValidationError(f"cannot read dataset {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise DataValidationError(f"{path!r}: unsupported or missing format_version")
    d, n, matrices, labels = (doc.get(key) for key in ("dim", "count", "matrices", "labels"))
    if type(d) is not int or type(n) is not int or not isinstance(matrices, list):
        raise DataValidationError(f"{path!r}: dim and count must be integers and matrices a list")
    if d < 1 or n < 1 or len(matrices) != n:
        raise DataValidationError(f"{path!r}: dim/count inconsistent with matrices")
    try:
        # Exact types: float() would also take the string "1.5" and the boolean true.
        if not set(map(type, chain.from_iterable(matrices))) <= {float, int}:
            raise TypeError("entries are not JSON numbers")
        pts = np.asarray(matrices, dtype=float).reshape(n, d, d)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataValidationError(f"{path!r}: matrices are not {n} rows of {d * d} numbers") from exc
    del doc, matrices  # orjson's parse tree, before the checks and logs allocate
    if not np.all(np.isfinite(pts)):
        raise DataValidationError(f"{path!r}: non-finite entries")
    asym = np.max(pts - np.swapaxes(pts, -2, -1))  # antisymmetric: its largest entry is |.|'s
    if asym > SYMMETRY_TOLERANCE:
        raise DataValidationError(f"{path!r}: asymmetry {asym:.3e} exceeds {SYMMETRY_TOLERANCE}")
    if labels is not None:
        labels = np.asarray(_checked_labels(labels, n, f"{path!r}: "), dtype=int)
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
        # The stdlib encoder, not orjson: these indented bytes are pinned.
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
        _atomic_write(path, report.to_json().encode())
    elif fmt == "csv":
        _atomic_write(path, report.to_csv().encode())
    else:
        raise ValueError(f"unknown report format {fmt!r}")
