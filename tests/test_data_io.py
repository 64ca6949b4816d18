import json
import os

import numpy as np
import pytest

from spdsliced import (
    ExperimentReport,
    RngState,
    load_spd_dataset,
    save_spd_dataset,
    wishart_stack,
    write_report,
)
from spdsliced.errors import DataValidationError


class TestDatasetRoundTrip:
    def test_save_load_save_is_bitwise_stable(self, tmp_path):
        pts = wishart_stack(RngState(3), 7, 3, 9)
        labels = np.array([0, 1, 0, 1, 0, 1, 0])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_spd_dataset(str(first), pts, labels)
        loaded = load_spd_dataset(str(first))
        save_spd_dataset(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_values_roundtrip_exactly(self, tmp_path):
        pts = wishart_stack(RngState(4), 5, 4, 10)
        path = tmp_path / "d.json"
        save_spd_dataset(str(path), pts)
        loaded = load_spd_dataset(str(path))
        assert np.array_equal(loaded.measure.points, pts)
        assert loaded.labels is None

    def test_schema_fields(self, tmp_path):
        pts = wishart_stack(RngState(4), 2, 2, 5)
        path = tmp_path / "d.json"
        save_spd_dataset(str(path), pts, labels=[1, 0])
        doc = json.loads(path.read_text())
        assert set(doc) == {"format_version", "dim", "count", "labels", "matrices"}
        assert doc["format_version"] == "1"
        assert doc["dim"] == 2 and doc["count"] == 2
        assert len(doc["matrices"][0]) == 4


class TestDatasetValidation:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def _valid_doc(self):
        return {
            "format_version": "1",
            "dim": 2,
            "count": 1,
            "matrices": [[2.0, 0.1, 0.1, 1.0]],
        }

    def test_rejects_bad_version(self, tmp_path):
        doc = self._valid_doc()
        doc["format_version"] = "2"
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{not json")
        with pytest.raises(DataValidationError):
            load_spd_dataset(str(p))

    def test_rejects_count_mismatch(self, tmp_path):
        doc = self._valid_doc()
        doc["count"] = 2
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_rejects_asymmetry(self, tmp_path):
        doc = self._valid_doc()
        doc["matrices"] = [[2.0, 0.5, 0.1, 1.0]]
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_accepts_tiny_asymmetry(self, tmp_path):
        doc = self._valid_doc()
        doc["matrices"] = [[2.0, 0.1 + 5e-9, 0.1, 1.0]]
        loaded = load_spd_dataset(self._write(tmp_path / "x.json", doc))
        m = loaded.measure.points[0]
        assert m[0, 1] == m[1, 0]

    def test_rejects_non_spd(self, tmp_path):
        doc = self._valid_doc()
        doc["matrices"] = [[1.0, 2.0, 2.0, 1.0]]
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_rejects_nonfinite(self, tmp_path):
        doc = self._valid_doc()
        doc["matrices"] = [[1.0, 0.0, 0.0, None]]
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    @pytest.mark.parametrize("labels", [[-1, 0], ["x", 0], 3, [0.5, 1.7], [True, 0]])
    def test_rejects_malformed_labels(self, tmp_path, labels):
        doc = self._valid_doc()
        doc["count"] = 2
        doc["matrices"] = doc["matrices"] * 2
        doc["labels"] = labels
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    @pytest.mark.parametrize("field, value", [
        ("dim", 1.7), ("dim", True), ("dim", "2"), ("count", 1.0), ("count", None),
        ("matrices", {"a": 1}), ("matrices", [{"a": 1}]), ("matrices", 5),
        ("matrices", [[2.0, 0.1, {"a": 1}, 1.0]]),
    ])
    def test_rejects_malformed_fields(self, tmp_path, field, value):
        doc = self._valid_doc()
        doc[field] = value
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_non_spd_message_names_the_matrix(self, tmp_path):
        doc = self._valid_doc()
        doc["count"] = 2
        doc["matrices"] = [[2.0, 0.1, 0.1, 1.0], [1.0, 2.0, 2.0, 1.0]]
        with pytest.raises(DataValidationError, match="matrix 1"):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))

    def test_logs_filled_at_load(self, tmp_path):
        path = self._write(tmp_path / "x.json", self._valid_doc())
        measure = load_spd_dataset(path).measure
        assert measure._logs is not None

    def test_rejects_label_length(self, tmp_path):
        doc = self._valid_doc()
        doc["labels"] = [0, 1]
        with pytest.raises(DataValidationError):
            load_spd_dataset(self._write(tmp_path / "x.json", doc))


class TestReports:
    def _report(self):
        return ExperimentReport(
            experiment="demo",
            config={"seed": 1},
            rows=[{"metric": "spdsw", "value": 0.125}, {"metric": "lew", "value": 2.5}],
            timing=None,
        )

    def test_json_has_required_keys(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self._report(), str(path), "json")
        doc = json.loads(path.read_text())
        assert set(doc) == {"experiment", "config", "rows", "timing", "version"}

    def test_csv_and_json_values_agree(self, tmp_path):
        report = self._report()
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(report, str(jpath), "json")
        write_report(report, str(cpath), "csv")
        doc = json.loads(jpath.read_text())
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        for row, line in zip(doc["rows"], lines[1:]):
            name, value = line.split(",")
            assert name == row["metric"]
            assert float(value) == row["value"]

    def test_atomic_write_leaves_no_partials(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self._report(), str(path), "json")
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".part")]
        assert leftovers == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(self._report(), str(tmp_path / "r.xml"), "xml")
