import argparse
import functools
import hashlib
import inspect
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spdsliced
from spdsliced import (
    RngState,
    cli,
    errors,
    experiments,
    linalg,
    load_spd_dataset,
    save_spd_dataset,
    wishart_stack,
)
from spdsliced.adaptation import PARTICLE_LOSSES
from spdsliced.cli import build_parser, main
from spdsliced.data_io import ExperimentReport
from spdsliced.experiments import ALL_METRICS, SAMPLE_COMPLEXITY_METRICS

from conftest import SPLIT_BUDGET

COMMANDS = ("distance", "gen-wishart", "benchmark-runtime", "sample-complexity",
            "projection-complexity", "adapt", "kernel-ridge")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "spdsliced.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def dataset_pair(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_spd_dataset(str(a), wishart_stack(RngState(1), 6, 3, 9))
    save_spd_dataset(str(b), wishart_stack(RngState(2), 6, 3, 9))
    return str(a), str(b)


class TestDistanceCommand:
    def test_same_file_twice_is_zero(self, dataset_pair):
        a, _ = dataset_pair
        out = run_cli("distance", a, a, "--metric", "spdsw")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["rows"][0]["value"] == 0.0

    def test_lew_matches_brute_force(self, dataset_pair):
        a, b = dataset_pair
        out = run_cli("distance", a, b, "--metric", "lew")
        assert out.returncode == 0
        value = json.loads(out.stdout)["rows"][0]["value"]

        mu = load_spd_dataset(a).measure
        nu = load_spd_dataset(b).measure
        from spdsliced import build_cost_matrix

        entries = build_cost_matrix(mu, nu).entries
        best = min(
            sum(entries[i, perm[i]] for i in range(6)) / 6
            for perm in itertools.permutations(range(6))
        )
        assert abs(value - best) <= 1e-12 * max(1.0, best)

    def test_fixed_seed_bit_identical_reports(self, dataset_pair, tmp_path):
        a, b = dataset_pair
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            out = run_cli("distance", a, b, "--metric", "spdsw", "--seed", "11",
                          "--projections", "40", "--output", str(p))
            assert out.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_sampler_option_is_usage_error(self, dataset_pair):
        a, b = dataset_pair
        out = run_cli("distance", a, b, "--metric", "spdsw", "--sampler", "fast")
        assert out.returncode == 2
        assert "unrecognized arguments: --sampler fast" in out.stderr

    def test_malformed_file_is_data_error(self, tmp_path, dataset_pair):
        a, _ = dataset_pair
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = run_cli("distance", a, str(bad), "--metric", "spdsw")
        assert out.returncode == 3

    def test_csv_and_json_agree(self, dataset_pair, tmp_path):
        a, b = dataset_pair
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        assert run_cli("distance", a, b, "--metric", "spdsw", "--seed", "4",
                       "--output", str(jpath)).returncode == 0
        assert run_cli("distance", a, b, "--metric", "spdsw", "--seed", "4",
                       "--format", "csv", "--output", str(cpath)).returncode == 0
        jvalue = json.loads(jpath.read_text())["rows"][0]["value"]
        header, data = cpath.read_text().strip().splitlines()
        cvalue = float(data.split(",")[header.split(",").index("value")])
        assert cvalue == jvalue


class TestGenWishart:
    def test_generated_file_roundtrips(self, tmp_path):
        out_path = tmp_path / "gen.json"
        out = run_cli("gen-wishart", "--d", "3", "--n", "8", "--dof", "9",
                      "--seed", "5", "--output", str(out_path))
        assert out.returncode == 0
        loaded = load_spd_dataset(str(out_path))
        assert len(loaded.measure) == 8
        resaved = tmp_path / "resaved.json"
        save_spd_dataset(str(resaved), loaded)
        assert resaved.read_bytes() == out_path.read_bytes()

    def test_classes_produce_labels(self, tmp_path):
        out_path = tmp_path / "gen.json"
        run_cli("gen-wishart", "--d", "3", "--n", "10", "--dof", "9",
                "--classes", "2", "--output", str(out_path))
        loaded = load_spd_dataset(str(out_path))
        assert sorted(set(loaded.labels.tolist())) == [0, 1]

    def test_identity_shift_is_byte_identical_pair(self, tmp_path):
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        out = run_cli("gen-wishart", "--d", "3", "--n", "6", "--dof", "9",
                      "--output", str(src), "--output-shifted", str(dst))
        assert out.returncode == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_dof_below_dim_usage_error(self, tmp_path):
        out = run_cli("gen-wishart", "--d", "4", "--n", "5", "--dof", "3",
                      "--output", str(tmp_path / "x.json"))
        assert out.returncode == 2


class TestSmallExperimentCommands:
    def test_projection_complexity_runs(self, tmp_path):
        out = run_cli("projection-complexity", "--dims", "2", "--L-grid", "5,20",
                      "--L-star", "200", "--repeats", "5", "--n", "30")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert {r["L"] for r in doc["rows"]} == {5, 20}

    def test_sample_complexity_dim_cap(self):
        out = run_cli("sample-complexity", "--dims", "2,50", "--n-grid", "10",
                      "--repeats", "2")
        assert out.returncode == 2

    def test_benchmark_runtime_rows(self):
        out = run_cli("benchmark-runtime", "--n-grid", "20,40", "--d", "3",
                      "--projections", "10", "--metrics", "spdsw,lew",
                      "--repeats", "2")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert len(doc["rows"]) == 4

    def test_adapt_end_to_end(self, tmp_path):
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        run_cli("gen-wishart", "--d", "2", "--n", "12", "--dof", "8",
                "--classes", "2", "--seed", "3", "--output", str(src),
                "--output-shifted", str(dst), "--shift-identity", "0.8")
        adapted = tmp_path / "adapted.json"
        out = run_cli("adapt", "--source", str(src), "--target", str(dst),
                      "--epochs", "30", "--projections", "40", "--seed", "1",
                      "--output-adapted", str(adapted))
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        summary = doc["rows"][0]
        assert summary["record"] == "summary"
        assert summary["final_loss"] <= summary["initial_loss"]
        assert load_spd_dataset(str(adapted)).labels is not None

    def test_adapt_evaluate_requires_target_labels(self, tmp_path, dataset_pair):
        src = tmp_path / "src.json"
        run_cli("gen-wishart", "--d", "3", "--n", "10", "--dof", "9",
                "--classes", "2", "--output", str(src))
        _, unlabeled = dataset_pair
        out = run_cli("adapt", "--source", str(src), "--target", unlabeled,
                      "--epochs", "1", "--projections", "5", "--evaluate")
        assert out.returncode == 3

    def test_adapt_epochs_zero_keeps_accuracy(self, tmp_path):
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        run_cli("gen-wishart", "--d", "2", "--n", "12", "--dof", "8",
                "--classes", "2", "--seed", "3", "--output", str(src),
                "--output-shifted", str(dst), "--shift-identity", "0.8")
        out = run_cli("adapt", "--source", str(src), "--target", str(dst),
                      "--epochs", "0", "--projections", "10")
        assert out.returncode == 0
        summary = json.loads(out.stdout)["rows"][0]
        assert summary["before_accuracy"] == summary["after_accuracy"]

    def test_kernel_ridge_interpolates_train(self, tmp_path):
        entries = []
        for i in range(8):
            p = tmp_path / f"m{i}.json"
            run_cli("gen-wishart", "--d", "2", "--n", "20", "--dof", "6",
                    "--seed", str(100 + i), "--output", str(p))
            entries.append({"path": str(p), "target": 0.1 * i})
        manifest = tmp_path / "train.json"
        manifest.write_text(json.dumps(entries))
        out = run_cli("kernel-ridge", "--train", str(manifest), "--test", str(manifest),
                      "--folds", "2", "--projections", "20", "--quantiles", "20",
                      "--alpha", "1e-10")
        assert out.returncode == 0
        rows = json.loads(out.stdout)["rows"]
        test_row = [r for r in rows if r["record"] == "test"][0]
        assert test_row["r2"] >= 1.0 - 1e-6


def _subparser(command):
    return next(a for a in build_parser()._actions if a.dest == "command").choices[command]


def _runner(command):
    return getattr(experiments, "run_" + command.replace("-", "_"))


def _choices(command, flag):
    return next(a for a in _subparser(command)._actions if flag in a.option_strings).choices


def _runner_keywords(monkeypatch, argv):
    """The keywords ``main(argv)`` passes to the command's runner, here a
    stub reached through a ``functools.wraps`` wrapper."""
    seen = []
    name = "run_" + argv[0].replace("-", "_")

    @functools.wraps(getattr(experiments, name))
    def wrapper(**kwargs):
        seen.append(kwargs)
        return ExperimentReport(experiment=name, config={})

    monkeypatch.setattr(experiments, name, wrapper)
    assert main(argv) == 0
    return seen[0]


class TestArgumentRanges:
    @pytest.mark.parametrize("argv", [
        ["distance", "a.json", "b.json", "--metric", "spdsw", "--projections", "0"],
        ["distance", "a.json", "b.json", "--metric", "spdsw", "--order", "0.5"],
        ["distance", "a.json", "b.json", "--metric", "les", "--epsilon", "0"],
        ["distance", "a.json", "b.json", "--metric", "les", "--epsilon", "-1"],
        ["projection-complexity", "--dims", "0"],
        ["benchmark-runtime", "--repeats", "0"],
        ["gen-wishart", "--d", "2", "--n", "0", "--dof", "4", "--output", "{out}"],
        ["adapt", "--source", "s.json", "--target", "t.json", "--epochs", "-1"],
        ["benchmark-runtime", "--metrics", "foo"],
        ["benchmark-runtime", "--metrics", "spdsw,foo"],
        ["sample-complexity", "--metrics", "foo"],
        ["sample-complexity", "--metrics", "lew,les"],
        ["kernel-ridge", "--train", "m.json", "--folds", "1"],
        ["kernel-ridge", "--train", "m.json", "--sigma", "-1"],
        ["kernel-ridge", "--train", "m.json", "--sigma", "nan"],
        ["kernel-ridge", "--train", "m.json", "--sigma", "wide"],
        ["kernel-ridge", "--train", "m.json", "--sigma", "1e-200"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--classes", "-1", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--classes", "1", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--classes", "2",
         "--class-scale-step", "-2", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--classes", "2",
         "--class-scale-step", "-1", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--classes", "2",
         "--class-scale-step", "nan", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "3", "--dof", "4", "--classes", "5", "--output", "{out}"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--seed", "-1", "--output", "{out}"],
        ["distance", "a.json", "b.json", "--metric", "spdsw", "--seed", "-5"],
        ["adapt", "--source", "s.json", "--target", "t.json", "--seed", str(2**64)],
        ["kernel-ridge", "--train", "m.json", "--seed", "1" + "0" * 400],
        ["benchmark-runtime", "--seed", "-1"],
        ["sample-complexity", "--seed", "-1"],
        ["projection-complexity", "--seed", "-1"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--output", "{out}",
         "--output-shifted", "{out}.shifted", "--shift-angle", "nan"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--output", "{out}",
         "--output-shifted", "{out}.shifted", "--shift-identity", "inf"],
        ["gen-wishart", "--d", "2", "--n", "5", "--dof", "4", "--output", "{out}",
         "--output-shifted", "{out}.shifted", "--shift-random", "-inf"],
        ["benchmark-runtime", "--d", "3", "--dof", "1"],
    ], ids=["projections-0", "order-0.5", "epsilon-0", "epsilon-neg", "dims-0",
            "repeats-0", "n-0", "epochs-neg", "metrics-unknown", "metrics-one-unknown",
            "sample-metrics-unknown", "sample-metrics-les", "folds-1", "sigma-neg",
            "sigma-nan", "sigma-word", "sigma-underflow", "classes-neg", "classes-1", "class-step-neg2",
            "class-step-neg1", "class-step-nan", "classes-above-n", "gen-seed-neg",
            "distance-seed-neg", "adapt-seed-2pow64", "ridge-seed-huge", "runtime-seed-neg",
            "sample-seed-neg", "projection-seed-neg", "shift-angle-nan", "shift-identity-inf",
            "shift-random-neg-inf", "runtime-dof-below-d"])
    def test_out_of_range_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err
        assert not out.exists()


def test_seed_takes_the_full_unsigned_64_bit_range(tmp_path):
    parse = build_parser().parse_args
    top = 2**64 - 1
    assert parse(["distance", "a.json", "b.json", "--metric", "spdsw", "--seed", "0"]).seed == 0
    assert parse(["distance", "a.json", "b.json", "--metric", "spdsw",
                  "--seed", str(top)]).seed == top
    # Repeats draw their bases from seed + repeat, wrapped to 64 bits.
    out = tmp_path / "r.json"
    assert main(["benchmark-runtime", "--n-grid", "5", "--d", "2", "--metrics", "spdsw",
                 "--projections", "3", "--repeats", "2", "--seed", str(top),
                 "--output", str(out)]) == 0


def test_tiny_epsilon_is_numerical_failure(dataset_pair, capsys):
    a, b = dataset_pair
    for eps in ("1e-300", "1e-20"):
        assert main(["distance", a, b, "--metric", "les", "--epsilon", eps]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cost/epsilon") and "Traceback" not in err


@pytest.fixture(scope="module")
def shifted_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("shifted")
    s, t = d / "s.json", d / "t.json"
    assert main(["gen-wishart", "--d", "5", "--n", "200", "--dof", "40", "--classes", "2",
                 "--seed", "11", "--output", str(s), "--output-shifted", str(t),
                 "--shift-angle", "0.5", "--shift-identity", "0.693", "--shift-random", "0.5",
                 "--report", str(d / "gen.json")]) == 0
    return str(s), str(t)


@pytest.mark.parametrize("loss, lr", [("lew", "1e300"), ("les", "1e300"), ("logsw", "1e308")])
class TestOverflowingStep:
    # A step so large that the adapted state or its transport cost
    # overflows is "too large": the safeguard halves it, and without the
    # safeguard the run is a numerical failure.
    def test_safeguard_halves_the_step(self, shifted_pair, loss, lr, tmp_path):
        s, t = shifted_pair
        out = tmp_path / "r.json"
        assert main(["adapt", "--source", s, "--target", t, "--loss", loss, "--lr", lr,
                     "--epochs", "3", "--output", str(out)]) == 0
        summary = json.loads(out.read_text())["rows"][0]
        assert summary["final_learning_rate"] < float(lr)

    def test_without_safeguard_is_numerical_failure(self, shifted_pair, loss, lr, capsys):
        s, t = shifted_pair
        assert main(["adapt", "--source", s, "--target", t, "--loss", loss, "--lr", lr,
                     "--epochs", "3", "--no-safeguard"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_sigma_parses_median_or_positive_number(monkeypatch):
    ridge = ["kernel-ridge", "--train", "m.json"]
    assert _runner_keywords(monkeypatch, ridge)["sigma"] == "median"
    assert _runner_keywords(monkeypatch, ridge + ["--sigma", "0.5"])["sigma"] == 0.5


def test_more_folds_than_entries_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        [{"path": str(tmp_path / f"d{i}.json"), "target": float(i)} for i in range(6)]
    ))
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "9"]) == 3
    err = capsys.readouterr().err
    assert "9 folds" in err and "6 manifest entries" in err


@pytest.mark.parametrize("bad", [
    {"target": "nan"}, {"target": "inf"}, {"target": float("nan")}, {"target": "1.5"},
    {"target": True}, {"path": 0}, {"path": None}, {"paths": "a.json"}, {"paths": []},
    {"target": 10**400},
])
def test_malformed_manifest_entry_is_data_error(bad, dataset_pair, tmp_path, capsys):
    a, b = dataset_pair
    entries = [{"path": (a, b)[i % 2], "target": float(i)} for i in range(6)]
    entries[3] = {"paths": [a], "target": 3.0, **bad}  # "path", when given, wins
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(entries))  # float("nan") is written as NaN
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", [
    b'[{"path": "a.json", "target": 1' + b"0" * 5000 + b"}]",
    b'[{"path": "a.json", "target": 1, "x": "\xe9"}]',
], ids=["5001-digit-target", "latin-1-byte"])
def test_unparsable_manifest_is_data_error(raw, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(raw)
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


_ONE_BY_ONE = b'{"format_version": "1", "dim": 1, "count": 1, "matrices": [[%s]]}'


@pytest.mark.parametrize("raw", [
    _ONE_BY_ONE % b"NaN", _ONE_BY_ONE % b"Infinity", _ONE_BY_ONE % b"-Infinity",
    _ONE_BY_ONE % b"1e400", b"\xef\xbb\xbf" + _ONE_BY_ONE % b"2.0",
    _ONE_BY_ONE.replace(b"{", b'{"x": "\xe9", ') % b"2.0",
], ids=["NaN", "Infinity", "-Infinity", "1e400", "byte-order-mark", "latin-1-byte"])
def test_unparsable_dataset_is_data_error(raw, dataset_pair, tmp_path, capsys):
    a, _ = dataset_pair
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert main(["distance", str(bad), a, "--metric", "spdsw"]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read dataset {str(bad)!r}")


def test_malformed_matrices_are_data_error(dataset_pair, tmp_path, capsys):
    a, _ = dataset_pair
    bad = tmp_path / "dict.json"
    bad.write_text(json.dumps({"format_version": "1", "dim": 3, "count": 1,
                               "matrices": {"a": 1}}))
    assert main(["distance", str(bad), a, "--metric", "spdsw"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


_SCIPY_PROBE = """
import json, sys
from spdsliced import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append(sorted(m for m in ("scipy.linalg", "scipy.optimize", "scipy.special")
                         if m in sys.modules))
with open(sys.argv[2], "w") as handle:
    json.dump(loaded, handle)
"""


class TestScipyLoadsOnlyWhereRun:
    """Each command imports only the scipy it runs, so a sliced distance
    does not pay the start-up time and memory of the transport solvers. A
    module-level scipy import anywhere in the package fails these."""

    @pytest.fixture
    def files(self, tmp_path):
        labels = [0, 1] * 4
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        save_spd_dataset(str(src), wishart_stack(RngState(1), 8, 2, 6), labels)
        save_spd_dataset(str(dst), wishart_stack(RngState(2), 8, 2, 6), labels)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            [{"path": str((src, dst)[i % 2]), "target": float(i)} for i in range(4)]))
        return {"src": str(src), "dst": str(dst), "manifest": str(manifest),
                "out": str(tmp_path / "out.json"), "gen": str(tmp_path / "gen.json"),
                "shifted": str(tmp_path / "shifted.json")}

    def _loaded_after_each(self, commands, tmp_path):
        result = tmp_path / "loaded.json"
        out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands),
                              str(result)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return json.loads(result.read_text())

    def _distance(self, f, metric):
        return ["distance", f["src"], f["dst"], "--metric", metric, "--projections", "5",
                "--output", f["out"]]

    def _adapt(self, f, mode):
        return ["adapt", "--source", f["src"], "--target", f["dst"], "--mode", mode,
                "--epochs", "2", "--projections", "5", "--output", f["out"]]

    def test_sliced_and_sinkhorn_commands_load_no_scipy(self, files, tmp_path):
        f = files
        commands = [self._distance(f, m) for m in ("spdsw", "logsw", "hspdsw", "les")] + [
            ["gen-wishart", "--d", "2", "--n", "6", "--dof", "4", "--output", f["gen"]],
            ["benchmark-runtime", "--n-grid", "10", "--d", "2", "--projections", "5",
             "--metrics", "spdsw,logsw,hspdsw,les", "--repeats", "1", "--output", f["out"]],
            ["projection-complexity", "--dims", "2", "--L-grid", "5", "--L-star", "20",
             "--repeats", "2", "--n", "10", "--output", f["out"]],
            ["kernel-ridge", "--train", f["manifest"], "--folds", "2", "--projections", "5",
             "--quantiles", "5", "--output", f["out"]],
            self._adapt(f, "particles"),
            # Rotations go through the same eigendecomposition as translations.
            ["gen-wishart", "--d", "2", "--n", "6", "--dof", "4", "--output", f["gen"],
             "--output-shifted", f["shifted"], "--shift-angle", "0.3"],
            self._adapt(f, "transform"),
        ]
        assert self._loaded_after_each(commands, tmp_path) == [[]] * len(commands)

    def test_exact_transport_loads_only_the_assignment_kernel(self, files, tmp_path):
        f = files
        commands = [self._distance(f, "lew"), self._distance(f, "aiw"),
                    ["sample-complexity", "--dims", "2", "--n-grid", "5", "--repeats", "1",
                     "--projections", "5", "--output", f["out"]]]
        assert self._loaded_after_each(commands, tmp_path) == [[]] * 3


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in spdsliced.__all__:
            getattr(spdsliced, name)

    def test_metric_choices_match_experiments_table(self):
        assert tuple(_choices("distance", "--metric")) == ALL_METRICS

    def test_metric_lists_match_experiments_tables(self):
        assert cli.ALL_METRICS == ALL_METRICS
        assert cli.SAMPLE_COMPLEXITY_METRICS == SAMPLE_COMPLEXITY_METRICS

    def test_loss_choices_match_particle_losses(self):
        assert tuple(_choices("adapt", "--loss")) == PARTICLE_LOSSES


class TestCommandLayer:
    """Each option names the runner parameter it sets, and each error class
    names its exit code through its base."""

    # Options the command layer reads itself; gen-wishart's --output is the
    # dataset path its runner writes, so there it is a runner parameter.
    CLI_ONLY = {"help", "command", "threads", "format", "report", "max_dim", "output"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dests_are_runner_parameters(self, command):
        dests = {a.dest for a in _subparser(command)._actions}
        cli_only = self.CLI_ONLY - ({"output"} if command == "gen-wishart" else set())
        params = inspect.signature(_runner(command)).parameters
        required = {k for k, v in params.items() if v.default is inspect.Parameter.empty}
        assert dests - cli_only <= set(params), "a flag no runner parameter receives"
        assert required <= dests, "a required runner parameter no flag sets"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_runner_options_carry_no_parser_default(self, command):
        # The runner's signature is the one place an option's default is
        # stated, and every runner parameter is an option.
        params = inspect.signature(_runner(command)).parameters
        defaults = {a.dest: a.default for a in _subparser(command)._actions if a.dest in params}
        assert defaults.keys() == params.keys(), "a runner parameter no flag sets"
        assert all(v is argparse.SUPPRESS for v in defaults.values()), defaults

    def test_every_error_has_one_exit_code_base(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        bases = (errors.InputError, errors.NumericalFailure)
        found = set(subclasses(errors.SpdSlicedError)) - set(bases)
        assert len(found) >= 13
        for cls in found:
            assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__

    def test_runner_called_through_a_wrapper(self, dataset_pair, monkeypatch, tmp_path):
        seen = []
        original = experiments.run_distance

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_distance", wrapper)
        a, b = dataset_pair
        assert main(["distance", a, b, "--metric", "spdsw", "--projections", "7",
                     "--output", str(tmp_path / "r.json")]) == 0
        assert seen == [{"file_a": a, "file_b": b, "metric": "spdsw", "projections": 7,
                         "order": 2.0, "seed": 0, "epsilon": 1.0}]

    def test_renamed_flags_reach_the_runner(self, monkeypatch):
        parse = build_parser().parse_args
        ns = parse(["adapt", "--source", "s", "--target", "t", "--lr", "0.5",
                    "--no-safeguard", "--evaluate"])
        assert (ns.source_path, ns.target_path, ns.learning_rate) == ("s", "t", 0.5)
        assert ns.safeguard is False and ns.require_evaluation is True
        adapt = _runner_keywords(monkeypatch, ["adapt", "--source", "s", "--target", "t"])
        assert adapt["safeguard"] is True and adapt["require_evaluation"] is False
        gen = ["gen-wishart", "--d", "2", "--n", "3", "--dof", "2", "--output", "o"]
        assert _runner_keywords(monkeypatch, gen)["scale_path"] is None
        assert parse(gen + ["--scale", "identity"]).scale_path is None
        assert parse(gen + ["--scale", "s.json"]).scale_path == "s.json"
        ns = parse(["kernel-ridge", "--train", "a", "--test", "b"])
        assert (ns.train_manifest, ns.test_manifest) == ("a", "b")
        ns = parse(["projection-complexity", "--L-grid", "2,3", "--L-star", "9"])
        assert (ns.L_grid, ns.L_star) == ([2, 3], 9)


@pytest.fixture(scope="module")
def wide_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("wide")
    a, b = d / "a.json", d / "b.json"
    for path, seed in ((a, 1), (b, 2)):
        assert main(["gen-wishart", "--d", "3", "--n", "30", "--dof", "6", "--seed", str(seed),
                     "--output", str(path), "--report", str(d / "gen.json")]) == 0
    return str(a), str(b)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_overflowing_order_is_numerical_failure(wide_pair, metric, capsys):
    # W_p^p (sliced) or the ground cost d^p (transport) overflows to inf;
    # package RuntimeWarnings fail tier-1, so none may be printed either.
    a, b = wide_pair
    assert main(["distance", a, b, "--metric", metric, "--order", "2000",
                 "--projections", "20"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflowed" in err and "Traceback" not in err


def _labeled_pair(tmp_path, source_labels, target_labels):
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    save_spd_dataset(str(src), wishart_stack(RngState(1), 8, 2, 6), source_labels)
    save_spd_dataset(str(dst), wishart_stack(RngState(2), 8, 2, 6), target_labels)
    return str(src), str(dst)


def test_single_class_source_fails_before_the_descent(tmp_path, monkeypatch, capsys):
    src, dst = _labeled_pair(tmp_path, [0] * 8, [0, 1] * 4)

    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(experiments, "run_adaptation", no_descent)
    assert main(["adapt", "--source", src, "--target", dst, "--epochs", "3",
                 "--projections", "5"]) == 3
    assert "two source classes" in capsys.readouterr().err


def test_single_class_source_with_unlabeled_target_runs(tmp_path):
    src, dst = _labeled_pair(tmp_path, [0] * 8, None)
    assert main(["adapt", "--source", src, "--target", dst, "--epochs", "3",
                 "--projections", "5", "--output", str(tmp_path / "r.json")]) == 0


@pytest.fixture
def two_band_manifest(tmp_path):
    paths = []
    for i in range(4):
        path = tmp_path / f"d{i}.json"
        save_spd_dataset(str(path), wishart_stack(RngState(10 + i), 10, 2, 6))
        paths.append(str(path))

    def write(name, bands):
        manifest = tmp_path / name
        manifest.write_text(json.dumps(
            [{"paths": [paths[(i + b) % 4] for b in range(bands)], "target": float(i)}
             for i in range(4)]))
        return str(manifest)

    return write


@pytest.mark.parametrize("test_bands", [1, 3])
def test_test_manifest_band_count_must_match(two_band_manifest, test_bands, capsys):
    train, test = two_band_manifest("train.json", 2), two_band_manifest("test.json", test_bands)
    assert main(["kernel-ridge", "--train", train, "--test", test, "--folds", "2",
                 "--projections", "5", "--quantiles", "5"]) == 3
    assert f"lists {test_bands} bands, not 2" in capsys.readouterr().err


def test_median_bandwidth_of_one_training_entry_is_data_error(dataset_pair, tmp_path, capsys):
    # Two entries in two folds: each fit trains on a single entry, which has
    # no off-diagonal distance to take the median of.
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": p, "target": float(i)}
                                    for i, p in enumerate(dataset_pair)]))
    out = tmp_path / "r.json"
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "2", "--projections", "5",
                 "--quantiles", "5", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: median heuristic needs two or more entries; got 1\n"
    assert not out.exists()


def test_r2_of_a_constant_target_fold_is_empty(dataset_pair, tmp_path):
    # Three entries in three folds: each test fold holds one target, whose
    # variance is zero, so R^2 is undefined.
    a, b = dataset_pair
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": p, "target": float(i)}
                                    for i, p in enumerate((a, b, a))]))
    argv = ["kernel-ridge", "--train", str(manifest), "--folds", "3", "--projections", "5",
            "--quantiles", "5", "--sigma", "0.5", "--output"]
    assert main(argv + [str(tmp_path / "r.json")]) == 0
    text = (tmp_path / "r.json").read_text()
    folds = [r for r in json.loads(text)["rows"] if r["record"] == "fold"]
    assert len(folds) == 3 and all(r["r2"] is None for r in folds) and "NaN" not in text
    assert main(argv + [str(tmp_path / "r.csv"), "--format", "csv"]) == 0
    header, *rows = (tmp_path / "r.csv").read_text().splitlines()
    column = header.split(",").index("r2")
    assert [r.split(",")[column] for r in rows if r.startswith("fold,")] == ["", "", ""]


def test_median_bandwidth_of_identical_datasets_is_data_error(dataset_pair, tmp_path, capsys):
    a, _ = dataset_pair
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": a, "target": float(i)} for i in range(3)]))
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "3",
                 "--projections", "5", "--quantiles", "5"]) == 3
    assert capsys.readouterr().err.startswith("error: median squared distance is zero")


# SHA-256 of the default JSON `distance` report, keyed by (metric, size of
# the second file), on gen-wishart files (d=4, dof=8) a (n=30, seed 1) and b
# (seed 2) named relative to the working directory.  Pinned from the tree
# that still had `--sampler`; the determinism contract keeps them.
GOLDEN_DISTANCE_REPORTS = {
    ("spdsw", 30): "8db2ab726fc305722454f72a245516fbb096f62292065dc3a8346a62973405d4",
    ("logsw", 30): "1806228e08b1af090da60aa4ea76d66edf8c53d88632f04508f09749890b73a5",
    ("hspdsw", 30): "b15063469fd7769c0762569cf07a64d316112567fc08d11c508d9e59f5acc33d",
    ("lew", 30): "07ae4674aa83216ef6ad4525474a01983521d090bb7b4389b799e1494889e93c",
    ("les", 30): "64d380d4342bf08191faa39c438bf724d7b74af9ed96c65bf2e8fe83318b3e3a",
    ("aiw", 30): "c7e3c845dd8b3006d279dd00dae81dcb9588979fa440f995e372375d626b53a7",
    ("spdsw", 25): "596ff0a716c39923e7b3855d7aef07965b5d02677f19ccb73e00adcbebe6c968",
    ("logsw", 25): "03e1beb64d66931d4281fcf87655d3e0c7c062271855afa0f8e85f24cea6fbec",
    ("hspdsw", 25): "07ee62bd3400abd3ebeb2bf1a290815206b14472c1a2dceb503b94f3c8d91535",
    ("lew", 25): "56ab36c470ad4a514e49e4c21e627b42a86a01746eb00991c0107c3207bf47c1",
    ("les", 25): "ffb32015ef5b99bae10822b12d5b9d5cc7c129ce5b768e80aeb4be8214ca6ee5",
    ("aiw", 25): "bf89eeb5513d5688d6da65e1a307d3f95ba92c8df451dba3f8a6ac4d18fdd664",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, n, seed in (("a.json", 30, 1), ("b30.json", 30, 2), ("b25.json", 25, 2)):
        assert main(["gen-wishart", "--d", "4", "--n", str(n), "--dof", "8", "--seed", str(seed),
                     "--output", str(d / name), "--report", str(d / "gen.json")]) == 0
    return d


@pytest.fixture(params=[None, "1", "3"], ids=["threads-unset", "threads-1", "threads-3"])
def split_pool(request, monkeypatch):
    """SPDSLICED_THREADS unset with the default chunk budget, or set to 1
    or 3 with chunks small enough that every stack splits."""
    monkeypatch.delenv("SPDSLICED_THREADS", raising=False)
    if request.param is not None:
        monkeypatch.setenv("SPDSLICED_THREADS", request.param)
        monkeypatch.setattr(linalg, "_CHUNK_ELEMS", SPLIT_BUDGET)
    return request.param


@pytest.mark.parametrize("n_b", [30, 25], ids=["n-eq-m", "n-ne-m"])
@pytest.mark.parametrize("metric", ALL_METRICS)
def test_default_distance_report_bytes(golden_dir, monkeypatch, split_pool, metric, n_b):
    monkeypatch.chdir(golden_dir)
    report = f"r-{metric}-{n_b}.json"
    assert main(["distance", "a.json", f"b{n_b}.json", "--metric", metric, "--output", report]) == 0
    digest = hashlib.sha256((golden_dir / report).read_bytes()).hexdigest()
    assert digest == GOLDEN_DISTANCE_REPORTS[(metric, n_b)]


def _without_wall_clock(text: str) -> str:
    """A report without its top-level ``timing`` and ``seconds_*`` row fields."""
    doc = json.loads(text)
    doc.pop("timing", None)
    doc["rows"] = [{k: v for k, v in r.items() if not k.startswith("seconds_")} for r in doc["rows"]]
    return json.dumps(doc, sort_keys=True)


# SHA-256 of each output file of a tiny run of the commands that call the
# stack maps beyond `distance`; reports are hashed without their wall-clock
# fields.  Pinned from the tree whose stacks ran on one core; the datasets
# re-pinned when their encoder became orjson (same values, compact bytes).
# The adapt and kernel-ridge runs read the inputs of _write_golden_inputs;
# they were pinned from the tree whose transform descent stepped a list of
# chain parameter objects.
GOLDEN_COMMANDS = {
    "gen-wishart": (
        ["gen-wishart", "--d", "3", "--n", "12", "--dof", "6", "--classes", "2", "--seed", "7",
         "--output", "s.json", "--output-shifted", "t.json", "--shift-angle", "0.5",
         "--shift-identity", "0.693", "--shift-random", "0.5", "--report", "g.json"],
        {"s.json": "eb732d96a60875453c4c9082de81af4aea55583f1d77ea8e0201a11a379ad278",
         "t.json": "0f61f3ab736a268afa18c1b915e12465112ab1378ec9d1c1c36cc4c5bd17c27d",
         "g.json": "a12d6d3b2747780018ee66f26e2ed8aa608049c51f18faf9e2b96e618bed77ac"}),
    "projection-complexity": (
        ["projection-complexity", "--dims", "2,4", "--L-grid", "1,3,10", "--L-star", "40",
         "--repeats", "3", "--n", "20", "--seed", "3", "--output", "p.json"],
        {"p.json": "6c7c3833a875e3a57f68567facb266ff5a50b0db2f5da2d1623de2474882a90c"}),
    "sample-complexity": (
        ["sample-complexity", "--dims", "2,4", "--n-grid", "6,20", "--repeats", "2",
         "--projections", "20", "--seed", "4", "--output", "c.json"],
        {"c.json": "0c5dd84b4653f25aaccdeaca47769ba4825f6900ad1fae3d06c6537f78db95af"}),
    "benchmark-runtime": (
        ["benchmark-runtime", "--n-grid", "6,20", "--d", "4", "--projections", "10", "--metrics",
         "spdsw,logsw,hspdsw,lew,les,aiw", "--repeats", "1", "--seed", "5", "--output", "b.json"],
        {"b.json": "dc74cf9b0afe32267dd1c8c20ef2f7ed27f4f1ba4eb45c41ff28ccd824b67b62"}),
}

# adapt of s.json onto t.json: (mode, loss, extra options) -> digests of the
# report and the adapted dataset.  The two "halving" runs start from a step
# that the safeguard halves 15 (particles) and 7 (transform) times.
_ADAPT_RUNS = {
    "particles-spdsw": ("particles", "spdsw", [], (
        "426cefcda822f723f042a7aab76c610f55868f136a070bdb58678e656a73ddcc",
        "4750b4b4efefd393c2723db46f9199110c1dbd1986920ff64926b3d9dedcf9cc")),
    "particles-logsw": ("particles", "logsw", [], (
        "57926ebc63c016998dce383c4e30f50d1b8fc096ec35103c5110414ee87740e9",
        "4434b88a6f78c300ccf26bbc7991128b883f85d06f55fcfd5a78114084b6e2cb")),
    "particles-lew": ("particles", "lew", [], (
        "eef24875193e3ce6160b2b6daa4f31da075815271dbc77c6f673ed7603bd94fd",
        "521d1e06f8fb2a7cb71bced2b813430ef8b7ecd11700740638175676c244fc45")),
    "particles-les": ("particles", "les", ["--epsilon", "5"], (
        "7e88bd7d403860fa7c93c0b20bbc3187ad68a4c83295ea1a7f656eace2c2d099",
        "467c8a5a5e9c7db8ee27d9400294e10078a2eabfc6607c3b768439aeb926b6a2")),
    "transform-spdsw": ("transform", "spdsw", [], (
        "9e8db9276622b46004777a7222a1ed8a2f60e61bddca25e4ea94c12db14196e2",
        "cb98c4ea7aed896148ae147c43a61a1468ada827d6050aa1a7677a898fd3103d")),
    "transform-logsw": ("transform", "logsw", [], (
        "eecd4c71e7ddac5e4e0c44306ca46c80e408852c81156398b52c88828af32fd9",
        "41b4c4503f712ac435d46080e6066a89c893f19b89708e24ba30d476857d763d")),
    "transform-lew": ("transform", "lew", [], (
        "f7ded344fa0260c020fa847036f2095100873c6f2f372077c4b65bdc324f7803",
        "5e8090666ed94a0090139d37310efc229a9145c49571a882e506e2b637e91dd8")),
    "transform-les": ("transform", "les", ["--epsilon", "5"], (
        "f9d6c73dbe5b1cc402cdebc11112f3138ed14f2ea842bd59c2c77fb650a42663",
        "8a33d2accc09ad781825bb531d0b1510e7cc65745f20670414bfbea7e55f65dd")),
    "particles-halving": ("particles", "spdsw", ["--lr", "1e6"], (
        "22cfa4c86b646edf5d9cc103b4f194036edee1f3b453ca785397189148f22c17",
        "6999dd8ec5d6b47374f19d6a56d9466e87fdc5759c9dbd96716e04f3e89dd847")),
    "transform-halving": ("transform", "lew", ["--lr", "10"], (
        "6525d25c1bdad7fb230d2be5421a68b38fd62c9f51c71e86c46eaa874b9c7ac5",
        "f3d29a10b331aabd20d27e860ce02d02c7f23c8e780d3876b90f288f279c5f68")),
}
GOLDEN_COMMANDS.update({
    f"adapt-{run}": (
        ["adapt", "--source", "s.json", "--target", "t.json", "--mode", mode, "--loss", loss,
         "--epochs", "6", "--projections", "20", "--seed", "1", *extra,
         "--output", "r.json", "--output-adapted", "adapted.json"],
        dict(zip(("r.json", "adapted.json"), digests)))
    for run, (mode, loss, extra, digests) in _ADAPT_RUNS.items()
})
# kernel-ridge on the train and test manifests, with the median bandwidth
# and a fixed one: --sigma -> digests of the report and the predictions.
_RIDGE_RUNS = {
    "median": ("128d02deb68c86f2a4aa5cd2d31eed612727d4776c6394b7801498c68b9c5314",
               "67184ac00fb2c178485c6bf7bdaf4d5f278b4deb2ccd19bdc039c95dffa4d93c"),
    "0.3": ("af41c4aa3b2c5d03e31d9e2d273c6c43a6d9540a82c72a4ca2e65c1cead07576",
            "ec8d33dea49f920d8960a21c436e27d2562680e1b2db9287592a91c7b0504541"),
}
GOLDEN_COMMANDS.update({
    f"kernel-ridge-sigma-{sigma}": (
        ["kernel-ridge", "--train", "train.json", "--test", "test.json", "--folds", "3",
         "--projections", "10", "--quantiles", "8", "--sigma", sigma, "--seed", "2",
         "--output", "r.json", "--output-predictions", "predictions.csv"],
        dict(zip(("r.json", "predictions.csv"), digests)))
    for sigma, digests in _RIDGE_RUNS.items()
})
# kernel-ridge on features of D = 500 * 100 = 5e4 entries, wider than the
# chunk budget, so every distance block is two pairs wide and an odd row
# ends in a block that overlaps the one before.  Pinned from the tree whose
# blocks were up to 10^6 elements wide.
GOLDEN_COMMANDS["kernel-ridge-wide"] = (
    ["kernel-ridge", "--train", "train.json", "--test", "test.json", "--folds", "3",
     "--projections", "500", "--quantiles", "100", "--seed", "2",
     "--output", "r.json", "--output-predictions", "predictions.csv"],
    {"r.json": "9f55e64c55e036cd6914752dab0e64b435230f635cb89e9285e51d94883792b1",
     "predictions.csv": "3c4840180eaf3699c7c192055eb37aa426fbcf5f1c5be19df18fcb750b322e70"})

# gen-wishart scaled by the first matrix of k0.json, a non-diagonal 3x3,
# plainly and per class: --class-scale-step -> digests of the dataset and
# the report.  Pinned from the tree whose scale was an SpdMatrix object.
_SCALE_RUNS = {
    "plain": ([], (
        "72bbd4fd63184d50dfaa4e747feb4edb82c0351ce9836bdb87da9a62dffbd76c",
        "77e3c2dc2aae14fb749a05dfb219cefaf28677d72753a36c5cc900c0394d9c82")),
    "classes": (["--classes", "3", "--class-scale-step", "0.5"], (
        "53579df24b61df89406709f03dbe2d36254ba8820e9e384b9f2f0dcc8efd75a9",
        "5f8990b319acb0e0b6cba3d550e63ce0e5985f6b3c94a70455ce86f38158265d")),
}
GOLDEN_COMMANDS.update({
    f"gen-wishart-scale-{run}": (
        ["gen-wishart", "--d", "3", "--n", "12", "--dof", "6", "--seed", "9", "--scale", "k0.json",
         *extra, "--output", "w.json", "--report", "g.json"],
        dict(zip(("w.json", "g.json"), digests)))
    for run, (extra, digests) in _SCALE_RUNS.items()
})

# Outputs hashed as written: the datasets, and the predictions table, which
# carries no wall clock.
_RAW_OUTPUTS = ("s.json", "t.json", "w.json", "adapted.json", "predictions.csv")


def _write_golden_inputs(directory):
    """The gen-wishart run's s.json (labeled) and t.json (shifted), and train
    (6 entries) and test (2 entries) manifests over k0.json ... k7.json."""
    assert main(GOLDEN_COMMANDS["gen-wishart"][0]) == 0
    for i in range(8):
        assert main(["gen-wishart", "--d", "3", "--n", "12", "--dof", "6", "--seed", str(20 + i),
                     "--output", f"k{i}.json", "--report", "g.json"]) == 0
    for name, indices in (("train.json", range(6)), ("test.json", range(6, 8))):
        (directory / name).write_text(
            json.dumps([{"path": f"k{i}.json", "target": 0.5 * i} for i in indices]))


@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_pooled_command_output_bytes(command, split_pool, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, digests = GOLDEN_COMMANDS[command]
    if argv[0] in ("adapt", "kernel-ridge") or "k0.json" in argv:
        _write_golden_inputs(tmp_path)
    assert main(argv) == 0
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        if name not in _RAW_OUTPUTS:
            data = _without_wall_clock(data.decode()).encode()
        assert hashlib.sha256(data).hexdigest() == digest, f"{command}: {name} moved"


# SHA-256 of the gen-wishart datasets above as the stdlib encoder writes
# them, pinned when it was the dataset encoder.
STDLIB_DATASET_DIGESTS = {
    "s.json": "9139d16afbd56a9b64dcce7fbd628c573977be3674d3f488a6fc99501bd1fa11",
    "t.json": "2ff793c37adcdfc3b4557e56d5ac211b4784c1358665630d21e924d50366f669",
}


def test_gen_wishart_dataset_decodes_to_the_sampler_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(GOLDEN_COMMANDS["gen-wishart"][0]) == 0
    docs = {name: json.loads((tmp_path / name).read_text()) for name in STDLIB_DATASET_DIGESTS}
    # --n 12 --classes 2 --dof 6 --seed 7: six matrices per class, scales I and 2I.
    rng = RngState(7)
    expected = np.concatenate([wishart_stack(rng.substream(k), 6, 3, 6, scale=(1.0 + k) * np.eye(3))
                               for k in range(2)])
    stored = np.asarray(docs["s.json"]["matrices"], dtype=float).reshape(12, 3, 3)
    assert np.array_equal(stored.view(np.int64), expected.view(np.int64))
    assert docs["s.json"]["labels"] == [0] * 6 + [1] * 6
    for name, doc in docs.items():
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == STDLIB_DATASET_DIGESTS[name], f"{name}: values moved"


def test_non_pd_matrix_in_last_chunk_same_error_on_pool(tmp_path, monkeypatch, capsys):
    mats = wishart_stack(RngState(3), 10, 4, 9)
    mats[9] = np.diag([1.0, 1.0, 1.0, -1.0])
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    save_spd_dataset(str(bad), mats)
    save_spd_dataset(str(good), wishart_stack(RngState(4), 10, 4, 9))
    errs = []
    for threads in (None, "1", "3"):
        if threads is not None:
            monkeypatch.setenv("SPDSLICED_THREADS", threads)
            monkeypatch.setattr(linalg, "_CHUNK_ELEMS", SPLIT_BUDGET)
        assert main(["distance", str(bad), str(good), "--metric", "spdsw"]) == 3
        errs.append(capsys.readouterr().err)
    assert "matrix 9 in the stack" in errs[0] and errs.count(errs[0]) == 3


@pytest.mark.parametrize("text", ["abc", "0", "-1", ""])
def test_bad_thread_environment_is_usage_error(text, dataset_pair, monkeypatch, capsys):
    monkeypatch.setenv("SPDSLICED_THREADS", text)
    with pytest.raises(SystemExit) as exc:
        main(["distance", *dataset_pair, "--metric", "spdsw"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --threads: expected a positive integer "
                        f"(--threads, SPDSLICED_THREADS), got {text!r}\n")
    assert "Traceback" not in err
    # --threads is the count of its call, so the variable is not read.
    assert main(["--threads", "2", "distance", *dataset_pair, "--metric", "spdsw"]) == 0


def test_threads_option_holds_for_its_call_only(dataset_pair, monkeypatch):
    monkeypatch.delenv("SPDSLICED_THREADS", raising=False)
    seen = []
    run_distance = experiments.run_distance

    @functools.wraps(run_distance)
    def recording(*args, **kwargs):
        seen.append(linalg.THREADS.get())
        return run_distance(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_distance", recording)
    for argv in (["--threads", "1"], [], ["--threads", "3"], []):
        assert main([*argv, "distance", *dataset_pair, "--metric", "spdsw"]) == 0
    assert seen == [1, None, 3, None] and linalg.THREADS.get() is None


@pytest.mark.parametrize("command", ["gen-wishart", "distance"])
def test_output_in_missing_directory_is_data_error(command, dataset_pair, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.json")
    argv = (["gen-wishart", "--d", "2", "--n", "3", "--dof", "2", "--output", path]
            if command == "gen-wishart" else
            ["distance", *dataset_pair, "--metric", "spdsw", "--output", path])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path!r}") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("missing", ["s.json", "t.json"])
def test_failing_gen_wishart_write_leaves_no_file(missing, tmp_path, capsys):
    paths = {name: str(tmp_path / ("missing" if name == missing else "") / name)
             for name in ("s.json", "t.json")}
    assert main(["gen-wishart", "--d", "3", "--n", "8", "--dof", "9",
                 "--output", paths["s.json"], "--output-shifted", paths["t.json"],
                 "--shift-angle", "0.3"]) == 3
    assert capsys.readouterr().err == (
        f"error: cannot write {paths[missing]!r}: No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_shifted_path_naming_a_directory_writes_nothing(tmp_path, capsys):
    shifted = tmp_path / "t"
    shifted.mkdir()
    assert main(["gen-wishart", "--d", "3", "--n", "8", "--dof", "9",
                 "--output", str(tmp_path / "s.json"), "--output-shifted", str(shifted),
                 "--shift-angle", "0.3"]) == 3
    assert capsys.readouterr().err == f"error: cannot write {str(shifted)!r}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [shifted] and list(shifted.iterdir()) == []


def _shifted_gen_wishart(tmp_path, *shift):
    """Exit code of a d=3 shifted ``gen-wishart``, with every warning an error."""
    gen = ["gen-wishart", "--d", "3", "--n", "8", "--dof", "9", "--output", str(tmp_path / "s.json"),
           "--output-shifted", str(tmp_path / "t.json"), "--report", str(tmp_path / "r.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(gen + list(shift))


def test_overflowing_shift_angle_is_numerical_failure(tmp_path, capsys):
    # float64 resolves no rotation at these angles; the translation pair
    # overflows the shifted log stack itself.
    for angle in ("1e30", "1e100"):
        assert _shifted_gen_wishart(tmp_path, "--shift-angle", angle) == 4
        assert capsys.readouterr().err.startswith(
            "error: rotation angle beyond float64 resolution (residue ")
    assert _shifted_gen_wishart(tmp_path, "--shift-identity", "1.7e308",
                                "--shift-random", "1.7e308") == 4
    assert capsys.readouterr().err == "error: shifted log stack overflowed to non-finite values\n"
    assert not (tmp_path / "t.json").exists()
    assert not (tmp_path / "s.json").exists()


def test_shift_whose_exponential_overflows_writes_nothing(tmp_path, capsys):
    # The finite shifted logs symmetrize to inf: the overflow is named
    # before eigh can turn it into NaN eigenvalues.
    assert _shifted_gen_wishart(tmp_path, "--shift-identity", "1e308") == 4
    assert capsys.readouterr().err == "error: symmetrized stack overflowed to non-finite values\n"
    assert not (tmp_path / "t.json").exists()
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, what", [
    (["distance", "{big}", "{big}", "--metric", "spdsw"], "symmetrized stack"),
    (["gen-wishart", "--d", "2", "--n", "4", "--dof", "2", "--scale", "{big}"],
     "symmetrized stack"),
    (["gen-wishart", "--d", "2", "--n", "4", "--dof", "2", "--classes", "2",
      "--class-scale-step", "1e308"], "symmetrized stack"),
    (["gen-wishart", "--d", "2", "--n", "4", "--dof", "2", "--classes", "2",
      "--class-scale-step", "4e307"], "Wishart stack"),
    (["gen-wishart", "--d", "2", "--n", "4", "--dof", "2", "--classes", "2",
      "--class-scale-step", "1e200", "--scale", "{large}"], "class scale"),
], ids=["distance-dataset", "scale-dataset", "class-step-symmetrized", "class-step-draws",
        "class-step-times-scale"])
def test_overflow_on_the_way_to_a_stack_is_numerical_failure(argv, what, tmp_path, capsys):
    # Finite and exactly symmetric entries whose A + A^T overflows, or
    # Wishart draws or class scales that overflow.
    files = {}
    for name, top in (("big", 1e308), ("large", 1e200)):
        files[name] = tmp_path / f"{name}.json"
        save_spd_dataset(str(files[name]), np.repeat(top * np.eye(2)[None], 2, axis=0))
    argv = [a.format(**files) for a in argv] + ["--output", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {what} overflowed to non-finite values\n"
    assert not (tmp_path / "out.json").exists()


def test_allocation_failure_is_numerical_failure(dataset_pair, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 671. GiB for an array")

    monkeypatch.setattr(experiments, "run_distance", out_of_memory)
    assert main(["distance", *dataset_pair, "--metric", "spdsw"]) == 4
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 671. GiB for an array\n"


# (gen-wishart seed, adapt seed) of the `learning` benchmark workload at
# workload seeds 16 and 207, where the particle step of 1000 (n*d at n=200,
# d=5) sat on the stability edge of the spdsw loss and the accuracy stalled.
# At the former default epsilon of 10 the les plan was nearly uniform, so
# its minimiser merged the two classes and gained no accuracy.
@pytest.mark.parametrize("loss", ["spdsw", "les"])
@pytest.mark.parametrize("gen_seed, adapt_seed", [(246934834, 1907904921),
                                                  (2064767280, 125869754)])
def test_default_particle_step_converges(gen_seed, adapt_seed, loss, tmp_path):
    src, tgt, out = tmp_path / "s.json", tmp_path / "t.json", tmp_path / "r.json"
    assert main(["gen-wishart", "--d", "5", "--n", "200", "--dof", "40", "--classes", "2",
                 "--seed", str(gen_seed), "--output", str(src), "--output-shifted", str(tgt),
                 "--shift-angle", "0.5", "--shift-identity", "0.693", "--shift-random", "0.5",
                 "--report", str(tmp_path / "gen.json")]) == 0
    assert main(["adapt", "--source", str(src), "--target", str(tgt), "--mode", "particles",
                 "--loss", loss, "--epochs", "40", "--projections", "500",
                 "--seed", str(adapt_seed), "--evaluate", "--output", str(out)]) == 0
    summary = json.loads(out.read_text())["rows"][0]
    assert summary["after_accuracy"] - summary["before_accuracy"] >= 0.15


# SHA-256 of the top-level and each subcommand's --help text at 80 columns,
# pinned from the tree whose parser still restated every runner default:
# no help text prints a default, so leaving them to the runners moves none.
# The top-level text was re-pinned when --threads came to set the workers
# of the stack-chunk pool.
HELP_DIGESTS = {
    None: "ea106597ce020cdc683d7579126f3c11d0bcbb9842b669a836f7e11a80dc18f2",
    "distance": "b5609149a3a992691845153460753c20f3c212561046706a7e3f09e8fd30df19",
    "gen-wishart": "5d5f730570f698330498141a55bb2a593d155856fc33228936c85b5d3a8dae41",
    "benchmark-runtime": "235b3ace83be07cae1df1ab70d7179afad6d5550906a79c73c297c57554a3bba",
    "sample-complexity": "c495f56c163f72033fde5b7bb5bc96848962745ba09125b58868f7d7c6459385",
    "projection-complexity": "b2139aa138fcbfe6b784646ffcf38a548e46a693c3a10b5c6c113dbf13c5b534",
    "adapt": "6f425de1a67d3b020f3547d34abf1249f84b220e04aa80512d6b84d7e77e578a",
    "kernel-ridge": "053f0899d5938c1553447c82816fe8c4cb0dcb46bc803b56ae7c2f3edb0c4f2a",
}


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_text_bytes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser() if command is None else _subparser(command)
    assert hashlib.sha256(parser.format_help().encode()).hexdigest() == HELP_DIGESTS[command]
