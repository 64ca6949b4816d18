import itertools
import json
import subprocess
import sys

import pytest

import spdsliced
from spdsliced import RngState, cli, load_spd_dataset, save_spd_dataset, wishart_stack
from spdsliced.adaptation import PARTICLE_LOSSES
from spdsliced.cli import build_parser, main
from spdsliced.experiments import ALL_METRICS, SAMPLE_COMPLEXITY_METRICS


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

    def test_sampler_conflict_is_usage_error(self, dataset_pair):
        a, b = dataset_pair
        out = run_cli("distance", a, b, "--metric", "hspdsw", "--sampler", "fast")
        assert out.returncode == 2

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


def _choices(command, flag):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if flag in a.option_strings).choices


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
            "sigma-nan", "sigma-word", "classes-neg", "classes-1", "class-step-neg2",
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


def test_sigma_parses_median_or_positive_number():
    parse = build_parser().parse_args
    assert parse(["kernel-ridge", "--train", "m.json"]).sigma == "median"
    assert parse(["kernel-ridge", "--train", "m.json", "--sigma", "0.5"]).sigma == 0.5


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
])
def test_malformed_manifest_entry_is_data_error(bad, dataset_pair, tmp_path, capsys):
    a, b = dataset_pair
    entries = [{"path": (a, b)[i % 2], "target": float(i)} for i in range(6)]
    entries[3] = {"paths": [a], "target": 3.0, **bad}  # "path", when given, wins
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(entries))  # float("nan") is written as NaN
    assert main(["kernel-ridge", "--train", str(manifest), "--folds", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


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
        ]
        assert self._loaded_after_each(commands, tmp_path) == [[]] * len(commands)

    def test_rotations_load_only_scipy_linalg(self, files, tmp_path):
        f = files
        commands = [
            ["gen-wishart", "--d", "2", "--n", "6", "--dof", "4", "--output", f["gen"],
             "--output-shifted", f["shifted"], "--shift-angle", "0.3"],
            self._adapt(f, "transform"),
        ]
        assert self._loaded_after_each(commands, tmp_path) == [["scipy.linalg"]] * 2

    def test_exact_transport_loads_scipy_optimize(self, files, tmp_path):
        f = files
        commands = [self._distance(f, "lew"), self._distance(f, "aiw"),
                    ["sample-complexity", "--dims", "2", "--n-grid", "5", "--repeats", "1",
                     "--projections", "5", "--output", f["out"]]]
        everything = ["scipy.linalg", "scipy.optimize", "scipy.special"]
        assert self._loaded_after_each(commands, tmp_path) == [everything] * 3


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
