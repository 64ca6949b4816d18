"""Benchmark for the spdsliced CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload's op mix in a closed loop (one client, no think time):
each op is one in-process call to ``spdsliced.cli.main(argv)``, built from
the ``src/`` tree of the checkout it sits in.  Set-up (imports once, then
inputs from the seed plus one untimed warm-up pass, repeated
``SETUP_REPEATS`` times) is timed apart from the measured window.  Every
op's report is checked outside the timed window.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
declared in ``BENCHMARK.json`` (every timing, with its sample count, is
printed above it); with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced passes (see ``tracer.py``).
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# BLAS/OpenMP pools are pinned before numpy loads, to this fixed count.  One
# thread: the ops are small batched LAPACK calls that gain nothing from a
# second thread, and on a shared 2-vCPU host a two-thread pool made pass
# times swing about three times as much.
BLAS_THREADS = 1
_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_ENV_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    all_finite,
    report_fingerprint,
    require,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 900

END_TO_END = {"setup_s": "s", "cycle_ref": "ref", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.cycle_s": "s", "trace.overhead_frac": "fraction",
                 "trace.spans_per_pass": "count"}


def per_layer_units() -> dict[str, str]:
    return {**{k: u for k, (u, _) in LAYER_METRICS.items()}, **TRACE_METRICS}


def import_program() -> float:
    """Put the checkout's ``src/`` first on the path and import the program;
    returns the seconds since this script started (numpy and scipy
    included)."""
    src = ROOT / "src"
    if not (src / "spdsliced" / "__init__.py").is_file():
        raise SystemExit(f"error: no spdsliced sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spdsliced
    from spdsliced import cli, experiments  # noqa: F401

    if Path(spdsliced.__file__).resolve().parent != (src / "spdsliced").resolve():
        raise SystemExit(f"error: imported spdsliced from {spdsliced.__file__}, not {src}")
    return time.perf_counter() - _START


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "threads_exceed_nproc": BLAS_THREADS > nproc,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' when
    the checkout carries none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- host-speed reference -------------------------------------------------------------
# The host's speed drifts by tens of percent within minutes, and it moves pure
# Python, JSON and LAPACK code alike, though not by the same factor.  A fixed
# piece of work, timed between passes, measures the host's speed at that
# moment; ``cycle_ref`` divides each pass by it.  The work mixes eight kinds
# of step the program takes, each sized to about 8 ms on the 2-vCPU host the
# benchmark was tuned on, so that no single kind sets the reference.


@functools.cache
def _reference_inputs() -> dict:
    rng = np.random.default_rng(0)
    g = rng.standard_normal((500, 10, 10))
    return {
        "floats": rng.standard_normal(6_000).tolist(),
        "text": json.dumps(rng.standard_normal(15_000).tolist()),
        "mats": g @ np.swapaxes(g, 1, 2),
        "vector": rng.standard_normal(650_000),
        "square": rng.standard_normal((64, 64)),
    }


def reference_seconds() -> float:
    """Seconds taken by the fixed reference work: JSON encoding, JSON
    parsing, a batched ``eigh``, small numpy calls, a pure-Python loop, a
    sort, small matrix products and array allocation."""
    x = _reference_inputs()
    small = x["square"][:10, :10]
    gc.collect()
    start = time.perf_counter()
    json.dumps(x["floats"])
    json.loads(x["text"])
    np.linalg.eigh(x["mats"])
    for _ in range(1_000):
        np.trace(small @ small)
    sum(i * i for i in range(80_000))
    np.sort(x["vector"])
    for _ in range(250):
        x["square"] @ x["square"]
    for _ in range(40):
        np.ones(200_000).sum()
    return time.perf_counter() - start


# -- one pass ---------------------------------------------------------------------


class Runner:
    """Runs passes of one workload's ops and checks each op's report against
    the first report that op produced."""

    def __init__(self, workload):
        self.fingerprints: dict[str, str] = {}
        self.op_seconds: dict[str, list[float]] = {m: [] for m in workload.metrics}
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op = 0
        from spdsliced.cli import main

        self.cli_main = main

    def call(self, op, tracer=None) -> tuple[float, str | None]:
        """Run one op; returns (seconds, error or None).  Only the CLI call
        is timed."""
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli_main(op.argv)
                else:
                    with tracer.span("cli.main"):
                        rc = self.cli_main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an op that raises is a failed op, not a crash
                rc, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        if error is None and rc != 0:
            error = f"exit code {rc}: {sink.getvalue().strip()[-500:]}"
        return seconds, error

    def check(self, op, earlier: dict) -> None:
        text = op.report.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report does not parse: {exc}") from exc
        require(all_finite(doc), "report holds a non-finite value")
        fingerprint = report_fingerprint(text)
        first = self.fingerprints.setdefault(op.key, fingerprint)
        require(fingerprint == first, "report differs from the first run of the same argv")
        op.check(doc, earlier)
        earlier[op.key] = doc

    def run_pass(self, ops, tracer=None, counted=True) -> float:
        """One pass through the op mix; returns the summed op seconds."""
        cycle, earlier = 0.0, {}
        for op in ops:
            if tracer is not None:
                tracer.op = self.next_op
            self.next_op += 1
            op.report.unlink(missing_ok=True)
            gc.collect()  # untimed, so no op pays for garbage left by the one before
            seconds, error = self.call(op, tracer)
            if error is None:
                try:
                    self.check(op, earlier)
                except (CheckFailed, OSError, KeyError, IndexError, TypeError) as exc:
                    error = f"check failed: {exc!r}"
            if not counted:
                if error is not None:
                    raise RuntimeError(f"set-up op {op.key} failed: {error}")
                continue
            self.attempted += 1
            cycle += seconds
            self.op_seconds[op.metric].append(seconds)
            if error is not None:
                self.failures.append(f"{op.key}: {error}")
        return cycle


# -- one workload -------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Sample count, and the highest of p90/p99/p99.9 that keeps at least
    ten samples beyond it."""
    out = {"samples": len(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            ranked = sorted(values)
            out[f"p{p:g}"] = ranked[min(len(ranked) - 1, int(len(ranked) * p / 100))]
            break
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    workload = WORKLOADS[name]
    import_s = import_program()
    work = ROOT / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
    runner = Runner(workload)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ops = workload.setup(work, seed, workload.sizes[size])
            runner.run_pass(ops, counted=False)
            setups.append(time.perf_counter() - start)

        tracer = Tracer() if trace else None
        cycles, ratios, refs, traced = [], [], [], []
        ref = reference_seconds()
        start = time.perf_counter()
        while True:
            before, cycle, ref = ref, runner.run_pass(ops), reference_seconds()
            cycles.append(cycle)
            ratios.append(2 * cycle / (before + ref))
            refs.append(ref)
            if tracer is not None:
                first_op = runner.next_op
                tracer.install()
                try:
                    cycle = runner.run_pass(ops, tracer)
                finally:
                    tracer.uninstall()
                traced.append((list(range(first_op, runner.next_op)), cycle))
                ref = reference_seconds()
            if len(cycles) >= MIN_PASSES and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": name,
        "env": environment(seed),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "samples": {"setup_s": setups, "cycle_s": cycles, "cycle_ref": ratios,
                    "reference_s": refs, **runner.op_seconds},
        "end_to_end": {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s",
                        "samples": len(setups), "import_s": import_s},
            "cycle_s": {"value": statistics.median(cycles), "unit": "s", **summary(cycles)},
            "cycle_ref": {"value": statistics.median(ratios), "unit": "ref", **summary(ratios)},
            "reference_s": {"value": statistics.median(refs), "unit": "s", **summary(refs)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB", "samples": 1},
            "failed_frac": {"value": len(runner.failures) / runner.attempted, "unit": "fraction",
                            "samples": runner.attempted},
        },
    }
    for metric, values in runner.op_seconds.items():
        result["end_to_end"][metric] = {"value": statistics.median(values), "unit": "s",
                                        **summary(values)}
    if tracer is not None:
        layers = layer_metrics(tracer.spans, traced)
        layers["trace.cycle_s"] = statistics.median(c for _, c in traced)
        # Each traced pass against the untraced pass just before it, so host
        # drift between distant passes does not count as overhead.
        layers["trace.overhead_frac"] = statistics.median(
            t / c for (_, t), c in zip(traced, cycles)) - 1
        layers["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        units = per_layer_units()
        result["per_layer"] = {k: {"value": v, "unit": units[k], "samples": len(traced)}
                               for k, v in layers.items()}
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
    return result


# -- output ---------------------------------------------------------------------------


def print_result(result: dict, trace: bool) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {env['seed']}  trace {int(trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["threads_exceed_nproc"]:
        print(f"WARNING: BLAS thread cap {env['blas_threads']} exceeds nproc {env['nproc']}")
    sections = ["end_to_end"] + (["per_layer"] if trace else [])
    for section in sections:
        print(f"{section}:")
        for name, m in result[section].items():
            extra = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']:9s} n={m['samples']} {extra}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def final_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k]["value"], "unit": u}
                   for k, u in END_TO_END.items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def save_result(result: dict, trace: bool) -> None:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['env']['seed']}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(result))


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    lines, code = [], 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        out = child.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]), flush=True)
        if child.returncode != 0 or not out:
            sys.stderr.write(child.stderr)
            code = child.returncode or 1
            continue
        lines.append((name, json.loads(out[-1])))
    if code:
        return code
    print(json.dumps({
        "correct": all(r["correct"] for _, r in lines),
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": sum(r["failed"] for _, r in lines),
        "metrics": {f"{n}.{k}": m for n, r in lines for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save_result(result, bool(args.trace))
    print_result(result, bool(args.trace))
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
