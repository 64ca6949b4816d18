"""Command-line driver for the synthetic experiments.

Exit codes: 0 success, 2 usage error (out-of-range arguments included),
3 bad input (``errors.InputError``, an unwritable output path included),
4 numerical failure (``errors.NumericalFailure``, ``OverflowError``,
``MemoryError``).  Each option's dest is
the name of the ``experiments.run_<command>`` parameter it sets, and that
parameter's default is the option's only default.

Heavy imports happen after argument parsing so --threads (or the
SPDSLICED_THREADS environment variable) can also pin the BLAS thread pools
before any numerical library loads.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _bounded(convert, low: float, strict: bool, what: str, high: float = math.inf):
    """An argparse type: ``convert(text)``, finite, >= ``low`` (> when
    ``strict``) and <= ``high``."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = math.isfinite(value) and low <= value <= high and not (strict and value == low)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _bounded(int, 0, True, "a positive integer")
_thread_count = _bounded(int, 0, True, "a positive integer (--threads, SPDSLICED_THREADS)")
_nonnegative_int = _bounded(int, 0, False, "a nonnegative integer")
_at_least_two = _bounded(int, 2, False, "an integer >= 2")
_order = _bounded(float, 1.0, False, "a number >= 1")
_positive_float = _bounded(float, 0.0, True, "a positive number")
_finite_float = _bounded(float, -math.inf, False, "a finite number")
_seed = _bounded(int, 0, False, "a seed in 0..2**64-1", high=2**64 - 1)

# Restated so they are checked before the numerical modules load; tests
# keep them equal to the tables of the same names in ``experiments``.
ALL_METRICS = ("spdsw", "logsw", "hspdsw", "lew", "les", "aiw")
SAMPLE_COMPLEXITY_METRICS = ("spdsw", "lew")


def _int_list(text: str) -> list[int]:
    """Comma-separated positive integers (sizes, dimensions, counts)."""
    values = [_positive_int(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of positive integers")
    return values


def _metric_list(allowed: tuple[str, ...]):
    """An argparse type: comma-separated metric names, each in ``allowed``."""

    def parse(text: str) -> list[str]:
        values = [v.strip() for v in text.split(",") if v.strip()]
        if not values or not set(values) <= set(allowed):
            raise argparse.ArgumentTypeError(f"expected names from {allowed}, got {text!r}")
        return values

    return parse


def _bandwidth(text: str):
    """'median' or a positive finite number whose 2 sigma^2 does not underflow to 0."""
    if text == "median":
        return text
    sigma = _positive_float(text)
    if not 2.0 * sigma * sigma > 0.0:
        raise argparse.ArgumentTypeError(f"expected 'median' or a number whose 2*sigma^2 > 0, "
                                         f"got {text!r}")
    return sigma


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdsliced",
        description="Sliced optimal-transport discrepancies between distributions of SPD matrices.",
    )
    # A string default is parsed like the option, so a bad variable exits 2.
    parser.add_argument("--threads", type=_thread_count, default=os.environ.get("SPDSLICED_THREADS"),
                        help="workers of the stack-chunk pool; 1 runs serially "
                        "(default: SPDSLICED_THREADS, else the CPU-affinity count)")
    # A runner option left off the command line stays out of the namespace,
    # so the runner's own default applies (see _dispatch).
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                                argparse.ArgumentParser(argument_default=argparse.SUPPRESS, **kw))

    p = sub.add_parser("distance", help="discrepancy between two dataset files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", required=True, choices=ALL_METRICS)
    p.add_argument("--projections", type=_positive_int)
    p.add_argument("--order", type=_order)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epsilon", type=_positive_float)
    _output_flags(p)

    p = sub.add_parser("gen-wishart", help="generate Wishart dataset files")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dof", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--scale", dest="scale_path", metavar="SCALE",
                   type=lambda text: None if text == "identity" else text,
                   help="'identity' or a dataset file whose first matrix is the scale")
    p.add_argument("--classes", type=_at_least_two)
    p.add_argument("--class-scale-step", type=_finite_float)
    p.add_argument("--shift-angle", type=_finite_float)
    p.add_argument("--shift-identity", type=_finite_float)
    p.add_argument("--shift-random", type=_finite_float)
    p.add_argument("--output", required=True)
    p.add_argument("--output-shifted")
    p.add_argument("--report", default=None, help="optional report path")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("benchmark-runtime", help="runtime scaling versus sample count")
    p.add_argument("--n-grid", type=_int_list)
    p.add_argument("--d", type=_positive_int)
    p.add_argument("--projections", type=_positive_int)
    p.add_argument("--metrics", type=_metric_list(ALL_METRICS))
    p.add_argument("--repeats", type=_positive_int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epsilon", type=_positive_float)
    p.add_argument("--max-cost-bytes", type=_positive_float)
    p.add_argument("--dof", type=_positive_int)
    _output_flags(p)

    p = sub.add_parser("sample-complexity", help="estimator error versus sample count")
    p.add_argument("--dims", type=_int_list)
    p.add_argument("--max-dim", type=_positive_int, default=20,
                   help="guard on the largest allowed dimension")
    p.add_argument("--n-grid", type=_int_list)
    p.add_argument("--repeats", type=_positive_int)
    p.add_argument("--metrics", type=_metric_list(SAMPLE_COMPLEXITY_METRICS))
    p.add_argument("--projections", type=_positive_int)
    p.add_argument("--seed", type=_seed)
    _output_flags(p)

    p = sub.add_parser("projection-complexity", help="Monte Carlo error versus projections")
    p.add_argument("--dims", type=_int_list)
    p.add_argument("--L-grid", dest="L_grid", type=_int_list)
    p.add_argument("--L-star", dest="L_star", type=_positive_int)
    p.add_argument("--repeats", type=_positive_int)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--seed", type=_seed)
    _output_flags(p)

    p = sub.add_parser("adapt", help="align a labeled source onto a target")
    p.add_argument("--source", dest="source_path", metavar="SOURCE", required=True)
    p.add_argument("--target", dest="target_path", metavar="TARGET", required=True)
    p.add_argument("--mode", choices=["particles", "transform"])
    p.add_argument("--loss", choices=["spdsw", "logsw", "lew", "les"])
    p.add_argument("--epochs", type=_nonnegative_int)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=_positive_float,
                   help="learning rate; particle default n*d/2 (spdsw), "
                   "n*d(d+1)/4 (logsw), n/2 (lew, les) for n source matrices of "
                   "dim d; transform default 0.1 (spdsw, logsw), 0.01 (lew, les)")
    p.add_argument("--projections", type=_positive_int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epsilon", type=_positive_float)
    p.add_argument("--no-safeguard", dest="safeguard", action="store_false",
                   help="plain fixed-step descent without step halving")
    p.add_argument("--evaluate", dest="require_evaluation", action="store_true",
                   help="require before/after accuracy (error if the target has no labels)")
    p.add_argument("--output-adapted")
    _output_flags(p)

    p = sub.add_parser("kernel-ridge", help="distribution regression with sliced kernels")
    p.add_argument("--train", dest="train_manifest", metavar="TRAIN", required=True,
                   help="manifest of datasets and targets")
    p.add_argument("--test", dest="test_manifest", metavar="TEST")
    p.add_argument("--folds", type=_at_least_two)
    p.add_argument("--projections", type=_positive_int)
    p.add_argument("--quantiles", type=_positive_int)
    p.add_argument("--sigma", type=_bandwidth, help="'median' or a positive number")
    p.add_argument("--alpha", type=_positive_float)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--output-predictions")
    _output_flags(p)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="report path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Bind the given options to the command's runner, its defaults filling
    the rest; check what no single option can check alone; then run it."""
    from . import experiments

    # Looked up at call time, so a wrapper bound under the runner's name
    # runs; inspect.signature follows functools.wraps to the runner's own.
    runner = getattr(experiments, "run_" + args.command.replace("-", "_"))
    signature = inspect.signature(runner)
    bound = signature.bind(**{k: v for k, v in vars(args).items() if k in signature.parameters})
    bound.apply_defaults()
    vars(args).update(bound.arguments)
    if args.command == "gen-wishart":
        if args.dof < args.d:
            parser.error("--dof must be at least --d")
        if args.classes is not None and args.classes > args.n:
            parser.error(f"--classes {args.classes} exceeds --n {args.n}; expected at most --n")
        # Class k has scale factor 1 + step*k; the last class is the smallest.
        if args.classes is not None and 1.0 + args.class_scale_step * (args.classes - 1) <= 0.0:
            parser.error(
                f"--class-scale-step {args.class_scale_step} gives class {args.classes - 1} "
                "a scale factor <= 0; expected 1 + step*k > 0 for every class k"
            )
    if args.command == "benchmark-runtime" and args.dof is not None and args.dof < args.d:
        parser.error(f"--dof {args.dof} is below --d {args.d}; expected at least --d")
    if args.command == "sample-complexity" and max(args.dims) > args.max_dim:
        parser.error(
            f"dimension {max(args.dims)} exceeds the cap {args.max_dim}; "
            "raise --max-dim to run it"
        )
    return runner(**bound.arguments)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and "numpy" not in sys.modules:  # caps BLAS's own pools
        os.environ.update(dict.fromkeys(_THREAD_ENV_VARS, str(args.threads)))

    from .errors import InputError, NumericalFailure
    from .linalg import THREADS

    # gen-wishart's --output is the dataset itself; its report goes to --report.
    output = args.report if args.command == "gen-wishart" else args.output
    token = THREADS.set(args.threads)  # for this call only
    try:
        report = _dispatch(args, parser)
        if output is not None:
            from .data_io import write_report

            write_report(report, output, fmt=args.format)
    except (InputError, NumericalFailure, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3 if isinstance(exc, InputError) else 4
    finally:
        THREADS.reset(token)
    if output is None:
        print(report.to_json() if args.format == "json" else report.to_csv())
    if report.timing is not None:
        print(f"elapsed: {report.timing:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
