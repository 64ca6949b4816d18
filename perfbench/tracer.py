"""Span tracer for the traced benchmark run.

The tracer wraps the program's layer boundaries from outside: each listed
function is replaced, in every ``spdsliced`` module that bound it, by a
wrapper that records one span per call (name, start, end, parent span, op
id) plus a few counts taken from the call's arguments or result.  Nothing
in ``src/`` is edited, and ``uninstall`` puts the original objects back,
so untraced passes run the program exactly as shipped.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Per-layer metrics are computed per traced pass and
reported as the median over passes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("data_io", "linalg", "sampling", "sliced", "baselines",
           "kernels", "adaptation", "experiments", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int | None = None
    facts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``op`` tags every span opened while set."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent, op=self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def bump(self, key: str) -> None:
        """Count an event against the innermost open span."""
        if self._stack:
            facts = self.spans[self._stack[-1]].facts
            facts[key] = facts.get(key, 0) + 1

    def wrap(self, fn: Callable, boundary: "Boundary") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = boundary.name
            if boundary.label is not None:
                name = f"{name}.{boundary.label(args, kwargs)}"
            with tracer.span(name) as record:
                own_alloc = boundary.track_alloc and not tracemalloc.is_tracing()
                if own_alloc:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if own_alloc:
                        record.facts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if boundary.facts is not None:
                record.facts.update(boundary.facts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each boundary function in the loaded
        ``spdsliced`` modules with a traced wrapper."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("spdsliced.")]
        for boundary in BOUNDARIES:
            owner = importlib.import_module(f"spdsliced.{boundary.module}")
            original = getattr(owner, boundary.attr)
            wrapper = self.wrap(original, boundary)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        # Sinkhorn iterations: baselines calls the name it imported twice
        # per iteration; count those calls without opening spans.
        baselines = importlib.import_module("spdsliced.baselines")
        lse = baselines.logsumexp

        def counted_logsumexp(*args, **kwargs):
            self.bump("logsumexp_calls")
            return lse(*args, **kwargs)

        self._undo.append((baselines, "logsumexp", lse))
        baselines.logsumexp = counted_logsumexp

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()


# -- layer boundaries ---------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _stack_size(args, kwargs, result):
    return {"matrices": len(_arg(args, kwargs, 0, "mats"))}


def _load_facts(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path), "matrices": len(result.measure)}


def _save_facts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _hspdsw_facts(args, kwargs, result):
    mu, nu, basis = (_arg(args, kwargs, i, k) for i, k in enumerate(("mu", "nu", "basis")))
    return {"coords": basis.count * (len(mu) + len(nu)),
            "redrawn": result.degenerate_resampled}


def _ground_label(args, kwargs):
    ground = _arg(args, kwargs, 2, "metric", "log_euclidean")
    return "ai" if ground == "affine_invariant" else "le"


def _adaptation_facts(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    return {"epochs": len(result.losses) - 1,
            "halvings": math.log2(config.learning_rate / result.final_learning_rate)}


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str
    name: str
    facts: Callable | None = None
    label: Callable | None = None
    track_alloc: bool = False


def _b(module, attr, short=None, **kw):
    return Boundary(module, attr, f"{module}.{short or attr}", **kw)


BOUNDARIES = (
    _b("data_io", "load_spd_dataset", "load", facts=_load_facts),
    _b("data_io", "save_spd_dataset", "save", facts=_save_facts),
    _b("data_io", "write_report"),
    _b("linalg", "log_stack", facts=_stack_size),
    _b("linalg", "eigh_stack", facts=_stack_size),
    _b("linalg", "exp_stack", facts=_stack_size),
    _b("linalg", "udu_stack", facts=_stack_size),
    _b("linalg", "log_frechet_stack"),
    _b("sampling", "build_projection_basis", facts=lambda a, k, r: {"directions": r.count}),
    _b("sampling", "wishart_stack", facts=lambda a, k, r: {"matrices": len(r)}),
    _b("sliced", "spdsw"),
    _b("sliced", "log_sw"),
    _b("sliced", "hspdsw", facts=_hspdsw_facts),
    _b("sliced", "mc_error_estimate"),
    _b("baselines", "build_cost_matrix", label=_ground_label,
       facts=lambda a, k, r: {"entries": r.entries.size}),
    _b("baselines", "exact_wasserstein"),
    _b("baselines", "sinkhorn", facts=lambda a, k, r: {"converged": int(bool(r[1]))}),
    _b("kernels", "quantile_feature"),
    _b("kernels", "feature_sq_distances", track_alloc=True,
       facts=lambda a, k, r: {"pairs": r.size}),
    _b("kernels", "cross_sq_distances", track_alloc=True),
    _b("kernels", "median_heuristic_bandwidth"),
    _b("kernels", "gaussian_kernel"),
    _b("kernels", "kernel_ridge_fit"),
    _b("adaptation", "run_adaptation", facts=_adaptation_facts),
    _b("adaptation", "loss_and_gradient_transform"),
    _b("adaptation", "train_log_linear_classifier"),
    _b("adaptation", "evaluate_transfer"),
    *(_b("experiments", f"run_{cmd}") for cmd in (
        "distance", "gen_wishart", "benchmark_runtime", "projection_complexity",
        "adapt", "kernel_ridge")),
)


# -- self time and per-pass totals ---------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered, reach = 0.0, s.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class PassTotals:
    """Sums over the spans of one traced pass, keyed by span name."""

    def __init__(self, spans: list[Span], selfs: list[float], cycle_s: float):
        self.cycle_s = cycle_s
        self._calls: dict[str, int] = defaultdict(int)
        self._self: dict[str, float] = defaultdict(float)
        self._facts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._peak: dict[str, float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        for s, own in zip(spans, selfs):
            self._calls[s.name] += 1
            self._self[s.name] += own
            self.module_self[s.name.split(".")[0]] += own
            for key, value in s.facts.items():
                if key == "peak_alloc_bytes":
                    self._peak[s.name] = max(self._peak[s.name], value)
                else:
                    self._facts[s.name][key] += value

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def fact(self, name: str, key: str) -> float:
        return self._facts[name][key] if name in self._facts else 0.0

    def peak_alloc(self, name: str) -> float:
        return self._peak.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _layer_table() -> dict[str, tuple[str, Callable[[PassTotals], float]]]:
    t: dict[str, tuple[str, Callable[[PassTotals], float]]] = {}

    def add(name, unit, fn):
        t[name] = (unit, fn)

    def calls_self(span, *, calls=True):
        if calls:
            add(f"{span}.calls", "count", lambda p: p.calls(span))
        add(f"{span}.self_s", "s", lambda p: p.self_s(span))

    for kind in ("load", "save"):
        span = f"data_io.{kind}"
        calls_self(span)
        add(f"{span}.mb", "MB", lambda p, s=span: p.fact(s, "bytes") / 1e6)
        add(f"{span}.mb_per_s", "MB/s",
            lambda p, s=span: _ratio(p.fact(s, "bytes") / 1e6, p.self_s(s)))
    calls_self("data_io.write_report", calls=False)

    calls_self("linalg.log_stack")
    add("linalg.log_stack.matrices", "count", lambda p: p.fact("linalg.log_stack", "matrices"))
    for span in ("linalg.eigh_stack", "linalg.exp_stack"):
        add(f"{span}.matrices", "count", lambda p, s=span: p.fact(s, "matrices"))
        calls_self(span, calls=False)
    add("linalg.eigh_per_input", "ratio", lambda p: _ratio(
        p.fact("linalg.eigh_stack", "matrices") + p.fact("linalg.exp_stack", "matrices"),
        p.fact("data_io.load", "matrices") + p.fact("sampling.wishart_stack", "matrices")))
    calls_self("linalg.udu_stack")
    add("linalg.udu_stack.matrices", "count", lambda p: p.fact("linalg.udu_stack", "matrices"))
    calls_self("linalg.log_frechet_stack", calls=False)

    span = "sampling.build_projection_basis"
    calls_self(span)
    add(f"{span}.directions", "count", lambda p: p.fact(span, "directions"))
    add(f"{span}.directions_per_s", "1/s",
        lambda p: _ratio(p.fact(span, "directions"), p.self_s(span)))
    add("sampling.wishart_stack.matrices", "count",
        lambda p: p.fact("sampling.wishart_stack", "matrices"))
    calls_self("sampling.wishart_stack", calls=False)

    for est in ("spdsw", "log_sw", "hspdsw"):
        calls_self(f"sliced.{est}")
    add("sliced.hspdsw.coords", "count", lambda p: p.fact("sliced.hspdsw", "coords"))
    add("sliced.hspdsw.redrawn", "count", lambda p: p.fact("sliced.hspdsw", "redrawn"))
    calls_self("sliced.mc_error_estimate", calls=False)

    cost = "baselines.build_cost_matrix"
    add(f"{cost}.le_self_s", "s", lambda p: p.self_s(f"{cost}.le"))
    add(f"{cost}.ai_self_s", "s", lambda p: p.self_s(f"{cost}.ai"))
    add(f"{cost}.entries", "count",
        lambda p: p.fact(f"{cost}.le", "entries") + p.fact(f"{cost}.ai", "entries"))
    calls_self("baselines.exact_wasserstein")
    calls_self("baselines.sinkhorn")
    add("baselines.sinkhorn.iterations", "count",
        lambda p: p.fact("baselines.sinkhorn", "logsumexp_calls") / 2)
    add("baselines.sinkhorn.converged_ratio", "fraction",
        lambda p: _ratio(p.fact("baselines.sinkhorn", "converged"), p.calls("baselines.sinkhorn")))

    calls_self("kernels.quantile_feature")
    calls_self("kernels.feature_sq_distances")
    add("kernels.feature_sq_distances.pairs", "count",
        lambda p: p.fact("kernels.feature_sq_distances", "pairs"))
    calls_self("kernels.cross_sq_distances", calls=False)
    add("kernels.sq_distances.peak_alloc_mb", "MB", lambda p: max(
        p.peak_alloc("kernels.feature_sq_distances"),
        p.peak_alloc("kernels.cross_sq_distances")) / 1e6)
    calls_self("kernels.kernel_ridge_fit", calls=False)

    run = "adaptation.run_adaptation"
    calls_self(run)
    add(f"{run}.epochs", "count", lambda p: p.fact(run, "epochs"))
    add(f"{run}.s_per_epoch", "s", lambda p: _ratio(p.self_s(run), p.fact(run, "epochs")))
    add(f"{run}.halvings", "count", lambda p: p.fact(run, "halvings"))
    calls_self("adaptation.loss_and_gradient_transform")
    calls_self("adaptation.train_log_linear_classifier")

    for module in MODULES:
        name = "cli.main.self_s" if module == "cli" else f"{module}.self_s"
        add(name, "s", lambda p, m=module: p.module_self.get(m, 0.0))
        add(f"{module}.share", "fraction",
            lambda p, m=module: _ratio(p.module_self.get(m, 0.0), p.cycle_s))
    return t


LAYER_METRICS = _layer_table()


def layer_metrics(spans: list[Span], passes: list[tuple[list[int], float]]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric.

    ``passes`` holds, per traced pass, the op ids it ran and its cycle time.
    """
    selfs = self_times(spans)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_op[s.op].append(i)
    totals = []
    for ops, cycle_s in passes:
        idx = [i for op in ops for i in by_op[op]]
        totals.append(PassTotals([spans[i] for i in idx], [selfs[i] for i in idx], cycle_s))
    return {name: statistics.median(fn(p) for p in totals)
            for name, (_, fn) in LAYER_METRICS.items()}
