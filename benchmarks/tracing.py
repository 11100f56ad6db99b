"""Per-layer tracing of fstest from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper at every
place the package looks the name up.  Modules that did ``from .rng import
stream_rng`` hold their own reference, so the wrapper is installed on every
``fstest`` module attribute that *is* the original function, not only on the
defining module.  Methods are patched on their class.

Each wrapper records a span ``[name, parent, start, end]`` in memory and
adds counts computed from the call's arguments.  A span's self time is its
duration minus the time its child spans cover.  Counts are taken only at the
outermost of directly nested spans of one name (``estimate`` calling
``forward_search``, ``sample_mixture`` calling ``EllipticalModel.sample``),
so one request is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from fstest.engine import StatKind

__all__ = ["Layer", "LAYERS", "Tracer", "self_times", "LAYER_METRICS"]

_SPAN_BY_ESTIMATOR = {kind.estimator: f"estimators.{kind.value}" for kind in StatKind}


class _Args:
    """Reads one call's arguments by parameter name, defaults applied."""

    def __init__(self, fn: Callable):
        sig = inspect.signature(fn)
        self.index = {name: i for i, name in enumerate(sig.parameters)}
        self.defaults = {
            name: p.default
            for name, p in sig.parameters.items()
            if p.default is not inspect.Parameter.empty
        }

    def __call__(self, args: tuple, kwargs: dict, name: str):
        if name in kwargs:
            return kwargs[name]
        i = self.index[name]
        if i < len(args):
            return args[i]
        return self.defaults[name]


def _rows(get) -> dict[str, int]:
    return {"elliptical.sample.rows": int(get("n"))}


def _batch(get) -> dict[str, int]:
    reps, n, d = get("data").shape
    counts = {"estimators.batch.reps": reps}
    if _SPAN_BY_ESTIMATOR[get("kind")] == "estimators.t4":
        counts["estimators.t4.walsh_bytes"] = reps * (n * (n + 1) // 2) * d * 8
    return counts


def _chisq_draws(get) -> dict[str, int]:
    return {"engine.weighted_chisq_sample.draws": int(get("size"))}


def _offset_reps(get) -> dict[str, int]:
    return {"asymptotics.offsets.reps": int(get("reps"))}


def _contiguous_draws(get) -> dict[str, int]:
    return {"asymptotics.contiguous_power.draws": int(get("mc_samples"))}


def _det_evals(get) -> dict[str, int]:
    # one slogdet per estimator on the full set, then per bootstrap draw
    return {"robustness.det_evals": 2 * (1 + int(get("bootstrap")))}


def _bytes_written(get) -> dict[str, int]:
    return {"dataio.bytes_written": os.path.getsize(get("path"))}


@dataclass(frozen=True)
class Layer:
    """One traced function: where it is defined and what its span records.

    ``span`` is the span name; ``None`` derives it from the estimator kind of
    a ``batch_estimates`` call.  ``counter`` maps the call's arguments to
    counts and runs after the call returns.
    """

    module: str
    attr: str
    span: str | None
    counter: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("fstest.cli", "main", "cli.main"),
    Layer("fstest.rng", "stream_rng", "rng.stream_rng"),
    Layer("fstest.rng", "parallel_map", "rng.parallel_map"),
    Layer("fstest.elliptical", "EllipticalModel.sample", "elliptical.sample", _rows),
    Layer("fstest.elliptical", "sample_mixture", "elliptical.sample", _rows),
    Layer("fstest.linalg", "mahalanobis_sq_many", "linalg.mahalanobis_sq_many"),
    Layer("fstest.estimators", "batch_estimates", None, _batch),
    Layer("fstest.estimators", "estimate", "estimators.single"),
    Layer("fstest.estimators", "forward_search", "estimators.single"),
    Layer("fstest.estimators", "hodges_lehmann", "estimators.single"),
    Layer("fstest.engine", "critical_value", "engine.critical_value"),
    Layer("fstest.engine", "weighted_chisq_sample", "engine.weighted_chisq_sample", _chisq_draws),
    Layer("fstest.engine", "empirical_critical_value", "engine.empirical_critical_value"),
    Layer("fstest.engine", "bootstrap_report", "engine.bootstrap_report"),
    Layer("fstest.engine", "batch_statistics", "engine.batch_statistics"),
    Layer("fstest.engine", "power_table", "engine.power_table"),
    Layer("fstest.asymptotics", "estimate_all_offsets", "asymptotics.offsets", _offset_reps),
    Layer("fstest.asymptotics", "contiguous_power", "asymptotics.contiguous_power", _contiguous_draws),
    Layer("fstest.robustness", "finite_sample_efficiency", "robustness.finite_sample_efficiency", _det_evals),
    Layer("fstest.robustness", "breakdown_experiment", "robustness.breakdown_experiment"),
    Layer("fstest.dataio", "read_dataset", "dataio.read"),
    Layer("fstest.dataio", "write_rows", "dataio.write", _bytes_written),
    Layer("fstest.dataio", "write_json", "dataio.write", _bytes_written),
)

#: per-layer metric names and units reported by a traced run, in report order
LAYER_METRICS: dict[str, str] = {
    "rng.stream_rng.calls": "count",
    "rng.stream_rng.self_s": "s",
    "rng.parallel_map.calls": "count",
    "elliptical.sample.calls": "count",
    "elliptical.sample.rows": "count",
    "elliptical.sample.self_s": "s",
    "linalg.mahalanobis_sq_many.self_s": "s",
    "estimators.t1.self_s": "s",
    "estimators.t2.self_s": "s",
    "estimators.t3.self_s": "s",
    "estimators.t4.self_s": "s",
    "estimators.t4.walsh_bytes": "bytes",
    "estimators.batch.reps": "count",
    "estimators.single.calls": "count",
    "estimators.single.self_s": "s",
    "engine.critical_value.self_s": "s",
    "engine.weighted_chisq_sample.self_s": "s",
    "engine.weighted_chisq_sample.draws": "count",
    "engine.empirical_critical_value.self_s": "s",
    "engine.bootstrap_report.self_s": "s",
    "engine.batch_statistics.self_s": "s",
    "engine.power_table.self_s": "s",
    "asymptotics.offsets.self_s": "s",
    "asymptotics.offsets.reps": "count",
    "asymptotics.contiguous_power.self_s": "s",
    "asymptotics.contiguous_power.draws": "count",
    "robustness.finite_sample_efficiency.self_s": "s",
    "robustness.det_evals": "count",
    "robustness.breakdown_experiment.self_s": "s",
    "dataio.read.self_s": "s",
    "dataio.write.self_s": "s",
    "dataio.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(layer: Layer):
    """(owner, attribute, original) where ``layer`` is defined."""
    owner = importlib.import_module(layer.module)
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _binding_sites(original) -> list[tuple[object, str]]:
    """Every ``fstest`` module attribute bound to ``original``."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if modname != "fstest" and not modname.startswith("fstest."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus child-span coverage."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        totals[name] += end - start - child[i]
    return dict(totals)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new recording; the previous spans and counts are dropped."""
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            owner, name, original = _resolve(layer)
            wrapper = self._wrap(original, layer)
            sites = [(owner, name)] if isinstance(owner, type) else _binding_sites(original)
            for site, attr in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        tracer = self
        read = _Args(fn)
        fixed_name = layer.span
        counter = layer.counter
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = fixed_name or _SPAN_BY_ESTIMATOR[read(args, kwargs, "kind")]
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if parent < 0 or spans[parent][0] != name:
                    tracer.counts[name + ".calls"] += 1
                    if counter is not None:
                        tracer.counts.update(counter(lambda key: read(args, kwargs, key)))

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current recording (``trace.overhead_s``
        excluded: it needs an untraced run to compare against)."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[: -len(".self_s")], 0.0)
            elif name != "trace.overhead_s":
                out[name] = self.counts.get(name, 0)
        return out

