"""Run a workload for a time budget and turn the runs into metrics.

A run repeats whole cycles of a workload until the next cycle would end
past the budget (at least one cycle always runs).  Only the
``fstest.cli.main`` call of each op is timed; reading and checking the
output are not.  Untraced runs give the end-to-end metrics, each call timed
under host-speed calibration (``hostspeed.py``) and reported in reference
seconds; traced runs start with one untimed warm-up cycle, then alternate an
untraced and a traced cycle on the same seeds, without calibration, which
gives the per-layer metrics, the tracing overhead, and a byte comparison of
traced against untraced outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import fstest
from fstest import cli

import hostspeed
from tracing import LAYER_METRICS, Tracer
from workloads import Op, Workload

__all__ = ["OpResult", "Cycle", "Run", "execute", "run_workload", "end_to_end", "per_layer", "manifest"]


@dataclass
class OpResult:
    argv: tuple[str, ...]
    seconds: float
    output: bytes
    problems: list[str] = field(default_factory=list)
    reference_seconds: float | None = None  # set when timed under calibration


@dataclass
class Cycle:
    traced: bool
    results: list[OpResult]
    layers: dict[str, float] | None = None
    spans: list[list] | None = None

    @property
    def seconds(self) -> float:
        """Time spent inside the cycle's ``fstest`` calls."""
        return sum(r.seconds for r in self.results)

    @property
    def reference_seconds(self) -> float:
        """The same in reference seconds (calibrated cycles only)."""
        return sum(r.reference_seconds for r in self.results)


@dataclass
class Run:
    cycles: list[Cycle]
    untimed: list[OpResult]  # warm-up cycle and the repeated call

    @property
    def results(self) -> list[OpResult]:
        return [r for c in self.cycles for r in c.results] + self.untimed

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.problems)

    def problems(self) -> list[str]:
        return [f"{r.argv[0]}: {p}" for r in self.results for p in r.problems]

    def output_sha256(self) -> str:
        """sha256 of the first cycle's output bytes, in op order."""
        h = hashlib.sha256()
        for r in self.cycles[0].results:
            h.update(r.output)
        return h.hexdigest()


class _Stopwatch:
    """Times the body of a ``with`` block, uncalibrated."""

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        self.reference_seconds = None


def execute(op: Op, calibrate: bool = False) -> OpResult:
    """Run one op in-process and check its output.

    With ``calibrate`` the call is timed under ``hostspeed.Calibrated``.
    """
    op.out.unlink(missing_ok=True)
    problems: list[str] = []
    clock = hostspeed.Calibrated() if calibrate else _Stopwatch()
    with clock:
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception:
            code = None
            problems.append(traceback.format_exc(limit=3).strip())
    timing = dict(seconds=clock.seconds, reference_seconds=clock.reference_seconds)
    if code != 0:
        problems.append(f"exit code {code!r}")
    try:
        output = op.out.read_bytes()
    except FileNotFoundError:
        return OpResult(op.argv, output=b"", problems=problems + ["no output written"], **timing)
    try:
        problems += op.check(json.loads(output))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return OpResult(op.argv, output=output, problems=problems, **timing)


def _run_cycle(workload: Workload, index: int, tracer: Tracer | None = None,
               calibrate: bool = False) -> Cycle:
    ops = workload.cycle(index)
    if tracer is None:
        return Cycle(False, [execute(op, calibrate) for op in ops])
    tracer.reset()
    with tracer:
        results = [execute(op) for op in ops]
    return Cycle(True, results, tracer.layer_metrics(), tracer.spans)


def run_workload(workload: Workload, seconds: float, trace: bool) -> Run:
    """Repeat cycles (or untraced/traced pairs) within ``seconds``.

    Afterwards one op of the first cycle, chosen by the seed, runs again with
    the same seed and must give the same bytes.
    """
    cycles: list[Cycle] = []
    rounds: list[float] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    # the first cycle pays one-off costs (page faults, lazy constants); without
    # a warm-up the first pair would charge them to whichever side runs first
    untimed = _run_cycle(workload, 0).results if trace else []
    if not trace:
        hostspeed.warm_up()
    while True:
        began = time.perf_counter()
        index = len(rounds)
        if tracer is None:
            cycles.append(_run_cycle(workload, index, calibrate=True))
        else:
            # alternate which side runs first so slow drift favours neither
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            pair = [_run_cycle(workload, index, t) for t in order]
            plain, traced = sorted(pair, key=lambda c: c.traced)
            for a, b in zip(plain.results, traced.results):
                if a.output != b.output:
                    b.problems.append("traced output differs from untraced output")
            cycles += [plain, traced]
        rounds.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    first = workload.cycle(0)
    pick = workload.seed % len(first)
    repeat = execute(first[pick])
    if repeat.output != cycles[0].results[pick].output:
        repeat.problems.append("repeated call with the same seed gave different bytes")
    return Run(cycles, untimed + [repeat])


def end_to_end(run: Run, setup_s: float, reference: bool = True) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an untraced run, times in reference seconds
    (measured seconds with ``reference=False``)."""
    cycles = [c for c in run.cycles if not c.traced]
    seconds = (lambda x: x.reference_seconds) if reference else (lambda x: x.seconds)
    latencies = [seconds(r) for c in cycles for r in c.results]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(seconds(c) for c in cycles), "s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000.0 * deciles[8], "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Layer times are medians over traced cycles; counts come from the
    first traced cycle, so they depend only on the seed."""
    traced = [c for c in run.cycles if c.traced]
    plain = [c for c in run.cycles if not c.traced]
    out: dict[str, tuple[float, str]] = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(c.seconds for c in traced) - statistics.median(
                c.seconds for c in plain
            )
        elif unit == "s":
            value = statistics.median(c.layers[name] for c in traced)
        else:
            value = traced[0].layers[name]
        out[name] = (value, unit)
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def manifest(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What produced a run; kept outside the metric values."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(root),
        "fstest": fstest.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        } | {"FSTEST_THREADS": os.environ.get("FSTEST_THREADS")},
        "platform": platform.platform(),
    }
