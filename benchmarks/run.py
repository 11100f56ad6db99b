"""fstest benchmark entry point.

    python3 benchmarks/run.py --workload test_calls --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) against the package in ``src/`` of
the checkout this file sits in, checks every output, and prints the metrics
by name.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, their times in reference seconds (see
``hostspeed.py``), the per-layer metrics with ``--trace 1``.  The full
result, with the run manifest, the output sha256 and the end-to-end times in
measured seconds, is written to ``.bench_work/results/`` and traced spans to
``.bench_work/trace/``.
"""

import os
import sys

# One compute thread per process, set before numpy loads its BLAS: on a small
# shared machine the d = 100 slogdet and matmul would otherwise measure the
# scheduler.  FSTEST_THREADS unset keeps fstest's replication loop serial.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FSTEST_THREADS", None)

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import fstest.cli  # noqa: F401  (the package under test, from this checkout)
except ImportError as exc:
    sys.exit(f"error: cannot import fstest from {SRC}: {exc}")
if not Path(fstest.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: fstest was imported from {fstest.__file__}, not from {SRC}")

import harness  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
DEFAULT_SEED = 1


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from a fresh interpreter to inputs written, over probes,
    in reference seconds and in measured seconds.

    Each probe is this script in ``--setup-probe`` mode: it imports fstest
    (numpy, scipy), writes the workload's inputs and prints the monotonic
    clock, which is system-wide, so it compares with the parent's; then it
    prints a host-speed snapshot.  The host's speed for the set-up is the
    mean of that snapshot and one the parent takes right before starting it.
    """
    measured, reference = [], []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(WORK / workload / "setup-probe")]
        before = hostspeed.snapshot()
        began = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        ready, after = map(float, proc.stdout.split()[-2:])
        measured.append(ready - began)
        reference.append(measured[-1] * hostspeed.REFERENCE_PROBE_S / ((before + after) / 2))
    return statistics.median(reference), statistics.median(measured)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    if args.setup_probe:
        workload_cls(Path(args.setup_probe), args.seed).prepare()
        ready = time.monotonic()
        hostspeed.warm_up()
        print(ready, hostspeed.snapshot())
        return 0

    trace = bool(args.trace)
    setup_s, measured_setup_s = (None, None) if trace else measure_setup(args.workload, args.seed)
    workload = workload_cls(WORK / args.workload, args.seed)
    workload.prepare()
    run = harness.run_workload(workload, args.seconds, trace)
    metrics = harness.per_layer(run) if trace else harness.end_to_end(run, setup_s)
    measured = {} if trace else harness.end_to_end(run, measured_setup_s, reference=False)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "manifest": harness.manifest(ROOT, args.workload, args.seed, args.seconds, trace),
        "output_sha256": run.output_sha256(),
        "cycle_seconds": [c.seconds for c in run.cycles if not c.traced],
        "cycle_reference_seconds": [] if trace else [c.reference_seconds for c in run.cycles],
        "traced_cycle_seconds": [c.seconds for c in run.cycles if c.traced],
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "problems": run.problems(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "measured_seconds_metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        spans = [c.spans for c in run.cycles if c.traced]
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        (WORK / "trace" / f"{tag}.spans.json").write_text(
            json.dumps({"fields": ["name", "parent", "start", "end"], "cycles": spans})
        )

    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{tag}: {run.attempted} ops, {run.failed} failed (failed_frac {result['failed_frac']:.4g}), "
          f"{len(result['cycle_seconds'])} untraced and {len(result['traced_cycle_seconds'])} traced cycles")
    print(f"output_sha256 {result['output_sha256']}")
    for name, (value, unit) in metrics.items():
        also = f"  (measured {measured[name][0]!r})" if name in measured and unit != "MB" else ""
        print(f"  {name:44s} {value!r} {unit}{also}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
