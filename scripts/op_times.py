"""Per-op times of one benchmark workload's cycle, in-process.

    python3 scripts/op_times.py --workload paper_tables --seed 5 --cycles 20
    python3 scripts/op_times.py --workload power_mixture --threads 2

Runs ``--cycles`` cycles of the workload from ``benchmarks/workloads.py``
(imported, not changed) through ``fstest.cli.main`` of the ``src/`` in the
checkout this file sits in, after one untimed warm-up cycle, with one BLAS
thread and ``FSTEST_THREADS`` unset, as ``benchmarks/run.py`` does, or set
to ``--threads K`` for every cycle, which the benchmark cannot do.  Prints
the median and minimum wall time of each op position of the cycle in
measured milliseconds (no host-speed calibration), labelled by subcommand,
then calibration (``--calibration``, or bootstrap where ``--j`` is set) and
``--kind`` where the op gives them, and each op's tracemalloc peak in MB
(2**20 bytes) from one more, untimed cycle after the timed ones; then
op_p50 and op_p90 over every timed op, as
``benchmarks/harness.end_to_end`` computes them (in measured, not reference,
milliseconds).  Exits 1 if any op fails its workload check.
Copy it into another checkout to time that checkout the same way.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FSTEST_THREADS", None)

import argparse
import json
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from fstest import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def op_label(argv) -> str:
    """``test empirical t1``: the subcommand, the calibration and the kind of one op."""
    value = dict(zip(argv, argv[1:]))  # each flag's value follows it
    calibration = "bootstrap" if "--j" in value else value.get("--calibration")
    return " ".join(part for part in (argv[0], calibration, value.get("--kind")) if part)


def time_op(op) -> tuple[float, list[str]]:
    """Seconds one op takes, and the problems its workload check finds."""
    op.out.unlink(missing_ok=True)
    began = time.perf_counter()
    code = cli.main(list(op.argv))
    seconds = time.perf_counter() - began
    problems = [] if code == 0 else [f"exit code {code}"]
    if op.out.exists():
        problems += op.check(json.loads(op.out.read_bytes()))
    else:
        problems.append("no output written")
    return seconds, problems


def traced_peak(op) -> tuple[int, list[str]]:
    """Bytes of the largest traced Python heap during one op, and its problems."""
    tracemalloc.start()
    try:
        _, problems = time_op(op)
        return tracemalloc.get_traced_memory()[1], problems
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=10)
    parser.add_argument("--threads", type=int, help="FSTEST_THREADS for every cycle (default: unset)")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be positive")
    if args.threads is not None:
        os.environ["FSTEST_THREADS"] = str(args.threads)

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](Path(workdir), args.seed)
        workload.prepare()
        labels = [op_label(op.argv) for op in workload.cycle(0)]
        for op in workload.cycle(0):
            time_op(op)
        times: list[list[float]] = [[] for _ in labels]
        peaks: list[int] = []
        failed = 0
        for index in range(1, args.cycles + 2):
            for position, op in enumerate(workload.cycle(index)):
                if index <= args.cycles:
                    seconds, problems = time_op(op)
                    times[position].append(seconds)
                else:  # tracing slows the op, so its cycle is not timed
                    peak, problems = traced_peak(op)
                    peaks.append(peak)
                for problem in problems:
                    failed += 1
                    print(f"cycle {index} op {position} ({labels[position]}): {problem}", file=sys.stderr)

    threads = "unset" if args.threads is None else args.threads
    print(f"{args.workload} seed {args.seed}, {args.cycles} cycles, FSTEST_THREADS {threads}, measured ms; "
          "traced peak of one more cycle")
    print(f"{'op':>3}  {'command':<22}{'median':>10}{'min':>10}{'peak MB':>10}")
    for position, (label, ts, peak) in enumerate(zip(labels, times, peaks)):
        ms = f"{1000 * statistics.median(ts):>10.3f}{1000 * min(ts):>10.3f}"
        print(f"{position:>3}  {label:<22}{ms}{peak / 2**20:>10.2f}")
    latencies = [t for ts in times for t in ts]
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else p50
    print(f"all {len(latencies)} timed ops: op_p50 {1000 * p50:.3f} ms, op_p90 {1000 * p90:.3f} ms")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
