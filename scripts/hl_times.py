"""Times of the batch Hodges-Lehmann selection over a fixed grid of batch shapes.

    python3 scripts/hl_times.py --repeats 20

For each (n, columns) of the grid and each of a gaussian and a cauchy batch
(``numpy.random.default_rng(--seed)``, one coordinate per replication),
times ``fstest.estimators._hodges_lehmann_batch`` on the batch's sorted
columns through the ``src/`` in the checkout this file sits in, with one
BLAS thread, after one untimed warm-up call.  Prints the median and minimum
wall time in measured milliseconds, and the tracemalloc peak in MB (2**20
bytes) of one more, untimed call: warm, with the module's caches as the
timed calls left them, and cold, after clearing every ``lru_cache`` of
``fstest.estimators``.  Exits 1 if a result differs from the median of all
pairwise averages of a column in the first batch of each shape (checked on
its first four columns).  Copy it into another checkout to time that
checkout the same way.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fstest import estimators  # noqa: E402

#: (n, columns): table3's n = 10 cells, test_calls' t4 statistic, the pilot,
#: power_mixture's batches, then larger n up to one column that exceeds the block
GRID = ((10, 20000), (100, 4), (100, 64), (100, 2400), (400, 120), (750, 16), (1000, 8), (2100, 1))
FAMILIES = ("gaussian", "cauchy")


def sorted_columns(family: str, n: int, columns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal if family == "gaussian" else rng.standard_cauchy
    return estimators._sorted_columns(draw((columns, n, 1)))


def walsh_median(column: np.ndarray) -> float:
    i, j = np.triu_indices(len(column))
    return float(np.median((column[i] + column[j]) / 2.0))


def clear_caches() -> None:
    for value in vars(estimators).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def peak_bytes(cols: np.ndarray) -> int:
    tracemalloc.start()
    try:
        estimators._hodges_lehmann_batch(cols, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    wrong = 0
    print(f"seed {args.seed}, {args.repeats} timed calls each, measured ms; tracemalloc peak of one more call")
    print(f"{'n':>5}{'columns':>9}  {'family':<9}{'median':>10}{'min':>10}{'warm MB':>10}{'cold MB':>10}")
    for n, columns in GRID:
        for family in FAMILIES:
            cols = sorted_columns(family, n, columns, args.seed)
            got = estimators._hodges_lehmann_batch(cols, 1)
            wrong += sum(got[c, 0] != walsh_median(cols[c]) for c in range(min(4, columns)))
            times = []
            for _ in range(args.repeats):
                began = time.perf_counter()
                estimators._hodges_lehmann_batch(cols, 1)
                times.append(time.perf_counter() - began)
            warm = peak_bytes(cols)
            clear_caches()
            cold = peak_bytes(cols)
            ms = f"{1000 * statistics.median(times):>10.3f}{1000 * min(times):>10.3f}"
            print(f"{n:>5}{columns:>9}  {family:<9}{ms}{warm / 2**20:>10.2f}{cold / 2**20:>10.2f}")
    if wrong:
        print(f"{wrong} results differ from the Walsh median", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
