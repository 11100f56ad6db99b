"""The three benchmark workloads and the checks on their outputs.

Every workload is serial and closed-loop: one caller runs ``fstest.cli.main``
in-process, waits for it, checks the output, and only then sends the next
call.  A workload is a fixed *cycle* of calls; a run repeats cycles, and
cycle ``c`` derives every call's seed from (workload seed, c, call index),
so the same workload seed always gives the same calls and the same inputs.

Why these three:

* ``power_mixture`` is the paper's headline campaign (``power-table``); the
  Hodges-Lehmann batch estimator (t4) is about 95% of it, followed by
  stream derivation and mixture sampling.
* ``test_calls`` is the single-user path (``fstest test``) rotating through
  empirical, formula and bootstrap calibration; t4 appears only under
  formula calibration, where it is under 1% of the time, so an HL change
  must read "no change" here.
* ``paper_tables`` is the only workload that reaches ``asymptotics`` (Monte
  Carlo offsets, ``contiguous_power``) and ``robustness`` (covariance
  determinants at d = 100, the breakdown sweep over single-sample forward
  search), and it runs HL on wide, short batches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["Op", "Workload", "WORKLOADS", "op_seed"]

KINDS = ("t1", "t2", "t3", "t4")
FAMILIES = ("cauchy", "gaussian", "light100")


@dataclass(frozen=True)
class Op:
    """One ``fstest`` command line, where it writes, and how to check it."""

    argv: tuple[str, ...]
    out: Path
    check: Callable[[dict], list[str]]


def op_seed(seed: int, cycle: int, index: int) -> int:
    """Seed of call ``index`` in cycle ``cycle`` of a run with ``seed``."""
    digest = hashlib.sha256(f"fstest-bench/{seed}/{cycle}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is fine
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _in_range(problems: list[str], label: str, x, lo: float, hi: float, *, open_lo=False) -> None:
    if not _is_number(x):
        problems.append(f"{label} = {x!r} is not a finite number")
    elif x < lo or x > hi or (open_lo and x == lo):
        bracket = "(" if open_lo else "["
        problems.append(f"{label} = {x!r} outside {bracket}{lo}, {hi}]")


def check_test_report(payload: dict, kind: str, seed: int, bootstrap: bool) -> list[str]:
    problems: list[str] = []
    if payload.get("statistic") != kind:
        problems.append(f"statistic {payload.get('statistic')!r} != {kind!r}")
    if payload.get("seed") != seed:
        problems.append(f"seed {payload.get('seed')!r} != {seed}")
    value, crit = payload.get("value"), payload.get("critical_value")
    _in_range(problems, "value", value, 0.0, math.inf)
    _in_range(problems, "critical_value", crit, 0.0, math.inf)
    if _is_number(value) and _is_number(crit):
        expected = "reject" if value > crit else "retain"
        if payload.get("decision") != expected:
            problems.append(f"decision {payload.get('decision')!r} but value {value!r} vs critical {crit!r}")
    if bootstrap or payload.get("p_value") is not None:
        _in_range(problems, "p_value", payload.get("p_value"), 0.0, 1.0)
    return problems


def check_power_table(payload: dict, family: str, betas: tuple[float, ...]) -> list[str]:
    problems: list[str] = []
    table = payload["power"][family]
    for kind in KINDS:
        for beta in betas:
            _in_range(problems, f"power[{family}][{kind}][{beta}]", table[kind][repr(beta)], 0.0, 1.0)
    return problems


def check_table2(payload: dict, rows_expected: int) -> list[str]:
    problems: list[str] = []
    rows = payload["rows"]
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    for i, row in enumerate(rows):
        _in_range(problems, f"row {i} delta_norm", row["delta_norm"], 0.0, math.inf)
        for kind in KINDS:
            _in_range(problems, f"row {i} {kind}", row[kind], 0.0, 1.0)
            _in_range(problems, f"row {i} {kind}_se", row[f"{kind}_se"], 0.0, 1.0)
    return problems


def check_table3(payload: dict, rows_expected: int) -> list[str]:
    problems: list[str] = []
    rows = payload["rows"]
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} cells, expected {rows_expected}")
    for row in rows:
        label = f"{row['estimator']} n={row['n']} d={row['d']}"
        _in_range(problems, f"{label} efficiency", row["value"], 0.0, math.inf, open_lo=True)
        _in_range(problems, f"{label} stderr", row["stderr"], 0.0, math.inf)
    return problems


def check_breakdown(payload: dict, gammas: tuple[float, ...], n: int) -> list[str]:
    problems: list[str] = []
    results = payload["results"]
    if [r["gamma"] for r in results] != list(gammas):
        problems.append(f"gammas {[r['gamma'] for r in results]} != {list(gammas)}")
    for r in results:
        label = f"gamma={r['gamma']}"
        if len(r["fractions"]) != n - 1 or len(r["broke"]) != n - 1:
            problems.append(f"{label}: sweep has {len(r['fractions'])} counts, expected {n - 1}")
        for f in r["fractions"]:
            _in_range(problems, f"{label} fraction", f, 0.0, 1.0, open_lo=True)
        for dev in r["top_deviations"]:
            _in_range(problems, f"{label} top deviation", dev, 0.0, math.inf)
        if not all(isinstance(b, bool) for b in r["broke"]):
            problems.append(f"{label}: broke flags are not booleans")
        if r["break_fraction"] is not None:
            _in_range(problems, f"{label} break_fraction", r["break_fraction"], 0.0, 1.0, open_lo=True)
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A named cycle of calls with its inputs under ``workdir``."""

    name = ""

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.smoke = smoke

    def prepare(self) -> None:
        """Write the workload's input files (set-up, not timed)."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def _json_out(self, argv: list[str], index: int, check) -> Op:
        out = self.workdir / f"op{index}.json"
        return Op(tuple(argv + ["--format", "json", "--out", str(out)]), out, check)


class PowerMixture(Workload):
    """``power-table`` at n=100, d=4: one call per family, all four kinds."""

    name = "power_mixture"
    BETAS = (0.0, 0.2, 0.5)

    def cycle(self, index: int) -> list[Op]:
        reps, null_reps, n = (20, 100, 30) if self.smoke else (300, 600, 100)
        ops = []
        for i, family in enumerate(FAMILIES):
            argv = [
                "power-table", "--family", family, "--n", str(n), "--d", "4",
                "--beta-grid", ",".join(repr(b) for b in self.BETAS),
                "--reps", str(reps), "--null-reps", str(null_reps),
                "--seed", str(op_seed(self.seed, index, i)),
            ]
            check = lambda p, f=family: check_power_table(p, f, self.BETAS)
            ops.append(self._json_out(argv, i, check))
        return ops


class SingleTestCalls(Workload):
    """``fstest test`` on one generated CSV (n=100, d=4, small shift).

    A cycle rotates through t1-t3 with empirical calibration, t1-t4 with
    formula calibration and t1-t3 with a bootstrap; every call gets its own
    seed.
    """

    name = "test_calls"
    N, D, SHIFT = 100, 4, 0.15
    ROTATION = (
        [("empirical", k) for k in KINDS[:3]]
        + [("formula", k) for k in KINDS]
        + [("bootstrap", k) for k in KINDS[:3]]
    )

    @property
    def data_path(self) -> Path:
        return self.workdir / "sample.csv"

    def prepare(self) -> None:
        super().prepare()
        rng = np.random.default_rng(self.seed)
        rows = rng.standard_normal((self.N, self.D)) + self.SHIFT
        text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        self.data_path.write_text(text, encoding="utf-8")

    def cycle(self, index: int) -> list[Op]:
        draws = "200" if self.smoke else "2000"
        ops = []
        for i, (mode, kind) in enumerate(self.ROTATION):
            seed = op_seed(self.seed, index, i)
            argv = ["test", "--data", str(self.data_path), "--kind", kind, "--seed", str(seed)]
            if mode == "empirical":
                argv += ["--calibration", "empirical", "--null-reps", draws]
            elif mode == "formula":
                argv += ["--calibration", "formula"]
            else:
                argv += ["--j", draws]
            check = lambda p, k=kind, s=seed, b=(mode == "bootstrap"): check_test_report(p, k, s, b)
            ops.append(self._json_out(argv, i, check))
        return ops


class PaperTables(Workload):
    """``table2``, ``table3`` and ``breakdown`` in sequence."""

    name = "paper_tables"
    GAMMAS = (0.3, 0.5, 0.7)

    def cycle(self, index: int) -> list[Op]:
        if self.smoke:
            t2 = ["--offset-reps", "20", "--mc-samples", "1000", "--delta", "0.5"]
            t3_n, t3_d, t3 = "10,30", "4,8", ["--reps", "40", "--bootstrap", "5"]
            t2_rows, bd_n = 3, 8
        else:
            t2 = ["--offset-reps", "150", "--mc-samples", "50000"]
            t3_n, t3_d, t3 = "10,100", "4,100", ["--reps", "200", "--bootstrap", "100"]
            t2_rows, bd_n = 12, 20
        t3_cells = 3 * len(t3_n.split(",")) * len(t3_d.split(","))
        seeds = [str(op_seed(self.seed, index, i)) for i in range(3)]
        gammas = ",".join(repr(g) for g in self.GAMMAS)
        return [
            self._json_out(
                ["table2", "--seed", seeds[0]] + t2, 0,
                lambda p: check_table2(p, t2_rows),
            ),
            self._json_out(
                ["table3", "--seed", seeds[1], "--family", "gaussian",
                 "--n-grid", t3_n, "--d-grid", t3_d] + t3, 1,
                lambda p: check_table3(p, t3_cells),
            ),
            self._json_out(
                ["breakdown", "--seed", seeds[2], "--gamma", gammas, "--n", str(bd_n), "--d", "4"], 2,
                lambda p: check_breakdown(p, self.GAMMAS, bd_n),
            ),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PowerMixture, SingleTestCalls, PaperTables)
}
