"""Command-line front end.

Subcommands
-----------
power-table     finite-sample power of the four tests against mixture shifts
test            run one test (or its bootstrap variant) on a CSV dataset
table2          limiting power under local alternatives
table3          finite-sample efficiency determinant ratios
table4          asymptotic efficiency closed forms (d-th-root convention)
breakdown       contamination sweep locating the empirical break fraction
critical-value  standalone critical value, formula or empirical calibration

Every stochastic command requires --seed; all randomness is derived from it
through named streams, so identical invocations produce identical bytes
regardless of FSTEST_THREADS.

Each command reads its parsed arguments directly.  The scalar flags that
commands share are declared once, in ``_FLAGS``; :func:`main` checks each
one the parsed command has before the command runs, so before any file is
read, and list flags are checked entry by entry as they are parsed, grids
for repeats too.  A bad value prints ``error: ...`` and exits 1.  ``test``
(through :func:`fstest.engine.run_test`) and ``critical-value`` get their
critical value from one call, :func:`fstest.engine.calibrate`, so both
report the same value for the same statistic, family, n and seed.
:func:`main` turns every input or OS error into that one ``error:`` line,
an infinite limit variance into ``error: formula calibration
unavailable: ...`` for both, and a failed allocation into ``error: out of
memory: ...``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import asymptotics, engine, robustness
from .dataio import MalformedTable, csv_text, json_text, read_dataset, write_json, write_rows
from .elliptical import FAMILY_TAGS
from .engine import DEFAULT_MC_SAMPLES, DEFAULT_NULL_REPS, InfiniteVariance, StatKind
from .estimators import DistanceOverflow, EstimatorKind
from .linalg import NotSPD, NotSymmetric, DimensionMismatch, SpdMatrix
from .rng import ThreadCountError

__all__ = ["main", "CliError"]

SCHEMA = engine.REPORT_SCHEMA

DEFAULT_BETA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_DELTA_COMPONENTS = (0.5, -0.5, 5.0, -5.0)
DEFAULT_D_GRID = asymptotics.DEFAULT_D_GRID

_EFFICIENCY_ROWS = (
    EstimatorKind.MEAN,
    EstimatorKind.CW_MEDIAN,
    EstimatorKind.HODGES_LEHMANN,
)


class CliError(ValueError):
    """Invalid configuration or input; rendered to stderr with exit code 1."""


#: each shared scalar flag by argparse dest: its ``add_argument`` keywords, the
#: condition its value meets, and the error otherwise; :func:`main` checks them in this order
_FLAGS = {
    "d": ({"type": int, "default": 4}, lambda v: v >= 1, "--d must be a positive integer"),
    "n": ({"type": int, "default": 100}, lambda v: v >= 2, "--n must be at least 2"),
    "gamma": ({"type": float, "default": 0.5}, lambda v: 0.0 < v <= 1.0, "--gamma must lie in (0, 1]"),
    "alpha": ({"type": float, "default": 0.05}, lambda v: 0.0 < v < 1.0, "--alpha must lie in (0, 1)"),
    "reps": ({"type": int, "default": 1000}, lambda v: v >= 1, "--reps must be positive"),
    "null_reps": ({"type": int, "default": DEFAULT_NULL_REPS}, lambda v: v >= 100, "--null-reps must be at least 100"),
}


def _require(values: tuple, flag: str, ok, rule: str) -> tuple:
    if not all(map(ok, values)):
        raise CliError(f"{flag} entries must {rule}")
    return values


def _parse_floats(text: str, flag: str, ok=None, rule: str = "", repeats: bool = False) -> tuple[float, ...]:
    """A nonempty comma-separated list of finite reals, each meeting ``ok`` if given,
    none repeated unless ``repeats`` (a grid's entries are table columns; ``--mu0`` is a vector)."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of reals, got {text!r}")
    if not values:
        raise CliError(f"{flag} must not be empty")
    # the range comes first: nan fails it and gets the range message
    if ok is not None:
        _require(values, flag, ok, rule)
    if not all(map(math.isfinite, values)):
        raise CliError(f"{flag} contains non-finite entries")
    if not repeats and len(set(values)) < len(values):
        raise CliError(f"{flag} entries must be distinct, got {text!r}")
    return values


def _parse_ints(text: str, flag: str, least: int, rule: str) -> tuple[int, ...]:
    floats = _parse_floats(text, flag)
    values = tuple(int(v) for v in floats)
    if any(v != f for v, f in zip(values, floats)):
        raise CliError(f"{flag} must contain integers, got {text!r}")
    return _require(values, flag, lambda v: v >= least, rule)


def _families(args) -> tuple[str, ...]:
    if getattr(args, "family", None):
        return (args.family,)
    return tuple(sorted(FAMILY_TAGS))


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(args, payload: dict, header, rows) -> None:
    """``payload`` under ``--format json``, else ``rows`` under ``header``; to ``--out`` or stdout."""
    as_json = args.format == "json"
    if not args.out:
        sys.stdout.write(json_text(payload) if as_json else csv_text(rows, header))
    elif as_json:
        write_json(args.out, payload)
    else:
        write_rows(args.out, rows, header)


def _emit_rows(args, header, rows, json_payload: dict) -> None:
    _emit(args, {"schema": SCHEMA, "command": args.command, **_json_safe(json_payload)}, header, rows)


def _emit_report(args, payload: dict) -> None:
    """One report: a JSON object, or a CSV row under its keys."""
    payload = {"schema": SCHEMA, **_json_safe(payload)}
    _emit(args, payload, list(payload), [list(payload.values())])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_power_table(args) -> int:
    families = _families(args)
    beta_grid = _parse_floats(args.beta_grid, "--beta-grid", lambda b: 0.0 <= b <= 1.0, "lie in [0, 1]")
    table = engine.power_table(
        families,
        beta_grid,
        d=args.d,
        n=args.n,
        reps=args.reps,
        gamma=args.gamma,
        alpha=args.alpha,
        null_reps=args.null_reps,
        seed=args.seed,
    )
    header = ["family", "test"] + [f"beta={beta:g}" for beta in beta_grid]
    rows = []
    for family in families:
        for kind in StatKind:
            rows.append(
                [family, kind.value]
                + [table[family][kind][float(b)] for b in beta_grid]
            )
    _emit_rows(
        args,
        header,
        rows,
        {
            "config": {
                "families": list(families),
                "d": args.d,
                "n": args.n,
                "gamma": args.gamma,
                "alpha": args.alpha,
                "reps": args.reps,
                "null_reps": args.null_reps,
                "seed": args.seed,
            },
            "beta_grid": list(beta_grid),
            "power": {
                family: {k.value: {repr(float(b)): table[family][k][float(b)] for b in beta_grid} for k in StatKind}
                for family in families
            },
        },
    )
    return 0


def _load_sigma(spec: str, d: int) -> SpdMatrix:
    if spec == "identity":
        return SpdMatrix.identity(d)
    dataset = read_dataset(spec)
    try:
        sigma = SpdMatrix(dataset.values)
    except (NotSPD, NotSymmetric, DimensionMismatch) as exc:
        raise CliError(f"{spec}: not a valid scatter matrix: {exc}")
    if sigma.d != d:
        raise CliError(f"{spec}: scatter is {sigma.d}x{sigma.d}, data dimension is {d}")
    return sigma


def _parse_mu0(text: str, d: int) -> np.ndarray:
    values = _parse_floats(text, "--mu0", repeats=True)
    if len(values) == 1:
        values *= d
    if len(values) != d:
        raise CliError(f"--mu0 has {len(values)} entries, data dimension is {d}")
    return np.array(values)


def cmd_test(args) -> int:
    if args.j < 0:
        raise CliError("--j must be nonnegative")
    dataset = read_dataset(args.data)
    mu0 = _parse_mu0(args.mu0, dataset.d)
    sigma = _load_sigma(args.sigma, dataset.d)
    if args.j > 0:
        report = engine.bootstrap_report(
            args.kind,
            dataset.values,
            mu0,
            sigma,
            gamma=args.gamma,
            alpha=args.alpha,
            j=args.j,
            seed=args.seed,
        )
    else:
        report = engine.run_test(
            args.kind,
            dataset.values,
            mu0,
            sigma,
            gamma=args.gamma,
            alpha=args.alpha,
            family=args.family or "gaussian",
            calibration=args.calibration,
            null_reps=args.null_reps,
            seed=args.seed,
        )
    _emit_report(args, report.to_json_dict())
    return 0


def cmd_table2(args) -> int:
    delta_components = _parse_floats(args.delta, "--delta")
    rows_raw = asymptotics.local_power_rows(
        _families(args),
        delta_components,
        d=args.d,
        gamma=args.gamma,
        alpha=args.alpha,
    )
    header = ["family", "delta_component", "delta_norm"]
    for kind in StatKind:
        header += [kind.value, f"{kind.value}_se"]
    rows = [
        [r["family"], r["delta_component"], r["delta_norm"]]
        + [x for kind in StatKind for x in (r[kind.value], r[f"{kind.value}_se"])]
        for r in rows_raw
    ]
    _emit_rows(args, header, rows, {"rows": rows_raw})
    return 0


def cmd_table3(args) -> int:
    d_grid = _parse_ints(args.d_grid, "--d-grid", 1, "be positive")
    n_grid = _parse_ints(args.n_grid, "--n-grid", 2, "be at least 2")
    if args.reps < 2:
        raise CliError("--reps must be at least 2 for determinant ratios")
    header = ["family", "n", "estimator"]
    for d in d_grid:
        header += [f"d={d}", f"d={d}_se"]
    rows = []
    raw = []
    for family in _families(args):
        for n in n_grid:
            cells = {
                d: robustness.finite_sample_efficiencies(
                    _EFFICIENCY_ROWS,
                    family=family,
                    n=n,
                    d=d,
                    reps=args.reps,
                    gamma=args.gamma,
                    seed=args.seed,
                )
                for d in d_grid
            }
            for r, kind in enumerate(_EFFICIENCY_ROWS):
                row = [family, n, kind.value]
                for d in d_grid:
                    result = cells[d][r]
                    row += [result.value, result.stderr]
                    raw.append(
                        {
                            "family": family,
                            "n": n,
                            "estimator": kind.value,
                            "d": d,
                            "value": result.value,
                            "stderr": result.stderr,
                        }
                    )
                rows.append(row)
    _emit_rows(args, header, rows, {"rows": raw})
    return 0


def cmd_table4(args) -> int:
    d_grid = _parse_ints(args.d_grid, "--d-grid", 1, "be positive")
    labels = {"e1": "mean", "e2": "cw_median", "e3": "hodges_lehmann"}
    header = ["family", "estimator"] + [f"d={d}" for d in d_grid]
    rows = []
    payload = {}
    for family in _families(args):
        grid = asymptotics.efficiency_grid(family, d_grid, args.gamma)
        payload[family] = {labels[w]: grid[w] for w in grid}
        for which in asymptotics.EFFICIENCY_KEYS:
            rows.append([family, labels[which]] + [grid[which][d] for d in d_grid])
    _emit_rows(args, header, rows, {"gamma": args.gamma, "values": payload})
    return 0


def cmd_breakdown(args) -> int:
    gammas = _parse_floats(args.gammas, "--gamma", lambda g: 0.0 < g <= 1.0, "lie in (0, 1]")
    header = [
        "gamma", "n", "d", "n_star", "fraction", "broke", "top_deviation", "break_fraction",
    ]
    rows = []
    results = []
    for gamma in gammas:
        result = robustness.breakdown_experiment(gamma, n=args.n, d=args.d, seed=args.seed)
        results.append(result.to_json_dict())
        per_count = zip(result.corrupted_counts, result.fractions, result.broke, result.deviations[:, -1])
        for n_star, fraction, broke, top in per_count:
            rows.append([gamma, result.n, result.d, n_star, fraction, broke, float(top), result.break_fraction])
    _emit_rows(args, header, rows, {"results": results})
    return 0


def cmd_critical_value(args) -> int:
    family = args.family or "gaussian"
    q = engine.calibrate(
        args.kind,
        family,
        np.zeros(args.d),
        SpdMatrix.identity(args.d),
        n=args.n,
        gamma=args.gamma,
        alpha=args.alpha,
        calibration=args.calibration,
        null_reps=args.null_reps,
        seed=args.seed,
    )
    _emit_report(
        args,
        {
            "command": "critical-value",
            "statistic": args.kind,
            "family": family,
            "d": args.d,
            "n": args.n if args.calibration == "empirical" else None,
            "gamma": args.gamma,
            "alpha": args.alpha,
            "calibration": args.calibration,
            "critical_value": q.value,
            "stderr": q.stderr,
            "samples": q.n_samples,
            "seed": args.seed,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

#: ``--family`` help: tables cover every family unless given one; a calibration takes one
_ALL_FAMILIES = "restrict to one family (default: all)"
_NULL_FAMILY = "family of the null law that calibrates the critical value (default: gaussian)"


def _add_common(parser, *, family_help: str | None = _ALL_FAMILIES):
    """``--family`` (unless ``family_help`` is None), ``--seed``, ``--out`` and ``--format``."""
    if family_help:
        parser.add_argument("--family", choices=sorted(FAMILY_TAGS), help=family_help)
    parser.add_argument("--seed", type=int, required=True, help="base seed; all streams derive from it")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_flags(parser, *dests: str, **overrides: dict) -> None:
    """Add the :data:`_FLAGS` flags ``dests``, each with its keywords updated by ``overrides[dest]``."""
    for dest in dests:
        parser.add_argument("--" + dest.replace("_", "-"), **{**_FLAGS[dest][0], **overrides.get(dest, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fstest",
        description="Location tests built on an anchored-trimming estimator, with simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-table", help="finite-sample power against mixture alternatives")
    _add_common(p)
    _add_flags(p, "d", "n", "gamma", "alpha", "reps", "null_reps")
    p.add_argument("--beta-grid", default=",".join(str(b) for b in DEFAULT_BETA_GRID))
    p.set_defaults(func=cmd_power_table)

    p = sub.add_parser("test", help="test a hypothesized location on a CSV dataset")
    _add_common(p, family_help=_NULL_FAMILY)
    p.add_argument("--data", required=True, help="CSV file of observations, one row per case")
    p.add_argument("--kind", choices=[k.value for k in StatKind], default="t1")
    p.add_argument("--mu0", default="0", help="hypothesized location: one value or d comma-separated")
    p.add_argument("--sigma", default="identity", help='"identity" or a d x d CSV file')
    _add_flags(p, "gamma", "alpha")
    p.add_argument("--j", type=int, default=0, help="bootstrap resamples; 0 uses calibrated critical values")
    p.add_argument("--calibration", choices=("formula", "empirical"), default="empirical")
    _add_flags(p, "null_reps")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("table2", help="limiting power under local alternatives")
    _add_common(p)
    _add_flags(p, "d", "gamma", "alpha")
    p.add_argument("--delta", default=",".join(str(c) for c in DEFAULT_DELTA_COMPONENTS),
                   help="equal-component shift values, one row per value")
    p.add_argument("--offset-reps", type=int, default=5000,
                   help="accepted; changes no number, since the drifts are closed-form")
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES, dest="ignored_mc_samples",
                   metavar="MC_SAMPLES", help="accepted; changes no number, since the powers are exact")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="finite-sample efficiency determinant ratios")
    _add_common(p)
    _add_flags(p, "gamma", "reps")
    p.add_argument("--n-grid", default="10,100")
    p.add_argument("--d-grid", default=",".join(str(d) for d in DEFAULT_D_GRID))
    p.add_argument("--bootstrap", type=int, default=100,
                   help="accepted; changes no number, since the SE is closed-form")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("table4", help="asymptotic efficiency closed forms, d-th-root convention")
    p.add_argument("--family", choices=sorted(FAMILY_TAGS), help=_ALL_FAMILIES)
    _add_flags(p, "gamma")
    p.add_argument("--d-grid", default=",".join(str(d) for d in DEFAULT_D_GRID))
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("breakdown", help="contamination sweep; reports the break fraction")
    _add_common(p, family_help=None)
    p.add_argument("--gamma", default="0.3,0.5,0.7", dest="gammas", metavar="GAMMA",
                   help="comma-separated retention fractions")
    _add_flags(p, "n", "d", n={"default": 20})
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("critical-value", help="critical value for one statistic")
    _add_common(p, family_help=_NULL_FAMILY)
    p.add_argument("--kind", choices=[k.value for k in StatKind], default="t1")
    _add_flags(p, "d", "n", "gamma", "alpha", n={"help": "sample size for empirical calibration"})
    p.add_argument("--calibration", choices=("formula", "empirical"), default="formula")
    _add_flags(p, "null_reps")
    p.set_defaults(func=cmd_critical_value)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built once: parsing returns a new namespace and changes nothing in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest, (_, ok, message) in _FLAGS.items():
            if hasattr(args, dest) and not ok(getattr(args, dest)):
                raise CliError(message)
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so that a closed pipe raises here
        return code
    except BrokenPipeError:  # an OSError, so it comes first
        # the reader of stdout closed early; point stdout at devnull so the
        # interpreter's final flush does not raise again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        CliError, MalformedTable, robustness.SingularCovariance, ThreadCountError, OSError, DistanceOverflow
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfiniteVariance as exc:
        print(f"error: formula calibration unavailable: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
