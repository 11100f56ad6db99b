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
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import asymptotics, engine, robustness
from .dataio import MalformedTable, read_dataset, write_json, write_rows
from .elliptical import FAMILY_TAGS, standard_model
from .engine import InfiniteVariance, MonteCarloConfig, StatKind
from .estimators import EstimatorKind
from .linalg import NotSPD, NotSymmetric, DimensionMismatch, SpdMatrix, as_vector

__all__ = ["main", "SimulationConfig", "CliError"]

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


@dataclass(frozen=True)
class SimulationConfig:
    """Validated bundle of campaign parameters."""

    command: str
    families: tuple[str, ...]
    seed: int
    d: int = 4
    n: int = 100
    gamma: float = 0.5
    alpha: float = 0.05
    reps: int = 1000
    mc_samples: int = engine.DEFAULT_MC_SAMPLES
    null_reps: int = engine.DEFAULT_NULL_REPS
    beta_grid: tuple[float, ...] = ()
    delta_components: tuple[float, ...] = ()
    d_grid: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if not self.families:
            raise CliError("at least one family is required")
        for fam in self.families:
            if fam not in FAMILY_TAGS:
                raise CliError(f"unknown family {fam!r}; choose from {sorted(FAMILY_TAGS)}")
        if self.d < 1:
            raise CliError("--d must be a positive integer")
        if self.n < 2:
            raise CliError("--n must be at least 2")
        if not 0.0 < self.gamma <= 1.0:
            raise CliError("--gamma must lie in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise CliError("--alpha must lie in (0, 1)")
        if self.reps < 1:
            raise CliError("--reps must be positive")
        if self.mc_samples < 100:
            raise CliError("--mc-samples must be at least 100")
        if self.null_reps < 100:
            raise CliError("--null-reps must be at least 100")
        if any(not 0.0 <= b <= 1.0 for b in self.beta_grid):
            raise CliError("--beta-grid entries must lie in [0, 1]")
        if any(d < 1 for d in self.d_grid):
            raise CliError("--d-grid entries must be positive")
        if any(n < 2 for n in self.n_grid):
            raise CliError("--n-grid entries must be at least 2")
        if self.fmt not in ("csv", "json"):
            raise CliError("--format must be csv or json")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of reals, got {text!r}")
    if not values:
        raise CliError(f"{flag} must not be empty")
    return values


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    floats = _parse_floats(text, flag)
    values = tuple(int(v) for v in floats)
    if any(v != f for v, f in zip(values, floats)):
        raise CliError(f"{flag} must contain integers, got {text!r}")
    return values


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


def _emit_rows(config: SimulationConfig, header, rows, json_payload: dict) -> None:
    if config.fmt == "json":
        payload = {"schema": SCHEMA, "command": config.command, **_json_safe(json_payload)}
        if config.out:
            write_json(config.out, payload)
        else:
            import json

            print(json.dumps(payload, indent=2))
        return
    if config.out:
        write_rows(config.out, rows, header)
    else:
        from .dataio import format_cell

        print(",".join(header))
        for row in rows:
            print(",".join(format_cell(c) for c in row))


def _emit_report(args, payload: dict) -> None:
    payload = {"schema": SCHEMA, **_json_safe(payload)}
    if getattr(args, "out", None):
        if args.format == "csv":
            keys = list(payload)
            write_rows(args.out, [[payload[k] for k in keys]], keys)
        else:
            write_json(args.out, payload)
    else:
        import json

        print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_power_table(args) -> int:
    config = SimulationConfig(
        command="power-table",
        families=_families(args),
        seed=args.seed,
        d=args.d,
        n=args.n,
        gamma=args.gamma,
        alpha=args.alpha,
        reps=args.reps,
        null_reps=args.null_reps,
        beta_grid=_parse_floats(args.beta_grid, "--beta-grid"),
        out=args.out,
        fmt=args.format,
    )
    table = engine.power_table(
        config.families,
        config.beta_grid,
        d=config.d,
        n=config.n,
        reps=config.reps,
        gamma=config.gamma,
        alpha=config.alpha,
        null_reps=config.null_reps,
        seed=config.seed,
    )
    header = ["family", "test"] + [f"beta={beta:g}" for beta in config.beta_grid]
    rows = []
    for family in config.families:
        for kind in StatKind:
            rows.append(
                [family, kind.value]
                + [table[family][kind][float(b)] for b in config.beta_grid]
            )
    _emit_rows(
        config,
        header,
        rows,
        {
            "config": {
                "families": list(config.families),
                "d": config.d,
                "n": config.n,
                "gamma": config.gamma,
                "alpha": config.alpha,
                "reps": config.reps,
                "null_reps": config.null_reps,
                "seed": config.seed,
            },
            "beta_grid": list(config.beta_grid),
            "power": {
                family: {k.value: {repr(float(b)): table[family][k][float(b)] for b in config.beta_grid} for k in StatKind}
                for family in config.families
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
    values = _parse_floats(text, "--mu0")
    if len(values) == 1:
        values *= d
    if len(values) != d:
        raise CliError(f"--mu0 has {len(values)} entries, data dimension is {d}")
    try:
        return as_vector(values, "--mu0")
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_test(args) -> int:
    if args.j < 0:
        raise CliError("--j must be nonnegative")
    dataset = read_dataset(args.data)
    config = SimulationConfig(
        command="test",
        families=(args.family or "gaussian",),
        seed=args.seed,
        gamma=args.gamma,
        alpha=args.alpha,
        mc_samples=args.mc_samples,
        null_reps=args.null_reps,
    )
    mu0 = _parse_mu0(args.mu0, dataset.d)
    sigma = _load_sigma(args.sigma, dataset.d)
    kind = StatKind(args.kind)
    if args.j > 0:
        p, crit, t0 = engine.bootstrap_report(
            kind,
            dataset.values,
            mu0,
            sigma,
            gamma=config.gamma,
            alpha=config.alpha,
            j=args.j,
            seed=config.seed,
        )
        report = engine.TestReport(
            statistic=kind,
            value=t0,
            critical_value=crit,
            alpha=config.alpha,
            decision="reject" if t0 > crit else "retain",
            p_value=p,
            mc_samples=args.j,
            seed=config.seed,
        )
    else:
        try:
            report = engine.run_test(
                kind,
                dataset.values,
                mu0,
                sigma,
                gamma=config.gamma,
                alpha=config.alpha,
                family=config.families[0],
                calibration=args.calibration,
                mc=MonteCarloConfig(config.mc_samples, config.null_reps),
                seed=config.seed,
            )
        except InfiniteVariance as exc:
            raise CliError(f"formula calibration unavailable: {exc}")
    _emit_report(args, report.to_json_dict())
    return 0


def cmd_table2(args) -> int:
    config = SimulationConfig(
        command="table2",
        families=_families(args),
        seed=args.seed,
        d=args.d,
        gamma=args.gamma,
        alpha=args.alpha,
        delta_components=_parse_floats(args.delta, "--delta"),
        out=args.out,
        fmt=args.format,
    )
    rows_raw = asymptotics.local_power_rows(
        config.families,
        config.delta_components,
        d=config.d,
        gamma=config.gamma,
        alpha=config.alpha,
    )
    header = ["family", "delta_component", "delta_norm"]
    for kind in StatKind:
        header += [kind.value, f"{kind.value}_se"]
    rows = [
        [r["family"], r["delta_component"], r["delta_norm"]]
        + [x for kind in StatKind for x in (r[kind.value], r[f"{kind.value}_se"])]
        for r in rows_raw
    ]
    _emit_rows(config, header, rows, {"rows": rows_raw})
    return 0


def cmd_table3(args) -> int:
    config = SimulationConfig(
        command="table3",
        families=_families(args),
        seed=args.seed,
        gamma=args.gamma,
        reps=args.reps,
        d_grid=_parse_ints(args.d_grid, "--d-grid"),
        n_grid=_parse_ints(args.n_grid, "--n-grid"),
        out=args.out,
        fmt=args.format,
    )
    if config.reps < 2:
        raise CliError("--reps must be at least 2 for determinant ratios")
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise CliError("--bootstrap must be 0 or at least 2: a standard error needs two draws")
    header = ["family", "n", "estimator"]
    for d in config.d_grid:
        header += [f"d={d}", f"d={d}_se"]
    rows = []
    raw = []
    for family in config.families:
        for n in config.n_grid:
            cells = {
                d: robustness.finite_sample_efficiencies(
                    _EFFICIENCY_ROWS,
                    family=family,
                    n=n,
                    d=d,
                    reps=config.reps,
                    gamma=config.gamma,
                    seed=config.seed,
                    bootstrap=args.bootstrap,
                )
                for d in config.d_grid
            }
            for r, kind in enumerate(_EFFICIENCY_ROWS):
                row = [family, n, kind.value]
                for d in config.d_grid:
                    result = cells[d][r]
                    row += [result.value, result.stderr if result.stderr is not None else ""]
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
    _emit_rows(config, header, rows, {"rows": raw})
    return 0


def cmd_table4(args) -> int:
    config = SimulationConfig(
        command="table4",
        families=_families(args),
        seed=0,
        gamma=args.gamma,
        d_grid=_parse_ints(args.d_grid, "--d-grid"),
        out=args.out,
        fmt=args.format,
    )
    labels = {"e1": "mean", "e2": "cw_median", "e3": "hodges_lehmann"}
    header = ["family", "estimator"] + [f"d={d}" for d in config.d_grid]
    rows = []
    payload = {}
    for family in config.families:
        grid = asymptotics.efficiency_grid(family, config.d_grid, config.gamma)
        payload[family] = {labels[w]: grid[w] for w in grid}
        for which in asymptotics.EFFICIENCY_KEYS:
            rows.append([family, labels[which]] + [grid[which][d] for d in config.d_grid])
    _emit_rows(config, header, rows, {"gamma": config.gamma, "values": payload})
    return 0


def cmd_breakdown(args) -> int:
    gammas = _parse_floats(args.gamma, "--gamma")
    if any(not 0.0 < g <= 1.0 for g in gammas):
        raise CliError("--gamma entries must lie in (0, 1]")
    config = SimulationConfig(
        command="breakdown",
        families=("gaussian",),
        seed=args.seed,
        d=args.d,
        n=args.n,
        out=args.out,
        fmt=args.format,
    )
    header = [
        "gamma", "n", "d", "n_star", "fraction", "broke", "top_deviation", "break_fraction",
    ]
    rows = []
    results = []
    for gamma in gammas:
        result = robustness.breakdown_experiment(gamma, n=config.n, d=config.d, seed=config.seed)
        results.append(result.to_json_dict())
        for i, n_star in enumerate(result.corrupted_counts):
            rows.append(
                [
                    gamma,
                    result.n,
                    result.d,
                    n_star,
                    result.fractions[i],
                    result.broke[i],
                    float(result.deviations[i, -1]),
                    result.break_fraction if result.break_fraction is not None else "",
                ]
            )
    _emit_rows(config, header, rows, {"results": results})
    return 0


def cmd_critical_value(args) -> int:
    family = args.family or "gaussian"
    config = SimulationConfig(
        command="critical-value",
        families=(family,),
        seed=args.seed,
        d=args.d,
        n=args.n,
        gamma=args.gamma,
        alpha=args.alpha,
        mc_samples=args.mc_samples,
        null_reps=args.null_reps,
        out=args.out,
        fmt=args.format,
    )
    kind = StatKind(args.kind)
    try:
        if args.calibration == "formula":
            spec = engine.limit_weights(kind, standard_model(family, config.d), config.gamma)
            q = engine.critical_value(spec, config.alpha, config.mc_samples, config.seed)
            samples = config.mc_samples
        else:
            q = engine.empirical_critical_value(
                kind,
                family,
                np.zeros(config.d),
                SpdMatrix.identity(config.d),
                config.n,
                config.gamma,
                config.alpha,
                config.null_reps,
                config.seed,
            )
            samples = config.null_reps
    except InfiniteVariance as exc:
        raise CliError(str(exc))
    _emit_report(
        args,
        {
            "command": "critical-value",
            "statistic": kind.value,
            "family": family,
            "d": config.d,
            "n": config.n if args.calibration == "empirical" else None,
            "gamma": config.gamma,
            "alpha": config.alpha,
            "calibration": args.calibration,
            "critical_value": q.value,
            "stderr": q.stderr,
            "samples": samples,
            "seed": config.seed,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser, *, with_family=True):
    if with_family:
        parser.add_argument("--family", choices=sorted(FAMILY_TAGS), help="restrict to one family (default: all)")
    parser.add_argument("--seed", type=int, required=True, help="base seed; all streams derive from it")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fstest",
        description="Location tests built on an anchored-trimming estimator, with simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-table", help="finite-sample power against mixture alternatives")
    _add_common(p)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--null-reps", type=int, default=engine.DEFAULT_NULL_REPS)
    p.add_argument("--beta-grid", default=",".join(str(b) for b in DEFAULT_BETA_GRID))
    p.set_defaults(func=cmd_power_table)

    p = sub.add_parser("test", help="test a hypothesized location on a CSV dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="CSV file of observations, one row per case")
    p.add_argument("--kind", choices=[k.value for k in StatKind], default="t1")
    p.add_argument("--mu0", default="0", help="hypothesized location: one value or d comma-separated")
    p.add_argument("--sigma", default="identity", help='"identity" or a d x d CSV file')
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--j", type=int, default=0, help="bootstrap resamples; 0 uses calibrated critical values")
    p.add_argument("--calibration", choices=("formula", "empirical"), default="empirical")
    p.add_argument("--mc-samples", type=int, default=engine.DEFAULT_MC_SAMPLES)
    p.add_argument("--null-reps", type=int, default=engine.DEFAULT_NULL_REPS)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("table2", help="limiting power under local alternatives")
    _add_common(p)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--n", type=int, default=100,
                   help="accepted; changes no number, since the limit does not depend on n")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", default=",".join(str(c) for c in DEFAULT_DELTA_COMPONENTS),
                   help="equal-component shift values, one row per value")
    p.add_argument("--offset-reps", type=int, default=5000,
                   help="accepted; changes no number, since the drifts are closed-form")
    p.add_argument("--mc-samples", type=int, default=engine.DEFAULT_MC_SAMPLES,
                   help="accepted; changes no number, since the powers are exact")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="finite-sample efficiency determinant ratios")
    _add_common(p)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--n-grid", default="10,100")
    p.add_argument("--d-grid", default=",".join(str(d) for d in DEFAULT_D_GRID))
    p.add_argument("--bootstrap", type=int, default=100, help="bootstrap draws for the SE column (0 disables)")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("table4", help="asymptotic efficiency closed forms, d-th-root convention")
    p.add_argument("--family", choices=sorted(FAMILY_TAGS), help="restrict to one family (default: all)")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--d-grid", default=",".join(str(d) for d in DEFAULT_D_GRID))
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("breakdown", help="contamination sweep; reports the break fraction")
    _add_common(p, with_family=False)
    p.add_argument("--gamma", default="0.3,0.5,0.7", help="comma-separated retention fractions")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=4)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("critical-value", help="critical value for one statistic")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in StatKind], default="t1")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--n", type=int, default=100, help="sample size for empirical calibration")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calibration", choices=("formula", "empirical"), default="formula")
    p.add_argument("--mc-samples", type=int, default=engine.DEFAULT_MC_SAMPLES)
    p.add_argument("--null-reps", type=int, default=engine.DEFAULT_NULL_REPS)
    p.set_defaults(func=cmd_critical_value)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MalformedTable, robustness.SingularCovariance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
