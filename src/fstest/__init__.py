"""Forward-search location tests for elliptical models.

The package centers on an anchored-trimming estimator: the mean of the
fraction gamma of observations closest to a hypothesized center in
Mahalanobis distance.  Around it sit a test statistic with a weighted
chi-squared limit, three competitor tests (mean, coordinatewise median,
Hodges-Lehmann), closed-form asymptotic efficiencies for Gaussian, Cauchy,
and a very light-tailed family, and simulation campaigns for power,
finite-sample efficiency, and breakdown behaviour.

Each public name is looked up in its module on use (PEP 562), so
``import fstest`` loads no submodule until a name is used.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each submodule and the public names the package takes from it
_EXPORTS = {
    "linalg": ("DimensionMismatch", "NotSPD", "NotSymmetric", "SpdMatrix", "trim_count"),
    "elliptical": ("CAUCHY", "DivergentIntegral", "EllipticalModel", "FAMILY_TAGS", "GAUSSIAN", "LIGHT100",
                   "MixtureModel", "component_variance", "generator_by_name", "marginal_density_at_zero",
                   "marginal_density_sq_integral", "radial_integral", "standard_model", "truncated_radial_mean"),
    "estimators": ("DistanceOverflow", "Estimate", "EstimatorKind", "ForwardSearchConfig", "cw_median", "estimate",
                   "forward_search", "hodges_lehmann", "sample_mean"),
    "engine": ("InfiniteVariance", "MonteCarloQuantile", "StatKind", "LimitLaw", "TestReport", "calibrate",
               "critical_value", "empirical_critical_value", "limit_weights", "power_table", "run_test",
               "scatter_scale_constant", "statistic"),
    "asymptotics": ("ContiguousSpec", "OffsetEstimate", "contiguous_power", "efficiency", "efficiency_grid",
                    "estimate_offsets", "limit_behavior", "root_efficiency"),
    "robustness": ("BreakdownResult", "EfficiencyResult", "SingularCovariance", "breakdown_experiment",
                   "empirical_limit_covariance", "finite_sample_efficiency"),
    "dataio": ("Dataset", "MalformedTable", "read_dataset", "write_rows"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # no cache: a rebound module attribute (a tracer, a monkeypatch) shows through
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
