"""No public helper without a caller: ``scripts/uncalled_names.py`` against a pinned list.

A public name that nothing in ``src/fstest``, ``scripts/`` or ``benchmarks/``
uses must be listed here with the reason it stays; a new one fails this test
until it gets a caller, leaves ``__all__``, moves into the tests or is listed.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "uncalled_names.py"
sys.path.insert(0, str(SCRIPT.parent))

from uncalled_names import uncalled_names  # noqa: E402

SINGLE_SAMPLE_API = "kept: single-sample API, which the acceptance criteria call"
TRACE_TARGET = "trace target of benchmarks/tracing.py, whose span never fires"

#: every public name without a use in the package, its scripts or its benchmark, and why it stays
KEPT = {
    "asymptotics.limit_behavior": SINGLE_SAMPLE_API,
    "asymptotics.estimate_offsets": "the Monte Carlo check of kappa, due to move into the tests",
    "asymptotics.contiguous_power": TRACE_TARGET,
    "elliptical.sample_mixture": TRACE_TARGET,
    "estimators.forward_search": SINGLE_SAMPLE_API + "; " + TRACE_TARGET,
    "estimators.sample_mean": SINGLE_SAMPLE_API,
    "estimators.cw_median": SINGLE_SAMPLE_API,
    "estimators.hodges_lehmann": SINGLE_SAMPLE_API + "; " + TRACE_TARGET,
    "robustness.finite_sample_efficiency": TRACE_TARGET,
    "robustness.empirical_limit_covariance": SINGLE_SAMPLE_API,
}


def test_every_uncalled_public_name_is_kept_for_a_reason():
    found = uncalled_names()
    assert [name for name, _ in found] == list(KEPT)
    # the script marks exactly the names kept as trace targets
    assert {name for name, traced in found if traced} == {n for n, why in KEPT.items() if TRACE_TARGET in why}


def test_script_prints_the_list():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert lines[-1] == f"{len(KEPT)} public names without a use"
    assert "asymptotics.contiguous_power  (trace target)" in lines
    assert "estimators.sample_mean" in lines
