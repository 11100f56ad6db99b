"""No public helper without a caller, and no function that no command reaches:
``scripts/uncalled_names.py`` against two pinned lists.

A public name that nothing in ``src/fstest``, ``scripts/`` or ``benchmarks/``
uses must be listed here with the reason it stays; a new one fails this test
until it gets a caller, leaves ``__all__``, moves into the tests or is listed.
Likewise a function or method of ``src/fstest`` that none of the script's
fixed ``cli.main`` calls enters, such as new code that only the tests call.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "uncalled_names.py"
sys.path.insert(0, str(SCRIPT.parent))

from uncalled_names import uncalled_names  # noqa: E402

TRACE_TARGET = "trace target of benchmarks/tracing.py, whose span never fires"
CRITERION_6 = "kept: acceptance criterion 6 calls it (tests/test_acceptance.py)"
CRITERION_7 = "kept: acceptance criterion 7 calls it (tests/test_acceptance.py)"

#: every public name without a use in the package, its scripts or its benchmark, and why it stays
KEPT = {
    "asymptotics.contiguous_power": TRACE_TARGET + "; " + CRITERION_6,
    "elliptical.sample_mixture": TRACE_TARGET,
    "estimators.forward_search": TRACE_TARGET + "; " + CRITERION_7,
    "estimators.hodges_lehmann": TRACE_TARGET,
    "robustness.finite_sample_efficiency": TRACE_TARGET,
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
    assert "elliptical.sample_mixture  (trace target)" in lines


PACKAGE_LOOKUP = "package attribute lookup (fstest.NAME, dir(fstest)); the CLI imports its modules directly"
KAPPA_CHECK = "Monte Carlo check of the t1 drift kappa, which only the tests call (ROADMAP item 5(b))"
ABSTRACT = "abstract kernel method: every kernel overrides it"
KAPPA_SCORE = "score of the kappa check: g'/g of the kernel"
REPR = "repr for interactive use"

#: every function and method of src/fstest that no call of ``uncalled_names.commands`` enters, and why it stays
UNREACHED = {
    "__init__.__getattr__": PACKAGE_LOOKUP,
    "__init__.__dir__": PACKAGE_LOOKUP,
    "asymptotics.ContiguousSpec.__post_init__": KAPPA_CHECK,
    "asymptotics.ContiguousSpec.d": KAPPA_CHECK,
    "asymptotics._offset_samples": KAPPA_CHECK,
    "asymptotics.estimate_all_offsets": KAPPA_CHECK + "; " + TRACE_TARGET,
    "asymptotics.contiguous_power": TRACE_TARGET + "; " + CRITERION_6,
    "elliptical.DensityGenerator.dlog_g": ABSTRACT,
    "elliptical.DensityGenerator.radial_integral_closed": ABSTRACT,
    "elliptical.DensityGenerator.draw": ABSTRACT,
    "elliptical.DensityGenerator.g1_zero_closed": ABSTRACT,
    "elliptical.DensityGenerator.int_g1_sq_closed": ABSTRACT,
    "elliptical.DensityGenerator.__repr__": REPR,
    "elliptical._Gaussian.dlog_g": KAPPA_SCORE,
    "elliptical._Gaussian.radial_integral_closed": "gaussian I_p of the public radial_integral; commands read log I_p",
    "elliptical._Cauchy.dlog_g": KAPPA_SCORE,
    "elliptical._Light100.dlog_g": KAPPA_SCORE,
    "elliptical.EllipticalModel.__repr__": REPR,
    "elliptical.sample_mixture": TRACE_TARGET,
    "estimators.forward_search": TRACE_TARGET + "; " + CRITERION_7,
    "estimators.hodges_lehmann": TRACE_TARGET,
    "estimators.estimate": "the public API's one single-sample entry (README); " + CRITERION_7,
    "linalg.SpdMatrix.__repr__": REPR,
    "robustness.finite_sample_efficiency": TRACE_TARGET,
}


def test_every_unreached_function_is_kept_for_a_reason():
    # a fresh interpreter, so that no cache an earlier test filled hides a call
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--unreached"], check=True, capture_output=True, text=True, timeout=60
    ).stdout
    assert out.splitlines() == [*UNREACHED, f"{len(UNREACHED)} functions that no command enters"]


def test_a_rejected_command_stops_the_run_naming_it():
    # stderr is redirected while the commands run, so argparse's own message would be lost
    argv = ["critical-value", "--mc-samples", "1000", "--seed", "1"]
    script = (f"import sys; sys.path.insert(0, {str(SCRIPT.parent)!r}); import uncalled_names as u; "
              f"u.commands = lambda tmp: [{argv!r}]; u.unreached()")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"cli.main rejected {argv}\n")
