"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests -q"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fstest.engine  # noqa: E402
import fstest.rng  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS, check_test_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def smoke_run(name, tmp_path, trace, seed=3):
    workload = WORKLOADS[name](tmp_path / name, seed, smoke=True)
    workload.prepare()
    # a zero budget runs exactly one cycle (one untraced/traced pair)
    return harness.run_workload(workload, 0, trace)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_completes_at_smoke_size(name, tmp_path):
    run = smoke_run(name, tmp_path, trace=False)
    assert run.problems() == []
    assert run.attempted == len(run.cycles[0].results) + 1
    assert list(harness.end_to_end(run, setup_s=1.0)) == END_TO_END


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced_and_counts_repeat(name, tmp_path):
    original = fstest.rng.stream_rng
    first = smoke_run(name, tmp_path / "a", trace=True)
    second = smoke_run(name, tmp_path / "b", trace=True)
    assert fstest.engine.stream_rng is original  # tracer uninstalled
    for run in (first, second):
        assert run.problems() == []
        plain, traced = run.cycles
        assert not plain.traced and traced.traced
        assert [r.output for r in plain.results] == [r.output for r in traced.results]
    layers = [harness.per_layer(run) for run in (first, second)]
    assert list(layers[0]) == PER_LAYER
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"} for m in layers]
    assert counts[0] == counts[1]
    assert counts[0]["rng.stream_rng.calls"] > 0


def test_calibrated_time_leaves_out_its_probes(monkeypatch):
    """Probes run before and inside the call; only the in-call ones are
    subtracted, and the time is rescaled by the mean probe time."""
    probe_s = 0.004
    monkeypatch.setattr(hostspeed, "probe", lambda: (time.perf_counter(), probe_s))
    handler = signal.getsignal(signal.SIGALRM)
    began = time.perf_counter()
    with hostspeed.Calibrated() as clock:
        while time.perf_counter() - began < 10 * hostspeed.INTERVAL_S:
            pass
    elapsed = time.perf_counter() - began
    inside = len(clock.samples) - 1
    assert inside >= 5
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.seconds <= elapsed - inside * probe_s
    assert clock.reference_seconds == pytest.approx(
        clock.seconds * hostspeed.REFERENCE_PROBE_S / probe_s)


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    original = fstest.engine.power_table

    def corrupted(*args, **kwargs):
        table = original(*args, **kwargs)
        row = next(iter(next(iter(table.values())).values()))
        row[next(iter(row))] = 1.5
        return table

    monkeypatch.setattr(fstest.engine, "power_table", corrupted)
    run = smoke_run("power_mixture", tmp_path, trace=False)
    assert run.failed == run.attempted
    assert all("1.5 outside [0.0, 1.0]" in p for p in run.problems())


def test_inconsistent_decision_is_a_problem():
    payload = {"statistic": "t1", "seed": 7, "value": 3.0, "critical_value": 2.0,
               "decision": "retain", "p_value": None}
    assert check_test_report(payload, "t1", 7, bootstrap=False)
    payload["decision"] = "reject"
    assert check_test_report(payload, "t1", 7, bootstrap=False) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_contract_line(trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "test_calls", "--seed", "2", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == (PER_LAYER if trace else END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in last["metrics"].items())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "test_calls", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
