"""Compare a commit with the working tree on the benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --pr 14 --pairs 5 --seconds 30

For each workload in ``BENCHMARK.json`` and each pair i, runs
``benchmarks/run.py --workload <w> --seed <seed-base + i> --seconds <s> --trace 0``
once on the parent commit and once on the working tree, the parent first
when i is even.  The parent runs from a ``git archive`` export and the
change from a copy of the working tree's tracked and untracked, non-ignored
files, both in a temporary directory, removed afterwards (``--workdir``
names one that is kept).  So neither side starts with bytecode the other
lacks (run from the repository, whose ``__pycache__`` holds it, the change
side's ``setup_s`` read 3-15% lower whatever the change), and the
repository's own ``.git`` is not touched.  Writes
``BENCH_<pr>.json``: every pair's end-to-end metrics and output sha256, each
side's median, quartiles, min and max per metric, and the manifest of the
change's last run.  Neither copy is a git checkout, so that manifest's
``git_commit`` is null; ``change_tree`` records the working tree's HEAD,
whether the tree had uncommitted edits (``git status --porcelain``) and the
sha256 of ``git diff HEAD``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                            capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def copy_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, non-ignored files into ``dest``."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the tree is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def tree_state() -> dict:
    """The working tree's HEAD, whether the tree differs from it, and the sha256 of that difference."""
    def git(*args) -> bytes:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout

    return {
        "head": git("rev-parse", "HEAD").decode().strip(),
        "uncommitted_edits": bool(git("status", "--porcelain").strip()),
        "diff_head_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest(),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its metrics in reference seconds, measured medians, sha256 and manifest."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads((checkout / ".bench_work" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "measured": {k: v["value"] for k, v in result["measured_seconds_metrics"].items()},
        "output_sha256": result["output_sha256"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "manifest": result["manifest"],
    }


def quartiles(values: list[float]) -> dict:
    low, q1, median, q3, high = np.percentile(values, [0, 25, 50, 75, 100])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "min": float(low), "max": float(high)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        per_side = {side: [p[side][name] for p in pairs] for side in SIDES}
        parent, change = quartiles(per_side["parent"]), quartiles(per_side["change"])
        wins = sum(sign * (c - p) < 0 for p, c in zip(per_side["parent"], per_side["change"]))
        ratio = change["median"] / parent["median"]
        summary[name] = {
            "unit": metric["unit"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": round(ratio, 4),
            "change_wins": f"{wins}/{len(pairs)}",
            "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            "within_bound": sign * (ratio - 1) <= metric["bound"],
        }
    return summary


def compare(workload: str, checkouts: dict, args, metrics: list[dict]) -> tuple[dict, dict]:
    pairs, measured, manifest = [], {side: [] for side in SIDES}, None
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(checkouts[side], workload, seed, args.seconds) for side in order}
        pair = {"seed": seed, "first": order[0]}
        for side in SIDES:
            run = runs[side]
            pair[side] = run["metrics"] | {k: run[k] for k in ("output_sha256", "attempted", "failed")}
            measured[side].append(run["measured"])
        pair["same_output"] = runs["parent"]["output_sha256"] == runs["change"]["output_sha256"]
        pairs.append(pair)
        manifest = runs["change"]["manifest"]
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}" for m in metrics
        ) + f", same output {pair['same_output']}", flush=True)
    timed = [m["name"] for m in metrics if m["unit"] in ("s", "ms")]
    return {
        "pairs_run": len(pairs),
        "all_outputs_identical": all(p["same_output"] for p in pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "summary": summarize(pairs, metrics),
        "measured_medians": {
            name: {side: float(np.median([m[name] for m in measured[side]])) for side in SIDES}
            for name in timed
        },
        "pairs": pairs,
    }, manifest


def report(args, parent_commit: str) -> dict:
    return {
        "what": "benchmarks/run.py end-to-end metrics, parent commit vs this change, alternating pairs",
        "command": f"python3 benchmarks/run.py --workload <w> --seed <s> --seconds {args.seconds} --trace 0",
        "parent_commit": parent_commit,
        "change": "the commit that adds this file (its parent is parent_commit)",
        "change_tree": tree_state(),
        "pair_order": "pair i (0-based) runs the parent first when i is even, the change first when i is odd",
        "quartiles": "numpy.percentile, linear interpolation, over the runs of one side",
        "times": "reference seconds (benchmarks/hostspeed.py); measured-seconds medians in measured_medians",
        "manifest": None,
        "workloads": {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append", help="one workload (repeatable; default: all)")
    parser.add_argument("--workdir", help="where to put both copies (default: a new temporary directory)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    with nullcontext(args.workdir) if args.workdir else tempfile.TemporaryDirectory() as workdir:
        checkouts = {side: Path(workdir) / side for side in SIDES}
        parent_commit = export(args.parent, checkouts["parent"])
        copy_tree(checkouts["change"])
        out = report(args, parent_commit)
        for workload in workloads:
            out["workloads"][workload], out["manifest"] = compare(workload, checkouts, args, metrics)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
