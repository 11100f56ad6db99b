"""Time one fstest command in fresh interpreters, this checkout against another.

    python3 scripts/cli_footprint.py --other ../parent -- power-table --seed 1 --family cauchy

Runs ``fstest <argv>`` ``--runs`` times per side, each in a new Python
process with ``PYTHONPATH`` set to that side's ``src``, alternating which
side runs first.  The command's stdout is discarded.  Prints per side the
median wall time of the whole process (interpreter start-up and imports
included), the median of the child's own peak RSS (``ru_maxrss`` from
``os.wait4``), and which scipy and multiprocessing modules the command
loaded, down to their second name (``scipy.special``, ``scipy._lib``).  The in-process benchmark pays each
import once in a process that runs many commands; this shows what one
command costs in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: packages whose modules a command should not load; each is reported down to its second name
WATCHED = ("scipy", "multiprocessing")
CHILD = f"""
import contextlib, io, json, sys
import fstest.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fstest.cli.main(sys.argv[1:])
loaded = {{".".join(m.split(".")[:2]) for m in sys.modules if m.split(".")[0] in {WATCHED!r}}}
print(json.dumps([code, sorted(loaded)]))
"""


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One fresh-process run: wall seconds, peak RSS in MB and the watched modules loaded."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the interpreter exited with {proc.returncode}")
    code, loaded = json.loads(out.decode().splitlines()[-1])
    if code != 0:
        raise SystemExit(f"{checkout}: fstest {' '.join(argv)} returned {code}")
    # Linux reports ru_maxrss in KiB
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "loaded": loaded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", required=True, help="the other checkout (a directory holding src/fstest)")
    parser.add_argument("--runs", type=int, default=10, help="runs per side (default 10)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the fstest arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the fstest arguments after --")
    if args.runs < 1:
        parser.error("--runs must be positive")
    sides = {"this": ROOT, "other": Path(args.other).resolve()}
    if not (sides["other"] / "src" / "fstest").is_dir():
        parser.error(f"{sides['other']} holds no src/fstest")
    runs = {side: [] for side in sides}
    for i in range(args.runs):
        for side in (("this", "other") if i % 2 == 0 else ("other", "this")):
            runs[side].append(run_once(sides[side], command))
    print(f"fstest {' '.join(command)}: {args.runs} fresh-process runs per side, alternating")
    for side, path in sides.items():
        wall = statistics.median(r["wall_s"] for r in runs[side])
        rss = statistics.median(r["peak_rss_mb"] for r in runs[side])
        loaded = sorted({m for r in runs[side] for m in r["loaded"]})
        print(f"{side:>5} {path}: median wall {wall:.3f} s, median peak RSS {rss:.1f} MB, "
              f"loaded {', '.join(loaded) or 'none of ' + ', '.join(WATCHED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
