"""Public names of the package that nothing in it, its scripts or its benchmark uses;
or, with ``--unreached``, its functions that no command enters.

    python3 scripts/uncalled_names.py
    python3 scripts/uncalled_names.py --unreached

Lists every name in the ``__all__`` of a ``src/fstest`` module that is never
used in ``src/fstest`` (outside ``__init__.py``, whose ``_EXPORTS`` table
names each of them once, as a string, for the package to load on use),
``scripts/`` or ``benchmarks/``.  A use is a load of the name, as a variable
or an attribute, or an import of it, found by walking each file's syntax
tree; a name inside a string or a docstring is no use.  Names that
``benchmarks/tracing.py`` names as trace targets (a ``Layer``'s module and
attribute) are marked: their spans fire only where a caller runs them.
Prints one ``module.name`` per line in ``__all__`` order, then the count.

``--unreached`` runs the fixed set of small ``fstest.cli.main`` calls of
:func:`commands` in this process under ``sys.setprofile``, serially
(``FSTEST_THREADS`` unset), and lists every function and method defined in
``src/fstest`` that none of the calls enters, as ``module.qualified.name``
in module and source order, then the count.  The set holds every command at
small sizes; ``test`` for each family, kind and calibration (formula,
empirical, bootstrap); a 3 x 3 ``--sigma`` with a nonzero ``--mu0``;
``--out`` to files and to a directory; a malformed CSV; a batch of 800
Hodges-Lehmann columns; and gamma = 0.001.  A call that the parser rejects
stops the run, naming its argument list.  A cached function that an
earlier call in the same process filled is not entered again, so run it in
a fresh interpreter.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fstest"
FAMILIES = ("cauchy", "gaussian", "light100")
KINDS = ("t1", "t2", "t3", "t4")


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _used(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _trace_targets() -> set[str]:
    """``module.attr`` of every ``Layer(module, attr, ...)`` in ``benchmarks/tracing.py``."""
    targets = set()
    for node in ast.walk(ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Layer":
            module, attr = (arg.value for arg in node.args[:2])
            targets.add(f"{module.removeprefix('fstest.')}.{attr}")
    return targets


def uncalled_names() -> list[tuple[str, bool]]:
    """(``module.name``, whether it is a trace target) for each public name without a use."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used = _used([*modules, *ROOT.glob("scripts/**/*.py"), *ROOT.glob("benchmarks/**/*.py")])
    traced = _trace_targets()
    return [
        (f"{path.stem}.{name}", f"{path.stem}.{name}" in traced)
        for path in modules
        for name in _exported(ast.parse(path.read_text()))
        if name not in used
    ]


def _functions(path: Path) -> dict[int, str]:
    """Qualified name of each function and method in one module, by the first
    line of its code object: the ``def`` line, or its first decorator's."""
    found = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[min(n.lineno for n in (child, *child.decorator_list))] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    visit(ast.parse(path.read_text()), "")
    return dict(sorted(found.items()))


def commands(tmp: Path) -> list[list[str]]:
    """The ``cli.main`` argument lists of ``--unreached``, with their input files written to ``tmp``."""
    data, data3, sigma, bad = (tmp / name for name in ("data.csv", "data3.csv", "sigma.csv", "bad.csv"))
    data.write_text("x1,x2\n" + "".join(f"{(7 * i % 11) / 5 - 1},{(5 * i % 13) / 6 - 1}\n" for i in range(20)))
    data3.write_text("".join(f"{(7 * i % 11) / 5},{(5 * i % 13) / 6},{(3 * i % 7) / 3}\n" for i in range(20)))
    sigma.write_text("2,0.5,0.1\n0.5,1,0.3\n0.1,0.3,1.5\n")
    bad.write_text("x1,x2\n1,2\n3,abc\n")
    seed = ["--seed", "1"]
    calibrations = (["--calibration", "formula"], ["--calibration", "empirical", "--null-reps", "100"], ["--j", "20"])
    return [
        ["power-table", "--n", "20", "--d", "2", "--reps", "20", "--null-reps", "100", "--beta-grid", "0,0.5", *seed],
        *(["test", "--data", str(data), "--family", family, "--kind", kind, *calibration, *seed]
          for family in FAMILIES for kind in KINDS for calibration in calibrations),
        *(["test", "--data", str(data3), "--sigma", str(sigma), "--mu0", "0.1,0,-0.2", "--kind", kind, *calibration,
           *seed] for kind in KINDS for calibration in calibrations),
        ["test", "--data", str(data), "--format", "json", "--out", str(tmp / "report.json"), *seed],
        ["test", "--data", str(bad), *seed],
        ["table2", "--d", "2", "--format", "json", *seed],
        ["table3", "--n-grid", "10", "--d-grid", "2", "--reps", "20", *seed],
        ["table4", "--d-grid", "2,4", "--out", str(tmp / "table4.csv")],
        ["table4", "--d-grid", "2", "--out", str(tmp)],
        ["breakdown", "--n", "20", "--d", "2", "--gamma", "0.5", *seed],
        # 100 null replications in d = 8: one Hodges-Lehmann batch of 800 columns at n = 64
        ["critical-value", "--calibration", "empirical", "--kind", "t4", "--n", "64", "--d", "8",
         "--null-reps", "100", *seed],
        *(["critical-value", "--family", family, "--gamma", "0.001", *seed] for family in FAMILIES),
    ]


def unreached() -> list[str]:
    """``module.qualified.name`` of each function and method of ``src/fstest`` that no call of :func:`commands` enters."""
    os.environ.pop("FSTEST_THREADS", None)  # pool threads would run unprofiled
    sys.path.insert(0, str(PACKAGE.parent))
    from fstest import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        argvs = commands(Path(tmp))
        sys.setprofile(profile)
        try:
            for argv in argvs:
                try:
                    cli.main(argv)
                except SystemExit:  # argparse rejected it, and its message went to the redirected stderr
                    raise SystemExit(f"cli.main rejected {argv}") from None
        finally:
            sys.setprofile(None)
    entered = {(str(Path(filename).resolve()), line) for filename, line in entered}
    return [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _functions(path).items()
        if (str(path), line) not in entered
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unreached", action="store_true", help="list the functions no command enters")
    if parser.parse_args().unreached:
        found = unreached()
        for name in found:
            print(name)
        print(f"{len(found)} functions that no command enters")
        return
    found = uncalled_names()
    for name, traced in found:
        print(name + ("  (trace target)" if traced else ""))
    print(f"{len(found)} public names without a use")


if __name__ == "__main__":
    main()
