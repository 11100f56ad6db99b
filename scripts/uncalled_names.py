"""Public names of the package that nothing in it, its scripts or its benchmark uses.

    python3 scripts/uncalled_names.py

Lists every name in the ``__all__`` of a ``src/fstest`` module that is never
used in ``src/fstest`` (outside ``__init__.py``, whose ``_EXPORTS`` table
names each of them once, as a string, for the package to load on use),
``scripts/`` or ``benchmarks/``.  A use is a load of the name, as a variable
or an attribute, or an import of it, found by walking each file's syntax
tree; a name inside a string or a docstring is no use.  Names that
``benchmarks/tracing.py`` names as trace targets (a ``Layer``'s module and
attribute) are marked: their spans fire only where a caller runs them.
Prints one ``module.name`` per line in ``__all__`` order, then the count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fstest"


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


def main() -> None:
    found = uncalled_names()
    for name, traced in found:
        print(name + ("  (trace target)" if traced else ""))
    print(f"{len(found)} public names without a use")


if __name__ == "__main__":
    main()
