"""Every public module-level name of ``spsr`` is reached by code other than
its own tests: a command, a criterion or the benchmark.

A name counts as reached when code names it (an AST ``Name`` read, an
``Attribute`` or an import alias; docstrings and comments do not count) in
``src/spsr`` outside its own definition and outside ``__init__.py``, or in
the scripts, perfbench, the acceptance criteria or their fixtures.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spsr"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]

# public names kept without a caller, and why
UNREACHED_BY_DESIGN = {
    "save_weights": "writes the bundles `refine --weights` reads; ROADMAP item 6 gives it a "
                    "caller (perfbench's seeded contrast bundle)",
    "panoptic_postprocess": "turns refined masks into panoptic segments; ROADMAP item 4 gives "
                            "it a caller (`refine` writing them for `eval --task panoptic`)",
    "gather_taps": "the gather that tests/test_ops.py and tests/test_tensor.py hold the sparse "
                   "kernels bit-identical to",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _named(node: ast.AST) -> set[str]:
    """Names the code under ``node`` reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions() -> dict[str, str]:
    """Each public module-level name of ``src/spsr``, with its module."""
    return {name: path.stem
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for stmt in _parse(path).body for name in _defined(stmt)
            if not name.startswith("_")}


def reached_names() -> set[str]:
    """Names that code reads outside their own definitions."""
    reached = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            reached |= _named(stmt) - set(_defined(stmt))
    for path in CALLERS:
        reached |= _named(_parse(path))
    return reached


def test_every_public_name_is_reached():
    reached = reached_names()
    unreached = sorted(f"{module}.{name}" for name, module in public_definitions().items()
                       if name not in reached and name not in UNREACHED_BY_DESIGN)
    assert not unreached, ("public names that only their own tests read; delete them with "
                           f"those tests: {', '.join(unreached)}")


def test_exceptions_are_current():
    # an exception that something now reaches, or that is gone, leaves the map
    defined, reached = public_definitions(), reached_names()
    assert sorted(n for n in UNREACHED_BY_DESIGN if n not in defined) == []
    assert sorted(n for n in UNREACHED_BY_DESIGN if n in reached) == []
