"""Checks on the package source itself.

Code that nothing calls gets deleted (ROADMAP aim 2): every module-level
function and class of ``src/ionspec2d``, and every method of such a class,
is referenced by its name, or as an attribute, somewhere in ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ionspec2d"
# test oracles and a reader that only the benchmark under perfbench/ and the
# tests call; they leave src/ once the benchmark stops naming them (ROADMAP
# item 2)
BENCHMARK_ONLY = {"protocol.run_once", "protocol.phase_cycle", "scenarios.kerr_scan_full", "matio.read_matrix"}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each module-level function and class, and
    of each method of such a class; dunder methods are called implicitly."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {qual for module, tree in trees.items() for qual, name in _definitions(module, tree) if name not in used}
    assert unused == BENCHMARK_ONLY
