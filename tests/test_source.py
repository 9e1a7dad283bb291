"""Checks on the package source itself.

Code that nothing calls gets deleted (ROADMAP aim 2): every module-level
function, class and constant of ``src/ionspec2d``, and every method of such
a class, is referenced by its name, or as an attribute, somewhere in
``src/``.  A name that is only assigned is not a reference.  Class
attributes are not checked: the benchmark under perfbench/ reads
``Propagator.kind``, which nothing in ``src/`` reads.  A setting that
nothing reads gets deleted too: every ``RunConfig`` field is read as an
attribute somewhere in ``src/`` outside ``build_config``, which only
validates it.  And no module of ``src/`` silences a warning: a run's
manifest holds every warning the run raises (ROADMAP aim 4), and an
ignored one never reaches it.  No module of ``src/`` imports
``dataclasses``: each dataclass generates and compiles its methods (0.3-0.6
ms per class) in every process, and both gated benchmark workloads are
set-up bound, so the package's records are NamedTuples or plain classes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ionspec2d"
# test oracles and a reader that only the benchmark under perfbench/ and the
# tests call; they leave src/ once the benchmark stops naming them (ROADMAP
# item 2)
BENCHMARK_ONLY = {"protocol.run_once", "protocol.phase_cycle", "scenarios.kerr_scan_full", "matio.read_matrix"}
# the two validated settings without an effect: the benchmark's workload
# configs still pass them, and they go once it stops (ROADMAP item 2)
UNREAD_FIELDS = {"seed", "threads"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each module-level function, class and
    constant (a name a module-level assignment binds), and of each method of
    such a class; dunder names are read implicitly."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, defs) and not _dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):  # the target, or each name of a tuple target
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not _dunder(name.id):
                        yield f"{module}.{name.id}", name.id


def test_every_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {qual for module, tree in trees.items() for qual, name in _definitions(module, tree) if name not in used}
    assert unused == BENCHMARK_ONLY


def test_every_config_field_is_read():
    tops = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text(encoding="utf-8")).body]
    config = next(node for node in tops if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = {item.target.id for item in config.body if isinstance(item, ast.AnnAssign)}
    read = {
        node.attr
        for top in tops
        if not (isinstance(top, ast.FunctionDef) and top.name == "build_config")
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert fields - read == UNREAD_FIELDS


def test_no_warning_is_silenced():
    # warnings.simplefilter("ignore") or warnings.filterwarnings("ignore", ...),
    # the action given by position or by keyword
    silenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            actions = node.args[:1] + [k.value for k in node.keywords if k.arg == "action"]
            if name in ("simplefilter", "filterwarnings") and any(
                isinstance(a, ast.Constant) and a.value == "ignore" for a in actions
            ):
                silenced.append(f"{path.name}:{node.lineno}")
    assert silenced == []


def test_no_module_imports_dataclasses():
    # each dataclass compiles its generated methods at import, in every run
    importing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importing.append(f"{path.name}:{node.lineno}")
    assert importing == []
