"""Package-wide guards: the bench tracer's targets exist, and no module
imports a name it does not use.

bench/tracing.py wraps heistri functions by module and attribute name and
silently drops a metric whose target is gone; its smoke test is not part
of this suite, so the names are checked here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heistri"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()
TRACED = {**TRACING.SPANS, **TRACING.COUNTS}


@pytest.mark.parametrize("metric", sorted(TRACED))
def test_traced_name_resolves(metric):
    module_name, path = TRACED[metric]
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # the tracer wraps methods through the class dict, functions through module globals
    found = owner.__dict__.get(attr) if classes else getattr(owner, attr, None)
    assert callable(found), f"{metric}: {module_name}.{path} is gone"


def names_used(tree: ast.AST) -> set:
    """Every bare name the module reads, in code, in quoted annotations and in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in filter(None, (getattr(node, "annotation", None), getattr(node, "returns", None))):
            for sub in ast.walk(note):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= names_used(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return used


def names_imported(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((PACKAGE / path).read_text())
    assert sorted(names_imported(tree) - names_used(tree)) == []
