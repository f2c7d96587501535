import ast
import importlib
from pathlib import Path

import spinbars


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = []
    for path in sorted(Path(spinbars.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_resolve_once():
    # a name left in __all__ after its function moved breaks `from spinbars import *`
    assert len(spinbars.__all__) == len(set(spinbars.__all__))
    assert [name for name in spinbars.__all__ if not hasattr(spinbars, name)] == []


def _unbounded_cache(node) -> bool:
    """Whether a decorator is functools.cache or lru_cache with maxsize None."""
    name = node.func if isinstance(node, ast.Call) else node
    name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False
    args = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(a, ast.Constant) and a.value is None for a in args)


def test_caches_are_bounded():
    # an unbounded cache grows for the life of the process with every new input
    found = []
    for path in sorted(Path(spinbars.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{d.lineno}" for d in node.decorator_list if _unbounded_cache(d)]
    assert found == []


def test_traced_names_exist():
    # the benchmark's tracer wraps these functions by name; a deleted or
    # renamed one breaks the benchmark run, not any other test
    tracer = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, names in ast.literal_eval(spans).items()
        for name in names
        if not hasattr(importlib.import_module(f"spinbars.{module}"), name)
    ]
    assert missing == []
