import ast
import importlib
import pkgutil
from pathlib import Path

import spinbars
from spinbars import algnum, barcomb, blocks, isometry, spinchar, zverify


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = []
    for path in sorted(Path(spinbars.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_odd_prime_refusal_is_written_once():
    # every entry that takes p refuses it through barcomb.require_prime
    found = []
    for path in sorted(Path(spinbars.__file__).parent.glob("*.py")):
        found += [path.name] * path.read_text().count("must be an odd prime")
    assert found == ["barcomb.py"]


PUBLIC_NAMES = {
    "AlgNum", "BarPartition", "BarQuotient", "BlockId", "IsometrySpec", "Kernel", "LocalLabel", "Partition",
    "SpinLabel", "SplitClass", "UnsupportedTargetError", "ValueMatrix", "VerificationReport",
    "bar_core_quotient", "bar_partitions", "basic_set", "basic_set_transport", "block_kernel", "block_members",
    "block_partition", "brauer_count", "broue_check", "char_value", "delta_bar", "identity_iso", "is_bar_core",
    "iso_I", "kernel_of", "labels", "local_basic_labels", "local_side", "partitions", "perfect_check",
    "restricted_matrix", "sigma", "split_classes", "swap_J", "swap_reports", "verify_basic_set", "z_span_equal",
}


def test_public_names_resolve_once():
    # a name left in __all__ after its function moved breaks `from spinbars import *`
    assert len(spinbars.__all__) == len(set(spinbars.__all__))
    assert set(spinbars.__all__) == PUBLIC_NAMES
    assert [name for name in spinbars.__all__ if not hasattr(spinbars, name)] == []
    # each name is declared once, by the module that defines it; the CLI's names stay out
    owners = {}
    for info in pkgutil.iter_modules(spinbars.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"spinbars.{info.name}")
        for name in module.__all__:
            owners.setdefault(name, []).append(info.name)
            assert getattr(module, name).__module__ == module.__name__, (info.name, name)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}
    assert set(owners) == PUBLIC_NAMES


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


def test_value_arithmetic_lives_in_the_oracles():
    # AlgNum is the value type char_value returns; its arithmetic, rational
    # helpers, JSON form and the linear lookups live in tests/oracles.py, as
    # do the maps that only check a certificate and that no command runs
    moved = [
        (algnum.AlgNum, (
            "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
            "conjugate", "from_rational", "sqrt_int", "i_power", "is_rational", "as_rational", "terms", "is_zero",
            "to_json",
        )),
        (algnum, ("ZERO", "ONE", "I", "_coerce")),
        (zverify.ValueMatrix, ("row",)),
        (isometry.IsometrySpec, ("image",)),
        (barcomb, ("_pair_from_partition", "from_core_quotient", "doubling", "partition_core_quotient")),
        (blocks, ("block_of",)),
        (spinchar, ("epsilon_twist", "degree", "half_coefficients")),
    ]
    assert [(obj.__name__, name) for obj, names in moved for name in names if hasattr(obj, name)] == []
