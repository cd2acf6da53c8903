"""The names the benchmark and the demos take from metafew resolve, so a
deletion that drops one fails here instead of in a traced benchmark run or
a demo. The sources are parsed, never run."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _traced() -> dict:
    for node in _tree(ROOT / "bench" / "tracing.py").body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED literal")


def bench_names() -> set[tuple[str, str]]:
    """(module, name) for every function tracing rebinds by name, the
    learner factory it wraps, and every name a bench file imports from a
    metafew module or reads off one it imported."""
    names = {(mod, fn) for mod, fns in _traced().items() for fn in fns}
    names.add(("learners", "make_learner"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        modules = set()
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "metafew":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.startswith("metafew.")):
                names.update((node.module.split(".", 1)[1], alias.name)
                             for alias in node.names)
        names.update((node.value.id, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in modules)
    return names


def demo_names() -> set[tuple[str, str]]:
    """(demo file, name) for every `from metafew import ...` in demos/."""
    return {(path.name, alias.name)
            for path in sorted((ROOT / "demos").glob("*.py"))
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.ImportFrom) and node.module == "metafew"
            for alias in node.names}


def test_every_name_the_bench_needs_resolves():
    names = bench_names()
    assert ("ioutil", "default_workers") in names  # read from bench/run.py
    missing = [f"metafew.{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"metafew.{module}"), name)]
    assert not missing


def test_every_demo_import_resolves():
    names = demo_names()
    assert names
    package = importlib.import_module("metafew")
    missing = [f"{demo}: {name}" for demo, name in sorted(names)
               if not hasattr(package, name)]
    assert not missing
