"""The library names the benchmark scripts use exist, so that deleting one
of them fails here instead of in a benchmark run."""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def used_names() -> set[tuple[str, str]]:
    """(module, name) for every `from scalelaws... import name` and every
    attribute read off a module bound by `import scalelaws [as alias]`."""
    names = set()
    for script in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
        nodes = list(ast.walk(tree))
        aliases = {alias.asname or alias.name for node in nodes if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "scalelaws"}
        for node in nodes:
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "scalelaws"):
                names.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                names.add(("scalelaws", node.attr))
    return names


def test_every_library_name_the_benchmarks_use_exists():
    names = used_names()
    assert len(names) >= 40  # the scripts were found and parsed
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []
