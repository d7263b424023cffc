"""One function in the package opens files for writing, so that every
output follows the rule of `perturb._writing`; a second write path fails
here instead of disagreeing with it on symlinks, FIFOs or file modes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scalelaws"
WRITER = ("perturb.py", "_writing")


def writes(call: ast.Call) -> bool:
    """Whether `call` may open a file for writing: a `write_text` or
    `write_bytes` call, or an `open` whose mode (or `os.open`'s flags) is
    not a string constant free of w, x, a and +."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode), io.open(path, mode) and os.open(path, flags) take
    # the path first; a method such as Path.open(mode) does not.
    method = isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id in ("io", "os"))
    modes = [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
    mode = (modes or call.args[0 if method else 1:] or [None])[0]
    if mode is None:  # the default mode reads
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def writing_functions() -> set[tuple[str, str]]:
    """(file, innermost enclosing function) of every call in the package
    that may open a file for writing; "<module>" outside any function."""
    found = set()

    def visit(node: ast.AST, owner: str, source: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, source)
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.add((source, owner))
            visit(child, owner, source)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8"), filename=str(source)),
              "<module>", source.name)
    return found


def test_only_the_writer_opens_files_for_writing():
    assert writing_functions() == {WRITER}


@pytest.mark.parametrize("code, expected", [
    ("open(p, 'wb')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'r+')", True),
    ("open(p, mode)", True),
    ("io.open(p, 'x')", True),
    ("os.open(p, os.O_WRONLY)", True),
    ("Path(p).open('w')", True),
    ("Path(p).write_text(t)", True),
    ("p.write_bytes(b)", True),
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("open(p, encoding='utf-8')", False),
    ("Path(p).open()", False),
    ("Path(p).open('rb')", False),
])
def test_write_calls_are_recognised(code, expected):
    assert writes(ast.parse(code, mode="eval").body) is expected
