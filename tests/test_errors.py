"""Result guards raise typed errors, which ``python -O`` keeps."""

import ast
from pathlib import Path

import lightcone

SRC = Path(lightcone.__file__).resolve().parent


def _bare_guards(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno} assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno} raise AssertionError")
    return found


def test_no_assert_in_library():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _bare_guards(path)]
    assert found == []


def test_scanner_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert len(_bare_guards(probe)) == 3
