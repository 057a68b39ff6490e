"""Only the CLI touches files: every other module of the package computes,
and the CLI writes each artifact through its one JSON and one CSV writer."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robust_scatter"
IO_MODULES = {"csv", "json"}


def file_io(tree):
    """(line, what) for each import of csv/json and each call of open."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            mods = []
        found += [(node.lineno, f"import {m}") for m in mods if m.split(".")[0] in IO_MODULES]
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "open":
            found.append((node.lineno, "open()"))
    return found


def test_guard_sees_the_cli_io():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    kinds = {what for _, what in file_io(tree)}
    assert kinds == {"import csv", "import json", "open()"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "cli.py"))
def test_only_the_cli_does_file_io(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assert file_io(tree) == []
