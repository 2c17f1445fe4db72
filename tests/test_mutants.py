"""The mutation audit's inputs stay true to the source: tests/mutants.py
lists every raise in the package, and each allowlist entry names a raise
that still exists, with a reason."""

import ast
import subprocess
import sys
import time
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_list_names_every_raise_quickly():
    raises = {
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "hmgie").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
    }
    started = time.monotonic()
    listed = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutants.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert time.monotonic() - started < 1.0
    assert len(listed) == len(raises)
    assert {line.split(" ", 1)[0] for line in listed} == raises


def test_each_allowlist_entry_names_a_raise_with_a_reason():
    keys = {site.key for site in mutants.raise_sites()}
    entries = mutants.load_allowlist()
    named = [(entry["file"], entry["function"], entry["exception"]) for entry in entries]
    assert len(set(named)) == len(named)
    assert [key for key in named if key not in keys] == []
    for entry in entries:
        assert entry["reason"].strip() and "\n" not in entry["reason"]
