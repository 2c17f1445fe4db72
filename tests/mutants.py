#!/usr/bin/env python3
"""Mutation audit of every ``raise`` in ``src/hmgie``.

Each ``raise`` statement is one mutant: the statement is replaced with
``pass``. A test that fails on the mutant kills it; a mutant that every
test passes survives, which means no test tells the check from its
absence. The audit runs in five steps, stdlib only, in a temporary copy of
the tree:

1. list every ``raise`` with ``ast``;
2. run tier-1 once without a mutant, which must pass;
3. run ``tests/`` once under a ``sys.settrace`` line trace, which maps each
   raise to the tests that execute its line;
4. apply each mutant and run the tests that reach it; a run past
   ``TIMEOUT`` counts as killed and is reported as ``timeout``;
5. run all of tier-1 against each mutant that survived its mapped tests.

It writes a JSON table of site, status and killing test to
``.mutants_out/mutants.json``. A survivor whose (file, enclosing function,
exception) is in ``tests/mutants_allowlist.json`` is reported as
``allowed``; any other survivor makes the exit status 1.

    python tests/mutants.py                 # the whole audit
    python tests/mutants.py --list          # the sites, one a line

The working tree is never written, apart from the table. Tier-1 does not
collect this file; ``tests/test_mutants.py`` checks the allowlist against
the sites.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "hmgie"
ALLOWLIST = ROOT / "tests" / "mutants_allowlist.json"
OUT = ROOT / ".mutants_out" / "mutants.json"  # the table; git ignores the directory
TIMEOUT = 300.0  # seconds one test run may take before it counts as killed
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# Copying these would only cost time, and .git would cost much of it.
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".bench_out", ".mutants_out", ".hypothesis", ".pytest_cache",
    ".benchmarks",
)
_MEMORY_LIMIT = 3 << 30  # address space per test run, so a mutant that loops cannot eat the host
_TRACE_ENV = "HMGIE_MUTANTS_TRACE"  # the trace pass's output file


class Site(NamedTuple):
    """One ``raise`` statement: where it is, and its allowlist key."""

    file: str  # relative to src/hmgie
    line: int
    end_line: int
    col: int
    end_col: int
    function: str  # dotted enclosing classes and functions, "" at module level
    exception: str  # the raised class or expression; "raise" for a bare re-raise

    @property
    def name(self) -> str:
        return f"{self.file}:{self.line}"

    @property
    def key(self) -> tuple[str, str, str]:
        return self.file, self.function, self.exception


def raise_sites(package: Path = ROOT / PACKAGE) -> list[Site]:
    """Every ``raise`` statement under ``package``, in file and line order."""
    sites = []
    for path in sorted(package.glob("*.py")):

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                elif isinstance(child, ast.Raise):
                    exc = child.exc
                    if exc is None:
                        exception = "raise"
                    else:
                        exception = ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)
                    sites.append(
                        Site(path.name, child.lineno, child.end_lineno, child.col_offset,
                             child.end_col_offset, scope, exception)
                    )
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


def mutate(source: str, site: Site) -> str:
    """``source`` with the raise at ``site`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    first, last = lines[site.line - 1], lines[site.end_line - 1]
    lines[site.line - 1 : site.end_line] = [first[: site.col] + "pass" + last[site.end_col :]]
    return "".join(lines)


def load_allowlist(path: Path = ALLOWLIST) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


# --- the trace pass, run inside pytest as a plugin (-p mutants) ------------

_hits: dict[str, set[str]] = {}
_current = [""]


def pytest_configure(config) -> None:
    if _TRACE_ENV not in os.environ:
        return
    package = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]) / "hmgie"
    by_file: dict[str, dict[int, str]] = {}
    for site in raise_sites(package):
        lines = by_file.setdefault(str(package / site.file), {})
        for line in range(site.line, site.end_line + 1):
            lines[line] = site.name

    # Only a function whose own lines hold a raise is traced line by line.
    own_lines: dict = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in own_lines:
            in_file = by_file.get(code.co_filename)
            own_lines[code] = in_file and {
                line: in_file[line] for _, _, line in code.co_lines() if line in in_file
            }
        lines = own_lines[code]
        if not lines:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                _hits.setdefault(lines[frame.f_lineno], set()).add(_current[0])
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)


def pytest_runtest_logstart(nodeid, location) -> None:
    _current[0] = nodeid


def pytest_unconfigure(config) -> None:
    if _TRACE_ENV not in os.environ:
        return
    sys.settrace(None)
    threading.settrace(None)
    hits = {name: sorted(tests) for name, tests in _hits.items()}
    Path(os.environ[_TRACE_ENV]).write_text(json.dumps(hits), encoding="utf-8")


# --- the driver --------------------------------------------------------------


class Outcome(NamedTuple):
    status: str  # "passed", "failed", "timeout" or "error"
    test: Optional[str]  # the first failing test, when one failed
    seconds: float


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def _pytest(tree: Path, args: list[str], timeout: float, env: Optional[dict] = None) -> Outcome:
    """Run pytest in ``tree``, its own process group, under ``timeout``."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",  # a same-size mutant in the same second loads a stale .pyc
        **(env or {}),
    }
    command = [sys.executable, *args, "-p", "no:cacheprovider", "-rfE"]
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, errors="replace", start_new_session=True, preexec_fn=_limit_memory,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return Outcome("timeout", None, time.monotonic() - started)
    seconds = time.monotonic() - started
    failing = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if process.returncode == 0:
        return Outcome("passed", None, seconds)
    if process.returncode in (1, 2) and failing:
        return Outcome("failed", failing[0], seconds)
    tail = "\n".join(output.splitlines()[-5:])
    return Outcome("error", f"exit {process.returncode}: {tail}", seconds)


def _allowed(site: Site, allowlist: list[dict]) -> Optional[str]:
    for entry in allowlist:
        if (entry["file"], entry["function"], entry["exception"]) == site.key:
            return entry["reason"]
    return None


def audit(sites: list[Site], tree: Path, log) -> list[dict]:
    """Each site's row of the table, mutated in ``tree``."""
    control = _pytest(tree, [*TIER1, "-x"], TIMEOUT)
    if control.status != "passed":
        raise SystemExit(f"tier-1 fails without a mutant: {control.test}")
    log(f"tier-1 passes without a mutant ({control.seconds:.0f} s); tracing tests/ ...")
    # The trace slows each call about threefold, so a test with a time budget
    # may fail under it; what it ran is still recorded.
    trace_file = tree / "trace.json"
    pythonpath = f"{tree / 'src'}{os.pathsep}{tree / 'tests'}"  # src first: the plugin reads it
    traced = _pytest(
        tree, [*TIER1, "tests", "-p", "mutants"], timeout=3600,
        env={_TRACE_ENV: str(trace_file), "PYTHONPATH": pythonpath},
    )
    if traced.status not in ("passed", "failed"):
        raise SystemExit(f"the trace pass did not finish: {traced.status} {traced.test}")
    hits = json.loads(trace_file.read_text(encoding="utf-8"))
    log(f"  {traced.seconds:.0f} s; {sum(s.name in hits for s in sites)} of {len(sites)} sites "
        f"reached; first test failing under the trace: {traced.test}")
    allowlist = load_allowlist(tree / "tests" / "mutants_allowlist.json")
    rows = []
    for index, site in enumerate(sites, start=1):
        path = tree / PACKAGE / site.file
        original = path.read_text(encoding="utf-8")
        path.write_text(mutate(original, site), encoding="utf-8")
        try:
            tests = hits.get(site.name, [])
            outcome = Outcome("passed", None, 0.0)
            if tests:
                outcome = _pytest(tree, [*TIER1[:3], "-x", *tests], TIMEOUT)
            stage = "mapped"
            if outcome.status == "passed":  # confirm against the whole of tier-1
                stage = "tier-1"
                outcome = _pytest(tree, [*TIER1, "-x"], TIMEOUT)
        finally:
            path.write_text(original, encoding="utf-8")
        status = {"failed": "killed", "passed": "survived"}.get(outcome.status, outcome.status)
        reason = _allowed(site, allowlist) if status == "survived" else None
        if reason is not None:
            status = "allowed"
        rows.append(
            {
                "site": site.name,
                "function": site.function,
                "exception": site.exception,
                "status": status,
                "stage": stage,
                "killed_by": outcome.test if status != "error" else None,
                "error": outcome.test if status == "error" else None,
                "reason": reason,
                "tests_reaching": len(tests),
                "seconds": round(outcome.seconds, 1),
            }
        )
        log(f"[{index}/{len(sites)}] {site.name} {site.function} {status} "
            f"({stage}, {len(tests)} tests, {outcome.seconds:.1f} s)")
    return rows


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the raise sites and stop")
    args = parser.parse_args(argv)
    sites = raise_sites()
    if args.list:
        for site in sites:
            print(f"{site.name} {site.function or '<module>'} {site.exception}")
        return 0

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="hmgie-mutants-") as scratch:
        tree = Path(scratch).resolve() / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        rows = audit(sites, tree, lambda text: print(text, flush=True))
    minutes = (time.monotonic() - started) / 60
    counts = Counter(row["status"] for row in rows)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps({"sites": len(rows), "counts": counts, "minutes": round(minutes, 1),
                    "rows": rows}, indent=2) + "\n",
        encoding="utf-8",
    )
    bad = [row for row in rows if row["status"] in ("survived", "error")]
    print(f"{len(rows)} sites in {minutes:.1f} min: "
          + ", ".join(f"{n} {status}" for status, n in sorted(counts.items())))
    for row in bad:
        print(f"  {row['status']}: {row['site']} {row['function']} {row['exception']}")
    print(f"table: {OUT}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
