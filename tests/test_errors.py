"""The package's error taxonomy, read from the source with ``ast``.

An error class earns its place in ``errors.py`` only when a caller catches
it by type or an artifact names it (``summary.json`` rows, forge ``errors``,
the benchmark's failure counts); other package guards raise
``SchemaViolationError`` with their own message (argument-shape checks may
raise ``ValueError``).
"""

import ast
import builtins
from pathlib import Path

import hmgie

PACKAGE = Path(hmgie.__file__).parent

# Each class errors.py defines, with its parent.
TAXONOMY = {
    # caught by type
    "HmgieError": "Exception",
    "MalformedOutputError": "HmgieError",
    "SchemaViolationError": "HmgieError",
    "EmptyBatchError": "HmgieError",
    "GatewayError": "HmgieError",
    "TransientBackendError": "GatewayError",
    # named in artifacts
    "GraphGenFailedError": "HmgieError",
    "EmptyHiegError": "HmgieError",
    "ExhaustedError": "GatewayError",
    "FixtureMissingError": "ExhaustedError",
    "AuthError": "GatewayError",
    "AllCaptionersFailedError": "HmgieError",
    "ForgeError": "HmgieError",
}

# The CLI's own usage error: raised and caught inside cli.main, it maps to
# exit code 64 and never reaches a library caller.
CLI_ONLY = {"cli.py": {"UsageError"}}


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_errors_module_defines_exactly_the_taxonomy():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {
        node.name: [_name(base) for base in node.bases]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    assert classes == {name: [parent] for name, parent in TAXONOMY.items()}


def test_no_other_module_defines_an_exception():
    defined = {}
    for module, tree in _trees():
        if module == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                _name(base) in TAXONOMY or _is_builtin_exception(_name(base))
                for base in node.bases
            ):
                defined.setdefault(module, set()).add(node.name)
    assert defined == CLI_ONLY


def test_every_raise_names_a_package_error_or_a_builtin():
    unknown = []
    for module, tree in _trees():
        allowed = set(TAXONOMY) | CLI_ONLY.get(module, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = _name(node.exc.func)
                if name not in allowed and not _is_builtin_exception(name):
                    unknown.append(f"{module}:{node.lineno} {name}")
    assert unknown == []
