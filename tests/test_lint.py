"""Repo lint guards enforced as tests.

Library code must not print: human-readable output belongs to the CLI
(``src/repro/cli.py``), everything else reports through return values,
``RunContext`` counters/spans, or stdlib logging. Neither library code nor
the tests may import what they never use. CI enforces both with ruff
(``T20`` flake8-print on ``src``, ``F401`` unused imports on ``src`` and
``tests``); these tests keep them binding for plain ``pytest`` runs too.
Tests may print, so the print guard stays library-only.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"

#: the one module allowed to talk to humans on stdout
ALLOWED = {SRC / "cli.py"}


def _print_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("print", "pprint")
        ):
            yield node.lineno


def test_no_print_in_library_code():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        offenders.extend(
            f"{path.relative_to(TESTS.parent)}:{line}"
            for line in _print_calls(path)
        )
    assert not offenders, (
        "print() in library code (use repro.obs logging or return values; "
        "human output belongs in cli.py): " + ", ".join(offenders)
    )


def _annotation_names(node):
    """Names read by an annotation, quoted parts included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def _used_names(tree):
    """Every name the module reads, ``__all__`` entries included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return used


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = _used_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            comment = lines[line - 1].partition("#")[2]
            if "noqa" in comment and ("F401" in comment or ":" not in comment):
                continue
            if isinstance(node, ast.ImportFrom) and alias.asname == alias.name:
                continue  # ``from m import x as x``: an explicit re-export
            bound = alias.asname or alias.name.partition(".")[0]
            if bound != "*" and bound not in used:
                yield line, bound


def _unused_imports_under(root):
    return [
        f"{path.relative_to(TESTS.parent)}:{line} {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in _unused_imports(path)
    ]


def test_no_unused_imports_in_library_code():
    offenders = _unused_imports_under(SRC)
    assert not offenders, "unused imports (ruff F401): " + ", ".join(offenders)


def test_no_unused_imports_in_tests():
    offenders = _unused_imports_under(TESTS)
    assert not offenders, "unused imports (ruff F401): " + ", ".join(offenders)
