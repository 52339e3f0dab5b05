"""Every name a module imports is used in that module: the modules of the
package, of the tests and of the benchmark (which this test only reads).

The package's `__init__.py` re-exports by importing, and `from __future__`
imports are directives, so both are skipped; an import line marked
`# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

import posscore

PACKAGE = Path(posscore.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    p for folder in ("tests", "perfbench") for p in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterable, Sequence\n"
        "from .core import bleu_n  # noqa: F401\n"
        "def f(x: Sequence) -> Iterable:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["line 2: os"]
