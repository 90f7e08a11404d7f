"""Static guard: only the command-line front end may import the cache.

The cache is written for export and never read back, so no library module
needs it; this keeps new readers out while the writer remains."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "divconv"
ALLOWED = {"cli.py"}


def cache_imports(source: str) -> list[str]:
    """Each import of divconv's cache module in a divconv source file, as
    'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "divconv.cache"]
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in (".cache", "divconv.cache"):
                found.append(f"{node.lineno}: from {package}")
            elif package in (".", "divconv"):
                found += [f"{node.lineno}: from {package} import cache" for a in node.names if a.name == "cache"]
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in ALLOWED),
    ids=lambda p: p.name,
)
def test_only_cli_imports_cache(path):
    assert cache_imports(path.read_text()) == []


def test_cache_guard_sees_each_form():
    source = "\n".join([
        "from .cache import Cache",
        "from . import cache, eta",
        "import divconv.cache",
        "from divconv.cache import encode_rational",
        "from divconv import cache as c",
        "from .spaces import cache_note",
        "import functools",
    ])
    assert cache_imports(source) == [
        "1: from .cache",
        "2: from . import cache",
        "3: import divconv.cache",
        "4: from divconv.cache",
        "5: from divconv import cache",
    ]
