"""Static guard for the rule that divconv computes without floats."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "divconv"
FLOAT_CALLS = {"float", "complex", "round"}
INTEGER_MATH = {"gcd", "lcm", "comb", "isqrt", "prod", "ceil"}


def float_uses(source: str) -> list[str]:
    """Each float or complex literal, call of float/complex/round and math
    name outside INTEGER_MATH in the source, as 'line: what'."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.Import)]
    math_names = {a.asname or a.name for n in imports for a in n.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in FLOAT_CALLS:
            found.append(f"{node.lineno}: call of {node.func.id}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in INTEGER_MATH]
            found += [f"{node.lineno}: math.{name}" for name in bad]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floats_in_source(path):
    assert float_uses(path.read_text()) == []


def test_float_guard_sees_each_form():
    source = "\n".join([
        "import math as m",
        "from math import gcd, sqrt",
        "x = 0.5 + 2j",
        "y = float(1) + round(x) + complex(1)",
        "z = m.log(2) + m.isqrt(4)",
    ])
    assert sorted(float_uses(source)) == [
        "2: math.sqrt",
        "3: literal 0.5",
        "3: literal 2j",
        "4: call of complex",
        "4: call of float",
        "4: call of round",
        "5: math.log",
    ]


# the layers whose data are integers: eta/Eisenstein series, the searches,
# the bases and the representation counts
INTEGER_LAYERS = ["arith", "qseries", "search", "spaces", "representation"]


def fraction_imports(source: str) -> list[str]:
    """Each import of the fractions module in the source, as 'line: import'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"{node.lineno}: from fractions")
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append(f"{node.lineno}: import fractions")
    return found


@pytest.mark.parametrize("name", INTEGER_LAYERS)
def test_integer_layers_import_no_fractions(name):
    assert fraction_imports((SRC / f"{name}.py").read_text()) == []


def test_fraction_guard_sees_each_form():
    source = "import os, fractions\nfrom fractions import Fraction\nimport fractionsx\n"
    assert fraction_imports(source) == ["1: import fractions", "2: from fractions"]
