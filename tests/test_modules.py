"""Source checks that run on every module of the package and of the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "aztec_tilings").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_top_level_function_or_class_is_defined_twice(path):
    # a second def of one name shadows the first, so pytest never collects a shadowed test
    names = Counter(node.name for node in ast.parse(path.read_text(), str(path)).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    assert not [name for name, n in names.items() if n > 1]
