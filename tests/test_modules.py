"""Source checks that run on every module of the package and of the tests, and on the
package names that the benchmark under perfbench/ uses."""

import ast
import importlib.util
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "aztec_tilings").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_top_level_function_or_class_is_defined_twice(path):
    # a second def of one name shadows the first, so pytest never collects a shadowed test
    names = Counter(node.name for node in ast.parse(path.read_text(), str(path)).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    assert not [name for name, n in names.items() if n > 1]


def _is_empty_container(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and not value.args and not value.keywords
            and ast.unparse(value.func) in {"dict", "list", "set", "defaultdict", "Counter"})


def _module_stores(tree: ast.Module) -> list[str]:
    """Module-level names a function can fill: bound to an empty container, declared
    global, or written by subscript or by an in-place method inside a function."""
    bound = {}
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if isinstance(target, ast.Name):
            bound[target.id] = node.value
    stores = [name for name, value in bound.items() if _is_empty_container(value)]
    for fn in (node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))):
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                stores += node.names
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                stores.append(getattr(node.value, "id", None))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                    node.func.attr in {"append", "add", "update", "setdefault", "extend", "insert"}):
                stores.append(getattr(node.func.value, "id", None))
    return [name for name in stores if name in bound]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_count_outlives_the_run_that_made_it(path):
    # A count is kept only in a run's own ledger, made by the run and dropped with it:
    # no memo decorator, and no module-level store that a later run could read.
    tree = ast.parse(path.read_text(), str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"cache", "lru_cache", "cached_property"}
    assert _module_stores(tree) == []


def test_the_package_imports_exactly_the_names_it_exports():
    # A name retired from __all__ must leave the imports too, and the other way round.
    tree = ast.parse((ROOT / "src" / "aztec_tilings" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]]
    assert len(set(exported)) == len(exported)
    assert sorted(imported) == sorted(exported)


def _load_benchmark_module(monkeypatch, name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_package_name_the_benchmark_uses_still_exists(monkeypatch):
    # The benchmark's files are fixed while the package changes under them, so a retired or
    # renamed name would otherwise show only when a benchmark run fails.
    tracer, workloads = (_load_benchmark_module(monkeypatch, name) for name in ("tracer", "workloads"))
    tracer.Tracer()  # looks up every traced function; never installed, so nothing is rebound
    for source in (tracer, workloads):
        modules = {name: value for name, value in vars(source).items()
                   if isinstance(value, types.ModuleType) and value.__name__.startswith("aztec_tilings.")}
        for node in ast.walk(ast.parse(Path(source.__file__).read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
    assert callable(tracer.grids.normalize) and callable(workloads.EmbeddedGraph.point_pairs)
    for name, jobs in workloads.WORKLOADS.items():
        assert jobs(1), f"{name} builds no job for seed 1"
