"""Imports inside the package point strictly down the module stack, and no
module reaches into the private helpers of the harness or of the instance
registry."""

import ast
from pathlib import Path

import pytest

from ordermetric.instance_files import DEFAULT_INSTANCES, builtin_bundles

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordermetric"
STACK = ("order_core", "topo", "cone_metric", "contraction", "solver", "corpus",
         "instance_files", "harness", "cli")


def _relative_imports(module: str):
    """(imported module, imported names) for every ``from .x import`` in the
    module, function-level imports included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import x
                for alias in node.names:
                    yield alias.name, ()
            else:
                yield node.module, tuple(alias.name for alias in node.names)


def test_stack_lists_every_module():
    found = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert found == set(STACK)


@pytest.mark.parametrize("module", STACK)
def test_imports_point_down_the_stack(module):
    below = STACK[:STACK.index(module)]
    for target, _ in _relative_imports(module):
        assert target in below, f"{module} imports {target}, which is not below it"


def _private_imports(module: str, target: str) -> list:
    return [n for t, names in _relative_imports(module) if t == target
            for n in names if n.startswith("_")]


@pytest.mark.parametrize("module", STACK)
def test_no_private_harness_imports(module):
    private = _private_imports(module, "harness")
    assert not private, f"{module} imports private harness names {private}"


@pytest.mark.parametrize("module", STACK)
def test_no_private_instance_files_imports(module):
    private = _private_imports(module, "instance_files")
    assert not private, f"{module} imports private instance_files names {private}"


def test_the_registry_lists_its_bundles_in_order():
    assert tuple(builtin_bundles()) == DEFAULT_INSTANCES


def test_one_module_decides_the_endpoint_equivalence():
    """Only the solver's endpoint census computes the inf-sup side; the
    harness rows and the scripts read the census."""
    sources = {m: PACKAGE / f"{m}.py" for m in STACK if m != "contraction"}
    sources.update((p.name, p) for p in (PACKAGE.parent.parent / "scripts").glob("*.py"))
    importers = set()
    for name, path in sources.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(
                    a.name == "approximate_endpoint_property_finite" for a in node.names):
                importers.add(name)
    assert importers == {"solver"}


def test_one_module_builds_the_convergence_outcomes():
    """Every convergence fact, Cauchy included, takes its outcomes from
    ``topo``'s window path; no other module or script constructs them."""
    sources = {m: PACKAGE / f"{m}.py" for m in STACK}
    sources.update((p.name, p) for p in (PACKAGE.parent.parent / "scripts").glob("*.py"))
    builders = set()
    for name, path in sources.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("ConvergenceCertificate", "ConvergenceFailure"):
                    builders.add(name)
    assert builders == {"topo"}


@pytest.mark.parametrize("attr, owner", [("_distances", "cone_metric"),
                                         ("_image_positions", "contraction")])
def test_one_module_reads_each_entry_table(attr, owner):
    """The space alone reads its distance table and the map alone its image
    positions; the scans and the walk read entries through their readers."""
    sources = {m: PACKAGE / f"{m}.py" for m in STACK}
    sources.update((p.name, p) for p in (PACKAGE.parent.parent / "scripts").glob("*.py"))
    readers = set()
    for name, path in sources.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                readers.add(name)
    assert readers == {owner}
