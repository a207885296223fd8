"""The package's modules form one stack of imports:

perms -> diagrams, intervals -> polynomials, duality -> partition -> classes
-> verify, cli

Read from the source with ``ast``, so a cycle or a function-level import
shows up here before it shows up as an import-order failure."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "odd_diagrams"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules one statement imports: none unless it is an
    import statement."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{PACKAGE.name}.{node.module or alias.name}" for alias in node.names]
    else:
        return set()
    prefix = PACKAGE.name + "."
    return {name[len(prefix):].split(".")[0] for name in names
            if name.startswith(prefix)} & set(MODULES)


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imports(module: str) -> set[str]:
    """The package modules ``module`` imports at its top level."""
    return set().union(*map(_package_imports, _tree(module).body))


def test_every_import_form_is_read():
    source = ("from .classes import census\nfrom . import cli as c\nimport odd_diagrams.verify\n"
              "from odd_diagrams import perms\nimport multiprocessing\nx = 1\n")
    found = [_package_imports(node) for node in ast.parse(source).body]
    assert found == [{"classes"}, {"cli"}, {"verify"}, {"perms"}, set(), set()]
    assert _imports("duality") == {"intervals", "perms"}


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    nested = [
        (fn.name, sorted(_package_imports(node)))
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _package_imports(node)
    ]
    assert nested == []


def test_the_imports_between_modules_are_acyclic():
    graph = {module: _imports(module) for module in MODULES}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")
    assert order.index("perms") < order.index("classes") < order.index("cli")


@pytest.mark.parametrize("module", ["intervals", "polynomials", "duality"])
def test_interval_layers_know_nothing_of_classes(module):
    assert not _imports(module) & {"classes", "verify", "cli"}
