"""The package's modules form one stack of imports:

perms -> diagrams, intervals -> polynomials, duality -> partition -> classes
-> verify, cli

Read from the source with ``ast``, so a cycle or a function-level import
shows up here before it shows up as an import-order failure."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odd_diagrams"
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


def _import_bindings(node: ast.stmt) -> list[str]:
    """The names a top-level import statement binds, none for ``from
    __future__`` or any other statement."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names the module's own statements bind: imports, functions,
    classes and assignments."""
    names = set()
    for node in tree.body:
        names.update(_import_bindings(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name))
    return names


def _literal(tree: ast.Module, name: str, default):
    """The literal value the module's top level assigns to ``name``, or
    ``default`` if it assigns none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    return default


def _exported(tree: ast.Module) -> list[str]:
    """The strings in the module's ``__all__``, [] if it has none."""
    return _literal(tree, "__all__", [])


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports that nothing in it
    reads, counting a name listed in ``__all__`` as read."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_exported(tree))
    return [name for node in tree.body for name in _import_bindings(node) if name not in read]


def test_the_import_lint_finds_a_leftover_name():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from .perms import FrozenRecord, Perm, length\n"
              "__all__ = ['f']\ndef f(w: Perm) -> str:\n    return os.path.join(j.dumps(w))\n")
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["FrozenRecord", "length"]
    assert _top_level_names(tree) >= {"os", "j", "Perm", "f", "__all__"}
    assert _exported(ast.parse("x = 1\n")) == []


@pytest.mark.parametrize("module", [module for module in MODULES if module != "__init__"])
def test_every_top_level_import_is_used(module):
    # ``__init__`` imports its names to re-export them
    assert _unused_imports(_tree(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    tree = _tree(module)
    assert [name for name in _exported(tree) if name not in _top_level_names(tree)] == []


# --- every re-export of the package is read by the program ---

# re-exports that no package module, benchmark workload or traced metric
# reads, each with the reason it stays
LIBRARY_ONLY = {
    "make_permutation": "validates a permutation given from outside the package",
}


def _reexports(init: ast.Module) -> dict[str, str]:
    """The names ``__init__`` re-exports, each with the module it takes it from."""
    return {alias.asname or alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def _reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every name of a package module that this module
    imports by name or reads as ``module.name``."""
    reads, modules = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    reads.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    reads.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules)
    return reads


def _unread_reexports(init: ast.Module, modules: list[ast.Module], workloads: ast.Module,
                      tracing: ast.Module) -> list[str]:
    """The re-exports of ``init`` that no module of ``modules`` reads, that
    the benchmark ``workloads`` call as no ``od.<name>``, that the
    ``tracing`` ``METRICS`` name as no function, and that ``LIBRARY_ONLY``
    does not list."""
    read = set().union(*map(_reads, modules))
    # a function's metrics are named layer.function.measure
    read.update(tuple(metric.split(".")[:2]) for metric, _ in _literal(tracing, "METRICS", ()))
    benched = {node.attr for node in ast.walk(workloads)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "od"}
    return [name for name, module in _reexports(init).items()
            if (module, name) not in read and name not in benched and name not in LIBRARY_ONLY]


def test_every_reexport_is_read_by_the_program():
    modules = [_tree(module) for module in MODULES if module != "__init__"]
    found = _unread_reexports(_tree("__init__"), modules,
                              ast.parse((ROOT / "perfbench" / "workloads.py").read_text()),
                              ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    assert found == []


def test_the_reexport_lint_finds_an_unread_name():
    init = ast.parse("from .perms import length, make_permutation, unread, shadow\n"
                     "from .cli import main\nfrom .partition import decompose, factorize\n")
    modules = [ast.parse("from .perms import length\nfrom . import partition as p\n"
                         "p.decompose\nshadow = 1\n")]
    workloads = ast.parse("od.main()\nod.shadow\nunread()\n")
    tracing = ast.parse("METRICS = (('partition.factorize.calls', 'count'),)\n")
    assert _unread_reexports(init, modules, workloads, tracing) == ["unread"]
    assert _unread_reexports(init, modules, ast.parse(""), tracing) == ["unread", "shadow", "main"]
