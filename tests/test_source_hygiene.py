"""Source hygiene of the package, checked with ``ast`` (no linter needed).

Two rules, each over every module of ``folner_entropy``:

- no relative import inside a function body (module-level imports keep
  the dependency graph visible, and none of them closes a cycle);
- no module-level imported name left unused in its module.

``__init__.py`` only re-exports, so its names are exempt from the
second rule. Instead ``__all__`` must list each name it imports, plus
``__version__``, exactly once, so a deleted name cannot stay exported.
A third rule keeps every export reached: each name in ``__all__`` but
``__version__`` must be referenced by package code outside
``__init__.py`` or by the benchmark (``perfbench/*.py``), whose tracer
names its targets by dotted strings. A fourth rule imports each
private name (leading underscore) from the module that defines it, not
from a module that only re-imports it. A fifth rule keeps walk state
visible: no module imports ``contextvars``, so a chain's walk record
travels with the system it belongs to, never through hidden
context-local state. A sixth rule keeps the report envelope in one
place: in ``cli.py`` no dict literal outside ``_finish`` has a
``"schema"`` or ``"task"`` key, so every report gets both from there. A
seventh rule keeps each per-kind rule in its system class: outside
``systems.py`` no ``isinstance`` names ``FinitePMPAction``,
``ShiftSystem`` or ``MixtureSystem``, and no ``.kind`` attribute is
compared with ``"bernoulli"`` or ``"markov"``, so adding a kind or a
per-kind rule touches one class.
"""

import ast
from pathlib import Path

import pytest

import folner_entropy

PACKAGE = Path(folner_entropy.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _function_relative_imports(tree):
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}")
    return found


def _module_imports(tree):
    """Names bound by module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "Partition" names a class too
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def _export_faults(tree, exported):
    """Names ``exported`` lists without a module-level import binding them,
    bound names it leaves out, and names it lists more than once."""
    bound = set(_module_imports(tree)) | {"__version__"}
    return {
        "dangling": sorted(set(exported) - bound),
        "unexported": sorted(bound - set(exported)),
        "repeated": sorted({n for n in exported if exported.count(n) > 1}),
    }


def _referenced_names(tree, strings=False):
    """Every ``ast.Name`` and ``ast.Attribute`` name in ``tree`` and, with
    ``strings``, the last dotted part of every string constant."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rsplit(".", 1)[-1])
    return found


def _unreferenced_exports(exported, package_trees, bench_trees):
    """Names ``exported`` lists that neither the package trees nor the
    benchmark trees (strings included) reference."""
    used = {"__version__"}
    for tree in package_trees:
        used |= _referenced_names(tree)
    for tree in bench_trees:
        used |= _referenced_names(tree, strings=True)
    return sorted(set(exported) - used)


HIDDEN_STATE_MODULES = {"contextvars"}


def _hidden_state_imports(tree):
    """``line N: module`` for each import, anywhere in ``tree``, of a
    module in ``HIDDEN_STATE_MODULES``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {module}"
            for module in modules
            if module.split(".")[0] in HIDDEN_STATE_MODULES
        ]
    return found


ENVELOPE_KEYS = {"schema", "task"}


def _envelope_dicts(tree, home="_finish"):
    """``line N`` for each dict literal in ``tree`` with a key in
    ``ENVELOPE_KEYS`` that lies outside the function named ``home``."""
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == home:
            inside |= {id(node) for node in ast.walk(fn)}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and id(node) not in inside
        and any(isinstance(key, ast.Constant) and key.value in ENVELOPE_KEYS for key in node.keys)
    ]
    return [f"line {n}" for n in sorted(lines)]


SYSTEM_CLASSES = {"FinitePMPAction", "ShiftSystem", "MixtureSystem"}
SHIFT_KINDS = {"bernoulli", "markov"}


def _system_kind_tests(tree):
    """``line N: isinstance`` for each ``isinstance`` call in ``tree`` whose
    class argument names a class of ``SYSTEM_CLASSES`` (bare, dotted or in
    a tuple), and ``line N: .kind`` for each comparison of a ``.kind``
    attribute with a string of ``SHIFT_KINDS``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {n.id for n in ast.walk(node.args[-1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[-1]) if isinstance(n, ast.Attribute)}
            if named & SYSTEM_CLASSES:
                found.append((node.lineno, "isinstance"))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            kind = any(isinstance(side, ast.Attribute) and side.attr == "kind" for side in sides)
            strings = {n.value for side in sides for n in ast.walk(side) if isinstance(n, ast.Constant)}
            if kind and strings & SHIFT_KINDS:
                found.append((node.lineno, ".kind"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def _defined_names(tree):
    """Names a module binds at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _private_reimports(trees):
    """``module: name from source`` for each private name that a module of
    ``trees`` ({module name: tree}) imports relatively from a sibling
    that does not define it."""
    defined = {name: _defined_names(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in defined:
                found += [
                    f"{name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name not in defined[node.module]
                ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    assert _function_relative_imports(_tree(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {name: line for name, line in _module_imports(tree).items() if name not in used}
    assert unused == {}


def test_all_lists_each_imported_name_once():
    faults = _export_faults(_tree(PACKAGE / "__init__.py"), list(folner_entropy.__all__))
    assert faults == {"dangling": [], "unexported": [], "repeated": []}


def test_every_export_is_referenced_outside_init():
    package = [_tree(p) for p in MODULES if p.name != "__init__.py"]
    bench = [_tree(p) for p in BENCH]
    assert bench
    assert _unreferenced_exports(folner_entropy.__all__, package, bench) == []


def test_each_private_name_comes_from_its_defining_module():
    assert _private_reimports({p.stem: _tree(p) for p in MODULES}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_contextvars(path):
    assert _hidden_state_imports(_tree(path)) == []


def test_cli_writes_the_report_envelope_only_in_finish():
    assert _envelope_dicts(_tree(PACKAGE / "cli.py")) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "systems.py"], ids=lambda p: p.name
)
def test_only_systems_tests_a_system_kind(path):
    assert _system_kind_tests(_tree(path)) == []


def test_the_checks_see_both_faults():
    tree = ast.parse(
        "import os\nfrom .spaces import Partition, join\n\n"
        "def f() -> 'Partition':\n    from .engine import entropy_rate\n    return join\n"
    )
    assert _function_relative_imports(tree) == ["line 5: from .engine"]
    assert set(_module_imports(tree)) - _used_names(tree) == {"os"}


def test_the_export_check_sees_each_fault():
    exported = ["join", "join", "Partition", "__version__"]
    assert _export_faults(ast.parse("from .spaces import join, entropy\n"), exported) == {
        "dangling": ["Partition"],
        "unexported": ["entropy"],
        "repeated": ["join"],
    }


def test_the_reference_check_sees_each_kind_of_reference():
    # a call, an attribute and a benchmark string count; a string in the
    # package and a bare definition do not
    package = [ast.parse(
        "from .spaces import join\n"
        "def orphan():\n    'see engine.entropy_rate'\n"
        "x = join(a, b) + m.entropy\n"
    )]
    bench = [ast.parse("TARGETS = ['spaces.restrict', 'groups.FolnerSubset.box']\n")]
    exported = ["join", "entropy", "restrict", "box", "entropy_rate", "orphan", "__version__"]
    assert _unreferenced_exports(exported, package, bench) == ["entropy_rate", "orphan"]


def test_the_private_import_check_sees_a_reimport():
    # engine defines _rows and _LIMIT and re-imports _join; only the
    # private name taken through engine is a fault
    trees = {
        "spaces": ast.parse("def _join(a, b):\n    pass\n"),
        "engine": ast.parse(
            "from .spaces import _join\n_LIMIT: int = 3\nclass _rows:\n    pass\n"
        ),
        "suites": ast.parse("from .engine import _join, _LIMIT, _rows, entropy\n"),
    }
    assert _private_reimports(trees) == ["suites: _join from engine"]


def test_the_hidden_state_check_sees_each_import_form():
    # a plain, an aliased, a from- and a function-level import are
    # faults; a relative module of the same name is not
    tree = ast.parse(
        "import contextvars\nimport contextvars as cv\nfrom contextvars import ContextVar\n"
        "from .contextvars import x\nimport os\n\ndef f():\n    import contextvars\n"
    )
    assert _hidden_state_imports(tree) == [
        "line 1: contextvars", "line 2: contextvars", "line 3: contextvars", "line 8: contextvars",
    ]


def test_the_envelope_check_sees_a_dict_outside_finish():
    # a "task" or "schema" key in another function or at module level is
    # a fault; the one in _finish, a spread and other keys are not
    tree = ast.parse(
        "def _finish(report):\n    return {'schema': 1, 'task': 'x', **report}\n\n"
        "def cmd(cfg):\n    report = {'units': 'nats', **cfg}\n"
        "    return {'task': 'rate', 'rows': 1}\n\n"
        "ERROR = {'error': {'kind': 'cap'}, 'schema': 1}\n"
    )
    assert _envelope_dicts(tree) == ["line 6", "line 8"]


def test_the_system_kind_check_sees_each_form():
    # a bare, a dotted and a tupled class, a generator's test and a .kind
    # compared either way round or with a tuple are faults; other classes,
    # other kinds and a plain name compared with "markov" are not
    tree = ast.parse(
        "if isinstance(s, ShiftSystem):\n    pass\n"
        "ok = isinstance(s, (Partition, systems.MixtureSystem))\n"
        "ok = all(isinstance(c, FinitePMPAction) for c in cs)\n"
        "if s.kind == 'markov' or 'bernoulli' != c.kind or s.kind in ('bernoulli', 'x'):\n    pass\n"
        "if C.kind == 'trivial' or kind == 'markov' or isinstance(p, Partition):\n    pass\n"
    )
    assert _system_kind_tests(tree) == [
        "line 1: isinstance", "line 3: isinstance", "line 4: isinstance",
        "line 5: .kind", "line 5: .kind", "line 5: .kind",
    ]
