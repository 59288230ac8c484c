"""The package checks its results with explicit raises, never with ``assert``,
which ``python -O`` strips: a re-verification must run in every mode.  It
also carries no unused import, no public function, method or property that
only tests reach and no error class that no other module names.  A name
counts as reached when another package module or the benchmark names it;
``__init__.py``, its imports and its ``__all__`` do not count, since exporting
a name is not using it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowmatch"

# Public functions that only tests call, each kept for a reason of its own.
REACHED_BY_TESTS_ONLY = {
    "check_proper_labelling": "the checker the generator tests rely on",
    "check_uncovered_edge_bound": "acceptance criterion 7",
    "edge_disjoint_guarantee_threshold": "the acceptance check of the paper's threshold",
    "rectangle_to_graph": "the n x (n+1) rectangle encoding of the paper's edge-disjoint regime",
    "is_rainbow_k_edge_connected": "the paper's notion, pinned by the kernel and verdict snapshots",
}


def test_package_has_no_assert_statement():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_has_no_unused_import():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(files) >= 10
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _exported_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used and name not in exported
        ]
    assert unused == []


def _names(tree: ast.AST, strings: bool = False) -> Counter:
    """Each name a tree refers to, by a name, an attribute or an import, and
    with ``strings`` by a string constant too, counted."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _public_definitions(tree: ast.Module):
    """The module's public functions and the public methods and properties
    of its classes."""
    for node in tree.body:
        for member in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member


def test_every_public_function_is_reached_outside_the_tests():
    # A package module or the benchmark must name each public function,
    # method or property outside its own definition; bench/tracer.py wraps
    # functions by name.  __init__.py is left out: its imports and __all__
    # export a name, they do not use it.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    trees = [ast.parse(path.read_text(), str(path)) for path in modules]
    in_package = sum(map(_names, trees), Counter())
    elsewhere = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        elsewhere |= set(_names(ast.parse(path.read_text(), str(path)), strings=True))
    public = [fn for tree in trees for fn in _public_definitions(tree)]
    assert len(public) >= 77
    unreached = [
        fn.name
        for fn in public
        if fn.name not in elsewhere and not in_package[fn.name] - _names(fn)[fn.name]
    ]
    assert sorted(set(unreached) - set(REACHED_BY_TESTS_ONLY)) == []
    assert set(REACHED_BY_TESTS_ONLY) <= set(unreached)


def test_every_error_class_is_named_outside_errors_py():
    # A class no other package module raises, catches or subclasses is dead.
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert len(classes) >= 10
    named = sum(
        (
            _names(ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "errors.py"
        ),
        Counter(),
    )
    assert [c for c in classes if not named[c]] == []
