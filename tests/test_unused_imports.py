"""Every name a package module imports is read somewhere in that module,
and every private name a module defines is read somewhere in the package.

``__init__.py`` is skipped for imports: its imports are the package's
re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bergerdeck"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.AST) -> set[str]:
    """Names the module reads, with those inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    seen = _referenced(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree).items()
              if name not in seen]
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private function, class and constant names, with their
    lines; dunder names are not private."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_package_reads_every_private_name_it_defines():
    # an import is not a read: a helper only tests or perfbench call
    # belongs with them
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    seen = set()
    for tree in trees.values():
        seen |= _referenced(tree)
        seen |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
    defined = [(module, line, name) for module, tree in trees.items()
               for name, line in _private_definitions(tree).items()]
    assert defined
    unread = [f"{module} line {line}: {name}" for module, line, name in defined
              if name not in seen]
    assert not unread, f"private names the package never reads: {unread}"
