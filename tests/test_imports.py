"""Import hygiene, checked with ast: the package exports what it imports, and no module of it
imports a name it never uses."""

import ast
from pathlib import Path

import fuhp

SRC = Path(fuhp.__file__).parent


def _imports(tree):
    """The names the import statements of tree bind, each with whether it imports from the package."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], getattr(node, "level", 0) > 0


def test_the_package_imports_exactly_its_public_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for name, relative in _imports(tree) if relative]
    assert sorted(imported) == sorted(set(fuhp.__all__)) == sorted(fuhp.__all__)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}: {name}" for name, _ in _imports(tree) if name not in used]
    assert not unused
