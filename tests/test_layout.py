"""The library keeps only what the pipeline and the CLI use: every
module-level function and class of char3iso, public or private, is
referenced somewhere in the package outside its own definition. A name
only the tests call belongs in tests/helpers.py. Dunder names such as a
module's __getattr__ are hooks the interpreter calls, and are not scanned."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "char3iso"


def _referenced(node):
    """The names and attribute names that occur in the tree of node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unused(private):
    """Module-level functions and classes, private or public, that no other
    statement of the package names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "curve" in modules
    statements = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")
            and not any(node.name in names for stmt, names in statements if stmt is not node)]


def test_every_public_name_in_the_library_is_used_by_the_library():
    assert _unused(private=False) == []


def test_every_private_name_in_the_library_is_used_by_the_library():
    assert _unused(private=True) == []
