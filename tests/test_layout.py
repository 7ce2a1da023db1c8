"""The library exports only what the pipeline and the CLI use: every public
module-level function and class of char3iso is referenced somewhere in the
package outside its own definition. A name only the tests call belongs in
tests/helpers.py."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "char3iso"


def _referenced(node):
    """The names and attribute names that occur in the tree of node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_in_the_library_is_used_by_the_library():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "curve" in modules
    statements = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in names for stmt, names in statements if stmt is not node)]
    assert unused == []
