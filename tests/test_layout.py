"""The library keeps only what the pipeline and the CLI use: every
module-level function and class of char3iso, public or private, and every
public method and property of its classes, is referenced somewhere in the
package outside its own definition. A name only the tests call belongs in
tests/helpers.py. Dunder names such as a module's __getattr__ are hooks the
interpreter calls, and are not scanned."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "char3iso"

# argparse calls ArgumentParser.error by name when a command line does not
# parse, so cli._Parser's override is used though the package never names it
CALLED_BY_THE_STANDARD_LIBRARY = {"cli._Parser.error"}


def _referenced(node):
    """The names and attribute names that occur in the tree of node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _package():
    """Each module's tree, and each module-level statement of the package
    with the names it references."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "curve" in modules
    return modules, [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]


def _unused(private):
    """Module-level functions and classes, private or public, that no other
    statement of the package names."""
    modules, statements = _package()
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")
            and not any(node.name in names for stmt, names in statements if stmt is not node)]


def _unused_methods():
    """Public methods and properties of module-level classes that no other
    statement of the package, and no other part of their class, names."""
    modules, statements = _package()
    unused = []
    for module, tree in modules.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            outside = [names for stmt, names in statements if stmt is not cls]
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                rest = cls.decorator_list + cls.bases + [n for n in cls.body if n is not node]
                if not any(node.name in names for names in outside + list(map(_referenced, rest))):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    return unused


def test_every_public_name_in_the_library_is_used_by_the_library():
    assert _unused(private=False) == []


def test_every_private_name_in_the_library_is_used_by_the_library():
    assert _unused(private=True) == []


def test_every_public_method_in_the_library_is_used_by_the_library():
    unused = _unused_methods()
    assert CALLED_BY_THE_STANDARD_LIBRARY <= set(unused)  # the exemption is still needed
    assert sorted(set(unused) - CALLED_BY_THE_STANDARD_LIBRARY) == []
