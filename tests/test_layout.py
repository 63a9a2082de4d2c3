"""Layout guard: the library holds no function that only the tests call, and
no module imports a name it does not read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "laxepi"

# Public entry points that no other library module reads: the validators, the
# bundle serializers the benchmark uses, the whole-ideal test its bundle writer
# reads and the public subspace constructor.
# The exact closed-functor decider needs no entry: `oracles.cross_check` reads it.
ALLOWED = {
    "validate_bimodule",
    "validate_submodule",
    "serialize_instance",
    "bundle_to_instance",
    "is_trivial",
    "from_vectors",
}


_LIBRARY = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _references(tree: ast.AST) -> set[str]:
    """The names a module reads: `Name` ids, `Attribute` attrs, imported names
    (before any `as`) and string constants, such as the decider names that
    `decide.CHECKS` maps to."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_library_function_has_a_library_reader():
    """Each function and method of src/laxepi (but __init__.py) is referenced
    somewhere in those modules, not merely named in prose."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in _LIBRARY]
    names = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
    }
    refs = set().union(*map(_references, trees))
    assert sorted(names - ALLOWED - refs) == []


def test_every_imported_name_is_read():
    """Each name that a module of src/laxepi (but __init__.py, which re-exports)
    imports is read in that module: as a `Name` or as the base of an attribute."""
    unread = []
    for path in _LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}: {bound}")
    assert unread == []
