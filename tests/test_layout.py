"""Layout guard: the library holds no function that only the tests call."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "laxepi"

# Public entry points that no other library module reads: the validators, the
# bundle serializers the benchmark uses, the public subspace constructor, and
# the closed-functor check that is still to become an exact decider.
ALLOWED = {
    "validate_bimodule",
    "validate_submodule",
    "serialize_instance",
    "bundle_to_instance",
    "from_vectors",
    "is_generalized_closed_functor",
}


def test_every_library_function_has_a_library_reader():
    """Each function and method of src/laxepi (but __init__.py and oracles.py)
    is named at least twice there: its def plus one reader."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name not in ("__init__.py", "oracles.py")]
    texts = [p.read_text(encoding="utf-8") for p in files]
    names = {
        node.name
        for text in texts
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
    }
    corpus = "\n".join(texts)
    unread = sorted(
        name for name in names - ALLOWED
        if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) < 2
    )
    assert unread == []
