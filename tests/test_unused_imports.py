"""Every module-level import in ``src/repro`` is used by its module.

A standard-library ``ast`` scan, because CI installs no linter.  A name an
import binds counts as used when the rest of the module loads it, lists it
in ``__all__``, or names it inside a string annotation.  Package
``__init__.py`` files re-export what they import, so they are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _module_imports(tree: ast.Module):
    """Imports outside every function and class, with the names they bind."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree: ast.AST):
    """Names ``tree`` loads, with those inside its string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _loaded_names(ast.parse(node.value, mode="eval"))
    return used


def _exported_names(tree: ast.Module):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str):
    """``(line, name)`` of each module-level import nothing else uses."""
    tree = ast.parse(source)
    used = _loaded_names(tree) | _exported_names(tree)
    return sorted(
        (node.lineno, name)
        for node, name in _module_imports(tree)
        if name not in used
    )


class TestScanner:
    def test_flags_a_name_bound_but_never_used(self):
        source = "from typing import List, Optional\nx: Optional[int] = None\n"
        assert unused_imports(source) == [(1, "List")]

    def test_string_annotations_and_all_count_as_uses(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "import json\n"
            "if TYPE_CHECKING:\n"
            "    from a import Machine\n"
            "def f(m: 'Machine') -> None: ...\n"
            "__all__ = ['json']\n"
        )
        assert unused_imports(source) == []

    def test_dotted_import_binds_its_root(self):
        assert unused_imports("import os.path\nos.sep\n") == []
        assert unused_imports("import os.path as p\n") == [(1, "p")]

    def test_imports_inside_functions_are_not_module_level(self):
        assert unused_imports("def f():\n    import json\n") == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
