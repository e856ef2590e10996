"""Every module-level import in ``src/repro`` is used by its module,
every module-level ``_private`` function or class is loaded somewhere in
``src/repro``, no function imports a module that its file already
imports at module level, and no attribute stored on ``self`` is write-only.

A standard-library ``ast`` scan, because CI installs no linter.  A name an
import binds counts as used when the rest of the module loads it, lists it
in ``__all__``, or names it inside a string annotation.  Package
``__init__.py`` files re-export what they import, so they are skipped.

A private definition counts as loaded when some module of the package
loads its name, reads it as an attribute, or imports it, other than from
the definition's own body (a recursive helper does not keep itself
alive).  Matching is by name, so the check catches a helper that a
deletion left behind without a caller, not every dead private name.

A function-level import is redundant when the same module is imported at
module level outside ``if TYPE_CHECKING:``: the module is loaded anyway, so
the name belongs in that import, and the function would pay an import
lookup on every call.  Imports that break a cycle have no runtime
module-level twin, so they pass.

An attribute that ``src/repro`` stores as ``self.name`` (plain,
augmented or annotated assignment) must be read: loaded as ``.name``
somewhere in ``src/repro`` or ``tests/``, or named by a string constant in
``src/repro``, the way ``getattr`` reads it.  A counter that is only ever
incremented is state nothing reads.  Matching is by name, like the private
definition rule.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _is_type_checking(node: ast.AST) -> bool:
    """Whether ``node`` is an ``if TYPE_CHECKING:`` block."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _module_level(tree: ast.Module, runtime: bool = False):
    """Statements outside every function and class, ``if``/``try`` bodies
    included; with ``runtime``, the bodies of ``if TYPE_CHECKING:`` are
    left out."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                if field == "body" and runtime and _is_type_checking(node):
                    continue
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
        else:
            yield node


def _module_imports(tree: ast.Module):
    """Imports outside every function and class, with the names they bind."""
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


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


def _imported_modules(node: ast.AST):
    """The absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def redundant_local_imports(source: str):
    """``(line, module)`` of each import inside a function of a module the
    file already imports at module level, outside ``if TYPE_CHECKING:``."""
    tree = ast.parse(source)
    loaded = {
        module
        for node in _module_level(tree, runtime=True)
        for module in _imported_modules(node)
    }
    return sorted(
        {
            (node.lineno, module)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            for module in _imported_modules(node)
            if module in loaded
        }
    )


def _references(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier: loads, attribute reads,
    imports, and names inside its string annotations."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                counts.update(_references(ast.parse(node.value, mode="eval")))
    return counts


def unloaded_private_definitions(source: str, references: Counter):
    """``(line, name)`` of each module-level ``_private`` function or class
    that ``references`` names no more often than its own body does."""
    return sorted(
        (node.lineno, node.name)
        for node in _module_level(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and references[node.name] <= _references(node)[node.name]
    )


@functools.lru_cache(maxsize=None)
def _references_in_src() -> Counter:
    counts: Counter = Counter()
    for path in SRC.rglob("*.py"):
        counts.update(_references(ast.parse(path.read_text())))
    return counts


def _attribute_reads(tree: ast.AST):
    """Names ``tree`` reads as an attribute (``x.name`` loaded, not stored)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _string_constants(tree: ast.AST):
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def write_only_attributes(source: str, reads):
    """``(line, name)`` of the first ``self.name`` store of each attribute
    that ``reads`` does not name."""
    first = {}
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            first[node.attr] = min(node.lineno, first.get(node.attr, node.lineno))
    return sorted((line, name) for name, line in first.items() if name not in reads)


@functools.lru_cache(maxsize=None)
def _attribute_reads_in_src_and_tests() -> frozenset:
    reads = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        reads |= _attribute_reads(tree) | _string_constants(tree)
    for path in TESTS.rglob("*.py"):
        reads |= _attribute_reads(ast.parse(path.read_text()))
    return frozenset(reads)


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

    def test_flags_private_definitions_nothing_else_loads(self):
        source = (
            "def _used(): ...\n"
            "def _unused(): ...\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Box:\n"
            "    def copy(self) -> '_Box': ...\n"
            "def public(): ...\n"
            "def __getattr__(name): ...\n"
            "if True:\n"
            "    def _fallback(): ...\n"
            "_used()\n"
        )
        references = _references(ast.parse(source))
        assert unloaded_private_definitions(source, references) == [
            (2, "_unused"),
            (3, "_recursive"),
            (5, "_Box"),
            (10, "_fallback"),
        ]

    def test_methods_and_nested_functions_are_not_module_level(self):
        source = (
            "class A:\n"
            "    def _method(self): ...\n"
            "def f():\n"
            "    def _inner(): ...\n"
        )
        assert unloaded_private_definitions(source, Counter()) == []

    def test_flags_function_imports_of_modules_loaded_at_module_level(self):
        source = (
            "import json\n"
            "from repro.dnn.alloc import Allocator\n"
            "def f():\n"
            "    from repro.dnn.alloc import AllocationError\n"
            "    def inner():\n"
            "        import json\n"
            "class A:\n"
            "    def g(self):\n"
            "        import json, os\n"
        )
        assert redundant_local_imports(source) == [
            (4, "repro.dnn.alloc"),
            (6, "json"),
            (9, "json"),
        ]

    def test_type_checking_imports_and_other_modules_pass(self):
        source = (
            "import typing\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.sim.engine import Engine\n"
            "if typing.TYPE_CHECKING:\n"
            "    import repro.mem.machine\n"
            "else:\n"
            "    import repro.obs\n"
            "def f(engine: 'Engine'):\n"
            "    from repro.sim.engine import EventKind\n"
            "    import repro.mem.machine\n"
            "    from repro.mem.admission import DENY\n"
            "    from . import sibling\n"
            "    import repro.obs\n"
        )
        assert redundant_local_imports(source) == [(14, "repro.obs")]

    def test_flags_attributes_stored_on_self_and_never_read(self):
        source = (
            "class A:\n"
            "    def __init__(self, other):\n"
            "        self.read = other.read\n"
            "        self.counted = 0\n"
            "        self.named: int = 0\n"
            "        self.pair, self.b = 1, 2\n"
            "        other.stored = 1\n"
            "    def bump(self):\n"
            "        self.counted += 1\n"
            "        return getattr(self, 'named') + self.b\n"
        )
        tree = ast.parse(source)
        reads = _attribute_reads(tree) | _string_constants(tree)
        assert write_only_attributes(source, reads) == [(4, "counted"), (6, "pair")]

    def test_attribute_reads_and_imports_elsewhere_count_as_loads(self):
        references = _references(
            ast.parse("import m\nfrom m import _imported\nm._read\n")
        )
        source = "def _imported(): ...\ndef _read(): ...\ndef _dead(): ...\n"
        assert unloaded_private_definitions(source, references) == [(3, "_dead")]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_functions_import_no_module_the_file_already_imports(path):
    assert redundant_local_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_module_private_definitions_are_loaded(path):
    assert unloaded_private_definitions(path.read_text(), _references_in_src()) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_attributes_stored_on_self_are_read(path):
    reads = _attribute_reads_in_src_and_tests()
    assert write_only_attributes(path.read_text(), reads) == []
