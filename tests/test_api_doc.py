"""Every ``from repro… import …`` in docs/API.md names something that exists.

The ``python`` blocks of docs/API.md are the library's documented entry
points.  Each block must parse (collecting this file parses them), and
each name a block imports from a ``repro`` module must resolve, as an
attribute of the module or as a submodule of a package.  A change that
deletes or renames an export then has to update the doc in the same
change.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

API = Path(__file__).resolve().parents[1] / "docs" / "API.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", API.read_text(), re.S | re.M)


def _imports(source: str):
    """``(module, name)`` for every name imported from a ``repro`` module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.partition(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "repro":
                    yield alias.name, None


IMPORTS = sorted({pair for block in BLOCKS for pair in _imports(block)}, key=str)


def test_the_doc_imports_from_repro():
    assert len(IMPORTS) >= 50


@pytest.mark.parametrize(
    "module,name", IMPORTS, ids=[f"{m}:{n}" for m, n in IMPORTS]
)
def test_imported_name_resolves(module, name):
    loaded = importlib.import_module(module)
    if name is None or hasattr(loaded, name):
        return
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        pytest.fail(f"docs/API.md imports {name!r} from {module}, which has none")
