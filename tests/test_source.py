"""Checks on the package's source text that need no linter: the standard
library's ``ast`` reads each module."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parents[1] / "src" / "didbounds"
# __init__.py imports names to re-export them
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def _imports(tree: ast.Module) -> dict:
    """Each name an import statement binds, with the line of the statement."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_every_module_is_checked():
    assert "bounds.py" in MODULES and "extensions.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    # a use is a bare name, which an attribute chain such as np.sort starts with
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imports(tree).items() if name not in used}
    assert unused == {}, f"{module} imports names it does not use (name: line)"
