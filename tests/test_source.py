"""Checks on the package's source text that need no linter: the standard
library's ``ast`` reads each module."""

import ast
import os
import subprocess
import sys
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


def _private_definitions(tree: ast.Module) -> dict:
    """Each ``_name`` but a dunder that a module-level statement defines, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        defined.update({name: node.lineno for name in names
                        if name.startswith("_") and not name.endswith("__")})
    return defined


def _reads(tree: ast.Module) -> set:
    """Each name ``tree`` reads: a loaded name, an attribute or an imported name."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def test_every_private_name_is_used():
    # a use in the tests alone does not count: the package must read the name
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    reads = set().union(*map(_reads, trees.values()))
    unused = {f"{module}:{line}": name for module, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in reads}
    assert unused == {}, "private names the package never reads (module:line: name)"


def test_importing_the_package_leaves_out_what_it_uses_only_when_it_runs():
    # statistics (and so fractions and decimal) is needed only by the
    # oracle's normal quantile, multiprocessing only by a run on workers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, didbounds; "
            "print(sorted({'statistics', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
