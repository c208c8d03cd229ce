"""Guard against dead imports: every name a module imports is loaded.

An import nothing reads still runs at import time and tells a reader that the
module depends on something it does not.  This test walks every module under
``src/``, ``tools/``, ``benchmarks/``, ``tests/`` and ``examples/`` with
``ast`` and fails on a name bound by ``import`` or ``from … import`` that the
module never loads, except:

* in a package ``__init__.py`` (its imports are the package's re-exports);
* a name listed in the module's ``__all__``;
* ``from __future__ import …``.

A use is a loaded bare name anywhere in the module (``import a.b`` binds and
is used as ``a``), or a name inside a string annotation (``"SignedRoot"``
for a type imported under ``TYPE_CHECKING``).  Outside ``src/`` a function
parameter of the same name is a use too: that is how a test uses a pytest
fixture it imports.  A mention in a docstring or a comment is no use.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: The other trees a reader or pytest runs, where an imported name may be a
#: fixture a test takes as a parameter.
FIXTURE_TREES = ("tools", "benchmarks", "tests", "examples")


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import in ``tree``, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    """Every argument, return and variable annotation in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.Module, fixtures: bool = False) -> Set[str]:
    """Bare names ``tree`` loads, string annotations parsed, plus ``__all__``
    (and, with ``fixtures``, every function parameter's name)."""
    expressions: List[ast.AST] = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expressions.append(ast.parse(node.value, mode="eval"))
    names: Set[str] = set()
    for expression in expressions:
        for node in ast.walk(expression):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif fixtures and isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def unused_imports(src: Path, fixtures: bool = False) -> List[str]:
    """``"path:line: name"`` for each imported name under ``src`` that its
    module never loads (see the module docstring for what counts)."""
    unused: List[str] = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = _loaded(tree, fixtures)
        for name, line in sorted(_imported(tree), key=lambda item: item[1]):
            if name not in loaded:
                unused.append(f"{path.relative_to(src)}:{line}: {name}")
    return unused


def test_every_imported_name_in_src_is_loaded():
    unused = unused_imports(SRC)
    assert not unused, f"imported names in src/ that nothing loads: {unused}"


@pytest.mark.parametrize("tree", FIXTURE_TREES)
def test_every_imported_name_outside_src_is_loaded(tree):
    unused = unused_imports(ROOT / tree, fixtures=True)
    assert not unused, f"imported names in {tree}/ that nothing loads: {unused}"


def test_an_imported_fixture_is_used_by_its_parameter(tmp_path):
    (tmp_path / "test_mod.py").write_text(
        "from tests.conftest import world, unused_fixture\n\n\n"
        "def test_it(world):\n    pass\n"
    )
    assert unused_imports(tmp_path) == [
        "test_mod.py:1: world",
        "test_mod.py:1: unused_fixture",
    ]
    assert unused_imports(tmp_path, fixtures=True) == ["test_mod.py:1: unused_fixture"]


def test_the_gate_names_a_planted_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from pkg.mod import helper\n")
    (package / "mod.py").write_text(
        '''"""Mentions Sequence and json in a docstring, which is no use."""

from __future__ import annotations

import json
import os.path
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

from pkg.other import exported

if TYPE_CHECKING:
    from pkg.types import Root

__all__ = ["exported", "helper"]


@dataclass
class Holder:
    items: List[int]


def helper(root: "Root") -> str:
    # field is only named in this comment
    return os.path.join("a", "b")
'''
    )
    assert unused_imports(tmp_path) == [
        "pkg/mod.py:5: json",
        "pkg/mod.py:7: field",
        "pkg/mod.py:8: Sequence",
    ]
