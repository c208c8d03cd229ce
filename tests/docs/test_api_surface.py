"""Guard against dead API: every public definition in ``src/`` needs a caller.

A method only tests call is surface nobody relays or checks — it only grows
what a reader must understand.  This test walks every module under ``src/``
and fails on a public module-level function or class, or a public method or
property of a class, whose name appears nowhere in the caller trees
(``src/``, ``bench/``, ``benchmarks/``, ``tools/``, ``examples/``) except:

* inside its own definition (a recursive call or a property's ``setter``
  decorator is not a use);
* as a package ``__init__`` import or an ``__all__`` entry (a re-export is
  not a use).

Python is not typed here, so a use is recognised by name alone: a loaded
attribute, or an identifier inside a string that is not a docstring
(``bench/trace.py`` names its span targets as ``"module:Class.method"``),
and for a module-level function or class also a loaded bare name (a bare
name never reaches a method: it is a local of the same name).  Imports count
nowhere — an imported name is used where it is loaded.  A name shared by two
definitions is used when either is, so the gate undercounts; it never flags
a definition a caller names.  Dunders are exempt.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CALLER_TREES = ("src", "bench", "benchmarks", "tools", "examples")

#: Definitions kept although only tests call them, each with its reason.
ALLOWED: Dict[str, str] = {
    "repro.ritm.client:LegacyTLSClient": (
        "paper behaviour: an RA stays transparent to a client that does not "
        "speak RITM (§VII-F); only tests drive such a client"
    ),
    "repro.ritm.deployment:build_close_to_server_deployment": (
        "paper behaviour: the RA beside a TLS terminator at the data-center "
        "ingress, the second deployment model of §IV"
    ),
    "repro.ritm.deployment:build_unprotected_path": (
        "paper behaviour: a path with no RA, against which a client detects "
        "the downgrade"
    ),
    "repro.net.node:TransparentMiddlebox": "test double: an on-path box that forwards everything",
    "repro.net.node:DroppingMiddlebox": (
        "test double: the blocking attacker of §V (MITM and blocking attack)"
    ),
    "repro.net.node:TamperingMiddlebox": "test double: an on-path attacker that rewrites payloads",
    "repro.net.clock:SkewedClock": (
        "test double: a clock off the CA's by a fixed skew, the loose "
        "synchronisation the 2Δ window absorbs"
    ),
    "repro.analysis.timing:shifted_hash_count": (
        "test oracle: the node hashes the incremental engine's reuse rule "
        "predicts, counted against the engine"
    ),
    "repro.workloads.streaming:materialize_trace": (
        "test oracle: the naive per-event trace the streaming generator is "
        "pinned against"
    ),
    "repro.workloads.streaming:materialize_site_profile": (
        "test oracle: the uncached twin of StreamingWorkload.site_profile"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of each public module-level function or
    class, and each public method or property of any class (a private one's
    and a nested one's too).  A qualified name with a ``.`` after the
    module's ``:`` is a class member."""

    def walk(body: Sequence[ast.stmt], prefix: str) -> Iterator[Tuple[str, str]]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualified = f"{prefix}{node.name}"
            if not node.name.startswith("_"):
                yield qualified, node.name
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{qualified}.")

    return walk(tree.body, f"{module}:")


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    found.add(id(body[0].value))
    return found


def _is_all_assignment(node: ast.AST) -> bool:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _uses(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """``(bare names, attributes and string identifiers)`` that ``tree``
    uses, each outside the definition of that name."""
    skip = _docstrings(tree)
    bare: Set[str] = set()
    used: Set[str] = set()

    def visit(node: ast.AST, enclosing: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all_assignment(node):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node.name,)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            used.update(name for name in _IDENTIFIER.findall(node.value) if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return bare, used


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def unused_definitions(src: Path, callers: Sequence[Path]) -> List[str]:
    """Qualified names of public definitions under ``src`` that no file under
    ``callers`` uses (see the module docstring for what counts)."""
    bare: Set[str] = set()
    used: Set[str] = set()
    for tree_root in callers:
        for path in sorted(tree_root.rglob("*.py")):
            more_bare, more_used = _uses(ast.parse(path.read_text(encoding="utf-8")))
            bare |= more_bare
            used |= more_used
    dead: List[str] = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in _definitions(tree, _module_name(path, src)):
            member = "." in qualified.partition(":")[2]
            if name not in used and (member or name not in bare):
                dead.append(qualified)
    return dead


@functools.lru_cache(maxsize=None)
def _dead_in_repo() -> Tuple[str, ...]:
    return tuple(unused_definitions(SRC, [ROOT / tree for tree in CALLER_TREES]))


def test_every_public_definition_in_src_has_a_caller():
    unexplained = sorted(set(_dead_in_repo()) - set(ALLOWED))
    assert not unexplained, (
        f"public definitions in src/ that only tests call: {unexplained} — delete "
        f"them (port the tests to the state they read), or add each to ALLOWED "
        f"with its reason"
    )


def test_every_allowed_entry_is_still_test_only():
    stale = sorted(set(ALLOWED) - set(_dead_in_repo()))
    assert not stale, f"ALLOWED entries that are gone or now have a caller: {stale}"


def test_the_gate_names_a_planted_test_only_method(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import Store, helper\n__all__ = ['Store', 'helper', 'only_tests']\n"
    )
    (package / "mod.py").write_text(
        '''"""A module with one used and one test-only method."""


class Store:
    """Mentions only_tests in a docstring, which is no use."""

    def used(self):
        return self.only_tests_recursive()

    def only_tests(self):
        return self.only_tests()

    def only_tests_recursive(self):
        return 1

    def _private(self):
        return 0


def helper():
    only_tests = Store().used()  # a local of the same name is no use
    return only_tests
'''
    )
    caller = tmp_path / "bench"
    caller.mkdir()
    (caller / "run.py").write_text("from pkg import helper\n\nhelper()\n")
    dead = unused_definitions(tmp_path / "src", [tmp_path / "src", caller])
    assert dead == ["pkg.mod:Store.only_tests"]


def _plant(tmp_path: Path, module: str, caller: str = "") -> List[str]:
    """Plant ``module`` as ``src/pkg/mod.py`` (``pkg`` re-exports all of
    it) and ``caller`` as ``bench/run.py``; what the gate names."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.mod import *\n")
    (package / "mod.py").write_text(module)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(caller)
    return unused_definitions(tmp_path / "src", [tmp_path / "src", bench])


def test_a_function_only_reexported_is_named(tmp_path):
    module = "def used():\n    return 1\n\n\ndef exported_only():\n    return 2\n"
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.mod import exported_only, used\n__all__ = ['exported_only', 'used']\n"
    )
    (tmp_path / "src" / "pkg" / "mod.py").write_text(module)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("from pkg import used\n\nused()\n")
    dead = unused_definitions(tmp_path / "src", [tmp_path / "src", tmp_path / "bench"])
    assert dead == ["pkg.mod:exported_only"]


def test_a_class_no_caller_names_is_named_with_its_members(tmp_path):
    module = "class Orphan:\n    def method(self):\n        return 1\n"
    assert _plant(tmp_path, module) == ["pkg.mod:Orphan", "pkg.mod:Orphan.method"]


def test_a_property_its_own_setter_names_is_named(tmp_path):
    module = '''class Box:
    @property
    def size(self):
        return 1

    @size.setter
    def size(self, value):
        pass
'''
    caller = "from pkg import Box\n\nBox()\n"
    # The getter and the setter are one name: both definitions are named.
    assert set(_plant(tmp_path, module, caller)) == {"pkg.mod:Box.size"}


def test_a_span_target_string_is_a_use(tmp_path):
    module = "class Codec:\n    def encode(self):\n        return b''\n"
    caller = 'SPAN_TABLE = {"encode": "pkg.mod:Codec.encode"}\n'
    assert _plant(tmp_path, module, caller) == []


def test_a_registry_entry_is_a_use(tmp_path):
    module = '''class ListEngine:
    engine_name = "list"


ENGINES = {engine.engine_name: engine for engine in (ListEngine,)}
'''
    assert _plant(tmp_path, module) == []


def test_dunders_are_exempt(tmp_path):
    module = '''class Pair:
    def __len__(self):
        return 2

    def __repr__(self):
        return "Pair()"
'''
    caller = "from pkg import Pair\n\nPair()\n"
    assert _plant(tmp_path, module, caller) == []


def test_every_caller_tree_is_scanned():
    # A renamed or emptied caller tree would make the gate flag less, not more.
    for tree in CALLER_TREES:
        assert any((ROOT / tree).rglob("*.py")), f"caller tree {tree}/ holds no Python"
