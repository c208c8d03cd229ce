"""Guard against dead options: every config field must have a reader.

A field nobody reads is an option nobody can vary — it only doubles the
configurations tests must cover.  This test walks every module under
``src/`` and fails when a field of one of the config classes below is never
read there, outside the class's own ``__post_init__`` (which validates the
field but does not use it).

Python is not typed here, so a read is recognised by its receiver: an
attribute load ``<receiver>.<field>`` counts for a class when the
receiver's last name is one the source holds that class's instances under
(``self`` counts inside the class's own methods).  Passing a field as a
constructor keyword is a write, never a read.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

from repro.ritm.config import RITMConfig
from repro.scenarios.config import (
    AgentSpec,
    ClientStreamSpec,
    FaultSpec,
    ScenarioConfig,
    WorkloadSpec,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Each guarded class, and the names ``src/`` holds its instances under.
RECEIVERS: Dict[type, Set[str]] = {
    RITMConfig: {"config", "ritm_config"},
    ScenarioConfig: {"config", "cfg"},
    FaultSpec: {"fault", "f", "outage", "forgery"},
    WorkloadSpec: {"workload"},
    ClientStreamSpec: {"spec", "client_stream"},
    AgentSpec: {"spec", "a", "template", "agents"},
}
GUARDED = {cls.__name__ for cls in RECEIVERS}


def _receiver_name(node: ast.expr) -> str:
    """The last name of an attribute's receiver (``a.b[0]`` → ``b``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _loads(tree: ast.AST, owner: str) -> Iterator[Tuple[str, str, str]]:
    """``(enclosing class, receiver name, attribute)`` of every attribute load,
    skipping the ``__post_init__`` bodies of the guarded classes."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _loads(node, node.name)
            continue
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__" and owner in GUARDED:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield owner, _receiver_name(node.value), node.attr
        yield from _loads(node, owner)


@functools.lru_cache(maxsize=None)
def _all_loads() -> Set[Tuple[str, str, str]]:
    loads: Set[Tuple[str, str, str]] = set()
    for path in sorted(SRC.rglob("*.py")):
        loads.update(_loads(ast.parse(path.read_text(encoding="utf-8")), ""))
    return loads


def _is_read(cls: type, name: str) -> bool:
    receivers = RECEIVERS[cls]
    return any(
        attr == name and (receiver in receivers or (receiver == "self" and owner == cls.__name__))
        for owner, receiver, attr in _all_loads()
    )


@pytest.mark.parametrize("cls", list(RECEIVERS), ids=lambda cls: cls.__name__)
def test_every_config_field_is_read_somewhere_in_src(cls):
    dead = [field.name for field in dataclasses.fields(cls) if not _is_read(cls, field.name)]
    assert not dead, (
        f"{cls.__name__} fields nobody in src/ reads: {dead} — delete them, or make "
        f"them module constants if the value still matters"
    )


def test_a_read_inside_post_init_does_not_count():
    snippet = (
        "class RITMConfig:\n"
        "    def __post_init__(self):\n"
        "        check(self.validated_only)\n"
        "    def used(self):\n"
        "        return self.read_here\n"
    )
    loads = {attr for _, _, attr in _loads(ast.parse(snippet), "")}
    assert "read_here" in loads and "validated_only" not in loads
