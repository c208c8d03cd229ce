"""Docstring coverage gate for the documented public API surfaces.

Every public class and function in ``repro.store``, ``repro.perf``,
``repro.net``, ``repro.pki``, ``repro.ritm.dissemination``, ``repro.ritm.persistence``,
``repro.dictionary.sharding``, ``repro.tls.connection``, ``repro.cdn.edge``,
``repro.scenarios``, ``repro.scenarios.engine``, ``repro.workloads`` and
``tools/check_perf_regression.py`` must carry a docstring.  CI additionally runs
``interrogate`` over the same paths (one step, job ``scenario engine + docs``);
this test is the always-on, stdlib-only enforcement so the gate holds wherever
the suite runs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The modules whose public API must be 100% documented.
COVERED_FILES = sorted(
    [
        *(SRC / "store").glob("*.py"),
        *(SRC / "perf").glob("*.py"),
        *(SRC / "net").glob("*.py"),
        *(SRC / "pki").glob("*.py"),
        SRC / "ritm" / "dissemination.py",
        SRC / "ritm" / "persistence.py",
        SRC / "ritm" / "consistency.py",
        SRC / "ritm" / "replication.py",
        SRC / "dictionary" / "sharding.py",
        SRC / "tls" / "connection.py",
        SRC / "cdn" / "edge.py",
        *(SRC / "scenarios").glob("*.py"),
        *(SRC / "scenarios" / "engine").glob("*.py"),
        *(SRC / "workloads").glob("*.py"),
        SRC.parents[1] / "tools" / "check_perf_regression.py",
    ]
)

#: Required docstring coverage over public definitions, in percent.
THRESHOLD = 100.0


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(path: Path):
    """Yield dotted names of public defs/classes without a docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if ast.get_docstring(tree) is None:
        yield f"{path.name} (module)"

    def walk(node, prefix, public_scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                public = public_scope and _is_public(child.name)
                dotted = f"{prefix}{child.name}"
                if public and ast.get_docstring(child) is None:
                    yield dotted
                yield from walk(child, f"{dotted}.", public)

    yield from walk(tree, f"{path.stem}.", True)


def _definition_counts(path: Path):
    """(documented, total) public definitions in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    total = documented = 0

    def walk(node, public_scope):
        nonlocal total, documented
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                public = public_scope and _is_public(child.name)
                if public:
                    total += 1
                    if ast.get_docstring(child) is not None:
                        documented += 1
                walk(child, public)

    walk(tree, True)
    return documented, total


def test_covered_files_exist():
    assert len(COVERED_FILES) >= 10


def _label(path: Path) -> str:
    """``path`` relative to the package (files outside it: to the repo root)."""
    base = SRC if SRC in path.parents else SRC.parents[1]
    return str(path.relative_to(base))


@pytest.mark.parametrize("path", COVERED_FILES, ids=_label)
def test_public_api_is_documented(path):
    missing = list(_missing_docstrings(path))
    assert not missing, f"undocumented public definitions: {missing}"


def test_overall_coverage_meets_threshold():
    documented = total = 0
    for path in COVERED_FILES:
        doc, tot = _definition_counts(path)
        documented += doc
        total += tot
    coverage = 100.0 * documented / total if total else 100.0
    assert coverage >= THRESHOLD, f"docstring coverage {coverage:.1f}% < {THRESHOLD}%"
