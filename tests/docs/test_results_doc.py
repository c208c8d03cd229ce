"""``docs/RESULTS.md`` stays in sync with the artifact registry.

The generated results index must list every benchmark artifact exactly once
and every registered scenario exactly once, and the registry in
``tools/gen_results.py`` must know about every artifact the benchmark suite
actually writes (no silently unmapped results).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
RESULTS_MD = REPO / "docs" / "RESULTS.md"


@pytest.fixture(scope="module")
def gen_results():
    """The generator module, imported from tools/ by path."""
    spec = importlib.util.spec_from_file_location(
        "gen_results", REPO / "tools" / "gen_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Register before exec: dataclasses resolves string annotations through
    # sys.modules[cls.__module__].
    sys.modules["gen_results"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def results_text():
    assert RESULTS_MD.exists(), "docs/RESULTS.md is missing; run tools/gen_results.py"
    return RESULTS_MD.read_text(encoding="utf-8")


def test_document_carries_generation_marker(gen_results, results_text):
    assert gen_results.MARKER in results_text


def test_every_artifact_listed_exactly_once(gen_results, results_text):
    filenames = [artifact.filename for artifact in gen_results.ARTIFACTS]
    assert len(filenames) == len(set(filenames)), "registry has duplicate artifacts"
    for filename in filenames:
        occurrences = results_text.count(f"`benchmarks/results/{filename}`")
        assert occurrences == 1, f"{filename} mapped {occurrences} times in RESULTS.md"


def test_every_registered_scenario_listed_exactly_once(results_text):
    sys.path.insert(0, str(REPO / "src"))
    from repro.scenarios import registry

    names = registry.names()
    assert names, "no scenarios registered"
    for name in names:
        occurrences = results_text.count(f"`python -m repro run {name}`")
        assert occurrences == 1, f"scenario {name} listed {occurrences} times"


#: The two writers every benchmark artifact goes through
#: (``benchmarks/bench_harness.py``), by the suffix each gives its name.
ARTIFACT_WRITERS = {"write_result": ".txt", "write_json_result": ".json"}


class _Module:
    """A benchmark module's source, and the module-level names it binds."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.imports = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in self.tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        self.assignments = {
            target.id: node.value
            for node in self.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

    def evaluate(self, expression: ast.expr):
        """The value of an expression over module-level names — imported,
        or assigned from such an expression — and builtins."""
        bound = {}
        for node in ast.walk(expression):
            if not isinstance(node, ast.Name):
                continue
            if node.id in self.assignments:
                bound[node.id] = self.evaluate(self.assignments[node.id])
            elif node.id in self.imports:
                module, attribute = self.imports[node.id]
                bound[node.id] = getattr(importlib.import_module(module), attribute)
        return eval(compile(ast.Expression(expression), str(self.path), "eval"), bound)

    def parameters(self, function: ast.AST) -> dict:
        """``argname → values expression`` of ``function``'s
        ``pytest.mark.parametrize`` decorators."""
        return {
            ast.literal_eval(decorator.args[0]): decorator.args[1]
            for decorator in getattr(function, "decorator_list", ())
            if isinstance(decorator, ast.Call)
            and ast.unparse(decorator.func) == "pytest.mark.parametrize"
        }

    def expand(self, name: ast.expr, parameters: dict, line: int) -> list:
        """Every string ``name`` evaluates to, its f-string fields filled
        from ``parameters``; anything else cannot be derived and fails."""
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            return [name.value]
        if not isinstance(name, ast.JoinedStr):
            pytest.fail(f"{self.path.name}:{line}: cannot derive {ast.unparse(name)}")
        stems = [""]
        for part in name.values:
            if isinstance(part, ast.Constant):
                choices = [part.value]
            elif isinstance(part.value, ast.Name) and part.value.id in parameters:
                choices = [str(value) for value in self.evaluate(parameters[part.value.id])]
            else:
                pytest.fail(f"{self.path.name}:{line}: cannot derive {ast.unparse(name)}")
            stems = [stem + choice for stem in stems for choice in choices]
        return stems


def written_artifacts(path: Path) -> set:
    """The artifact file names a benchmark module writes, read off its
    source: every ``write_result`` / ``write_json_result`` call's name, a
    string or an f-string over its test's ``parametrize`` values."""
    module = _Module(path)
    written = set()
    for node in module.tree.body:
        functions = node.body if isinstance(node, ast.ClassDef) else [node]
        for function in functions:
            parameters = module.parameters(function)
            for call in ast.walk(function):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in ARTIFACT_WRITERS
                ):
                    for stem in module.expand(call.args[0], parameters, call.lineno):
                        written.add(stem + ARTIFACT_WRITERS[call.func.id])
    return written


def test_registry_covers_every_written_artifact(gen_results):
    """No benchmark may write an artifact the results index cannot map, and
    every registered artifact is written by the module the index names.
    The names are read off the benchmarks' source, so the check needs no
    benchmark to have run."""
    sys.path.insert(0, str(REPO / "src"))
    by_module = {
        f"benchmarks/{path.name}": written_artifacts(path)
        for path in sorted((REPO / "benchmarks").glob("test_*.py"))
    }
    written = set().union(*by_module.values())
    assert "dictionary_update_durable-compact.txt" in written  # an f-string, expanded
    known = {artifact.filename for artifact in gen_results.ARTIFACTS}
    unmapped = sorted(written - known)
    assert not unmapped, f"artifacts missing from the gen_results registry: {unmapped}"
    for artifact in gen_results.ARTIFACTS:
        assert artifact.filename in by_module.get(artifact.module, set()), (
            f"{artifact.filename} is registered to {artifact.module}, which does not write it"
        )


def test_generator_is_deterministic(gen_results):
    assert gen_results.generate() == gen_results.generate()
