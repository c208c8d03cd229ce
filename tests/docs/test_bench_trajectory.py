"""The committed perf trajectory covers the whole benchmark contract.

``BENCH_<number>.json`` (written by ``tools/bench_trajectory.py``) must name
every ``BENCHMARK.json`` end-to-end metric on every workload, on both sides.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SIDES = ("parent", "change")


@pytest.fixture(scope="module")
def tool():
    """The trajectory writer, imported from tools/ by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", REPO / "tools" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_trajectory"] = module
    spec.loader.exec_module(module)
    return module


def committed():
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths, "no committed BENCH_*.json; run tools/bench_trajectory.py"
    return paths


@pytest.mark.parametrize("path", committed(), ids=lambda path: path.name)
def test_a_committed_file_names_every_metric_on_every_workload(tool, path):
    spec = tool.contract()
    document = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{document['number']}.json"
    assert set(document["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
    assert set(document["workloads"]) == {workload["name"] for workload in spec["workloads"]}
    for workload, entry in document["workloads"].items():
        for side in SIDES:
            assert entry[side]["runs"] >= 1, (workload, side)
            for metric in document["metrics"]:
                assert isinstance(entry[side][metric], (int, float)), (workload, side, metric)


def test_the_tool_takes_the_median_over_every_run_of_a_side(tool, tmp_path):
    spec = tool.contract()
    names = [metric["name"] for metric in spec["end_to_end"]]

    def results(directory, values):
        directory.mkdir()
        for workload in spec["workloads"]:
            runs = [{"metrics": {name: value for name in names}} for value in values]
            (directory / f"{workload['name']}.json").write_text(
                json.dumps({"runs": runs, "ops_failed": 0}), encoding="utf-8"
            )
        return directory

    parent = [results(tmp_path / "p1", [1.0, 2.0]), results(tmp_path / "p2", [3.0])]
    change = [results(tmp_path / "c1", [4.0])]
    document = tool.trajectory(7, parent, change)
    for entry in document["workloads"].values():
        assert entry["parent"]["runs"] == 3 and entry["change"]["runs"] == 1
        assert all(entry["parent"][name] == 2.0 for name in names)
        assert all(entry["relative_change"][name] == 1.0 for name in names)
