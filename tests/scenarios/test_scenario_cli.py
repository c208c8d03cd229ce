"""The ``python -m repro`` CLI surface."""

import importlib
import json

import pytest

from repro.scenarios.cli import main


def test_list_shows_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("heartbleed", "quickstart", "iot-long-lived", "ca-audit-gossip"):
        assert name in out
    assert "scenarios registered" in out


def test_describe(capsys):
    assert main(["describe", "heartbleed"]) == 0
    out = capsys.readouterr().out
    assert "Heartbleed" in out
    assert "delta_seconds" in out


def test_describe_unknown_scenario(capsys):
    assert main(["describe", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_writes_reports(tmp_path, capsys):
    assert main(["run", "quickstart", "--smoke", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    payload = json.loads((tmp_path / "quickstart.json").read_text())
    assert payload["scenario"] == "quickstart"
    assert (tmp_path / "quickstart.md").read_text().startswith("# Scenario report")


def test_run_with_engine_override(capsys):
    assert main(["run", "quickstart", "--smoke", "--engine", "naive"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_run_rejects_unknown_engine_at_parse_time(capsys):
    """--engine validates against the registry before any scenario runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "quickstart", "--engine", "imaginary"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'imaginary'" in err
    # the error names every registered engine, durable included
    for engine in ("naive", "incremental", "durable"):
        assert engine in err


def test_run_with_durable_engine(capsys):
    assert main(["run", "quickstart", "--smoke", "--engine", "durable"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_module_entry_point_exists():
    importlib.import_module("repro.__main__")  # importable without executing main


@pytest.mark.parametrize("argv", [[], ["bogus-verb"]])
def test_bad_invocations_exit_nonzero(argv):
    with pytest.raises(SystemExit):
        main(argv)
