"""The digest tool's check of how each reference run ends, on a few cheap runs."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "table_digests.py"
FIGURE1 = {"experiment": "figure1-short", "model": "free"}


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("table_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends the package root
    return module


def run(tool, monkeypatch, capsys, configs):
    monkeypatch.setattr(tool, "reference_configs", lambda config: configs)
    code = tool.main([])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.splitlines()


def test_a_run_that_ends_as_declared_passes(tool, monkeypatch, capsys):
    code, lines, err = run(tool, monkeypatch, capsys, [("ok/figure1", FIGURE1, tool.OK)])
    assert code == 0 and err == []
    assert lines[0] == "ok/figure1 exit=0 status=ok error=None"
    assert [line.split()[0] for line in lines[1:]] == [
        "ok/figure1/echo", "ok/figure1/trajectories.csv", "oracle/cn", "oracle/trajectories", "oracle/max_error"]


def test_a_run_that_misses_its_expectation_exits_1_and_is_named(tool, monkeypatch, capsys):
    configs = [("ok/figure1", FIGURE1, tool.OK), ("wrong/figure1", FIGURE1, tool.ABORTED)]
    code, lines, err = run(tool, monkeypatch, capsys, configs)
    assert code == 1
    assert "wrong/figure1 exit=0 status=ok error=None" in lines
    assert len(lines) == 2 * 3 + 3  # every line is still printed
    assert err == [f"missed expectation: wrong/figure1: outcome 'exit=0 status=ok error=None' "
                   f"does not start with {tool.ABORTED!r}"]


def test_a_rejected_run_gets_an_outcome_line_and_an_echo_of_its_error(tool, monkeypatch, capsys):
    code, lines, err = run(tool, monkeypatch, capsys,
                           [("rejected/a=1e300", tool.SPEED_OVERFLOW, tool.REJECTED)])
    assert code == 0 and err == []
    message = ("config error: model 'harmonic' cannot be built from this config: ValueError: "
               "omega=10000000000.0 and a=1e+300 give a speed scale omega a that is not finite\n")
    assert lines[:2] == ["rejected/a=1e300 exit=2 status=None error=None",
                         f"rejected/a=1e300/echo {hashlib.sha256(message.encode()).hexdigest()}"]


def test_validate_must_exit_as_declared(tool, monkeypatch, capsys):
    code, _, err = run(tool, monkeypatch, capsys, [("ok/a=1e300", tool.SPEED_OVERFLOW, tool.OK)])
    assert code == 1
    assert err[-1] == "missed expectation: ok/a=1e300: validate exited 2, expected 0"


def test_a_failed_run_names_its_cell_but_not_its_run_directory(tool, monkeypatch, tmp_path):
    from wkbohm import cli, config

    monkeypatch.setattr(tool, "reference_configs", lambda config: [
        ("failed/nonfinite-cell", tool.NON_FINITE_FAN, tool.FAILED + "WkbohmError: non-finite cell")])
    lines, misses = tool.digest_lines(cli, config, tmp_path)
    assert misses == []
    assert lines[0] == ("failed/nonfinite-cell exit=3 status=failed error=WkbohmError: non-finite cell in "
                        "<out>/figure1-short/trajectories.csv: row 598, column 'x': inf")
    assert [line.split()[0] for line in lines[1:]] == ["failed/nonfinite-cell/echo"]  # no table written


def test_the_signed_zero_run_keeps_both_zeros_in_its_digested_table(tool, monkeypatch, tmp_path):
    from wkbohm import cli, config

    monkeypatch.setattr(tool, "reference_configs", lambda config: [
        ("signed-zero/figure1-short", tool.SIGNED_ZERO_FAN, tool.OK)])
    lines, misses = tool.digest_lines(cli, config, tmp_path)
    assert misses == []
    table = tmp_path / "run-0" / "figure1-short" / "trajectories.csv"
    assert lines[2] == f"signed-zero/figure1-short/trajectories.csv {hashlib.sha256(table.read_bytes()).hexdigest()}"
    x0 = [line.rsplit(",", 1)[1] for line in table.read_text().splitlines()[1:]]
    assert (x0.count("-0"), x0.count("0"), len(x0)) == (602, 602, 1204)


def test_a_residuals_run_prints_its_qhj_residual_after_its_table(tool, monkeypatch, tmp_path):
    from wkbohm import cli, config

    monkeypatch.setattr(tool, "reference_configs", lambda config: [
        ("moving/residuals-free", tool.MOVING_FREE, tool.OK)])
    lines, misses = tool.digest_lines(cli, config, tmp_path)
    assert misses == []
    manifest = json.loads((tmp_path / "run-0" / "residuals" / "manifest.json").read_text())
    qhj = manifest["metrics"]["qhj_max_window"]
    assert [line.split()[0] for line in lines] == [
        "moving/residuals-free", "moving/residuals-free/echo", "moving/residuals-free/residuals.csv",
        "moving/residuals-free/qhj_max_window"]
    assert lines[-1] == f"moving/residuals-free/qhj_max_window {qhj:.17g}" and qhj <= 1e-8


def test_the_reference_runs_end_with_the_failed_signed_zero_scale_and_far_grid_runs(tool):
    from wkbohm import config

    tags = [tag for tag, _, _ in tool.reference_configs(config)]
    assert tags[-5:] == ["failed/nonfinite-cell", "signed-zero/figure1-short", "scale/equivariance-free",
                         "moving/residuals-free", "wide/residuals-harmonic"]
    assert len(tags) == len(set(tags)) == 27
