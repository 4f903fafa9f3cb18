"""The tools in tools/ run against this checkout.

tools/stage_times.py reaches into private kernels of higgs, hitchin and
linalg, so a change that moves them shows here; its start-up table runs
the CLI of this checkout.  tools/cli_grid.py's ``call`` records outcomes.
"""
import json
import subprocess
import sys

import pytest

from graphcurves import cli

from helpers import ROOT, load_by_path

cli_grid = load_by_path("tools/cli_grid.py")


def test_cli_grid_call_records_stdout_and_exit_code():
    out, code = cli_grid.call(["graph", "--graph", "theta"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "graph"
    assert report["results"]["genus"] == 2  # the theta graph: two vertices, three edges


def test_cli_grid_call_records_an_argparse_rejection():
    assert cli_grid.call(["graph", "--trials", "2"]) == ("", 2)


def test_cli_grid_call_records_a_crash(monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS, "graph", lambda args: 1 / 0)
    assert cli_grid.call(["graph", "--graph", "theta"]) == ("", "raised:ZeroDivisionError")
    err = capsys.readouterr().err
    assert err.startswith("graph --graph theta\nTraceback")
    assert "ZeroDivisionError: division by zero" in err


@pytest.fixture(scope="module")
def stage_times_lines():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"),
         "--vertices", "8", "--repeats", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_stage_times_prints_both_tables(stage_times_lines):
    lines = stage_times_lines
    assert lines[0] == "| stage | V | exact s, min / median | float s, min / median |"
    assert lines.index("| system | V | shape | rank | s_{r-1}/s_0 | s_r/s_0 "
                       "| s_min/norm_F | path |") > 0
    # fourteen stage rows, then the two float Higgs systems and the Jacobian
    rows = [line.split(" | ")[0] for line in lines if " | 8 | " in line]
    assert len(rows) == 17
    assert rows[0] == "| Higgs solve"
    assert rows[3:6] == ["| FD rows", "| FD check", "| hitchin trial"]
    assert rows[6:11] == ["| Higgs assembly", "| Higgs elimination", "| Higgs kernel form",
                          "| Higgs fields on first read", "| flat linearization"]
    assert rows[11:14] == ["| canonical_space", "| double_canonical_space",
                           "| bi-residue rank"]
    assert rows[14:] == ["| residue sums", "| node cancellation", "| Hitchin Jacobian"]
    for line in lines[2:16]:  # each time cell is "min / median", or "-"
        cells = [cell.strip(" |") for cell in line.split(" | ")[2:4]]
        if line.startswith("| Higgs kernel form |"):
            assert cells[1] == "-"  # exact only
            cells = cells[:1]
        for cell in cells:
            low, median = (float(x) for x in cell.split(" / "))
            assert 0 <= low <= median


def test_stage_times_prints_startup_rows(stage_times_lines):
    # one process per row, below the value the times depend on
    lines = stage_times_lines
    start = lines.index("| process | s, min / median |")
    assert lines[start - 1].startswith("PYTHONDONTWRITEBYTECODE=")
    startup = [line.split(" | ") for line in lines[start + 2:]]
    assert [cells[0] for cells in startup] == [
        "| bare interpreter", "| import graphcurves", "| import numpy",
        *(f"| {cmd} --graph k4" for cmd in
          ("graph", "sections", "flat", "higgs", "hitchin", "spectral"))]
    for cells in startup:
        low, median = (float(x) for x in cells[1].strip(" |").split(" / "))
        assert 0 < low <= median
