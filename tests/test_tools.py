"""The tools in tools/ run against this checkout.

tools/stage_times.py reaches into private kernels of higgs, hitchin and
linalg, so a change that moves them shows here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_times_prints_both_tables():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"),
         "--vertices", "8", "--repeats", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "| stage | V | exact s, min / median | float s, min / median |"
    assert lines.index("| system | V | shape | rank | s_{r-1}/s_0 | s_r/s_0 "
                       "| s_min/norm_F | path |") > 0
    # fifteen stage rows, then the two float Higgs systems and the Jacobian
    rows = [line.split(" | ")[0] for line in lines if " | 8 | " in line]
    assert len(rows) == 18
    assert rows[0] == "| Higgs solve"
    assert rows[7:12] == ["| Higgs assembly", "| Higgs elimination", "| Higgs kernel form",
                          "| Higgs fields on first read", "| flat linearization"]
    assert rows[12:15] == ["| canonical_space", "| double_canonical_space",
                           "| bi-residue rank"]
    assert rows[15:] == ["| residue sums", "| node cancellation", "| Hitchin Jacobian"]
    for line in lines[2:17]:  # each time cell is "min / median", or "-"
        cells = [cell.strip(" |") for cell in line.split(" | ")[2:4]]
        if line.startswith("| Higgs kernel form |"):
            assert cells[1] == "-"  # exact only
            cells = cells[:1]
        for cell in cells:
            low, median = (float(x) for x in cell.split(" / "))
            assert 0 <= low <= median
