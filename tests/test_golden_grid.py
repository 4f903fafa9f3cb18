"""Frozen digests of the machine-independent CLI reports and Prym cycles.

The grid is the exact half of tools/cli_grid.py's grid, run through its
``grid_graphs``, ``call`` and ``grid_lines``: its first five subcommands
(``graph``, ``sections``, ``flat``, ``higgs`` and ``hitchin``), its
first four random graphs (random_trivalent(V, s) for V = 8, 20 and
s = 0, 1) beside the catalog graphs, its seeds 0..2 and its first two
domains (no ``--domain`` and ``--domain exact``), plus the
``spectral.anti_invariant_cycles`` of every grid graph.  Each line of
golden_grid.txt is ``sha256 exit_code command label args``; a report is
digested with the float diagnostic ``fd_rel_err`` left out, as the
benchmark digests are, and an argparse rejection (exit 2) digests its
empty stdout.  Float reports and twist gluings depend on the BLAS build
and stay in the by-hand tools/cli_grid.py grid.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_grid.py

so that its diff names the calls whose output changed.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from graphcurves.spectral import anti_invariant_cycles

from helpers import load_by_path

cli_grid = load_by_path("tools/cli_grid.py")
FROZEN = Path(__file__).with_name("golden_grid.txt")
COMMANDS = cli_grid.COMMANDS[:5]


def _report_digest(text: str) -> str:
    """The digest of a report with its float diagnostic left out."""
    if text:
        report = json.loads(text)
        report["results"].pop("fd_rel_err", None)
        text = json.dumps(report, sort_keys=True)
    return cli_grid.digest(text)


def golden_lines(command: str, tmp: Path):
    """The golden lines of one command, or of the cycles for "cycles"."""
    graphs = cli_grid.grid_graphs(tmp, cli_grid.RANDOM_GRAPHS[:4])
    if command == "cycles":
        return [f"{cli_grid.digest(repr(anti_invariant_cycles(graph)))} 0 cycles {label}"
                for label, _, graph in graphs]
    return list(cli_grid.grid_lines(graphs, [command], cli_grid.DOMAINS[:2],
                                    _report_digest))


def _frozen(command: str):
    return [line for line in FROZEN.read_text().splitlines()
            if line.split()[2] == command]


@pytest.mark.parametrize("command", [*COMMANDS, "cycles"])
def test_output_matches_frozen_digests(command, tmp_path):
    assert golden_lines(command, tmp_path) == _frozen(command)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [line for command in [*COMMANDS, "cycles"]
                 for line in golden_lines(command, Path(tmp))]
    FROZEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {FROZEN}", file=sys.stderr)
