"""Frozen digests of the machine-independent CLI reports and Prym cycles.

The grid is the exact part of tools/cli_grid.py's grid, on the catalog
graphs and on random_trivalent(V, s) for V = 8, 20 and s = 0, 1:
``graph``, and ``sections``, ``flat``, ``higgs`` and ``hitchin`` with no
``--domain`` and with ``--domain exact``, each at ``--seed`` 0..2, plus
the ``spectral.anti_invariant_cycles`` of every grid graph.  Each line
of golden_grid.txt is ``sha256 exit_code command label args``; a report
is digested with the float diagnostic ``fd_rel_err`` left out, as the
benchmark digests are, and an argparse rejection (exit 2) digests its
empty stdout.  Float reports and twist gluings depend on the BLAS
build and stay in the by-hand tools/cli_grid.py grid.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_grid.py

so that its diff names the calls whose output changed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from graphcurves.cli import main as cli_main
from graphcurves.graphs import (CATALOG_NAMES, catalog_graph, graph_to_json,
                                random_trivalent)
from graphcurves.spectral import anti_invariant_cycles

FROZEN = Path(__file__).with_name("golden_grid.txt")
COMMANDS = ("graph", "sections", "flat", "higgs", "hitchin")
RANDOM_GRAPHS = [(v, s) for v in (8, 20) for s in (0, 1)]
SEEDS = (0, 1, 2)
DOMAINS = ((), ("--domain", "exact"))
FLOAT_DIAGNOSTICS = ("fd_rel_err",)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graphs(tmp: Path):
    """(label, --graph argument, graph) for every grid graph."""
    out = [(name, name, catalog_graph(name)) for name in CATALOG_NAMES]
    for v, s in RANDOM_GRAPHS:
        graph = random_trivalent(v, s)
        path = tmp / f"random_{v}_{s}.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        out.append((path.name, str(path), graph))
    return out


def _report_digest(argv) -> tuple:
    """(digest, exit code) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
    text = out.getvalue()
    if text:
        report = json.loads(text)
        for key in FLOAT_DIAGNOSTICS:
            report["results"].pop(key, None)
        text = json.dumps(report, sort_keys=True)
    return _digest(text), code


def grid_lines(command: str, tmp: Path):
    """The golden lines of one command, or of the cycles for "cycles"."""
    for label, spec, graph in _graphs(tmp):
        if command == "cycles":
            yield f"{_digest(repr(anti_invariant_cycles(graph)))} 0 cycles {label}"
            continue
        for seed in SEEDS:
            for domain in DOMAINS:
                tail = ["--seed", str(seed), *domain]
                digest, code = _report_digest([command, "--graph", spec, *tail])
                yield " ".join([digest, str(code), command, label, *tail])


def _frozen(command: str):
    return [line for line in FROZEN.read_text().splitlines()
            if line.split()[2] == command]


@pytest.mark.parametrize("command", [*COMMANDS, "cycles"])
def test_output_matches_frozen_digests(command, tmp_path):
    assert list(grid_lines(command, tmp_path)) == _frozen(command)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [line for command in [*COMMANDS, "cycles"]
                 for line in grid_lines(command, Path(tmp))]
    FROZEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {FROZEN}", file=sys.stderr)
