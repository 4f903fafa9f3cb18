"""Smoke self-test of the benchmark harness on the catalog graphs.

    python3 -m pytest perfbench -q

Not part of the package's test suite (pytest's testpaths is tests/).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [name for name, _, _ in layers.per_layer_spec()]
    assert len(SPEC["per_layer"]) <= 128


def test_untraced_round_on_catalog():
    proc, lines = _run("--workload", "cli-catalog", "--seed", "3",
                       "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    cycle = workloads.WORKLOADS["cli-catalog"].graph_count
    assert result["attempted"] == cycle * len(workloads.KINDS)  # one cycle
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_cycle_counts_calls():
    proc, lines = _run("--workload", "cli-catalog", "--seed", "3",
                       "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["higgs.higgs_space.calls_per_hitchin"] == 4
    assert value["spectral.all_node_eigendata.calls_per_spectral"] >= 3
    assert value["trace.missing_functions"] == 0
    assert value["cli.main.self_s"] > 0


def test_tracer_catches_from_imports_and_restores():
    from graphcurves import hitchin
    from graphcurves.framings import Framing
    from graphcurves.graphs import catalog_graph
    from graphcurves.higgs import random_higgs_field

    original = hitchin.matrix_rank
    tracer = Tracer().install(["linalg.rank", "linalg.no_such_function"])
    try:
        framing = Framing.random(catalog_graph("theta"), 5)
        phi = random_higgs_field(framing, 5)
        tracer.begin_op("hitchin")
        hitchin.hitchin_jacobian(phi, framing)
        tracer.end_op()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["linalg.rank"] == 1  # bound as hitchin.matrix_rank
    assert summary["calls"]["higgs.higgs_space"] == 1
    assert summary["missing"] == ["linalg.no_such_function"]
    assert hitchin.matrix_rank is original


def test_checks_flag_wrong_reports():
    from graphcurves.graphs import canonical_hash, catalog_graph

    graph = catalog_graph("k4")
    expect = {"genus": 3, "vertices": 4, "hash": canonical_hash(graph)}
    report = {"command": "higgs", "domain": "exact", "seed": 7, "inputs": "x",
              "results": {"dim": 6, "rank": 18, "residual": 0.0}}
    assert checks.check_cli_report("higgs", report, expect, "exact", 7) == []
    bad = dict(report, results={"dim": 5, "rank": 19, "residual": 0.0})
    assert checks.check_cli_report("higgs", bad, expect, "exact", 7)
    hitchin = {"command": "hitchin", "domain": "exact", "seed": 7, "inputs": "x",
               "results": {"edge_coords": ["1"] * 6, "regular": True,
                           "jacobian_rank": 6, "fd_rel_err": 1e-9}}
    noisy = dict(hitchin, results=dict(hitchin["results"], fd_rel_err=2e-9))
    assert checks.digest("hitchin", hitchin) == checks.digest("hitchin", noisy)
    assert checks.digest("spectral", dict(hitchin, domain="float")) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = _run("--workload", "cli-catalog", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_round_schedule_is_seeded(name):
    w = workloads.WORKLOADS[name]
    assert workloads.round_seed(w, 4, 2) == workloads.round_seed(w, 4, 2)
    assert workloads.round_seed(w, 4, 2) != workloads.round_seed(w, 5, 2)
