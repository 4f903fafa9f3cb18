"""The three benchmark workloads: inputs made from the seed, and the round schedule.

Every workload runs the same seven operation kinds: the six CLI
subcommands and ``spectral.twist``.  They differ in graph size, scalar
domain and process model:

* ``exact-g21``: seeded random graphs on 40 vertices (genus 21), exact
  domain, in-process ``cli.main``.  Time goes to Fraction elimination.
* ``float-g41``: seeded random graphs on 80 vertices (genus 41), float
  domain, in-process ``cli.main``.  Time goes to the SVD path, complex
  Mat2 arithmetic and node eigendata.  A twist at genus 41 is 5-7 s of
  Fraction integer ranks, so this workload twists once per cycle, in the
  round on the first graph of its list, not once per round, which keeps
  twisting a minority of its time.
* ``cli-catalog``: the five catalog graphs, default domains, every
  operation in a fresh Python process.  Time goes to interpreter start,
  imports, argument parsing and JSON output.

A round is one pass of the workload's fixed operation list on one
graph; a cycle is one round on each graph of the workload.  Runs stop
only at cycle boundaries, so every graph gets the same number of rounds
and the per-graph cost differences do not shift the results.  Round r
of a seed always has the same inputs, however many rounds a run
reaches, so the frozen digests can be keyed by round.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

CLI_KINDS = ("graph", "sections", "flat", "higgs", "hitchin", "spectral")
KINDS = CLI_KINDS + ("twist",)
TWIST_EXPONENTS = (-2, -1, 1, 2)  # twist parameters are 2**e: exact floats


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vertices: int | None      # None: the catalog graphs
    domain: str | None        # None: each subcommand's default domain
    graph_seeds: tuple        # random_trivalent seeds of the fixed graph list
    in_process: bool
    twist_per_cycle: bool     # twist only in the round on graph 0

    @property
    def graph_count(self) -> int:
        """Rounds in a cycle: one per graph, so a cycle uses each once."""
        return len(self.graph_seeds) if self.vertices is not None else 5  # catalog


WORKLOADS = {w.name: w for w in (
    Workload("exact-g21",
             "genus-21 random graphs, exact domain, in-process: Fraction "
             "kernels, dense rational rank and integer cycle ranks",
             vertices=40, domain="exact", graph_seeds=(1, 2), in_process=True,
             twist_per_cycle=False),
    Workload("float-g41",
             "genus-41 random graphs, float domain, in-process: SVD, "
             "complex Mat2 arithmetic and node eigendata",
             vertices=80, domain="float", graph_seeds=(1, 2, 3), in_process=True,
             twist_per_cycle=True),
    Workload("cli-catalog",
             "catalog graphs, one fresh process per call: interpreter "
             "start, imports, parsing and JSON output",
             vertices=None, domain=None, graph_seeds=(), in_process=False,
             twist_per_cycle=False),
)}


@dataclass
class Op:
    kind: str
    round: int
    graph_index: int
    seed: int
    argv: list | None = None  # CLI arguments; None for a twist
    exponents: list | None = None

    @property
    def key(self) -> str:
        """The digest key, "<round>:<kind>"."""
        return f"{self.round}:{self.kind}"


@dataclass
class Inputs:
    workload: Workload
    seed: int
    files: list = field(default_factory=list)
    expects: list = field(default_factory=list)  # per graph: genus, vertices, hash
    bundles: dict = field(default_factory=dict)  # graph index -> line bundle


def _rng(*parts) -> Random:
    return Random(":".join(str(p) for p in parts))


def round_graph(w: Workload, seed: int, r: int) -> int:
    """Graph of round r: the seed picks where the run enters the list."""
    offset = _rng(w.name, seed, "offset").randrange(w.graph_count)
    return (offset + r) % w.graph_count


def has_twist(w: Workload, seed: int, r: int) -> bool:
    return not w.twist_per_cycle or round_graph(w, seed, r) == 0


def round_seed(w: Workload, seed: int, r: int) -> int:
    """The CLI --seed of every operation in round r."""
    return _rng(w.name, seed, "round", r).randrange(1_000_000)


def twist_exponents(w: Workload, seed: int, r: int, count: int):
    rng = _rng(w.name, seed, "twist", r)
    return [rng.choice(TWIST_EXPONENTS) for _ in range(count)]


def make_graphs(w: Workload):
    from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent

    if w.vertices is None:
        return [catalog_graph(name) for name in CATALOG_NAMES]
    return [random_trivalent(w.vertices, s) for s in w.graph_seeds]


def build_bundle(graph, seed: int):
    """Spectral line bundle of a seeded regular Higgs field (float domain)."""
    from graphcurves.framings import Framing
    from graphcurves.scalars import FLOAT
    from graphcurves.spectral import (build_spectral_curve, random_regular_higgs,
                                      spectral_line_bundle)

    framing = Framing.random(graph, seed, FLOAT)
    phi = random_regular_higgs(framing, seed)
    return spectral_line_bundle(build_spectral_curve(phi, framing))


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Graphs, graph files, expected invariants and twist bundles."""
    from graphcurves.graphs import canonical_hash, graph_to_json

    inputs = Inputs(workload=w, seed=seed)
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = make_graphs(w)
    for i, graph in enumerate(graphs):
        path = workdir / f"{w.name}-seed{seed}-graph{i}.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        inputs.files.append(path)
        inputs.expects.append({"genus": graph.genus,
                               "vertices": graph.vertex_count,
                               "hash": canonical_hash(graph)})
    if w.in_process:
        twisted = [0] if w.twist_per_cycle else range(len(graphs))
        for i in twisted:
            inputs.bundles[i] = build_bundle(
                graphs[i], _rng(w.name, seed, "bundle", i).randrange(1_000_000))
    return inputs


def round_ops(inputs: Inputs, r: int):
    """The operations of round r, in order."""
    w = inputs.workload
    i = round_graph(w, inputs.seed, r)
    seed = round_seed(w, inputs.seed, r)
    path = str(inputs.files[i])
    ops = []
    for kind in CLI_KINDS:
        argv = [kind, "--graph", path]
        if kind != "graph":
            argv += ["--seed", str(seed)]
            domain = "float" if kind == "spectral" else w.domain
            if domain is not None:
                argv += ["--domain", domain]
        ops.append(Op(kind, r, i, seed, argv=argv))
    if has_twist(w, inputs.seed, r):
        count = 3 * inputs.expects[i]["genus"] - 3
        ops.append(Op("twist", r, i, seed,
                      exponents=twist_exponents(w, inputs.seed, r, count)))
    return ops


def twist_report(bundle, exponents, tracer=None, key="twist") -> dict:
    """Twist a bundle, then check that the inverse twist restores it.

    Only the forward twist is timed (the returned "seconds").  The
    inverse reuses the cycles the forward call computed, by rebinding
    spectral.anti_invariant_cycles for that one call, so the check costs
    no second cycle computation.
    """
    import time

    from graphcurves import spectral

    params = [2.0 ** e for e in exponents]
    original = spectral.anti_invariant_cycles
    captured = []

    def capture(graph):
        cycles = original(graph)
        captured.append(cycles)
        return cycles

    spectral.anti_invariant_cycles = capture
    if tracer is not None:
        tracer.begin_op("twist", key)
    try:
        start = time.perf_counter()
        twisted = spectral.twist(bundle, params)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.end_op()
        spectral.anti_invariant_cycles = original
    if captured:
        spectral.anti_invariant_cycles = lambda graph: captured[0]
    try:
        restored = spectral.twist(twisted, [1.0 / t for t in params])
    finally:
        spectral.anti_invariant_cycles = original
    return {
        "seconds": seconds,
        "cycles": len(captured[0]) if captured else len(params),
        "multidegree": list(twisted.multidegree),
        "base_multidegree": list(bundle.multidegree),
        "gluings": [[e, s, z.real, z.imag]
                    for (e, s), z in sorted(twisted.gluings.items())],
        "restore_err": max(abs(z - 1) for z in restored.gluings.values()),
    }
