"""Command line entry point emitting JSON run reports.

Every subcommand prints one JSON object to stdout, built only from the
inputs, the seed and the scalar domain, so identical invocations produce
byte-identical output; its wall time, loading its layers included, goes
to stderr.  Exit codes: 0 on success, 2 on invalid input, 3 on a
numerical failure.  Each cmd_* imports its layers when it runs, so a
process loads (and, with bytecode caching off, compiles) only those.

The report is the package's only output format, and _jsonable its only
scalar encoding: an exact scalar (Fraction) becomes its "p/q" string
(an integer value prints without "/1"), a complex float becomes an
[re, im] pair of floats.  A graph JSON file (graphs.graph_from_json) is
the only input format.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import GraphCurveError, NumericalError, ValidationError
from .graphs import (CATALOG_NAMES, canonical_hash, catalog_graph,
                     graph_from_json, graph_to_json, random_trivalent)
from .scalars import EXACT, FLOAT

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_graph(spec: str):
    """A catalog name, or a path to a graph JSON file."""
    if spec in CATALOG_NAMES:
        return catalog_graph(spec), spec
    path = Path(spec)
    # os.path.exists is False, where Path.exists raises, on a name too long
    if not os.path.exists(path):
        raise ValidationError(f"{spec!r} is neither a catalog name nor a file")
    try:
        obj = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {spec!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an int past the digit limit, or nesting too deep
        raise ValidationError(f"cannot parse {spec!r} as JSON: {exc}") from exc
    graph = graph_from_json(obj)
    return graph, graph_to_json(graph)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _report(command: str, inputs, domain: str, seed, results: dict) -> dict:
    return {
        "command": command,
        "inputs": _digest(inputs),
        "domain": domain,
        "seed": seed,
        "results": results,
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _with_trials(args, one_trial):
    """Run one_trial per seed; a single trial keeps a flat result shape."""
    if args.trials == 1:
        return one_trial(args.seed)
    per_trial = [dict(one_trial(args.seed + k), seed=args.seed + k)
                 for k in range(args.trials)]
    return {"trials": args.trials, "per_trial": per_trial}


def cmd_graph(args) -> dict:
    if args.random is not None:
        graph = random_trivalent(args.random, args.seed)
        inputs = {"random": args.random}
    else:
        graph, inputs = _resolve_graph(args.graph)
    results = {
        "vertices": graph.vertex_count,
        "edges": len(graph.edges),
        "genus": graph.genus,
        "loops": sum(graph.is_loop(e) for e in range(len(graph.edges))),
        "hash": canonical_hash(graph),
    }
    return _report("graph", {"graph": inputs}, EXACT, args.seed, results)


def cmd_sections(args) -> dict:
    from .linalg import rank as matrix_rank
    from .sections import _biresidue_rows, canonical_space, double_canonical_space
    graph, inputs = _resolve_graph(args.graph)
    can = canonical_space(graph, args.domain)
    double = double_canonical_space(graph, args.domain)
    # the bi-residue rows in the basis's working form: ints, or one array
    rows, _ = _biresidue_rows(double.basis)
    results = {
        "genus": graph.genus,
        "dim_K": can.dim,
        "rank_K": can.rank,
        "dim_2K": double.dim,
        "rank_2K": double.rank,
        "bires_rank": matrix_rank(rows, len(graph.edges), args.domain),
    }
    return _report("sections", {"graph": inputs}, args.domain, args.seed, results)


def cmd_flat(args) -> dict:
    from .framings import (Framing, flat_linearization, subspace_flags,
                           vertex_relation_residual, zero_section)
    from .higgs import residue_parameterization_matrix
    from .linalg import rank as matrix_rank
    graph, inputs = _resolve_graph(args.graph)

    def one_trial(seed):
        framing = Framing.random(graph, seed, args.domain)
        bundle = zero_section(framing)
        # flat_local_dimension's check cannot fire: int IDENTITY meridians give 0
        rows = flat_linearization(bundle)
        ncols = 3 * len(graph.edges)
        return {
            "local_dim": ncols - matrix_rank(rows, ncols, args.domain),
            "vertex_residual": float(vertex_relation_residual(bundle)),
            "linearization_matches_higgs":
                residue_parameterization_matrix(framing) == rows,
            "flags": subspace_flags(bundle),
        }

    return _report("flat", {"graph": inputs}, args.domain, args.seed,
                   _with_trials(args, one_trial))


def cmd_higgs(args) -> dict:
    from .framings import Framing
    from .higgs import higgs_residual, higgs_space
    graph, inputs = _resolve_graph(args.graph)

    def one_trial(seed):
        framing = Framing.random(graph, seed, args.domain)
        space = higgs_space(framing)
        return {
            "dim": space.dim,
            "rank": space.rank,
            "residual": float(higgs_residual(space.basis, framing)),
        }

    return _report("higgs", {"graph": inputs}, args.domain, args.seed,
                   _with_trials(args, one_trial))


def cmd_hitchin(args) -> dict:
    from .framings import Framing
    from .higgs import random_higgs_field
    from .hitchin import hitchin_image, hitchin_jacobian, is_regular, jacobian_fd_error
    from .sections import bires_coordinates
    graph, inputs = _resolve_graph(args.graph)

    def one_trial(seed):
        framing = Framing.random(graph, seed, args.domain)
        phi = random_higgs_field(framing, seed)
        omega = hitchin_image(phi)
        coords = bires_coordinates([omega])[0]
        jac = hitchin_jacobian(phi, framing)
        # The finite-difference check runs in floats: on this trial's
        # framing, field and Jacobian when they are float, else on a float
        # framing and field drawn from the same seed.
        if args.domain == FLOAT:
            fd_rel_err = jacobian_fd_error(phi, framing, jacobian=jac.matrix)
        else:
            float_framing = Framing.random(graph, seed, FLOAT)
            fd_rel_err = jacobian_fd_error(random_higgs_field(float_framing, seed),
                                           float_framing)
        return {
            "edge_coords": coords,
            "regular": is_regular(omega).regular,
            "jacobian_rank": jac.rank,
            "fd_rel_err": fd_rel_err,
        }

    return _report("hitchin", {"graph": inputs}, args.domain, args.seed,
                   _with_trials(args, one_trial))


def cmd_spectral(args) -> dict:
    from dataclasses import asdict

    from .framings import Framing
    from .spectral import (build_spectral_curve, prym_report, random_regular_higgs,
                           roundtrip_error)
    graph, inputs = _resolve_graph(args.graph)

    def one_trial(seed):
        framing = Framing.random(graph, seed, FLOAT)
        phi = random_regular_higgs(framing, seed)
        curve = build_spectral_curve(phi, framing)
        matching = max(lift.matching_residual for lift in curve.nodes.values())
        return {
            "genus": curve.arithmetic_genus,
            "components": curve.component_count,
            "nodes": curve.node_count,
            "fixed_points": sum(len(points) for points in
                                curve.fixed_points_per_component().values()),
            "quotient_matches_base": curve.quotient_dual_graph() == [
                graph.edge_endpoints(e) for e in range(len(graph.edges))],
            "prym": asdict(prym_report(graph)),
            "matching_residual": matching,
            "roundtrip_err": roundtrip_error(phi, framing),
        }

    return _report("spectral", {"graph": inputs}, FLOAT, args.seed,
                   _with_trials(args, one_trial))


_COMMANDS = {
    "graph": cmd_graph,
    "sections": cmd_sections,
    "flat": cmd_flat,
    "higgs": cmd_higgs,
    "hitchin": cmd_hitchin,
    "spectral": cmd_spectral,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcurves",
        description="Sections, framings, Higgs fields and spectral curves "
                    "on trivalent graph curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--graph", default="theta",
                       help="catalog name or graph JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="also write the report here")
        if name == "graph":
            p.add_argument("--random", type=int, default=None, metavar="N",
                           help="generate a random graph on N vertices instead")
            continue
        domains = [FLOAT] if name == "spectral" else [EXACT, FLOAT]
        p.add_argument("--domain", default=domains[0], choices=domains)
        if name != "sections":
            p.add_argument("--trials", type=_positive_int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        report = _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GraphCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    blob = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(blob + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_INVALID
    print(blob)
    elapsed_ms = (time.monotonic() - start) * 1000
    print(f"# wall_time_ms={elapsed_ms:.1f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
