"""Run a fixed grid of CLI calls against one checkout and digest their output.

    python3 tools/cli_grid.py CHECKOUT > grid.txt

CHECKOUT is the root of a graphcurves source tree; its ``src`` is imported
and ``graphcurves.cli.main`` is called in-process once per grid point.
Each call prints one line, ``sha256(stdout) exit_code args``, and then
``total sha256`` over all call lines.  A call that raises is recorded as
exit ``raised:ExceptionName``, its traceback going to stderr.

After the CLI lines come the Prym lines: per grid graph, one
``sha256 status cycles label`` line for ``spectral.anti_invariant_cycles``
and one ``sha256 status twist label seed`` line per seed for the gluings
of ``spectral.twist``, each float spelled by its hex form (``_bits``);
then ``prym-total sha256`` over them.  The twist takes the spectral line
bundle of ``random_regular_higgs`` on the seed's float framing, with
parameters that are not powers of two, so every product rounds.  A
``NumericalError`` (no regular field, a degenerate node) is recorded as
status ``raised:ExceptionName``, as a CLI call records its exit code.
Two checkouts whose grid files are equal print the same report bytes,
exit codes, cycles and gluings on every grid point; ``diff`` of the two
files names the points that differ.

The grid: all six subcommands; the catalog graphs plus graph JSON files of
``random_trivalent(V, s)`` for V = 8, 20, 40 and s = 0, 1; ``--seed`` 0..2;
no ``--domain``, ``--domain exact`` and ``--domain float``.  Options a
subcommand does not take exit 2 and are kept, so the option surface is
compared too.  Graph files go to a temporary directory and are shown by
file name only.

The grid constants, ``grid_graphs``, ``call`` and ``grid_lines`` also
run the exact half of the grid in tests/test_golden_grid.py, and
``call`` times a ``hitchin`` call in tools/stage_times.py.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import traceback
from pathlib import Path

COMMANDS = ("graph", "sections", "flat", "higgs", "hitchin", "spectral")
RANDOM_GRAPHS = [(v, s) for v in (8, 20, 40) for s in (0, 1)]
SEEDS = (0, 1, 2)
DOMAINS = (None, "exact", "float")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_graphs(tmp: Path, random_graphs):
    """(label, --graph argument, graph): the catalog graphs by name, then
    random_trivalent(V, s) as JSON files in tmp, labelled by file name."""
    from graphcurves.graphs import (CATALOG_NAMES, catalog_graph, graph_to_json,
                                    random_trivalent)

    graphs = [(name, name, catalog_graph(name)) for name in CATALOG_NAMES]
    for v, s in random_graphs:
        graph = random_trivalent(v, s)
        path = tmp / f"random_{v}_{s}.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        graphs.append((path.name, str(path), graph))
    return graphs


def call(argv):
    """(stdout, exit code) of ``cli.main(argv)`` in-process; a call that
    raises exits ``raised:Name``, its traceback printed to stderr."""
    from graphcurves.cli import main as cli_main

    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not a stop
            code = f"raised:{type(exc).__name__}"
            crash = traceback.format_exc()
    if crash:
        print(" ".join(argv), crash, sep="\n", file=sys.stderr)
    return out.getvalue(), code


def grid_lines(graphs, commands, domains, digest):
    """One ``digest(stdout) exit_code command label args`` line per call,
    over commands, then graphs, seeds and domains."""
    for command in commands:
        for label, spec, _ in graphs:
            for seed in SEEDS:
                for domain in domains:
                    tail = ["--seed", str(seed)]
                    if domain is not None:
                        tail += ["--domain", domain]
                    out, code = call([command, "--graph", spec, *tail])
                    yield " ".join([digest(out), str(code), command, label, *tail])


def _bits(values) -> str:
    """repr of a nested structure with every float spelled by float.hex."""
    if isinstance(values, (list, tuple)):
        return "[" + ",".join(_bits(v) for v in values) + "]"
    if isinstance(values, complex):
        return f"({values.real.hex()},{values.imag.hex()})"
    if isinstance(values, float):
        return values.hex()
    return repr(values)


def _twist_parameters(seed: int, count: int):
    """count seeded complex parameters, real part in [0.3, 3), so nonzero."""
    rng = random.Random(seed)
    return [complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            for _ in range(count)]


def _prym_lines(graphs):
    """The Prym lines of the grid graphs: digest, status, what, label."""
    from graphcurves.errors import NumericalError
    from graphcurves.framings import Framing
    from graphcurves.scalars import FLOAT
    from graphcurves.spectral import (anti_invariant_cycles, build_spectral_curve,
                                      random_regular_higgs, spectral_line_bundle,
                                      twist)

    for label, _, graph in graphs:
        cycles = anti_invariant_cycles(graph)
        yield f"{digest(_bits(cycles))} 0 cycles {label}"
        for seed in SEEDS:
            text, status = "", "0"
            try:
                framing = Framing.random(graph, seed, FLOAT)
                phi = random_regular_higgs(framing, seed)
                bundle = spectral_line_bundle(build_spectral_curve(phi, framing))
                twisted = twist(bundle, _twist_parameters(seed, len(cycles)))
                text = _bits(sorted(twisted.gluings.items()))
            except NumericalError as exc:
                status = f"raised:{type(exc).__name__}"
            yield f"{digest(text)} {status} twist {label} {seed}"


def _print_with_total(name: str, lines) -> None:
    """Print each line as it comes, then ``name sha256`` over them."""
    total = hashlib.sha256()
    for line in lines:
        print(line, flush=True)
        total.update((line + "\n").encode())
    print(f"{name} {total.hexdigest()}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/cli_grid.py CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        graphs = grid_graphs(Path(tmp), RANDOM_GRAPHS)
        _print_with_total("total", grid_lines(graphs, COMMANDS, DOMAINS, digest))
    _print_with_total("prym-total", _prym_lines(graphs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
