"""Run a fixed grid of CLI calls against one checkout and digest their output.

    python3 tools/cli_grid.py CHECKOUT > grid.txt

CHECKOUT is the root of a graphcurves source tree; its ``src`` is imported
and ``graphcurves.cli.main`` is called in-process once per grid point.
Each call prints one line, ``sha256(stdout) exit_code args``, and the last
line is ``total sha256`` over all call lines.  A call that raises is
recorded as exit ``raised:ExceptionName``, its traceback going to stderr.
Two checkouts whose grid files are equal print the same report bytes and
exit codes on every call; ``diff`` of the two files names the calls that
differ.

The grid: all six subcommands; the catalog graphs plus graph JSON files of
``random_trivalent(V, s)`` for V = 8, 20, 40 and s = 0, 1; ``--seed`` 0..2;
no ``--domain``, ``--domain exact`` and ``--domain float``.  Options a
subcommand does not take exit 2 and are kept, so the option surface is
compared too.  Graph files go to a temporary directory and are shown by
file name only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

COMMANDS = ("graph", "sections", "flat", "higgs", "hitchin", "spectral")
RANDOM_GRAPHS = [(v, s) for v in (8, 20, 40) for s in (0, 1)]
SEEDS = (0, 1, 2)
DOMAINS = (None, "exact", "float")


def _call(main, argv):
    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not a stop
            code = f"raised:{type(exc).__name__}"
            crash = traceback.format_exc()
    if crash:
        print(" ".join(argv), crash, sep="\n", file=sys.stderr)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/cli_grid.py CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from graphcurves.cli import main as cli_main
    from graphcurves.graphs import CATALOG_NAMES, graph_to_json, random_trivalent

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        graphs = [(name, name) for name in CATALOG_NAMES]
        for v, s in RANDOM_GRAPHS:
            path = Path(tmp) / f"random_{v}_{s}.json"
            path.write_text(json.dumps(graph_to_json(random_trivalent(v, s))))
            graphs.append((str(path), path.name))
        for command in COMMANDS:
            for spec, label in graphs:
                for seed in SEEDS:
                    for domain in DOMAINS:
                        tail = ["--seed", str(seed)]
                        if domain is not None:
                            tail += ["--domain", domain]
                        digest, code = _call(cli_main,
                                             [command, "--graph", spec, *tail])
                        line = " ".join([digest, str(code), command, label, *tail])
                        print(line, flush=True)
                        total.update((line + "\n").encode())
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
