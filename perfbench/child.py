"""One benchmark operation or set-up in a fresh process.

    python perfbench/child.py [--trace-out FILE] cli <graphcurves arguments>
    python perfbench/child.py [--trace-out FILE] twist GRAPH_FILE SEED EXPONENTS
    python perfbench/child.py setup WORKLOAD SEED DIR

``cli`` runs ``graphcurves.cli.main`` exactly as ``python -m graphcurves``
would; it exists for the traced run, which needs the tracer installed
before the command starts.  ``twist`` builds the spectral line bundle of
a seeded regular Higgs field on the graph, twists it by the parameters
2**e for the comma-separated exponents e, and prints the twist report as
JSON; only the twist itself is traced, not building the bundle.
``setup`` imports the package and prepares a workload's inputs in DIR,
then prints the seconds both took, so that every timed set-up pays the
import.  With ``--trace-out`` the process records spans and writes
them, with its import time and JSON time, to FILE.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    mode, rest = argv[0], argv[1:]

    start = time.perf_counter()
    import graphcurves  # noqa: F401  (timed: the import a CLI call pays)
    from graphcurves import cli
    import_s = time.perf_counter() - start

    if mode == "setup":
        from workloads import WORKLOADS, prepare

        name, seed, workdir = rest
        prepare(WORKLOADS[name], int(seed), Path(workdir))
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "twist":
        from graphcurves.graphs import graph_from_json
        from workloads import build_bundle, twist_report

        graph_file, seed, exponents = rest
        graph = graph_from_json(json.loads(Path(graph_file).read_text()))
        bundle = build_bundle(graph, int(seed))

    tracer = json_timer = None
    if trace_out is not None:
        from layers import EXPECTED_FUNCTIONS
        from tracer import JsonTimer, Tracer

        tracer = Tracer().install(EXPECTED_FUNCTIONS)
        json_timer = cli.json = JsonTimer(cli.json)

    if mode == "cli":
        if tracer is not None:
            tracer.begin_op(rest[0])
        try:
            code = cli.main(rest)
        finally:
            if tracer is not None:
                tracer.end_op()
    elif mode == "twist":
        report = twist_report(bundle, [int(e) for e in exponents.split(",")],
                              tracer)
        print(json.dumps(report, sort_keys=True))
        code = 0
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2

    if tracer is not None:
        tracer.uninstall()
        trace_out.write_text(json.dumps({
            "import_s": import_s,
            "json_s": json_timer.seconds,
            "summary": tracer.summary(),
            "spans": tracer.span_records(),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
