"""Time the stages of the higgs, hitchin and sections calls, in both domains.

    python3 tools/stage_times.py [CHECKOUT] [--vertices 40 80] [--repeats 3] [--seed 1]

CHECKOUT (default: this checkout) is the root of a graphcurves source
tree that has ``hitchin._float_fd_rows``; its ``src`` is imported.  For each V the graph is
``random_trivalent(V, seed)`` and the framing ``Framing.random(graph,
seed, domain)``.  Each stage is timed with ``time.perf_counter`` and the
minimum of the repeats is printed, as one Markdown table row per stage
and V with an exact and a float column:

* Higgs solve: ``higgs_space`` on a fresh framing (a framing keeps its
  solve, so each repeat builds a new one, untimed);
* ``higgs_residual`` over the Higgs basis;
* ``hitchin_jacobian`` at ``random_higgs_field(framing, seed)``;
* FD rows: the central-difference rows that ``jacobian_fd_error``
  builds (``hitchin._float_fd_rows``) on the field and framing of
  ``cli.cmd_hitchin``'s check: a float trial checks its own, an exact
  trial the float field on the float framing of the same seed;
* FD compare: the rest of ``jacobian_fd_error`` as ``cmd_hitchin`` calls
  it, timed with those rows built beforehand.  A float trial passes the
  Jacobian it built; an exact trial's check builds float Jacobian rows,
  with no rank, and that is part of this stage;
* ``bires_coordinates`` over the double-canonical basis, in one call;
* hitchin trial: one ``cli.main(["hitchin", ...])`` call in the domain
  on a temporary JSON file of the graph, from reading the file through
  printing the report, with stdout and stderr captured.

The numbers are wall times of one process on a possibly shared machine;
compare stages within one run and claim speed-ups only from the
benchmark.

A second table gives the rank margins of the float Higgs solve on the
float framing of each V: for the per-vertex-sum system in orthonormal
per-edge coordinates (``higgs._float_residue_system``, which
``higgs_space`` solves) and the node-cancellation system
(``assemble_higgs_constraints``) of the same framing, the rank r the SVD threshold keeps, the smallest
kept singular value s_{r-1}/s_0 and the largest dropped one s_r/s_0 (``-``
when r is the number of rows: the whole kernel then comes from the
shape).  The threshold is ``RANK_RTOL`` = 1e-9.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("Higgs solve", "higgs_residual over the basis", "hitchin_jacobian",
          "FD rows", "FD compare", "bires_coordinates over the 2K basis",
          "hitchin trial")


def _best(repeats, run, setup=lambda: None):
    """Minimum over repeats of the time of run(setup())."""
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


def _hitchin_trial(path: str, seed: int, domain: str) -> None:
    """One hitchin CLI call on the graph file at path, its output captured."""
    from graphcurves import cli

    argv = ["hitchin", "--graph", path, "--seed", str(seed), "--domain", domain]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        if cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed: {err.getvalue()}")


def stage_times(vertices: int, seed: int, domain: str, repeats: int) -> dict:
    from graphcurves import hitchin
    from graphcurves.framings import Framing
    from graphcurves.graphs import graph_to_json, random_trivalent
    from graphcurves.higgs import higgs_residual, higgs_space, random_higgs_field
    from graphcurves.hitchin import hitchin_jacobian, jacobian_fd_error
    from graphcurves.sections import bires_coordinates, double_canonical_space

    graph = random_trivalent(vertices, seed)
    framing = Framing.random(graph, seed, domain)
    basis = higgs_space(framing).basis
    phi = random_higgs_field(framing, seed)
    if domain == "float":
        check_framing, check_phi = framing, phi
        jacobian = hitchin_jacobian(phi, framing).matrix
    else:
        check_framing = Framing.random(graph, seed, "float")
        check_phi = random_higgs_field(check_framing, seed)
        jacobian = None
    quadratics = double_canonical_space(graph, domain).basis
    build_fd_rows = hitchin._float_fd_rows
    check_basis = higgs_space(check_framing).basis
    fd_rows = _best(repeats, lambda _: build_fd_rows(check_phi, check_basis))
    built = build_fd_rows(check_phi, check_basis)
    hitchin._float_fd_rows = lambda *args, **kwargs: built
    try:
        fd_compare = _best(repeats, lambda _: jacobian_fd_error(
            check_phi, check_framing, jacobian=jacobian))
    finally:
        hitchin._float_fd_rows = build_fd_rows
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "graph.json")
        Path(path).write_text(json.dumps(graph_to_json(graph)))
        trial = _best(repeats, lambda _: _hitchin_trial(path, seed, domain))
    times = (
        _best(repeats, higgs_space, lambda: Framing.random(graph, seed, domain)),
        _best(repeats, lambda _: higgs_residual(basis, framing)),
        _best(repeats, lambda _: hitchin_jacobian(phi, framing)),
        fd_rows,
        fd_compare,
        _best(repeats, lambda _: bires_coordinates(quadratics)),
        trial,
    )
    return dict(zip(STAGES, times))


def rank_margins(vertices: int, seed: int) -> dict:
    """(shape, r, s_{r-1}/s_0, s_r/s_0 or None) per float Higgs system."""
    import numpy as np

    from graphcurves.framings import Framing
    from graphcurves.graphs import random_trivalent
    from graphcurves.higgs import _float_residue_system, assemble_higgs_constraints
    from graphcurves.linalg import _svd_rank

    framing = Framing.random(random_trivalent(vertices, seed), seed, "float")
    out = {}
    for name, build in (("residue sums", lambda f: _float_residue_system(f)[0]),
                        ("node cancellation", assemble_higgs_constraints)):
        a = np.array(build(framing), dtype=complex)
        s = np.linalg.svd(a, compute_uv=False)
        r = _svd_rank(s)
        out[name] = (a.shape, r, s[r - 1] / s[0], s[r] / s[0] if r < len(s) else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--vertices", type=int, nargs="+", default=[40, 80])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    print("| stage | V | exact s | float s |")
    print("|---|---|---|---|")
    for v in args.vertices:
        exact = stage_times(v, args.seed, "exact", args.repeats)
        floats = stage_times(v, args.seed, "float", args.repeats)
        for stage in STAGES:
            print(f"| {stage} | {v} | {exact[stage]:.4f} | {floats[stage]:.4f} |")
    print()
    print("| system | V | shape | rank | s_{r-1}/s_0 | s_r/s_0 |")
    print("|---|---|---|---|---|---|")
    for v in args.vertices:
        for name, (shape, r, kept, dropped) in rank_margins(v, args.seed).items():
            dropped = "-" if dropped is None else f"{dropped:.2e}"
            print(f"| {name} | {v} | {shape[0]}x{shape[1]} | {r} | {kept:.2e} | {dropped} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
