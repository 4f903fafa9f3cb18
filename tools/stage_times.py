"""Time the stages of the higgs, hitchin and sections calls, in both domains.

    python3 tools/stage_times.py [CHECKOUT] [--vertices 40 80] [--repeats 3] [--seed 1]

CHECKOUT (default: this checkout) is the root of a graphcurves source
tree; its ``src`` is imported.  For each V the graph is
``random_trivalent(V, seed)`` and the framing ``Framing.random(graph,
seed, domain)``.  Each stage is timed with ``time.perf_counter`` and the
minimum of the repeats is printed, as one Markdown table row per stage
and V with an exact and a float column:

* Higgs solve: ``higgs_space`` on a fresh framing (a framing keeps its
  solve, so each repeat builds a new one, untimed);
* ``higgs_residual`` over the Higgs basis;
* ``hitchin_jacobian`` at ``random_higgs_field(framing, seed)``;
* ``jacobian_fd_error`` as ``cli.cmd_hitchin`` calls it: a float trial
  passes the Jacobian it built, an exact trial checks a float field on
  a float framing of the same seed, which builds its own Jacobian;
* ``bires_coordinates`` over the double-canonical basis.

The numbers are wall times of one process on a possibly shared machine;
compare stages within one run and claim speed-ups only from the
benchmark.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

STAGES = ("Higgs solve", "higgs_residual over the basis", "hitchin_jacobian",
          "jacobian_fd_error", "bires_coordinates over the 2K basis")


def _best(repeats, run, setup=lambda: None):
    """Minimum over repeats of the time of run(setup())."""
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


def stage_times(vertices: int, seed: int, domain: str, repeats: int) -> dict:
    from graphcurves.framings import Framing
    from graphcurves.graphs import random_trivalent
    from graphcurves.higgs import higgs_residual, higgs_space, random_higgs_field
    from graphcurves.hitchin import hitchin_jacobian, jacobian_fd_error
    from graphcurves.sections import bires_coordinates, double_canonical_space

    graph = random_trivalent(vertices, seed)
    framing = Framing.random(graph, seed, domain)
    basis = higgs_space(framing).basis
    phi = random_higgs_field(framing, seed)
    jacobian = hitchin_jacobian(phi, framing).matrix
    if domain == "float":
        def fd_check(_):
            jacobian_fd_error(phi, framing, jacobian=jacobian)
    else:
        float_framing = Framing.random(graph, seed, "float")
        float_phi = random_higgs_field(float_framing, seed)

        def fd_check(_):
            jacobian_fd_error(float_phi, float_framing)
    quadratics = double_canonical_space(graph, domain).basis
    times = (
        _best(repeats, higgs_space, lambda: Framing.random(graph, seed, domain)),
        _best(repeats, lambda _: higgs_residual(basis, framing)),
        _best(repeats, lambda _: hitchin_jacobian(phi, framing)),
        _best(repeats, fd_check),
        _best(repeats, lambda _: [bires_coordinates(q) for q in quadratics]),
    )
    return dict(zip(STAGES, times))


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
