"""Time the stages of the higgs, hitchin and sections calls, in both domains.

    python3 tools/stage_times.py [CHECKOUT] [--vertices 40 80] [--repeats 3] [--seed 1]

CHECKOUT (default: this checkout) is the root of a graphcurves source
tree that has ``sections._biresidue_rows``; its ``src`` is imported.
For each V the graph is
``random_trivalent(V, seed)`` and the framing ``Framing.random(graph,
seed, domain)``.  Each stage is timed with ``time.perf_counter``, and
each cell prints ``min / median`` of the repeats, so a stage whose
repeats spread wider than a change can be seen as such.  There is one
Markdown table row per stage and V, with an exact and a float column:

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
  printing the report, with stdout and stderr captured;
* Higgs assembly: the system the Higgs solve builds, on a fresh framing
  built untimed, as for the Higgs solve: the sparse integer rows of the
  node cancellation (``linalg._integer_row`` of each of
  ``higgs._higgs_rows``, as ``sections._section_space`` reads them) when
  exact, the per-vertex sums in edge coordinates
  (``higgs._float_residue_system``) when float;
* Higgs elimination: on that system, built untimed, the reduced echelon
  form (``linalg._echelon``) when exact, the kernel array
  (``linalg._float_kernel``) when float;
* Higgs kernel form, exact only: the working form read off that echelon
  form, built untimed (``linalg._kernel_numerators``, then
  ``sections._live_form`` per field);
* Higgs fields on first read: ``basis[0]`` of a fresh solve's basis,
  which makes every field of the basis;
* flat linearization: ``flat_linearization(zero_section(framing))``;
* ``canonical_space`` and ``double_canonical_space`` of the graph, as
  the ``sections`` call solves them;
* bi-residue rank: the rank that ``cli.cmd_sections`` takes of the
  bi-residue rows of the double-canonical basis, built untimed in the
  basis's working form (``sections._biresidue_rows``): integer rows
  when exact, one complex array when float.

The four Higgs rows split the Higgs solve; a cell that does not apply
prints ``-``.

The numbers are wall times of one process on a possibly shared machine;
compare stages within one run and claim speed-ups only from the
benchmark.

A second table gives the rank margins of the float systems on the float
framing of each V: the per-vertex-sum system in orthonormal per-edge
coordinates (``higgs._float_residue_system``, which ``higgs_space``
solves), the node-cancellation system (``assemble_higgs_constraints``)
of the same framing, and the float Hitchin Jacobian at
``random_higgs_field(framing, seed)``.  Each row shows the rank r the SVD
threshold keeps, the smallest kept singular value s_{r-1}/s_0, the
largest dropped one s_r/s_0 (``-`` when r is min(rows, columns): the
whole kernel then comes from the shape), the smallest singular value
over the Frobenius norm, s_min/norm_F, and the path the float rank and
kernel take: ``certificate`` when ``linalg._full_rank`` holds (s_min/norm_F
above ``FULL_RANK_RTOL`` = 1e-5, no SVD), ``SVD`` otherwise.  The
threshold is ``RANK_RTOL`` = 1e-9.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("Higgs solve", "higgs_residual over the basis", "hitchin_jacobian",
          "FD rows", "FD compare", "bires_coordinates over the 2K basis",
          "hitchin trial", "Higgs assembly", "Higgs elimination", "Higgs kernel form",
          "Higgs fields on first read", "flat linearization", "canonical_space",
          "double_canonical_space", "bi-residue rank")


def _times(repeats, run, setup=lambda: None):
    """(min, median) over repeats of the time of run(setup())."""
    times = []
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def _hitchin_trial(path: str, seed: int, domain: str) -> None:
    """One hitchin CLI call on the graph file at path, its output captured."""
    from graphcurves import cli

    argv = ["hitchin", "--graph", path, "--seed", str(seed), "--domain", domain]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        if cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed: {err.getvalue()}")


def _higgs_split(graph, seed: int, domain: str, repeats: int):
    """The times of the Higgs assembly, elimination, kernel form (None
    when float) and fields on first read."""
    from graphcurves import sections
    from graphcurves.framings import Framing
    from graphcurves.higgs import _float_residue_system, _higgs_rows, higgs_space
    from graphcurves.linalg import _echelon, _float_kernel, _integer_row, _kernel_numerators

    def framing():
        return Framing.random(graph, seed, domain)

    def first_field(basis):
        return basis[0]

    fields = _times(repeats, first_field, lambda: higgs_space(framing()).basis)
    if domain == "float":
        ncols = 3 * len(graph.edges)
        return (_times(repeats, _float_residue_system, framing),
                _times(repeats, lambda rows: _float_kernel(rows, ncols),
                       lambda: _float_residue_system(framing())[0]),
                None, fields)
    ncols = 6 * graph.vertex_count

    def integer_rows(f):
        return [_integer_row(row) for row in _higgs_rows(f)]

    def echelon():
        rows = integer_rows(framing())
        return rows, _echelon(rows, ncols, reduced=True)

    def kernel_form(reduced):
        return tuple(sections._live_form(ints.items(), den, 6)
                     for ints, den in _kernel_numerators(*reduced, ncols))

    return (_times(repeats, integer_rows, framing),
            _times(repeats, lambda rows: _echelon(rows, ncols, reduced=True),
                   lambda: integer_rows(framing())),
            _times(repeats, kernel_form, echelon), fields)


def _section_times(graph, domain: str, repeats: int):
    """The times of canonical_space, double_canonical_space and the
    bi-residue rank of the sections call."""
    from graphcurves import sections
    from graphcurves.linalg import rank

    def bires_rows():
        return sections._biresidue_rows(sections.double_canonical_space(graph, domain).basis)[0]

    nedges = len(graph.edges)
    return (_times(repeats, lambda _: sections.canonical_space(graph, domain)),
            _times(repeats, lambda _: sections.double_canonical_space(graph, domain)),
            _times(repeats, lambda rows: rank(rows, nedges, domain), bires_rows))


def stage_times(vertices: int, seed: int, domain: str, repeats: int) -> dict:
    from graphcurves import hitchin
    from graphcurves.framings import Framing, flat_linearization, zero_section
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
    fd_rows = _times(repeats, lambda _: build_fd_rows(check_phi, check_basis))
    built = build_fd_rows(check_phi, check_basis)
    hitchin._float_fd_rows = lambda *args, **kwargs: built
    try:
        fd_compare = _times(repeats, lambda _: jacobian_fd_error(
            check_phi, check_framing, jacobian=jacobian))
    finally:
        hitchin._float_fd_rows = build_fd_rows
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "graph.json")
        Path(path).write_text(json.dumps(graph_to_json(graph)))
        trial = _times(repeats, lambda _: _hitchin_trial(path, seed, domain))
    times = (
        _times(repeats, higgs_space, lambda: Framing.random(graph, seed, domain)),
        _times(repeats, lambda _: higgs_residual(basis, framing)),
        _times(repeats, lambda _: hitchin_jacobian(phi, framing)),
        fd_rows,
        fd_compare,
        _times(repeats, lambda _: bires_coordinates(quadratics)),
        trial,
        *_higgs_split(graph, seed, domain, repeats),
        _times(repeats, lambda _: flat_linearization(zero_section(framing))),
        *_section_times(graph, domain, repeats),
    )
    return dict(zip(STAGES, times))


def rank_margins(vertices: int, seed: int) -> dict:
    """(shape, r, s_{r-1}/s_0, s_r/s_0 or None, s_min/norm_F, path) per
    float system."""
    import numpy as np

    from graphcurves.framings import Framing
    from graphcurves.graphs import random_trivalent
    from graphcurves.higgs import (_float_residue_system, assemble_higgs_constraints,
                                   random_higgs_field)
    from graphcurves.hitchin import hitchin_jacobian
    from graphcurves.linalg import _full_rank, _svd_rank

    framing = Framing.random(random_trivalent(vertices, seed), seed, "float")
    out = {}
    for name, build in (
            ("residue sums", lambda f: _float_residue_system(f)[0]),
            ("node cancellation", assemble_higgs_constraints),
            ("Hitchin Jacobian",
             lambda f: hitchin_jacobian(random_higgs_field(f, seed), f).matrix)):
        a = np.array(build(framing), dtype=complex)
        s = np.linalg.svd(a, compute_uv=False)
        r = _svd_rank(s)
        path = "certificate" if _full_rank(a) else "SVD"
        out[name] = (a.shape, r, s[r - 1] / s[0], s[r] / s[0] if r < len(s) else None,
                     s[-1] / np.linalg.norm(a), path)
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
    print("| stage | V | exact s, min / median | float s, min / median |")
    print("|---|---|---|---|")
    for v in args.vertices:
        exact = stage_times(v, args.seed, "exact", args.repeats)
        floats = stage_times(v, args.seed, "float", args.repeats)
        for stage in STAGES:
            cells = " | ".join("-" if times[stage] is None
                               else "{:.4f} / {:.4f}".format(*times[stage])
                               for times in (exact, floats))
            print(f"| {stage} | {v} | {cells} |")
    print()
    print("| system | V | shape | rank | s_{r-1}/s_0 | s_r/s_0 | s_min/norm_F | path |")
    print("|---|---|---|---|---|---|---|---|")
    for v in args.vertices:
        for name, (shape, r, kept, dropped, least, path) in rank_margins(
                v, args.seed).items():
            dropped = "-" if dropped is None else f"{dropped:.2e}"
            print(f"| {name} | {v} | {shape[0]}x{shape[1]} | {r} | {kept:.2e} "
                  f"| {dropped} | {least:.2e} | {path} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
