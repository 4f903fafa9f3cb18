"""The K and 2K spaces as lazy bases, and the bi-residue rows read off them.

canonical_space and double_canonical_space keep the kernel they solve
as the working form of a lazy basis (sections._Basis): its fields are
the ones exact_nullspace and float_nullspace give on the dense matrices,
made on first read.  The bi-residue rows of a 2K basis are read off that
form (sections._biresidue_rows), and the sections call ranks them as
they are, so an exact call makes no field and no Fraction.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphcurves.linalg as linalg_mod
import graphcurves.sections as sections_mod
from graphcurves import cli
from graphcurves.graphs import catalog_graph, graph_to_json, random_trivalent
from graphcurves.linalg import exact_nullspace, float_nullspace
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import (GlobalDifferential, GlobalQuadratic,
                                  bires_coordinates, canonical_matrix, canonical_space,
                                  double_canonical_matrix, double_canonical_space)

from helpers import bits

GRAPHS = st.builds(random_trivalent, st.integers(1, 12).map(lambda k: 2 * k),
                   st.integers(0, 10**6))
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(GRAPHS, st.sampled_from([EXACT, FLOAT]))
@example(catalog_graph("dumbbell"), EXACT)
@example(catalog_graph("dumbbell"), FLOAT)
@example(catalog_graph("theta"), FLOAT)
def test_lazy_section_fields_are_the_dense_kernels(graph, domain):
    # canonical_matrix's rows sum to zero, so the solve drops its last
    # row: the exact basis is still the dense kernel of all E rows, and
    # the float basis is the float kernel of the other E - 1
    V, E = graph.vertex_count, len(graph.edges)
    k_rows, q_rows = canonical_matrix(graph), double_canonical_matrix(graph)
    if domain == EXACT:
        k_want, q_want = exact_nullspace(k_rows, 2 * V), exact_nullspace(q_rows, 3 * V)
    else:
        k_want = float_nullspace(k_rows[:-1], 2 * V)
        q_want = float_nullspace(q_rows, 3 * V)
    for solve, cls, want in ((canonical_space, GlobalDifferential, k_want),
                             (double_canonical_space, GlobalQuadratic, q_want)):
        report = solve(graph, domain)
        ncols = cls.WIDTH * V
        assert (report.domain, report.nrows, report.ncols) == (domain, E, ncols)
        assert (report.dim, report.rank) == (len(want), ncols - len(want))
        basis = report.basis
        assert basis._fields is None  # len, forms and rank made no field
        assert [type(f) for f in basis] == [cls] * len(want)
        assert bits([f.coefficients for f in basis]) == bits([tuple(v) for v in want])
        assert all(f.graph == graph and f.domain == domain for f in basis)
        assert bits([f.coefficients for f in basis[1:3]]) == bits(
            [tuple(v) for v in want[1:3]])


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
@pytest.mark.parametrize("graph", [("k33",), ("dumbbell",), (20, 0), (40, 2)], ids=str)
def test_biresidue_rows_of_a_basis_are_its_fields_rows(graph, domain):
    # the rows read off a 2K basis's working form make no field, and are
    # the rows bires_coordinates gives on its fields
    g = catalog_graph(*graph) if len(graph) == 1 else random_trivalent(*graph)
    basis = double_canonical_space(g, domain).basis
    rows, dens = sections_mod._biresidue_rows(basis)
    assert basis._fields is None
    want = bires_coordinates(list(basis))
    if domain == EXACT:
        # each integer row is its Fraction row times a positive den
        assert all(type(x) is int for row in rows for x in row)
        assert all(den > 0 and [x * den for x in coords] == row
                   for row, den, coords in zip(rows, dens, want))
    else:
        assert dens is None and bits(rows.tolist()) == bits(want)


@pytest.mark.parametrize("graph", [("k4",), (20, 1)], ids=str)
def test_biresidue_rows_of_a_basis_over_denominators(graph):
    # the K and 2K kernels of these graphs have denominator 1; 1/(k + 2)
    # times vector k gives a basis of the same space over other
    # denominators, whose integer rows are their Fraction rows times them
    g = catalog_graph(*graph) if len(graph) == 1 else random_trivalent(*graph)
    ncols = 3 * g.vertex_count
    rows = [linalg_mod._integer_row(row) for row in double_canonical_matrix(g)]
    kernel = [(ints, den * (k + 2))
              for k, (ints, den) in enumerate(linalg_mod._integer_kernel(rows, ncols))]
    basis = sections_mod._exact_basis(GlobalQuadratic, g, kernel)
    rows, dens = sections_mod._biresidue_rows(basis)
    want = bires_coordinates(list(basis))
    assert {x.denominator for row in want for x in row} > {1}
    assert dens == [den for _, den in kernel]
    assert [[Fraction(x, den) for x in row] for row, den in zip(rows, dens)] == want


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(random_trivalent(20, 1))))
    return str(path)


def _sections(path, domain, capsys):
    assert cli.main(["sections", "--graph", path, "--domain", domain]) == 0
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_a_sections_call_makes_no_field(graph_file, domain, capsys, monkeypatch):
    want = _sections(graph_file, domain, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("a field or a Fraction was made")

    for cls in (GlobalDifferential, GlobalQuadratic):
        monkeypatch.setattr(cls, "_checked", classmethod(refuse))
        monkeypatch.setattr(cls, "__init__", refuse)
    if domain == EXACT:  # nor a Fraction: the kernels and the rank run on ints
        monkeypatch.setattr(Fraction, "__new__", refuse)
    assert _sections(graph_file, domain, capsys) == want


def test_the_float_bires_rank_reads_imaginary_parts(graph_file, capsys, monkeypatch):
    # i times a basis of the complex kernel is a basis too, all of whose
    # coordinates are imaginary: the rank of the bi-residue rows is the
    # same, 3g - 3
    want = _sections(graph_file, FLOAT, capsys)
    assert want["bires_rank"] == 3 * want["genus"] - 3

    def rotated(rows, ncols):
        return 1j * linalg_mod._float_kernel(rows, ncols).real

    monkeypatch.setattr(sections_mod, "_float_kernel", rotated)
    assert _sections(graph_file, FLOAT, capsys) == want
