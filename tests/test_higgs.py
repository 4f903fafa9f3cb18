from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.matrices import Mat2, conj
from graphcurves.linalg import KernelReport
from graphcurves.scalars import EXACT, FLOAT, _to_pairs
from graphcurves.framings import (Framing, GaugeTransform, apply_gauge, flat_linearization,
                                  flat_local_dimension, zero_section)
from graphcurves.higgs import (
    HiggsField,
    _float_combination,
    assemble_higgs_constraints,
    gauge_transform_higgs,
    higgs_from_edge_residues,
    higgs_residual,
    higgs_space,
    random_higgs_field,
    residue_parameterization,
    residue_parameterization_matrix,
)

from helpers import (bits, field_coefficients, higher_dart_higgs_constraints,
                     minor_rank, old_first_term_combination, old_higgs_residual,
                     old_random_higgs_field, svd_kernel, svd_rank)


GENERIC_DIM = {name: 3 * catalog_graph(name).genus - 3 for name in CATALOG_NAMES}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_higgs_dimension_generic(name):
    g = catalog_graph(name)
    for seed in range(3):
        sp = higgs_space(Framing.random(g, seed=seed))
        assert sp.dim == GENERIC_DIM[name]
        assert sp.rank == 9 * g.genus - 9


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_higgs_space_is_stored_on_the_framing(domain):
    for k, g in enumerate([catalog_graph("theta"), catalog_graph("k4"),
                           random_trivalent(20, 1)]):
        framing = Framing.random(g, seed=k, domain=domain)
        space = higgs_space(framing)
        assert higgs_space(framing) is space
        assert isinstance(space.basis, tuple)
        # an equal framing solves its own system, to the same bits
        twin = higgs_space(Framing.random(g, seed=k, domain=domain))
        assert twin is not space
        assert (twin.domain, twin.nrows, twin.ncols, twin.rank) == (
            space.domain, space.nrows, space.ncols, space.rank)
        assert bits([psi.coefficients for psi in twin.basis]) == bits(
            [psi.coefficients for psi in space.basis])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_higgs_dimension_identity_framing(name):
    # at the fully trivial framing the three matrix entries decouple,
    # so the space is three copies of the weight-one section space
    g = catalog_graph(name)
    sp = higgs_space(Framing.identity(g))
    assert sp.dim == 3 * g.genus


def test_higgs_ranks_against_minor_oracle():
    g = catalog_graph("theta")
    rows = assemble_higgs_constraints(Framing.random(g, seed=1))
    assert len(rows) == 9 and len(rows[0]) == 12
    assert minor_rank(rows) == 9
    rows = assemble_higgs_constraints(Framing.identity(g))
    assert minor_rank(rows) == 6


def test_basis_fields_satisfy_constraints_exactly():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        a = Framing.random(g, seed=5)
        assert higgs_residual(higgs_space(a).basis, a) == 0


def test_float_domain_dimension():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=5, domain=FLOAT)
    sp = higgs_space(a)
    assert sp.dim == 6
    assert higgs_residual(sp.basis, a) < 1e-9


def test_orientation_choice_does_not_change_kernel():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=6)
    low = assemble_higgs_constraints(a)
    high = higher_dart_higgs_constraints(a)
    assert high != low
    for phi in higgs_space(a).basis:
        vec = phi.coefficients
        for rows in (low, high):
            for row in rows:
                assert sum(c * x for c, x in zip(row, vec)) == 0


def test_residue_matrix_diagonal_example():
    g = catalog_graph("theta")
    vec = [Fraction(1), Fraction(-1), 0, 0, 0, 0] + [Fraction(0)] * 6
    phi = HiggsField(g, vec)
    assert phi.residue_matrix(0, 0).entries() == (1, 0, 0, -1)
    # residues (1, -1) cancel, so nothing survives at the third point
    assert phi.residue_matrix(0, 2).entries() == (0, 0, 0, 0)
    zero = HiggsField(g, [Fraction(0)] * 12)
    for v in range(2):
        for k in range(3):
            assert zero.residue_matrix(v, k).entries() == (0, 0, 0, 0)


def test_residue_matrices_are_traceless():
    g = catalog_graph("dumbbell")
    phi = random_higgs_field(Framing.random(g, seed=7), seed=8)
    for v in range(g.vertex_count):
        for k in range(3):
            assert phi.residue_matrix(v, k).trace() == 0


def test_vertex_residue_sum_vanishes():
    # holds for any field, constrained or not: each entry is a
    # differential whose three residues cancel
    g = catalog_graph("k33")
    phi = random_higgs_field(Framing.random(g, seed=9), seed=10)
    for v in range(g.vertex_count):
        total = (phi.residue_matrix(v, 0) + phi.residue_matrix(v, 1)
                 + phi.residue_matrix(v, 2))
        assert total.entries() == (0, 0, 0, 0)


def test_random_field_deterministic_and_constrained():
    g = catalog_graph("prism")
    a = Framing.random(g, seed=11)
    p1 = random_higgs_field(a, seed=3)
    p2 = random_higgs_field(a, seed=3)
    assert p1 == p2
    assert higgs_residual([p1], a) == 0
    p3 = random_higgs_field(a, seed=4)
    assert p1 != p3


def test_coefficient_vector_round_trip():
    g = catalog_graph("theta")
    phi = random_higgs_field(Framing.random(g, seed=1), seed=2)
    vec = phi.coefficients
    assert len(vec) == 6 * g.vertex_count
    back = HiggsField(g, list(vec))
    assert back.coefficients == vec
    assert back == phi


# -- gauge action -------------------------------------------------------


def test_gauge_moves_solutions_to_solutions():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=21)
    u = GaugeTransform.random(g, seed=22)
    ag = apply_gauge(u, a)
    gauged = [gauge_transform_higgs(u, phi) for phi in higgs_space(a).basis]
    assert higgs_residual(gauged, ag) == 0


def test_gauge_acts_by_conjugation_on_residues():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=23)
    u = GaugeTransform.random(g, seed=24)
    phi = random_higgs_field(a, seed=25)
    phig = gauge_transform_higgs(u, phi)
    for v in range(g.vertex_count):
        for k in range(3):
            expected = conj(u.matrix(v), phi.residue_matrix(v, k))
            assert phig.residue_matrix(v, k).entries() == expected.entries()


def test_identity_gauge_fixes_fields():
    g = catalog_graph("dumbbell")
    phi = random_higgs_field(Framing.random(g, seed=1), seed=1)
    same = gauge_transform_higgs(GaugeTransform.identity(g), phi)
    assert same == phi


def test_integer_residual_matches_fraction_oracle():
    graphs = ([catalog_graph(name) for name in CATALOG_NAMES]
              + [random_trivalent(v, 1) for v in range(2, 31, 2)])
    # det 1 with denominators, so the gauged framings are not integral
    rational = Mat2(Fraction(2), Fraction(1, 3), Fraction(0), Fraction(1, 2))
    for k, g in enumerate(graphs):
        framing = Framing.random(g, seed=k % 3)
        gauge = GaugeTransform(g, [rational] * g.vertex_count)
        for a in (framing, apply_gauge(gauge, framing)):
            basis = higgs_space(a).basis
            for phi in basis[:6]:
                assert bits(higgs_residual([phi], a)) == bits(old_higgs_residual(phi, a)) \
                    == bits(0)
            vec = list(basis[k % len(basis)].coefficients)
            vec[k % len(vec)] += Fraction(1, 7)
            bad = HiggsField(g, vec)
            worst = higgs_residual([bad], a)
            assert bits(worst) == bits(old_higgs_residual(bad, a))
            assert type(worst) is Fraction and worst > 0


def _as_python(x):
    """The oracle's numpy float as a float of the same bits."""
    return float(x) if isinstance(x, float) else x


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 15), st.integers(0, 10**6), st.sampled_from([EXACT, FLOAT]),
       st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(-9, 9).filter(bool),
                          st.integers(1, 9)), max_size=4))
def test_batched_residual_matches_the_mat2_oracle(half, seed, domain, gauged,
                                                  exact_fields, perturbations):
    # the batched check equals, to the bits, the largest per-field Mat2
    # residual: on kernel fields, on perturbed fields (residual > 0), on
    # framings gauged by a matrix with denominators, and on exact fields
    # checked on a float framing
    g = random_trivalent(2 * half, seed)
    framing = Framing.random(g, seed, domain)
    if gauged:
        rational = Mat2(Fraction(2), Fraction(1, 3), Fraction(0), Fraction(1, 2))
        framing = apply_gauge(GaugeTransform(g, [rational] * g.vertex_count), framing)
    source = framing
    if exact_fields and domain == FLOAT:
        source = Framing.random(g, seed, EXACT)
    basis = list(higgs_space(source).basis)
    fields = basis[:4]
    for k, (at, p, q) in enumerate(perturbations):
        vec = list(basis[k % len(basis)].coefficients)
        vec[at % len(vec)] += (Fraction(p, q) if source.domain == EXACT
                               else complex(p / q, q / p))
        fields.append(HiggsField(g, vec))
    oracle = max([0] + [old_higgs_residual(phi, framing) for phi in fields])
    worst = higgs_residual(fields, framing)
    assert bits(worst) == bits(_as_python(oracle))
    assert worst > 0 if perturbations else (worst == 0 or domain == FLOAT)
    assert higgs_residual([], framing) == 0


def test_exact_fields_on_float_framings():
    # an exact field is read in floats on a complex edge, as its complex
    # copy is read there, and stays exact on an integer edge of a float
    # framing
    for case in range(200):
        rng = Random(case)
        g = random_trivalent(8, case)
        fields = [HiggsField(g, [Fraction(rng.randint(-10**6, 10**6),
                                          rng.randint(1, 10**6))
                                 for _ in range(6 * g.vertex_count)])
                  for _ in range(4)]
        copies = [HiggsField(g, [complex(x) for x in phi.coefficients])
                  for phi in fields]
        framing = Framing.random(g, case, FLOAT)
        want = max(old_higgs_residual(phi, framing) for phi in copies)
        assert bits(higgs_residual(fields, framing)) == bits(want)
        identity = Framing.identity(g, FLOAT)
        want = max(old_higgs_residual(phi, identity) for phi in fields)
        assert type(want) is Fraction
        assert bits(higgs_residual(fields, identity)) == bits(want)


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_field_on_one_vertex_reports_its_three_edges(domain):
    # an exact field supported on one vertex is nonzero on only that
    # vertex's three edges, which the integer check must not skip; on the
    # identity framing each edge's residual is the residue at its dart,
    # and each of the three patterns puts the largest at another point
    one = Fraction(1) if domain == EXACT else 1 + 0j
    for g in (catalog_graph("k4"), catalog_graph("k33"), random_trivalent(12, 3)):
        framings = (Framing.identity(g), Framing.random(g, 5, domain))
        for v in range(g.vertex_count):
            for r0, r1 in ((3, -1), (1, -3), (1, 2)):
                vec = [0 * one] * (6 * g.vertex_count)
                vec[6 * v:6 * v + 2] = [r0 * one, r1 * one]
                phi = HiggsField(g, vec)
                for framing in framings:
                    worst = higgs_residual([phi], framing)
                    want = old_higgs_residual(phi, framing)
                    assert bits(worst) == bits(_as_python(want))
                if not any(g.is_loop(g.edge_index(d)) for d in g.vertex_darts(v)):
                    assert higgs_residual([phi], framings[0]) == 3


# -- residue parameterization ------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_parameterization_matches_flat_linearization(name):
    g = catalog_graph(name)
    for seed in (0, 1):
        a = Framing.random(g, seed=seed)
        rep = residue_parameterization(a)
        assert rep.matches_flat_linearization
        assert rep.kernel.dim == 3 * g.genus - 3
        assert higgs_residual(rep.basis_fields, a) == 0


def test_parameterization_matrix_equals_linearization_rows():
    # Bitwise equality in both domains: the flat command reports it with ==.
    for g in (catalog_graph("k33"), random_trivalent(40, seed=1)):
        for domain in (EXACT, FLOAT):
            a = Framing.random(g, seed=31, domain=domain)
            assert residue_parameterization_matrix(a) == \
                flat_linearization(zero_section(a))


def test_edge_residue_lift():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=32)
    rep = residue_parameterization(a)
    for vec in rep.kernel.basis:
        phi = higgs_from_edge_residues(a, vec)
        assert higgs_residual([phi], a) == 0


# -- the float solve in residue coordinates ------------------------------


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 20).map(lambda k: 2 * k), st.integers(0, 10**6),
       st.integers(0, 10**6), st.booleans())
# Framing seed 0 draws an edge of max-norm 26.4 (|Ad| about 890): with a
# plain residue per edge as the coordinates, the first basis met the node
# cancellation only to 6e-11; the others are larger graphs
@example(8, 2, 0, False)
@example(80, 0, 0, False)
@example(160, 1, 0, False)
def test_float_higgs_space_spans_the_node_cancellation_kernel(vertices, graph_seed,
                                                             seed, identity):
    # the basis solved in residue coordinates is orthonormal and spans the
    # kernel of the node-cancellation system, as an independent SVD finds it
    g = random_trivalent(vertices, graph_seed)
    framing = (Framing.identity(g, FLOAT) if identity
               else Framing.random(g, seed, FLOAT))
    report = higgs_space(framing)
    ncols = 6 * g.vertex_count
    basis = np.array([psi.coefficients for psi in report.basis]).T
    assert np.abs(basis.conj().T @ basis - np.eye(report.dim)).max() <= 1e-12
    rows = assemble_higgs_constraints(framing)
    oracle = svd_kernel(rows, ncols)
    assert oracle.shape == basis.shape
    cosines = np.linalg.svd(oracle.conj().T @ basis, compute_uv=False)
    assert cosines.min() >= 1 - 1e-10
    assert report.rank == ncols - report.dim == svd_rank(rows)
    assert report.nrows == len(rows) and report.ncols == ncols
    assert higgs_residual(report.basis, framing) <= 1e-12
    assert report.dim == flat_local_dimension(zero_section(framing))


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.5]) | st.floats(-1e3, 1e3)


# No shrinking, which over the drawn bases takes about a minute: the
# examples are derandomized, so the first failing one is reported as drawn.
@settings(derandomize=True, max_examples=60, deadline=None,
          phases=set(Phase) - {Phase.shrink})
@given(st.sampled_from(["theta", "k4"]), st.integers(1, 4), st.booleans(),
       st.integers(0, 10**6), st.data())
def test_float_combinations_match_the_scalar_loops(name, size, numpy_scalars,
                                                   seed, data):
    # a planted float basis, with signed zeros, of Python complex numbers or
    # of numpy.complex128 scalars of the same values: both starts of
    # _float_combination give Python complex numbers with the bits of the
    # loops of random_higgs_field and random_regular_higgs, run on the
    # Python complex basis
    g = catalog_graph(name)
    width = 6 * g.vertex_count
    values = [[complex(*data.draw(st.tuples(_ENTRIES, _ENTRIES)))
               for _ in range(width)] for _ in range(size)]
    kind = np.complex128 if numpy_scalars else complex
    basis = [HiggsField(g, [kind(z) for z in row]) for row in values]
    oracle_basis = [HiggsField(g, row) for row in values]
    report = KernelReport(domain=FLOAT, nrows=0, ncols=width, rank=0,
                          basis=oracle_basis)
    framing = Framing.identity(g, FLOAT)
    rng = Random(seed)
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in basis]
    parts = _to_pairs([psi.coefficients for psi in basis], width)
    assert bits(_float_combination(coeffs, parts, 0j)) == bits(
        field_coefficients(old_random_higgs_field(framing, seed, FLOAT, report)))
    assert bits(_float_combination(coeffs, parts)) == bits(
        field_coefficients(old_first_term_combination(coeffs, oracle_basis)))
