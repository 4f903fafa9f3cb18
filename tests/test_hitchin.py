from fractions import Fraction
from random import Random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from graphcurves.errors import MatchingViolated, ValidationError
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import GlobalQuadratic
from graphcurves.framings import Framing
from graphcurves.higgs import HiggsField, higgs_residual, higgs_space, random_higgs_field
from graphcurves.linalg import KernelReport, rank
from graphcurves.matrices import to_complex_mat
from graphcurves.hitchin import (
    bires_det_residual,
    finite_difference_jacobian,
    hitchin_edge_coords,
    hitchin_image,
    hitchin_jacobian,
    is_regular,
    jacobian_fd_error,
    polarization,
)

from helpers import (
    bits,
    field_coefficients,
    fraction_rref,
    old_bires_coordinates,
    old_finite_difference_jacobian,
    old_higgs_residual,
    old_hitchin_image,
    old_hitchin_jacobian_rows,
    old_polarization,
    old_random_higgs_field,
    old_residue_matrix,
    quadratic_coefficients,
    vertex_data,
)


def diagonal_field(graph):
    """w11 = (1, 0) on every vertex, off-diagonal entries zero."""
    vec = []
    for _ in range(graph.vertex_count):
        vec.extend([Fraction(1), Fraction(0), 0, 0, 0, 0])
    return HiggsField(graph, vec)


def biresidue(omega, v, point):
    """Bi-residue of a GlobalQuadratic at a marked point of vertex v."""
    q0, q1, q2 = omega.coefficients[3 * v:3 * v + 3]
    return (q0, q0 + q1 + q2, q2)[point]


def test_hitchin_image_diagonal_frozen():
    g = catalog_graph("theta")
    omega = hitchin_image(diagonal_field(g))
    assert omega.coefficients == (-1, 2, -1) * 2
    for v in range(2):
        assert [biresidue(omega, v, k) for k in range(3)] == [-1, 0, -1]


def test_biresidues_of_image_are_residue_determinants():
    g = catalog_graph("k4")
    phi = random_higgs_field(Framing.random(g, seed=1), seed=2)
    omega = hitchin_image(phi)
    for v in range(g.vertex_count):
        for k in range(3):
            assert biresidue(omega, v, k) == phi.residue_matrix(v, k).det()


def test_bires_det_residual_vanishes_identically():
    # holds for arbitrary coefficient vectors, not only Higgs solutions
    rng = Random(7)
    for name in ("theta", "k33"):
        g = catalog_graph(name)
        for _ in range(10):
            vec = [Fraction(rng.randint(-9, 9)) for _ in range(6 * g.vertex_count)]
            phi = HiggsField(g, vec)
            assert bires_det_residual(phi) == 0


def test_bires_det_residual_float():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=3, domain=FLOAT)
    phi = random_higgs_field(a, seed=4)
    assert bires_det_residual(phi) < 1e-12


def test_edge_coords_need_node_matching():
    g = catalog_graph("theta")
    # scale one vertex so the residue determinants disagree across nodes
    vec = ([Fraction(1), Fraction(0), 0, 0, 0, 0]
           + [Fraction(2), Fraction(0), 0, 0, 0, 0])
    phi = HiggsField(g, vec)
    with pytest.raises(MatchingViolated):
        hitchin_edge_coords(phi)


def test_edge_coords_of_solutions():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=5)
    phi = random_higgs_field(a, seed=6)
    coords = hitchin_edge_coords(phi)
    assert len(coords) == len(g.edges)
    omega = hitchin_image(phi)
    for e, (lo, hi) in enumerate(g.edges):
        v, k = g.vertex_of(lo), g.marked_point(lo)
        assert coords[e] == biresidue(omega, v, k)


def test_polarization_is_symmetric():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=7)
    phi = random_higgs_field(a, seed=8)
    psi = random_higgs_field(a, seed=9)
    assert polarization(phi, psi) == polarization(psi, phi)


@pytest.mark.parametrize("first", [0, 0j])
def test_is_regular_float_rule_with_int_first_entry(first):
    # the float rule's relative threshold also flags vertex 1, whatever
    # the spelling of the first entry
    g = catalog_graph("theta")
    omega = GlobalQuadratic(g, [first, 1.0 + 0j, 2.0 + 0j, 1e-14 + 0j, 1.0 + 0j,
                                3.0 + 0j])
    assert is_regular(omega).failures == [(0, "zero_at_node_0"),
                                          (1, "zero_at_node_0")]


def test_exact_fields_with_int_entries_match_the_rational_oracle():
    # an int is exact, so a field with some int entries takes the
    # integer-numerator paths and gives the values of the rational ones
    for name in ("theta", "k4", "prism"):
        g = catalog_graph(name)
        framing = Framing.random(g, seed=3)
        basis = higgs_space(framing).basis
        phi = random_higgs_field(framing, 4)
        ints = HiggsField(g, [int(x) if x.denominator == 1 else x
                              for x in phi.coefficients])
        assert ints.domain == EXACT and int in set(map(type, ints.coefficients))
        rows = old_hitchin_jacobian_rows(g, vertex_data(ints),
                                         [vertex_data(b) for b in basis])
        jac = hitchin_jacobian(ints, framing, basis)
        assert jac.matrix == rows
        assert jac.rank == rank(rows, len(g.edges), EXACT) == 3 * g.genus - 3
        for field in (ints, diagonal_field(g)):
            assert higgs_residual([field], framing) == old_higgs_residual(field, framing)


def test_polarization_diagonal_recovers_image():
    # B(phi, phi) = 2 det(phi)
    g = catalog_graph("dumbbell")
    phi = random_higgs_field(Framing.random(g, seed=10), seed=11)
    b = polarization(phi, phi)
    omega = hitchin_image(phi)
    assert b.coefficients == tuple(2 * q for q in omega.coefficients)


def test_polarization_expands_determinant():
    # det(phi + psi) = det phi + B(phi, psi) + det psi
    g = catalog_graph("theta")
    a = Framing.random(g, seed=12)
    phi = random_higgs_field(a, seed=13)
    psi = random_higgs_field(a, seed=14)
    lhs = hitchin_image(HiggsField(g, [x + y for x, y in
                                       zip(phi.coefficients, psi.coefficients)]))
    parts = (hitchin_image(phi), polarization(phi, psi), hitchin_image(psi))
    total = tuple(a + b + c for a, b, c in zip(*(p.coefficients for p in parts)))
    assert lhs.coefficients == total


@pytest.mark.parametrize("name", ["theta", "k4"])
def test_jacobian_generic_rank(name):
    g = catalog_graph(name)
    a = Framing.random(g, seed=15)
    phi = random_higgs_field(a, seed=16)
    rep = hitchin_jacobian(phi, a)
    assert rep.basis_size == 3 * g.genus - 3
    assert rep.rank == 3 * g.genus - 3


def test_jacobian_vanishes_at_zero_field():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=17)
    zero = HiggsField(g, [Fraction(0)] * 12)
    rep = hitchin_jacobian(zero, a)
    assert rep.rank == 0


def test_jacobian_matches_finite_differences():
    for name in ("theta", "k4"):
        g = catalog_graph(name)
        a = Framing.random(g, seed=18, domain=FLOAT)
        for seed in range(3):
            phi = random_higgs_field(a, seed=seed)
            assert jacobian_fd_error(phi, a) < 1e-6


def test_finite_difference_rows_shape():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=19, domain=FLOAT)
    phi = random_higgs_field(a, seed=20)
    rows = finite_difference_jacobian(phi, a)
    assert len(rows) == 3
    assert all(len(r) == 3 for r in rows)


# -- regularity ---------------------------------------------------------


def quadratic(graph, *coeff_triples):
    return GlobalQuadratic(graph, [Fraction(q) for t in coeff_triples for q in t])


def test_regular_example():
    g = catalog_graph("theta")
    rep = is_regular(quadratic(g, (-1, 3, -3), (-1, 3, -3)))
    assert rep.regular
    assert rep.failures == []


def test_irregular_degree_drop():
    g = catalog_graph("theta")
    rep = is_regular(quadratic(g, (-1, 0, 0), (-1, 3, -3)))
    assert not rep.regular
    assert (0, "zero_at_infinity") in rep.failures
    assert (0, "double_zero") in rep.failures
    assert all(v == 0 for v, _ in rep.failures)


def test_irregular_zero_hits_nodes():
    g = catalog_graph("theta")
    rep = is_regular(quadratic(g, (0, -1, 1), (-1, 3, -3)))
    assert not rep.regular
    assert (0, "zero_at_node_0") in rep.failures
    assert (0, "zero_at_node_1") in rep.failures


def test_regularity_of_generic_images():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=21)
    hits = 0
    for seed in range(5):
        phi = random_higgs_field(a, seed=seed)
        if is_regular(hitchin_image(phi)).regular:
            hits += 1
    assert hits >= 4  # genericity: irregular fields are rare


# -- bitwise oracle: the per-component code in helpers ------------------


def _outcome(fn, *args):
    """bits of fn(*args), or the fact that it raised MatchingViolated."""
    try:
        return bits(fn(*args))
    except MatchingViolated:
        return "MatchingViolated"


def _oracle_framings(domain):
    """Identity framings (their float Higgs bases hold signed zeros) on the
    catalog, then random framings on the catalog and on random graphs."""
    catalog = [catalog_graph(name) for name in CATALOG_NAMES]
    graphs = catalog + [random_trivalent(v, s) for v in range(2, 31, 2)
                        for s in range(3)]
    return ([Framing.identity(g, domain) for g in catalog]
            + [Framing.random(g, seed=k % 3, domain=domain)
               for k, g in enumerate(graphs)])


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_coefficient_kernels_match_component_oracle(domain):
    for k, framing in enumerate(_oracle_framings(domain)):
        g = framing.graph
        report = higgs_space(framing)
        basis = report.basis
        fd_basis = basis if domain == FLOAT else higgs_space(Framing(
            g, [to_complex_mat(framing.matrix(a)) for a, _ in g.edges],
            FLOAT)).basis
        phi = random_higgs_field(framing, k % 3)
        old = old_random_higgs_field(framing, k % 3, domain, report)
        assert bits(phi.coefficients) == bits(field_coefficients(old))
        for v in range(g.vertex_count):
            for point in range(3):
                assert bits(phi.residue_matrix(v, point).entries()) == bits(
                    old_residue_matrix(old, v, point).entries())
        assert bits(hitchin_image(phi).coefficients) == bits(
            quadratic_coefficients(old_hitchin_image(old)))
        basis, fd_basis = basis[:4], fd_basis[:4]
        for b in basis:
            assert bits(polarization(phi, b).coefficients) == bits(
                quadratic_coefficients(old_polarization(old, vertex_data(b))))
        old_basis = [vertex_data(b) for b in basis]
        old_fd_basis = [vertex_data(b) for b in fd_basis]
        assert bits(hitchin_jacobian(phi, framing, basis).matrix) == bits(
            old_hitchin_jacobian_rows(g, old, old_basis))
        assert bits(finite_difference_jacobian(phi, framing, fd_basis)) == bits(
            old_finite_difference_jacobian(g, old, old_fd_basis))
        # A field that is not a Higgs field: MatchingViolated on both sides.
        rng = Random(k)
        bad = HiggsField(
            g, [Fraction(rng.randint(-5, 5)) if domain == EXACT
                else complex(rng.gauss(0, 1), 0) for _ in range(6 * g.vertex_count)])
        old_bad = vertex_data(bad)
        assert _outcome(hitchin_edge_coords, bad) == _outcome(
            lambda: old_bires_coordinates(g, old_hitchin_image(old_bad)))
        assert _outcome(lambda: hitchin_jacobian(bad, framing, basis).matrix) == \
            _outcome(old_hitchin_jacobian_rows, g, old_bad, old_basis)
        assert _outcome(finite_difference_jacobian, bad, framing, fd_basis) == \
            _outcome(old_finite_difference_jacobian, g, old_bad, old_fd_basis)


def test_random_field_combination_keeps_signed_zeros(monkeypatch):
    # Kernel bases from the solver have no coefficient that is zero in every
    # vector, so only a planted basis shows the combination's starting value
    # (0j + c x differs from c x when c x is a signed zero).
    import graphcurves.higgs as higgs_mod

    g = catalog_graph("theta")
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
    vec = [zeros[i % 4] if i % 3 else complex(i, -1.5) for i in range(12)]
    report = KernelReport(domain=FLOAT, nrows=0, ncols=12, rank=0,
                          basis=[HiggsField(g, vec)])
    monkeypatch.setattr(higgs_mod, "higgs_space", lambda framing: report)
    framing = Framing.identity(g, FLOAT)
    for seed in range(8):
        phi = random_higgs_field(framing, seed)
        old = old_random_higgs_field(framing, seed, FLOAT, report)
        assert bits(phi.coefficients) == bits(field_coefficients(old))


# -- exact kernels on integer numerators against the Fraction code -------


def _integer_oracle_framings():
    graphs = ([catalog_graph(name) for name in CATALOG_NAMES]
              + [random_trivalent(v, 1) for v in range(2, 31, 2)])
    return [Framing.random(g, seed=k % 3) for k, g in enumerate(graphs)]


def _matching_violated(fn, *args):
    with pytest.raises(MatchingViolated) as info:
        fn(*args)
    return str(info.value)


def test_integer_kernels_match_fraction_oracle():
    for k, framing in enumerate(_integer_oracle_framings()):
        g = framing.graph
        report = higgs_space(framing)
        phi = random_higgs_field(framing, k)
        old = old_random_higgs_field(framing, k, EXACT, report)
        assert bits(phi.coefficients) == bits(field_coefficients(old))
        old_basis = [vertex_data(b) for b in report.basis]
        jac = hitchin_jacobian(phi, framing, report.basis)
        old_rows = old_hitchin_jacobian_rows(g, old, old_basis)
        assert bits(jac.matrix) == bits(old_rows)
        assert all(type(x) is Fraction for row in jac.matrix for x in row)
        assert jac.rank == len(fraction_rref(old_rows, len(g.edges))[1])
        # Not a Higgs field, with denominators: the same exception and message.
        rng = Random(k)
        bad = HiggsField(g, [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(6 * g.vertex_count)])
        assert _matching_violated(hitchin_jacobian, bad, framing, report.basis) == \
            _matching_violated(old_hitchin_jacobian_rows, g, vertex_data(bad),
                               old_basis)


# -- the batched float rows against the per-component oracle ------------


def _raised_or_bits(fn, *args):
    """bits of fn(*args), or the message of the MatchingViolated it raised."""
    try:
        return bits(fn(*args))
    except MatchingViolated as exc:
        return ("MatchingViolated", str(exc))


def _old_fd_error(g, old, old_basis):
    """jacobian_fd_error on the oracle's Jacobian and central-difference rows."""
    rows = old_hitchin_jacobian_rows(g, old, old_basis)
    fd_rows = old_finite_difference_jacobian(g, old, old_basis)
    scale = max([1.0] + [abs(x) for row in rows for x in row])
    gap = max((abs(x - y) for er, fr in zip(rows, fd_rows) for x, y in zip(er, fr)),
              default=0.0)
    return gap / scale


# No shrinking, which over graphs of up to 30 vertices takes minutes: the
# examples are derandomized, so the first failing one is reported as drawn.
@settings(derandomize=True, max_examples=40, deadline=None,
          phases=set(Phase) - {Phase.shrink})
@given(st.integers(1, 15).map(lambda k: 2 * k), st.integers(0, 10**6),
       st.integers(0, 3), st.sampled_from(["float", "fraction", "int", "exact basis"]),
       st.sampled_from([None, 1e-13, 1e-7, 1.0]), st.integers(0, 10**6))
def test_batched_float_rows_match_component_oracle(vertices, graph_seed, seed, kind,
                                                   bump, where):
    # A float Higgs field, or an exact one (Fractions, or ints where they are
    # whole) against the float basis of the same framing, or an exact field
    # against the exact basis (the finite differences then run on Python
    # complex numbers), optionally with one coefficient bumped off the Higgs
    # space; the bumps of 1e-7 and 1 break the float matching, so both
    # kernels then raise, with the same message.
    g = random_trivalent(vertices, graph_seed)
    exact = Framing.random(g, seed, EXACT)
    framing = Framing(g, [to_complex_mat(exact.matrix(a)) for a, _ in g.edges], FLOAT)
    if kind == "exact basis":
        framing = exact
    basis = higgs_space(framing).basis
    if kind == "float":
        coeffs = list(random_higgs_field(framing, seed).coefficients)
    else:
        coeffs = list(random_higgs_field(exact, seed).coefficients)
        if kind == "int":
            coeffs = [int(x) if x.denominator == 1 else x for x in coeffs]
    if bump is not None:
        i = where % len(coeffs)
        coeffs[i] += bump if kind == "float" else Fraction(bump)
    phi = HiggsField(g, coeffs)
    old, old_basis = vertex_data(phi), [vertex_data(b) for b in basis]
    rows = _raised_or_bits(lambda: hitchin_jacobian(phi, framing, basis).matrix)
    assert rows == _raised_or_bits(old_hitchin_jacobian_rows, g, old, old_basis)
    assert _raised_or_bits(finite_difference_jacobian, phi, framing, basis) == \
        _raised_or_bits(old_finite_difference_jacobian, g, old, old_basis)
    fd_error = _raised_or_bits(_old_fd_error, g, old, old_basis)
    assert _raised_or_bits(jacobian_fd_error, phi, framing, basis) == fd_error
    if rows[0] != "MatchingViolated":
        jacobian = hitchin_jacobian(phi, framing, basis).matrix
        assert _raised_or_bits(lambda: jacobian_fd_error(
            phi, framing, basis, jacobian)) == fd_error


def test_exact_and_float_agree_at_genus_41():
    # the `higgs` dim and rank and the `hitchin` jacobian_rank of the CLI,
    # in both domains, on one graph of genus 41
    g = random_trivalent(80, 1)
    generic = 3 * g.genus - 3
    for seed in (0, 1):
        ranks = []
        for domain in (EXACT, FLOAT):
            framing = Framing.random(g, seed, domain)
            space = higgs_space(framing)
            phi = random_higgs_field(framing, seed)
            jac = hitchin_jacobian(phi, framing, space.basis)
            ranks.append((space.dim, space.rank, jac.rank))
        assert ranks[0] == ranks[1] == (generic, 6 * g.vertex_count - generic, generic)


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
@pytest.mark.parametrize("basis_graph, graph", [("prism", "k33"), ("theta", "k4")])
def test_a_basis_on_another_graph_raises_validation_error(domain, basis_graph, graph):
    # a Higgs basis read on another graph with as many vertices (prism,
    # k33) or fewer (theta, k4), whole or as a list of its fields, is a
    # ValidationError, not a residual or a MatchingViolated
    basis = higgs_space(Framing.random(catalog_graph(basis_graph), 1, domain)).basis
    framing = Framing.random(catalog_graph(graph), 1, domain)
    phi = random_higgs_field(framing, 1)
    for fields in (basis, list(basis)):
        for call in (lambda: higgs_residual(fields, framing),
                     lambda: hitchin_jacobian(phi, framing, fields),
                     lambda: finite_difference_jacobian(phi, framing, fields),
                     lambda: jacobian_fd_error(phi, framing, fields)):
            with pytest.raises(ValidationError, match="another graph"):
                call()
