import math
from fractions import Fraction
from random import Random

import pytest

from graphcurves.errors import MatchingViolated, ValidationError
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.higgs import HiggsField
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import (
    BIRESIDUE_FUNCTIONAL,
    RESIDUE_FUNCTIONAL,
    GlobalDifferential,
    GlobalQuadratic,
    bires_coordinates,
    canonical_matrix,
    canonical_space,
    double_canonical_matrix,
    double_canonical_space,
    multiply_differentials,
)
from helpers import (ComponentQuadratic, bits, minor_rank, old_bires_coordinates,
                     old_canonical_matrix, old_double_canonical_matrix, residual,
                     svd_rank)


def test_residue_functional_table():
    # rows are the marked points 0, 1, infinity acting on (r0, r1)
    assert RESIDUE_FUNCTIONAL == ((1, 0), (0, 1), (-1, -1))


def test_biresidue_functional_table():
    assert BIRESIDUE_FUNCTIONAL == ((1, 0, 0), (1, 1, 1), (0, 0, 1))


def residues(r):
    """Residues of the (r0, r1) differential at the marked points (0, 1, inf)."""
    return tuple(f[0] * r[0] + f[1] * r[1] for f in RESIDUE_FUNCTIONAL)


def biresidues(q):
    """Bi-residues of the (q0, q1, q2) quadratic differential at (0, 1, inf)."""
    return tuple(sum(f[j] * q[j] for j in range(3)) for f in BIRESIDUE_FUNCTIONAL)


def test_component_differential_residues():
    assert residues((Fraction(2), Fraction(-5))) == (2, -5, 3)
    assert sum(residues((Fraction(2), Fraction(-5)))) == 0


def test_component_quadratic_biresidues():
    assert biresidues((Fraction(1), Fraction(2), Fraction(3))) == (1, 6, 3)


@pytest.mark.parametrize("cls, width", [
    (GlobalDifferential, 2), (GlobalQuadratic, 3), (HiggsField, 6)])
def test_constructors_check_length(cls, width):
    g = catalog_graph("k4")
    data = [Fraction(k) for k in range(width * g.vertex_count)]
    assert cls(g, data).coefficients == tuple(data)
    assert cls(g, iter(data)) == cls(g, data)
    for bad in (data[:-1], data + [Fraction(0)], data[:width], []):
        with pytest.raises(ValidationError):
            cls(g, bad)


def test_multiply_frozen_cases():
    assert multiply_differentials((Fraction(1), Fraction(0)),
                                  (Fraction(0), Fraction(1))) == (0, -1, 1)
    c = (Fraction(1), Fraction(-1))
    assert multiply_differentials(c, c) == (1, 0, 0)


def test_multiply_biresidues_are_residue_products():
    # the product pairing must turn residues into biresidues pointwise
    rng = Random(5)
    for _ in range(30):
        a = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
        b = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
        q = multiply_differentials(a, b)
        assert biresidues(q) == tuple(x * y for x, y in zip(residues(a), residues(b)))


def test_multiply_is_bilinear():
    a = (Fraction(2), Fraction(1))
    b = (Fraction(-1), Fraction(3))
    c = (Fraction(4), Fraction(-2))
    left = multiply_differentials((a[0] + b[0], a[1] + b[1]), c)
    split = tuple(x + y for x, y in zip(multiply_differentials(a, c),
                                        multiply_differentials(b, c)))
    assert left == split


def test_canonical_matrix_theta():
    g = catalog_graph("theta")
    assert canonical_matrix(g) == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [-1, -1, -1, -1],
    ]


def test_canonical_matrix_dumbbell():
    g = catalog_graph("dumbbell")
    assert canonical_matrix(g) == [
        [1, 1, 0, 0],
        [-1, -1, -1, -1],
        [0, 0, 1, 1],
    ]


@pytest.mark.parametrize("graph", [
    *CATALOG_NAMES, *((v, s) for v in (8, 20) for s in (0, 1))], ids=str)
def test_section_systems_match_the_loops(graph):
    # the shared node builder gives the bits of the separate loops, on the
    # loops of dumbbell and the parallel edges of theta
    g = catalog_graph(graph) if isinstance(graph, str) else random_trivalent(*graph)
    assert bits(canonical_matrix(g)) == bits(old_canonical_matrix(g))
    assert bits(double_canonical_matrix(g)) == bits(old_double_canonical_matrix(g))


# ranks frozen from the determinant-minor oracle
@pytest.mark.parametrize(
    "name, rank_K, rank_2K",
    [
        ("theta", 2, 3),
        ("dumbbell", 2, 3),
        ("k4", 5, 6),
        ("k33", 8, 9),
        ("prism", 8, 9),
    ],
)
def test_catalog_section_ranks(name, rank_K, rank_2K):
    g = catalog_graph(name)
    assert minor_rank(canonical_matrix(g)) == rank_K
    sp = canonical_space(g, EXACT)
    assert sp.rank == rank_K
    assert sp.dim == g.genus
    dsp = double_canonical_space(g, EXACT)
    assert dsp.rank == rank_2K
    assert dsp.dim == 3 * g.genus - 3


def test_section_ranks_float_domain():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        assert canonical_space(g, FLOAT).dim == g.genus
        assert double_canonical_space(g, FLOAT).dim == 3 * g.genus - 3


def test_canonical_rank_deficiency_is_exactly_one():
    # the only relation among the rows is their sum
    for seed in range(8):
        g = random_trivalent(6, seed=seed)
        rows = canonical_matrix(g)
        assert svd_rank(rows) == len(rows) - 1
        total = [sum(col) for col in zip(*rows)]
        assert all(x == 0 for x in total)


def test_double_canonical_full_rank_random():
    for seed in range(8):
        g = random_trivalent(8, seed=seed)
        rows = double_canonical_matrix(g)
        assert svd_rank(rows) == len(rows)


def test_canonical_basis_satisfies_matching():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        for w in canonical_space(g, EXACT).basis:
            assert residual(canonical_matrix(g), w.coefficients) == 0


def test_bires_coordinates_theta_basis():
    g = catalog_graph("theta")
    coords = bires_coordinates(double_canonical_space(g).basis)
    assert coords == [[1, 1, 0], [0, 1, 0], [0, 0, 1]] or minor_rank(coords) == 3


def test_bires_coordinates_are_injective():
    for name in ("theta", "k4"):
        g = catalog_graph(name)
        coords = bires_coordinates(double_canonical_space(g).basis)
        assert minor_rank(coords) == 3 * g.genus - 3


def test_bires_coordinates_require_matching():
    g = catalog_graph("theta")
    # quadratics whose values disagree across every edge
    q = GlobalQuadratic(g, [Fraction(1), Fraction(0), Fraction(0)]
                        + [Fraction(0), Fraction(0), Fraction(0)])
    with pytest.raises(MatchingViolated):
        bires_coordinates([q])


def _rational_bires_coordinates(g, coeffs):
    """bires_coordinates by rational arithmetic on the entries as given."""
    coords = []
    for e, (a, b) in enumerate(g.edges):
        sides = []
        for d in (a, b):
            v = g.vertex_of(d)
            q0, q1, q2 = coeffs[3 * v:3 * v + 3]
            sides.append((q0, q0 + q1 + q2, q2)[g.marked_point(d)])
        if sides[0] != sides[1]:
            return f"bi-residues differ across edge {e}: {sides[0]} vs {sides[1]}"
        coords.append(sides[0])
    return coords


def test_bires_coordinates_keep_the_entry_types():
    # integer numerators inside, the rational computation's types outside:
    # an int input gives ints (the JSON of the edge coordinates prints
    # them as numbers), a Fraction input Fractions, and a mixed input an
    # int exactly where every summed coefficient is an int
    for g in (catalog_graph("k4"), catalog_graph("k33"), random_trivalent(20, 2)):
        for k, q in enumerate(double_canonical_space(g).basis):
            c = q.coefficients
            den = math.lcm(*(x.denominator for x in c))
            ints = [int(x * den) for x in c]
            halves = [Fraction(x, 2) for x in ints]
            mixed = [int(x) if x.denominator == 1 and j % 3 != k % 3 else x
                     for j, x in enumerate(halves)]
            bad = list(halves)
            bad[k % len(bad)] += Fraction(1, 7)
            cases = ((ints, int), (halves, Fraction), (mixed, None), (bad, None))
            for vec, kind in cases:
                want = _rational_bires_coordinates(g, vec)
                if isinstance(want, str):
                    with pytest.raises(MatchingViolated) as err:
                        bires_coordinates([GlobalQuadratic(g, vec)])
                    assert str(err.value) == want
                    continue
                got = bires_coordinates([GlobalQuadratic(g, vec)])[0]
                assert bits(got) == bits(want)
                if kind is not None:
                    assert {type(x) for x in got} == {kind}
            assert {int, Fraction} <= {type(x) for x in mixed}


def test_bires_coordinates_over_a_sequence():
    # one call matches a sequence of quadratics: a float sequence at once,
    # with the bits of the per-quadratic scalar oracle and, for the first
    # quadratic that fails, its message; an exact one quadratic by quadratic
    graphs = ([catalog_graph(name) for name in CATALOG_NAMES]
              + [random_trivalent(v, seed) for v in (20, 40) for seed in (0, 1)])
    for g in graphs:

        def oracle(c):
            comps = [ComponentQuadratic(*c[i:i + 3]) for i in range(0, len(c), 3)]
            return old_bires_coordinates(g, comps)

        basis = double_canonical_space(g, FLOAT).basis
        assert bits(bires_coordinates(basis)) == bits(
            [oracle(q.coefficients) for q in basis])
        # a q1 changes the bi-residue at marked point 1 only, so no loop
        # can carry the bump to both sides of its edge
        k = len(basis) // 2
        bumped = list(basis)
        for j in (k, len(basis) - 1):
            vec = list(basis[j].coefficients)
            vec[3 * (j % g.vertex_count) + 1] += 1e-3
            bumped[j] = GlobalQuadratic(g, vec)
        with pytest.raises(MatchingViolated) as err:
            bires_coordinates(bumped)
        with pytest.raises(MatchingViolated) as want:
            oracle(bumped[k].coefficients)
        assert str(err.value) == str(want.value)
        exact = double_canonical_space(g, EXACT).basis
        assert bits(bires_coordinates(exact)) == bits(
            [_rational_bires_coordinates(g, q.coefficients) for q in exact])
    theta, k4 = catalog_graph("theta"), catalog_graph("k4")
    with pytest.raises(ValidationError):
        bires_coordinates([GlobalQuadratic(theta, [0] * 6),
                           GlobalQuadratic(k4, [0] * 12)])
    assert bires_coordinates([]) == []


@pytest.mark.parametrize("first", [0, 0j])
def test_bires_coordinates_float_rule_with_int_first_entry(first):
    # bi-residues that agree within MATCH_TOL match in the float domain,
    # whatever the spelling of the first entry
    g = catalog_graph("theta")
    omega = GlobalQuadratic(g, [first, 1.0 + 0j, 0j, 1e-13 + 0j, 1.0 + 0j, 0j])
    assert bires_coordinates([omega]) == [[0, 1, 0]]


def test_fields_store_their_domain():
    g = catalog_graph("theta")
    assert GlobalDifferential(g, [0, Fraction(1, 2)] * 2).domain == EXACT
    assert GlobalDifferential(g, [0] * 4).domain == EXACT
    assert GlobalQuadratic(g, [0] * 5 + [1.0]).domain == FLOAT
    assert HiggsField(g, [0] * 11 + [1j]).domain == FLOAT


def test_constant_differential_residue_matching():
    # the same (r0, r1) on both theta vertices: residues at a node add up
    # to twice the residue there, so only the zero differential matches
    g = catalog_graph("theta")
    rows = canonical_matrix(g)
    assert residual(rows, GlobalDifferential(
        g, (Fraction(0), Fraction(0)) * 2).coefficients) == 0
    w = GlobalDifferential(g, (Fraction(1), Fraction(-2)) * 2)
    assert residual(rows, w.coefficients) == 4
    assert residual(rows, GlobalDifferential(g, (1.0, -2.0) * 2).coefficients) == 4.0
