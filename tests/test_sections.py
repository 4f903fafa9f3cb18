from fractions import Fraction
from random import Random

import pytest

from graphcurves.errors import MatchingViolated
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import (
    BIRESIDUE_FUNCTIONAL,
    RESIDUE_FUNCTIONAL,
    ComponentDifferential,
    ComponentQuadratic,
    GlobalQuadratic,
    bires_coordinates,
    canonical_matrix,
    canonical_space,
    constant_differential,
    double_canonical_matrix,
    double_canonical_space,
    multiply_differentials,
)

from helpers import minor_rank, svd_rank


def test_residue_functional_table():
    # rows are the marked points 0, 1, infinity acting on (r0, r1)
    assert RESIDUE_FUNCTIONAL == ((1, 0), (0, 1), (-1, -1))


def test_biresidue_functional_table():
    assert BIRESIDUE_FUNCTIONAL == ((1, 0, 0), (1, 1, 1), (0, 0, 1))


def test_component_differential_residues():
    w = ComponentDifferential(Fraction(2), Fraction(-5))
    assert w.residues() == (2, -5, 3)
    assert [w.residue(k) for k in range(3)] == [2, -5, 3]
    assert sum(w.residues()) == 0


def test_component_quadratic_biresidues():
    q = ComponentQuadratic(Fraction(1), Fraction(2), Fraction(3))
    assert q.biresidues() == (1, 6, 3)
    assert q.coefficients() == (1, 2, 3)
    assert q.value_at_one() == 6
    assert q.discriminant() == 4 - 12


def test_component_arithmetic():
    a = ComponentDifferential(1, 2)
    b = ComponentDifferential(3, -1)
    assert (a + b).residues() == (4, 1, -5)
    assert (-a).residues() == (-1, -2, 3)
    assert a.scale(3).residues() == (3, 6, -9)


def test_multiply_frozen_cases():
    a = ComponentDifferential(Fraction(1), Fraction(0))
    b = ComponentDifferential(Fraction(0), Fraction(1))
    assert multiply_differentials(a, b).coefficients() == (0, -1, 1)
    c = ComponentDifferential(Fraction(1), Fraction(-1))
    assert multiply_differentials(c, c).coefficients() == (1, 0, 0)


def test_multiply_biresidues_are_residue_products():
    # the product pairing must turn residues into biresidues pointwise
    rng = Random(5)
    for _ in range(30):
        a = ComponentDifferential(Fraction(rng.randint(-6, 6)),
                                  Fraction(rng.randint(-6, 6)))
        b = ComponentDifferential(Fraction(rng.randint(-6, 6)),
                                  Fraction(rng.randint(-6, 6)))
        q = multiply_differentials(a, b)
        for k in range(3):
            assert q.biresidue(k) == a.residue(k) * b.residue(k)


def test_multiply_is_bilinear():
    rng = Random(6)
    a = ComponentDifferential(Fraction(2), Fraction(1))
    b = ComponentDifferential(Fraction(-1), Fraction(3))
    c = ComponentDifferential(Fraction(4), Fraction(-2))
    left = multiply_differentials(a + b, c)
    split = multiply_differentials(a, c) + multiply_differentials(b, c)
    assert left.coefficients() == split.coefficients()


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
            assert w.residue_matching_residual() == 0


def test_bires_coordinates_theta_basis():
    g = catalog_graph("theta")
    coords = [bires_coordinates(q) for q in double_canonical_space(g).basis]
    assert coords == [[1, 1, 0], [0, 1, 0], [0, 0, 1]] or minor_rank(coords) == 3


def test_bires_coordinates_are_injective():
    for name in ("theta", "k4"):
        g = catalog_graph(name)
        coords = [bires_coordinates(q)
                  for q in double_canonical_space(g).basis]
        assert minor_rank(coords) == 3 * g.genus - 3


def test_bires_coordinates_require_matching():
    g = catalog_graph("theta")
    # quadratics whose values disagree across every edge
    comps = (ComponentQuadratic(Fraction(1), Fraction(0), Fraction(0)),
             ComponentQuadratic(Fraction(0), Fraction(0), Fraction(0)))
    q = GlobalQuadratic(g, comps)
    with pytest.raises(MatchingViolated):
        bires_coordinates(q)


def test_global_arithmetic_and_domain():
    g = catalog_graph("theta")
    w = constant_differential(g, Fraction(1), Fraction(-2))
    v = constant_differential(g, Fraction(0), Fraction(1))
    s = w + v
    assert s.component(0).residues() == (1, -1, 0)
    assert s.domain() == EXACT
    wf = constant_differential(g, 1.0, -2.0, domain=FLOAT)
    assert wf.domain() == FLOAT
