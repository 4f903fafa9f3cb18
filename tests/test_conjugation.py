"""The one conjugation kernel (matrices._conjugation) against the Mat2
product forms it replaced, tests/helpers.py's old_adjoint_matrix and
old_flat_linearization, on the graphs and seeds of tools/cli_grid.py."""

import cmath
from fractions import Fraction
from random import Random

import pytest

from graphcurves.framings import (
    Framing,
    GaugeTransform,
    SurfaceFlatBundle,
    apply_gauge_bundle,
    flat_linearization,
    zero_section,
)
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.matrices import Mat2, adjoint_matrix, random_unimodular
from graphcurves.scalars import EXACT, FLOAT

from helpers import bits, old_adjoint_matrix, old_flat_linearization

GRID_GRAPHS = {name: catalog_graph(name) for name in CATALOG_NAMES}
GRID_GRAPHS.update({f"random_{v}_{s}": random_trivalent(v, s)
                    for v in (8, 20, 40) for s in (0, 1)})
SEEDS = (0, 1, 2)
GRID = [(label, seed) for label in GRID_GRAPHS for seed in SEEDS]


def _rational_unimodular(rng):
    """A determinant-one matrix with Fraction entries: an integer one
    conjugated by diag(k, 1)."""
    k = Fraction(rng.choice((2, 3, 5)), rng.choice((1, 7)))
    m = random_unimodular(rng, EXACT)
    return Mat2(m.a, m.b * k, m.c / k, m.d)


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_adjoint_matrix_has_the_bits_of_the_product_form(domain):
    """adjoint_matrix gives every entry the type and bits of the Mat2
    product g E_k g^-1 on every dart matrix of Framing.random over the
    grid.  Two differences are known outside these matrices, where an
    entry of the product is an exact zero: the sign of a float zero (for
    example at diag(2.0, 0.5)), and the int 0 where the product gives
    Fraction(0) (for example at Mat2(Fraction(1, 2), 0, 3, 2)); those
    matrices are compared with == in the next test."""
    for label, seed in GRID:
        graph = GRID_GRAPHS[label]
        framing = Framing.random(graph, seed, domain)
        for d in range(graph.dart_count):
            m = framing.matrix(d)
            assert bits(adjoint_matrix(m)) == bits(old_adjoint_matrix(m)), \
                (label, seed, d)


def test_adjoint_matrix_equals_the_product_form_on_fractions_and_zeros():
    rng = Random(5)
    mats = [Mat2(Fraction(1, 2), 0, 3, 2), Mat2(2.0, 0.0, 0.0, 0.5),
            Mat2(0.0, 1.0, -1.0, 0.0), Mat2(-2.0, 0.0, 3.0, -0.5),
            Mat2(2j, 0j, 0j, -0.5j), Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0)]
    mats += [_rational_unimodular(rng) for _ in range(50)]
    for m in mats:
        assert adjoint_matrix(m) == old_adjoint_matrix(m), m


def _exact_bundles(graph, seed):
    """A zero section, a from_primary bundle, that bundle under a gauge of
    Fraction matrices, and a bundle whose meridians break the edge
    compatibility and the vertex relations."""
    rng = Random(seed)
    framing = Framing.random(graph, seed)
    primary = SurfaceFlatBundle.from_primary(
        framing, [random_unimodular(rng, EXACT) for _ in graph.edges])
    gauge = GaugeTransform(graph, [_rational_unimodular(rng)
                                   for _ in range(graph.vertex_count)])
    arbitrary = SurfaceFlatBundle(
        framing, [random_unimodular(rng, EXACT) for _ in range(graph.dart_count)])
    return (zero_section(framing), primary, apply_gauge_bundle(gauge, primary),
            arbitrary)


@pytest.mark.parametrize("label,seed", GRID)
def test_flat_linearization_matches_the_product_form(label, seed):
    graph = GRID_GRAPHS[label]
    for bundle in _exact_bundles(graph, seed):
        assert flat_linearization(bundle) == old_flat_linearization(bundle)
    float_zero = zero_section(Framing.random(graph, seed, FLOAT))
    assert bits(flat_linearization(float_zero)) == bits(
        old_flat_linearization(float_zero))
    # arbitrary float meridians: the products pair differently, so only
    # the values agree, to rounding
    rng = Random(seed)
    framing = Framing.random(graph, seed, FLOAT)
    bundle = SurfaceFlatBundle(
        framing, [random_unimodular(rng, FLOAT) for _ in range(graph.dart_count)])
    new, old = flat_linearization(bundle), old_flat_linearization(bundle)
    scale = max(abs(x) for row in old for x in row)
    for row_new, row_old in zip(new, old, strict=True):
        for x, y in zip(row_new, row_old, strict=True):
            assert cmath.isclose(x, y, rel_tol=0, abs_tol=1e-9 * scale)
