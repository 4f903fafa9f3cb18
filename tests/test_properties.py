"""Acceptance criteria 1, 2 and 8 as hypothesis properties.

The acceptance gate checks them on a fixed pool of genus 2 to 6; here
they hold on random_trivalent(2k, s) up to 24 vertices (genus 13).  So
does the graph's kept spanning tree.

The constructor properties feed wrong lengths, scalar types, mixed
domains and edge keys to every public constructor of fields, gauges,
framings and flat bundles: each either builds a value, which the
readers after it accept, or raises a GraphCurveError, never a bare
Python error.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcurves.errors import GraphCurveError, ScalarDomainMismatch
from graphcurves.framings import (Framing, GaugeTransform, SurfaceFlatBundle,
                                  apply_gauge, flat_local_dimension)
from graphcurves.graphs import (CATALOG_NAMES, catalog_graph, random_trivalent,
                                spanning_tree)
from graphcurves.higgs import HiggsField, higgs_space
from graphcurves.hitchin import hitchin_edge_coords, hitchin_image, is_regular
from graphcurves.matrices import IDENTITY, Mat2
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import (GlobalDifferential, GlobalQuadratic,
                                  bires_coordinates, canonical_space,
                                  double_canonical_space)
from graphcurves.spectral import anti_invariant_cycles, prym_report

GRAPHS = st.builds(random_trivalent, st.integers(1, 12).map(lambda k: 2 * k),
                   st.integers(0, 10**6))
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@PROPERTY
@given(GRAPHS)
def test_canonical_space_dimension_and_rank(graph):
    space = canonical_space(graph, EXACT)
    assert (space.dim, space.rank) == (graph.genus, 3 * graph.genus - 4)


@PROPERTY
@given(GRAPHS)
def test_double_canonical_space_dimension_and_rank(graph):
    space = double_canonical_space(graph, EXACT)
    assert (space.dim, space.rank) == (3 * graph.genus - 3, 3 * graph.genus - 3)


@PROPERTY
@given(GRAPHS)
def test_prym_report_and_anti_invariant_cycles(graph):
    g = graph.genus
    report = prym_report(graph)
    assert (report.b1_base, report.b1_spectral, report.pullback_rank,
            report.prym_dim) == (g, 4 * g - 3, g, 3 * g - 3)
    assert len(anti_invariant_cycles(graph)) == 3 * g - 3


@PROPERTY
@given(GRAPHS)
def test_graph_keeps_its_spanning_tree(graph):
    assert graph.tree == spanning_tree(graph)


# -- constructors on bad input -----------------------------------------

THETA = catalog_graph("theta")
CATALOG = st.sampled_from(CATALOG_NAMES).map(catalog_graph)
SCALARS = st.one_of(
    st.integers(-2, 2),
    st.fractions(-2, 2, max_denominator=3),
    st.floats(-2, 2),
    st.complex_numbers(max_magnitude=2),
    st.sampled_from([math.nan, math.inf, "x", None, (1,), b"1"]))
FLOAT_SHEAR = Mat2(1.0, 0.5, 0.0, 1.0)
# Unimodular matrices of either domain, so that entry and domain checks
# are reached past the determinant check, and matrices of random entries.
MATRICES = st.one_of(
    st.sampled_from([IDENTITY, Mat2(1, 1, 0, 1), Mat2(Fraction(1), Fraction(2), 0, 1),
                     FLOAT_SHEAR, Mat2(1j, 0, 0, -1j),
                     Mat2(Fraction(1), 0.5, 0, 1)]),
    st.builds(Mat2, SCALARS, SCALARS, SCALARS, SCALARS),
    st.sampled_from([None, (1, 0, 0, 1), 1]))
# The three probes of a value outside its domain: float matrices in an
# exact framing, a field of strings, and a half-Fraction, half-complex field.
PROBES = [(HiggsField, THETA, ["x"] * 12),
          (HiggsField, THETA, [Fraction(1)] * 6 + [1j] * 6),
          (Framing, THETA, [FLOAT_SHEAR] * 6, EXACT),
          (Framing.from_primary, THETA, [FLOAT_SHEAR] * 3, EXACT)]


def _items(draw, count, items):
    """count items, give or take one, or any other list length."""
    n = draw(st.one_of(st.integers(max(count - 1, 0), count + 1),
                       st.integers(0, count + 3)))
    return draw(st.lists(items, min_size=n, max_size=n))


def _per_edge(draw, graph):
    """Matrices per edge: a list, or a mapping with edge keys right or wrong."""
    count = len(graph.edges)
    if draw(st.booleans()):
        return _items(draw, count, MATRICES)
    return draw(st.dictionaries(st.integers(-1, count + 1), MATRICES,
                                min_size=count - 1, max_size=count + 1))


@st.composite
def constructor_calls(draw):
    """(constructor, *arguments) of a field, gauge, framing or bundle."""
    graph = draw(CATALOG)
    domain = draw(st.sampled_from([EXACT, FLOAT, "neither"]))
    kind = draw(st.sampled_from([GlobalDifferential, GlobalQuadratic, HiggsField,
                                 GaugeTransform, Framing, Framing.from_primary,
                                 SurfaceFlatBundle, SurfaceFlatBundle.from_primary]))
    width = {GlobalDifferential: 2, GlobalQuadratic: 3, HiggsField: 6}.get(kind)
    if width:
        return kind, graph, _items(draw, width * graph.vertex_count, SCALARS)
    if kind is GaugeTransform:
        return kind, graph, _items(draw, graph.vertex_count, MATRICES), domain
    if kind is Framing:
        return kind, graph, _items(draw, graph.dart_count, MATRICES), domain
    if kind == Framing.from_primary:
        return kind, graph, _per_edge(draw, graph), domain
    framing = Framing.random(graph, 0, draw(st.sampled_from([EXACT, FLOAT])))
    if kind is SurfaceFlatBundle:
        return kind, framing, _items(draw, graph.dart_count, MATRICES)
    return kind, framing, _per_edge(draw, graph)


def _read(value):
    """The readers after a constructor, on the value it built."""
    if isinstance(value, GlobalQuadratic):
        is_regular(value)
        bires_coordinates(value)
    elif isinstance(value, HiggsField):
        is_regular(hitchin_image(value))
        hitchin_edge_coords(value)
    elif isinstance(value, GaugeTransform):
        apply_gauge(value, Framing.identity(value.graph, value.domain))
    elif isinstance(value, Framing):
        higgs_space(value)
    elif isinstance(value, SurfaceFlatBundle):
        flat_local_dimension(value)


@PROPERTY
@given(constructor_calls())
@example(PROBES[0])
@example(PROBES[1])
@example(PROBES[2])
@example(PROBES[3])
@example((Framing, THETA, [Mat2(math.nan, 0, 0, 1)] * 6, FLOAT))
def test_constructors_raise_package_errors_only(call):
    build, *args = call
    try:
        value = build(*args)
    except GraphCurveError:
        return
    _read(value)


@pytest.mark.parametrize("call", PROBES)
def test_values_outside_their_domain_are_rejected(call):
    build, *args = call
    with pytest.raises(ScalarDomainMismatch):
        build(*args)
