"""Acceptance criteria 1, 2 and 8 as hypothesis properties.

The acceptance gate checks them on a fixed pool of genus 2 to 6; here
they hold on random_trivalent(2k, s) up to 24 vertices (genus 13).  So
do the graph's kept spanning tree and edge-ends table, the working form
a Higgs basis keeps, and the lattice the anti-invariant cycles span.

The constructor properties feed wrong lengths, non-iterables, scalar
types, mixed domains and edge keys to every public constructor of
fields, gauges, framings and flat bundles: each either builds a value,
which the readers after it accept, or raises a GraphCurveError, never a
bare Python error.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcurves.errors import GraphCurveError, ScalarDomainMismatch, ValidationError
from graphcurves.framings import (Framing, GaugeTransform, SurfaceFlatBundle,
                                  apply_gauge, flat_local_dimension)
from graphcurves.graphs import (CATALOG_NAMES, catalog_graph, random_trivalent,
                                spanning_tree)
from graphcurves.higgs import HiggsField, _working_form, higgs_space
from graphcurves.hitchin import hitchin_edge_coords, hitchin_image, is_regular
from graphcurves.linalg import _clear_denominators
from graphcurves.matrices import IDENTITY, Mat2
from graphcurves.scalars import EXACT, FLOAT, _to_pairs
from graphcurves.sections import (GlobalDifferential, GlobalQuadratic,
                                  bires_coordinates, canonical_space,
                                  double_canonical_space)
from graphcurves.spectral import anti_invariant_cycles, prym_report

from helpers import expand_exact_form, integer_det

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
def test_anti_invariant_cycles_span_the_image_of_one_minus_swap(graph):
    # The halves w of the chosen cycles are a basis of im(1 - swap): the
    # w in Z^E whose reduction mod 2 is a cycle of the base, of index
    # 2^(E - g) = 2^(2g - 3) in the digon lattice Z^E = ker(1 + swap).
    halves = [z[::2] for z in anti_invariant_cycles(graph)]
    assert abs(integer_det(halves)) == 2 ** (2 * graph.genus - 3)
    for w in halves:
        assert all(sum(w[graph.edge_index(d)] for d in graph.vertex_darts(v)) % 2 == 0
                   for v in range(graph.vertex_count))


@PROPERTY
@given(GRAPHS)
def test_graph_keeps_its_spanning_tree(graph):
    assert graph.tree == spanning_tree(graph)


@PROPERTY
@given(GRAPHS)
@example(catalog_graph("dumbbell"))
@example(catalog_graph("theta"))
def test_edge_ends_table_matches_the_dart_accessors(graph):
    # loops (dumbbell) and parallel edges (theta) included
    for side, (vertices, points) in enumerate(graph._edge_ends):
        darts = [edge[side] for edge in graph.edges]
        assert vertices == tuple(map(graph.vertex_of, darts))
        assert points == tuple(map(graph.marked_point, darts))


@PROPERTY
@given(GRAPHS, st.integers(0, 10**6), st.sampled_from([EXACT, FLOAT]))
@example(catalog_graph("dumbbell"), 0, EXACT)
@example(catalog_graph("dumbbell"), 0, FLOAT)
@example(catalog_graph("theta"), 1, FLOAT)
def test_a_higgs_basis_keeps_its_working_form(graph, seed, domain):
    # the form a basis keeps is, bit for bit, a fresh conversion of the
    # basis, and read-only; the exact one, per field its live vertices'
    # numerators, lays out as the dense form the fields clear to
    basis = higgs_space(Framing.random(graph, seed, domain)).basis
    kept = _working_form(basis, graph, domain)
    assert basis.forms[domain] is kept
    coefficients = [psi.coefficients for psi in basis]
    if domain == EXACT:
        assert kept == _working_form(list(basis), graph, EXACT)
        assert expand_exact_form(kept, graph.vertex_count) == tuple(
            (tuple(c), den, tuple(any(c[i:i + 6]) for i in range(0, len(c), 6)))
            for c, den in map(_clear_denominators, coefficients))
        assert isinstance(kept, tuple) and all(
            isinstance(live, tuple) and all(isinstance(six, tuple) for _, six in live)
            for live, _ in kept)
    else:
        fresh = _to_pairs(coefficients, 6 * graph.vertex_count)
        assert [(x.shape, x.tobytes()) for x in kept] == [
            (x.shape, x.tobytes()) for x in fresh]
        assert not any(x.flags.writeable for x in kept)


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
# The probes of a value outside its domain: a field of strings, a
# half-Fraction, half-complex field, and float matrices in an exact
# framing and as the meridians of an exact bundle.
PROBES = [(HiggsField, THETA, ["x"] * 12),
          (HiggsField, THETA, [Fraction(1)] * 6 + [1j] * 6),
          (Framing, THETA, [FLOAT_SHEAR] * 3, EXACT),
          (SurfaceFlatBundle.from_primary, Framing.identity(THETA), [FLOAT_SHEAR] * 3)]


def _items(draw, count, items):
    """count items, give or take one, or any other list length, or a
    value that is not iterable."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([3, None]))
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
                                 GaugeTransform, Framing, SurfaceFlatBundle,
                                 SurfaceFlatBundle.from_primary]))
    width = {GlobalDifferential: 2, GlobalQuadratic: 3, HiggsField: 6}.get(kind)
    if width:
        return kind, graph, _items(draw, width * graph.vertex_count, SCALARS)
    if kind is GaugeTransform:
        return kind, graph, _items(draw, graph.vertex_count, MATRICES), domain
    if kind is Framing:
        return kind, graph, _per_edge(draw, graph), domain
    framing = Framing.random(graph, 0, draw(st.sampled_from([EXACT, FLOAT])))
    if kind is SurfaceFlatBundle:
        return kind, framing, _items(draw, graph.dart_count, MATRICES)
    return kind, framing, _per_edge(draw, graph)


def _read(value):
    """The readers after a constructor, on the value it built."""
    if isinstance(value, GlobalQuadratic):
        is_regular(value)
        bires_coordinates([value])
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
@example((Framing, THETA, [Mat2(math.nan, 0, 0, 1)] * 3, FLOAT))
@example((HiggsField, THETA, 5))
@example((Framing, THETA, None, EXACT))
@example((Framing, THETA, 3, EXACT))
@example((SurfaceFlatBundle.from_primary, Framing.identity(THETA), 3))
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


@pytest.mark.parametrize("call", [
    (HiggsField, THETA, [math.nan] * 12),
    (GlobalQuadratic, THETA, [complex(math.inf)] + [0j] * 5),
    (GlobalDifferential, THETA, [1.0, -math.inf, 0.0, 0.0]),
], ids=["higgs-nan", "quadratic-inf", "differential-inf"])
def test_float_fields_reject_non_finite_coefficients(call):
    # every comparison with nan is false: before this check a nan field
    # read as regular and an infinite bi-residue as matched
    build, *args = call
    with pytest.raises(ValidationError, match="^float coefficients must be finite$"):
        build(*args)
