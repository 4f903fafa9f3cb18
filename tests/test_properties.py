"""Acceptance criteria 1, 2 and 8 as hypothesis properties.

The acceptance gate checks them on a fixed pool of genus 2 to 6; here
they hold on random_trivalent(2k, s) up to 24 vertices (genus 13).  So
does the graph's kept spanning tree.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurves.graphs import random_trivalent, spanning_tree
from graphcurves.scalars import EXACT
from graphcurves.sections import canonical_space, double_canonical_space
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
