import cmath
from fractions import Fraction

import pytest

from graphcurves.errors import NotOnVariety, ScalarDomainMismatch, ValidationError
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.matrices import IDENTITY, Mat2, mat_close
from graphcurves.scalars import EXACT, FLAT_TOL, FLOAT, IDENTITY_TOL
from graphcurves.framings import (
    Framing,
    GaugeTransform,
    SurfaceFlatBundle,
    apply_gauge,
    apply_gauge_bundle,
    flat_linearization,
    flat_local_dimension,
    schottky_holonomies,
    subspace_flags,
    trace_invariants,
    tree_gauge,
    vertex_relation_residual,
    zero_section,
)


def diag(x):
    x = Fraction(x)
    return Mat2(x, 0, 0, 1 / x)


def theta_framing(m1=IDENTITY, m2=IDENTITY, m3=IDENTITY):
    g = catalog_graph("theta")
    return Framing(g, {0: m1, 1: m2, 2: m3})


# -- framings -----------------------------------------------------------


def test_framing_stores_inverse_on_partner():
    m = Mat2(Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    a = theta_framing(m2=m)
    assert a.matrix(1).entries() == m.entries()
    assert a.matrix(4).entries() == m.inv().entries()
    # one matrix per edge: a matrix for every dart is the wrong count
    with pytest.raises(ValidationError, match="^need 3 edge matrices, got 6$"):
        Framing(a.graph, [IDENTITY] * a.graph.dart_count)


def test_framing_rejects_non_unimodular():
    g = catalog_graph("theta")
    with pytest.raises(ValidationError):
        Framing(g, {0: Mat2(2, 0, 0, 1), 1: IDENTITY, 2: IDENTITY})
    with pytest.raises(ValidationError):  # float det off by 1e-6
        Framing(g, {0: Mat2(1 + 1e-6, 0.0, 0.0, 1.0), 1: IDENTITY, 2: IDENTITY},
                FLOAT)


FROM_PRIMARY = pytest.mark.parametrize("make, read, what", [
    (Framing, Framing.matrix, "edge matrices"),
    (lambda g, mats: SurfaceFlatBundle.from_primary(Framing.identity(g), mats),
     SurfaceFlatBundle.meridian, "edge meridians"),
], ids=["framing", "bundle"])


@pytest.mark.parametrize("count", [2, 4])
@FROM_PRIMARY
def test_from_primary_checks_edge_count(make, read, what, count):
    # one matrix per edge: too few is not an IndexError, too many is not
    # silently cut short
    g = catalog_graph("theta")
    with pytest.raises(ValidationError, match=f"^need 3 {what}, got {count}$"):
        make(g, [IDENTITY] * count)
    assert make(g, [IDENTITY] * 3) is not None


@FROM_PRIMARY
def test_from_primary_checks_edge_keys(make, read, what):
    # a mapping is keyed by exactly the edges: a missing edge is not a
    # KeyError, and the keys, not their order, place the matrices
    g = catalog_graph("theta")
    with pytest.raises(ValidationError, match=rf"^{what} missing for edges \[2\]$"):
        make(g, {0: IDENTITY, 1: IDENTITY, 5: IDENTITY})
    mats = [diag(2), diag(3), diag(5)]
    by_key = make(g, {2: mats[2], 0: mats[0], 1: mats[1]})
    in_order = make(g, mats)
    assert [read(by_key, d).entries() for d in range(g.dart_count)] == \
        [read(in_order, d).entries() for d in range(g.dart_count)]


def _bundle_with_meridians(g, mats, domain):
    framing = Framing.identity(g)
    framing.domain = domain  # a bundle checks its meridians in its framing's domain
    return SurfaceFlatBundle(framing, mats)


@pytest.mark.parametrize("make, size, what", [
    (GaugeTransform, lambda g: g.vertex_count, "gauge matrices"),
    (Framing, lambda g: len(g.edges), "edge matrices"),
    (_bundle_with_meridians, lambda g: g.dart_count, "meridians"),
], ids=["gauge", "framing", "bundle"])
def test_matrix_tuple_constructors_validate(make, size, what):
    g = catalog_graph("theta")
    n = size(g)
    ok = [IDENTITY] * (n - 1)
    assert make(g, iter(ok + [IDENTITY]), EXACT) is not None
    # the count is checked before any matrix
    with pytest.raises(ValidationError, match=f"^need {n} {what}, got {n - 1}$"):
        make(g, [Mat2(2, 0, 0, 1)] * (n - 1), EXACT)
    with pytest.raises(ScalarDomainMismatch):
        make(g, ok + [IDENTITY], "decimal")
    with pytest.raises(ValidationError, match="determinant is 2, expected 1"):
        make(g, ok + [Mat2(2, 0, 0, 1)], EXACT)
    with pytest.raises(ValidationError, match="is not 1 within"):  # det off by 1e-6
        make(g, ok + [Mat2(1 + 1e-6, 0.0, 0.0, 1.0)], FLOAT)


def test_exact_random_framing_is_integer():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=4)
    assert all(type(x) is int
               for d in range(g.dart_count) for x in a.matrix(d).entries())
    u = GaugeTransform.random(g, seed=4)
    assert all(type(x) is int
               for v in range(g.vertex_count) for x in u.matrix(v).entries())


def test_framing_random_deterministic():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=8)
    b = Framing.random(g, seed=8)
    assert all(a.matrix(d).entries() == b.matrix(d).entries()
               for d in range(g.dart_count))
    c = Framing.random(g, seed=9)
    assert any(a.matrix(d).entries() != c.matrix(d).entries()
               for d in range(g.dart_count))


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_framing_random_unimodular(domain):
    g = catalog_graph("dumbbell")
    a = Framing.random(g, seed=2, domain=domain)
    for e, (lo, hi) in enumerate(g.edges):
        assert abs(a.matrix(lo).det() - 1) < 1e-12
        prod = a.matrix(lo) * a.matrix(hi)
        assert mat_close(prod, IDENTITY, 1e-12)


# -- gauge action -------------------------------------------------------


def test_identity_gauge_is_trivial():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=1)
    b = apply_gauge(GaugeTransform.identity(g), a)
    assert all(b.matrix(d).entries() == a.matrix(d).entries()
               for d in range(g.dart_count))


def test_gauge_action_composes():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=1)
    u = GaugeTransform.random(g, seed=2)
    v = GaugeTransform.random(g, seed=3)
    one_step = apply_gauge(v.compose(u), a)
    two_step = apply_gauge(v, apply_gauge(u, a))
    assert all(one_step.matrix(d).entries() == two_step.matrix(d).entries()
               for d in range(g.dart_count))


def test_gauge_preserves_inversion_property():
    # apply_gauge gauges the lower darts; the partner's inverse then equals
    # the gauge action read on the partner dart itself
    g = catalog_graph("dumbbell")
    a = Framing.random(g, seed=5)
    u = GaugeTransform.random(g, seed=6)
    b = apply_gauge(u, a)
    for d in range(g.dart_count):
        source, target = g.vertex_of(d), g.vertex_of(g.partner(d))
        assert b.matrix(d) == u.matrix(source) * a.matrix(d) * u.matrix(target).inv()


def test_tree_gauge_trivializes_tree_edges():
    g = catalog_graph("prism")
    t = g.tree
    a = Framing.random(g, seed=7)
    b = apply_gauge(tree_gauge(a), a)
    for v in t.order[1:]:
        lo, _ = g.edges[g.edge_index(t.entry_dart[v])]
        assert b.matrix(lo).entries() == (1, 0, 0, 1)


@pytest.mark.parametrize("vertices,seed", [(40, 2), (80, 3)])
def test_tree_gauge_accepts_large_float_framings(vertices, seed):
    # Tree products have growing entries, so |det - 1| exceeds an absolute
    # 1e-12 by rounding alone; the unimodularity check must scale with them.
    g = random_trivalent(vertices, seed=seed)
    t = g.tree
    a = Framing.random(g, seed=0, domain=FLOAT)
    gauge = tree_gauge(a)
    for v in t.order[1:]:
        d = t.entry_dart[v]
        step = gauge.matrix(g.vertex_of(d)) * a.matrix(d)
        assert step.entries() == gauge.matrix(v).entries()


@pytest.mark.parametrize("vertices, seed", [(40, 2), (12, 3)])
def test_apply_gauge_accepts_tree_gauge_of_float_framing(vertices, seed):
    # Gauged tree darts and conjugated trivial meridians are near the
    # identity, but their rounding error scales with the large gauge
    # factors: |det - 1| reached 1.02e-12 on (40, 2).
    g = random_trivalent(vertices, seed=seed)
    a = Framing.random(g, seed=0, domain=FLOAT)
    t = g.tree
    gauge = tree_gauge(a)
    b = apply_gauge(gauge, a)
    for v in t.order[1:]:
        assert mat_close(b.matrix(t.entry_dart[v]), IDENTITY, 1e-6)
    bundle = apply_gauge_bundle(gauge, zero_section(a))
    for d in range(g.dart_count):
        assert mat_close(bundle.meridian(d), IDENTITY, 1e-6)


# -- holonomies ---------------------------------------------------------


def test_schottky_holonomies_theta():
    m = diag(2)
    a = theta_framing(m2=m)
    hol = schottky_holonomies(a)
    assert len(hol) == 2  # one loop per cotree edge = genus
    assert hol[0].entries() == m.entries()
    assert hol[1].entries() == (1, 0, 0, 1)


def test_trace_invariants_frozen():
    a = theta_framing(m2=diag(2))
    hol = schottky_holonomies(a)
    assert trace_invariants(hol) == [Fraction(5, 2), 2, Fraction(5, 2)]


def test_trace_invariants_gauge_invariant():
    g = catalog_graph("k4")
    for seed in range(5):
        a = Framing.random(g, seed=seed)
        b = apply_gauge(GaugeTransform.random(g, seed=seed + 50), a)
        assert trace_invariants(schottky_holonomies(a)) == \
            trace_invariants(schottky_holonomies(b))


def test_holonomy_count_is_genus():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        hol = schottky_holonomies(Framing.random(g, seed=0))
        assert len(hol) == g.genus


def test_trace_invariant_count():
    # singles, ordered pairs, ordered triples of distinct generators
    g = catalog_graph("k33")
    hol = schottky_holonomies(Framing.random(g, seed=0))
    n = g.genus
    expected = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
    assert len(trace_invariants(hol)) == expected


# -- flat bundles -------------------------------------------------------


def commuting_diagonal_bundle(perturb=None):
    """Theta bundle with diagonal meridians multiplying to one."""
    a = Framing.identity(catalog_graph("theta"))
    m0 = diag(2)
    if perturb is not None:
        m0 = m0 * perturb
    return SurfaceFlatBundle.from_primary(
        a, {0: m0, 1: diag(3), 2: diag(Fraction(1, 6))})


def test_zero_section_residual():
    for name in CATALOG_NAMES:
        a = Framing.random(catalog_graph(name), seed=3)
        b = zero_section(a)
        assert vertex_relation_residual(b) == 0
        assert b.framing is a


def test_commuting_diagonal_bundle_is_flat():
    assert vertex_relation_residual(commuting_diagonal_bundle()) == 0


def test_perturbed_bundle_residual_window():
    eps = Fraction(1, 1000)
    b = commuting_diagonal_bundle(perturb=diag(1 + eps))
    r = vertex_relation_residual(b)
    assert Fraction(1, 10000) < r < Fraction(1, 100)


def test_partner_meridians_derived():
    b = commuting_diagonal_bundle()
    g = b.framing.graph
    for lo, hi in g.edges:
        # identity framing, so the partner meridian is the plain inverse
        assert b.meridian(hi).entries() == b.meridian(lo).inv().entries()


def test_gauge_preserves_vertex_residual():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=11)
    b = zero_section(a)
    gb = apply_gauge_bundle(GaugeTransform.random(g, seed=12), b)
    assert vertex_relation_residual(gb) == 0


# -- linearization at a flat point --------------------------------------


def test_linearization_shape():
    g = catalog_graph("theta")
    lin = flat_linearization(zero_section(Framing.random(g, seed=1)))
    assert len(lin) == 3 * g.vertex_count
    assert len(lin[0]) == 3 * len(g.edges)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_flat_dimension_generic(name):
    g = catalog_graph(name)
    a = Framing.random(g, seed=13)
    assert flat_local_dimension(zero_section(a)) == 3 * g.genus - 3


def test_flat_dimension_jumps_at_special_points():
    # the representation variety is singular at these two fixtures
    g = catalog_graph("theta")
    assert flat_local_dimension(zero_section(Framing.identity(g))) == 6
    assert flat_local_dimension(commuting_diagonal_bundle()) == 4


def test_flat_dimension_refuses_nonflat_point():
    b = commuting_diagonal_bundle(perturb=diag(Fraction(1001, 1000)))
    with pytest.raises(NotOnVariety):
        flat_local_dimension(b)


def test_exact_flat_dimension_refuses_residual_below_float_tolerance():
    # a residual of 1e-10 passes FLAT_TOL, but an exact bundle must satisfy
    # the vertex relations exactly
    g = catalog_graph("theta")
    near = Mat2(1, Fraction(1, 10**10), 0, 1)
    b = SurfaceFlatBundle.from_primary(Framing.identity(g), [near, IDENTITY, IDENTITY])
    assert vertex_relation_residual(b) == Fraction(1, 10**10) < FLAT_TOL
    with pytest.raises(NotOnVariety):
        flat_local_dimension(b)
    # the float domain keeps its tolerance: there the perturbation is
    # below both FLAT_TOL and the rank threshold, so the point reads as
    # the identity point
    framing = Framing.identity(g, FLOAT)
    b = SurfaceFlatBundle.from_primary(framing,
                                       [Mat2(1.0, 1e-10, 0.0, 1.0), IDENTITY, IDENTITY])
    assert flat_local_dimension(b) == flat_local_dimension(zero_section(framing))


def test_subspace_flags():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=2)
    flags = subspace_flags(zero_section(a))
    assert flags == {"all_meridians_trivial": True,
                     "cotree_holonomies_trivial": False}
    flags = subspace_flags(zero_section(Framing.identity(g)))
    assert flags == {"all_meridians_trivial": True,
                     "cotree_holonomies_trivial": True}
    flags = subspace_flags(commuting_diagonal_bundle())
    assert flags["all_meridians_trivial"] is False


def test_subspace_flags_float_domain():
    g = catalog_graph("theta")
    both = {"all_meridians_trivial": True, "cotree_holonomies_trivial": True}
    assert subspace_flags(zero_section(Framing.identity(g, FLOAT))) == both
    flags = subspace_flags(zero_section(Framing.random(g, seed=2, domain=FLOAT)))
    assert flags == {"all_meridians_trivial": True,
                     "cotree_holonomies_trivial": False}
    # Edge 0 is the tree edge, so the holonomy of cotree edge 1 is its own
    # matrix: a distance s from the identity.
    for s, trivial in ((IDENTITY_TOL / 2, True), (2 * IDENTITY_TOL, False)):
        near = Mat2(cmath.exp(s), 0j, 0j, cmath.exp(-s))
        a = Framing(g, {0: IDENTITY, 1: near, 2: IDENTITY}, FLOAT)
        assert subspace_flags(zero_section(a)) == {
            "all_meridians_trivial": True, "cotree_holonomies_trivial": trivial}
        b = SurfaceFlatBundle.from_primary(Framing.identity(g, FLOAT),
                                           {0: near, 1: IDENTITY, 2: IDENTITY})
        assert subspace_flags(b) == {
            "all_meridians_trivial": trivial, "cotree_holonomies_trivial": True}
