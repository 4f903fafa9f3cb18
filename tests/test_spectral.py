import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from graphcurves.errors import (
    DegenerateNode,
    InconsistentSpectralData,
    IrregularDeterminant,
    NumericalError,
    ValidationError,
)
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.framings import Framing
from graphcurves.higgs import HiggsField, random_higgs_field
from graphcurves.hitchin import is_regular, hitchin_image
from graphcurves.spectral import (
    NodeLift,
    _as_complex_framing,
    all_node_eigendata,
    anti_invariant_cycles,
    branch_points,
    build_spectral_curve,
    node_eigendata,
    prym_report,
    random_regular_higgs,
    reconstruct_higgs,
    roundtrip_error,
    spectral_line_bundle,
    twist,
)

from helpers import (bits, field_coefficients, naive_anti_invariant_cycles,
                     old_random_regular_higgs, old_twist_gluings)


def field_from(graph, per_vertex):
    vec = []
    for entries in per_vertex:
        vec.extend(Fraction(x) for x in entries)
    return HiggsField(graph, vec)


# -- branch points ------------------------------------------------------


def test_branch_points_frozen():
    # per-vertex determinant has coefficients (-1, 3, -3); its two roots
    # are 1/2 +- i / (2 sqrt 3)
    g = catalog_graph("theta")
    phi = field_from(g, [(1, 0, 0, 1, 1, 1)] * 2)
    assert hitchin_image(phi).coefficients == (-1, 3, -3) * 2
    bp = branch_points(phi)
    assert len(bp.points) == 2
    for root_pair in bp.points:
        lo, hi = root_pair
        assert lo == pytest.approx(0.5 - 0.28867513459481287j)
        assert hi == pytest.approx(0.5 + 0.28867513459481287j)


def test_branch_points_sorted_and_distinct():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=1, domain=FLOAT)
    bp = branch_points(random_regular_higgs(a, seed=2))
    for lo, hi in bp.points:
        assert (lo.real, lo.imag) <= (hi.real, hi.imag)
        assert lo != hi


def test_branch_points_reject_irregular():
    g = catalog_graph("theta")
    phi = field_from(g, [(1, 0, 0, 0, 0, 0)] * 2)  # double zero at 1
    with pytest.raises(IrregularDeterminant):
        branch_points(phi)


# -- node eigendata -----------------------------------------------------


def antidiagonal_solution():
    """Identity-framing solution with off-diagonal residue matrices."""
    g = catalog_graph("theta")
    phi = field_from(g, [(0, 0, 1, 1, 1, 1), (0, 0, -1, -1, -1, -1)])
    return g, Framing.identity(g), phi


def test_node_eigendata_frozen():
    g, a, phi = antidiagonal_solution()
    nodes = all_node_eigendata(phi, a)
    assert sorted(nodes) == [0, 1, 2]
    # residues are (1, 1, -2), so the eigenvalue at edge e is |r_e|
    assert nodes[0].lam == pytest.approx(1 + 0j)
    assert nodes[1].lam == pytest.approx(1 + 0j)
    assert nodes[2].lam == pytest.approx(2 + 0j)
    plus0, minus0 = nodes[0].lifts[0]
    assert plus0 == pytest.approx((1, 1))
    assert minus0 == pytest.approx((1, -1))
    # the lift over the far side of the node swaps the two lines
    plus3, minus3 = nodes[0].lifts[3]
    assert plus3 == pytest.approx((1, -1))
    assert minus3 == pytest.approx((1, 1))
    for lift in nodes.values():
        assert lift.matching_residual < 1e-12


def test_node_eigenlines_are_eigenvectors():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=3, domain=FLOAT)
    phi = random_regular_higgs(a, seed=4)
    for e, lift in all_node_eigendata(phi, a).items():
        for d, (plus, minus) in lift.lifts.items():
            v, k = g.vertex_of(d), g.marked_point(d)
            R = phi.residue_matrix(v, k)
            for line, mu in ((plus, lift.lam), (minus, -lift.lam)):
                image = R.apply(line)
                expected = (mu * line[0], mu * line[1])
                assert image[0] == pytest.approx(expected[0], abs=1e-9)
                assert image[1] == pytest.approx(expected[1], abs=1e-9)


def test_degenerate_node_rejected():
    g = catalog_graph("theta")
    zero = field_from(g, [(0,) * 6] * 2)
    with pytest.raises(DegenerateNode):
        all_node_eigendata(zero, Framing.identity(g))


def test_negated_field_same_branch_points():
    # det is quadratic in the field, so phi and -phi share everything
    g = catalog_graph("theta")
    a = Framing.random(g, seed=5, domain=FLOAT)
    phi = random_regular_higgs(a, seed=6)
    neg = HiggsField(g, [-x for x in phi.coefficients])
    assert branch_points(phi).points == branch_points(neg).points


# -- the double cover ---------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_spectral_curve_counts(name):
    g = catalog_graph(name)
    a = Framing.random(g, seed=7, domain=FLOAT)
    curve = build_spectral_curve(random_regular_higgs(a, seed=8), a)
    assert curve.component_count == g.vertex_count
    assert curve.node_count == 2 * len(g.edges)
    assert curve.arithmetic_genus == 4 * g.genus - 3
    fixed = curve.fixed_points_per_component()
    assert len(fixed) == g.vertex_count
    assert sum(len(v) for v in fixed.values()) == 2 * (2 * g.genus - 2)


def test_involution_pairs_sheets():
    g = catalog_graph("dumbbell")
    a = Framing.random(g, seed=9, domain=FLOAT)
    curve = build_spectral_curve(random_regular_higgs(a, seed=10), a)
    inv = curve.involution_on_nodes()
    labels = set(curve.node_labels())
    assert set(inv) == labels
    for label in labels:
        assert inv[label] == (label[0], -label[1])
        assert inv[inv[label]] == label


def test_quotient_recovers_base_edges():
    g = catalog_graph("k33")
    a = Framing.random(g, seed=11, domain=FLOAT)
    curve = build_spectral_curve(random_regular_higgs(a, seed=12), a)
    base = [g.edge_endpoints(e) for e in range(len(g.edges))]
    assert curve.quotient_dual_graph() == base


def test_dual_graph_doubles_edges():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=13, domain=FLOAT)
    curve = build_spectral_curve(random_regular_higgs(a, seed=14), a)
    nverts, edges = curve.dual_graph()
    assert nverts == 2
    assert len(edges) == 6


# -- cycle spaces -------------------------------------------------------


PRYM_FROZEN = {
    "theta": (2, 5, 2, 3),
    "dumbbell": (2, 5, 2, 3),
    "k4": (3, 9, 3, 6),
    "k33": (4, 13, 4, 9),
    "prism": (4, 13, 4, 9),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_prym_report_catalog(name):
    pr = prym_report(catalog_graph(name))
    assert (pr.b1_base, pr.b1_spectral, pr.pullback_rank, pr.prym_dim) == \
        PRYM_FROZEN[name]


def test_prym_report_random_graphs():
    for seed in range(10):
        g = random_trivalent(8, seed=seed)
        pr = prym_report(g)
        assert pr.b1_base == g.genus
        assert pr.b1_spectral == 4 * g.genus - 3
        assert pr.pullback_rank == g.genus
        assert pr.prym_dim == 3 * g.genus - 3


def test_anti_invariant_cycle_count():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        cycles = anti_invariant_cycles(g)
        assert len(cycles) == 3 * g.genus - 3
        for w in cycles:
            assert len(w) == 2 * len(g.edges)
            assert any(x != 0 for x in w)


# sha256 prefixes of json.dumps(anti_invariant_cycles(g)) for the catalog
# graphs and random_trivalent(12, seed), frozen so that the twist
# parameters keep their meaning while other code changes.
ANTI_INVARIANT_FROZEN = {
    "theta": "04efebf6298e7bec",
    "dumbbell": "da60a6b3b65e0d56",
    "k4": "eccfd82e7cba8117",
    "k33": "ad1285e9d1d5e8bd",
    "prism": "24735084efc9a003",
    0: "093f20b633248554",
    1: "8d3d3f15b1c5f591",
    2: "0872f6a53b24f51a",
    3: "1d640e6c08cfd741",
    4: "ae5b0d26c3251435",
}


def test_anti_invariant_cycles_frozen():
    assert anti_invariant_cycles(catalog_graph("theta")) == \
        [[-2, 2, 0, 0, 0, 0], [-1, 1, 1, -1, 0, 0], [-1, 1, 0, 0, 1, -1]]
    for key, digest in ANTI_INVARIANT_FROZEN.items():
        g = (catalog_graph(key) if isinstance(key, str)
             else random_trivalent(12, seed=key))
        blob = json.dumps(anti_invariant_cycles(g)).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest, key


def test_anti_invariant_cycles_match_naive_greedy():
    graphs = [catalog_graph(name) for name in CATALOG_NAMES]
    graphs += [random_trivalent(v, seed=s) for v in range(2, 31, 2) for s in range(5)]
    for g in graphs:
        assert anti_invariant_cycles(g) == naive_anti_invariant_cycles(g)


def test_anti_invariant_cycles_negate_under_swap():
    g = catalog_graph("k4")
    for w in anti_invariant_cycles(g):
        swapped = []
        for e in range(len(g.edges)):
            swapped.extend([w[2 * e + 1], w[2 * e]])
        assert [a + b for a, b in zip(w, swapped)] == [0] * len(w)


# -- line bundles -------------------------------------------------------


def theta_bundle():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=15, domain=FLOAT)
    curve = build_spectral_curve(random_regular_higgs(a, seed=16), a)
    return spectral_line_bundle(curve)


def test_line_bundle_initial_data():
    lb = theta_bundle()
    assert lb.multidegree == (1, 1)
    assert set(lb.gluings) == set(lb.curve.node_labels())
    assert all(v == 1 for v in lb.gluings.values())


def test_twist_parameter_count_checked():
    lb = theta_bundle()
    with pytest.raises(ValidationError):
        twist(lb, [2.0])
    with pytest.raises(ValidationError):
        twist(lb, [1.0, 0.0, 1.0])


def test_twist_changes_gluings_not_degree():
    lb = theta_bundle()
    tw = twist(lb, [2.0, 1.0, 1.0])
    assert tw.multidegree == lb.multidegree
    assert tw.gluings != lb.gluings
    # trivial character leaves the bundle untouched
    assert twist(lb, [1.0, 1.0, 1.0]).gluings == lb.gluings


def test_twists_compose_multiplicatively():
    lb = theta_bundle()
    one = twist(lb, [2.0, 3.0, 0.5])
    two = twist(twist(lb, [2.0, 1.0, 1.0]), [1.0, 3.0, 0.5])
    for label in lb.gluings:
        assert one.gluings[label] == pytest.approx(two.gluings[label])


@pytest.mark.parametrize("key", list(CATALOG_NAMES) + [(8, 0), (12, 1), (20, 2)])
def test_twist_matches_offset_oracle_bitwise(key):
    g = catalog_graph(key) if isinstance(key, str) else random_trivalent(*key)
    a = Framing.random(g, seed=3, domain=FLOAT)
    lb = spectral_line_bundle(build_spectral_curve(random_regular_higgs(a, seed=4), a))
    rng = Random(5)  # moduli off the powers of two, so every product rounds
    params = [complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
              for _ in range(3 * g.genus - 3)]
    got = twist(lb, params).gluings
    want = old_twist_gluings(lb, params)
    assert list(got) == list(want)
    assert bits(list(got.values())) == bits(list(want.values()))


# -- reconstruction -----------------------------------------------------


@pytest.mark.parametrize("name", ["theta", "dumbbell", "k4"])
def test_roundtrip_through_eigendata(name):
    g = catalog_graph(name)
    for seed in range(3):
        a = Framing.random(g, seed=seed, domain=FLOAT)
        phi = random_regular_higgs(a, seed=seed + 40)
        assert roundtrip_error(phi, a) < 1e-8


def test_reconstruct_matches_coefficients():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=17, domain=FLOAT)
    phi = random_regular_higgs(a, seed=18)
    back = reconstruct_higgs(all_node_eigendata(phi, a), a)
    for x, y in zip(back.coefficients, phi.coefficients):
        assert x == pytest.approx(y, abs=1e-10)


def test_reconstruct_rejects_collapsed_lines():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=19, domain=FLOAT)
    phi = random_regular_higgs(a, seed=20)
    nodes = dict(all_node_eigendata(phi, a))
    lift = nodes[0]
    d = min(lift.lifts)
    plus, _ = lift.lifts[d]
    nodes[0] = NodeLift(edge=lift.edge, lam=lift.lam,
                        lifts={**lift.lifts, d: (plus, plus)},
                        matching_residual=lift.matching_residual)
    with pytest.raises(InconsistentSpectralData):
        reconstruct_higgs(nodes, a)


def test_reconstruct_rejects_inconsistent_node_data():
    g = catalog_graph("theta")
    a = Framing.random(g, seed=17, domain=FLOAT)
    nodes = all_node_eigendata(random_regular_higgs(a, seed=18), a)
    lift = nodes[0]
    lo, hi = g.edges[0]
    plus, minus = lift.lifts[hi]
    cases = {
        "cover every edge": {e: x for e, x in nodes.items() if e != 0},
        "missing eigenlines for dart": {
            **nodes, 0: replace(lift, lifts={lo: lift.lifts[lo]})},
        # Swapped lines stay transverse, but transport no longer matches them.
        "transport mismatch": {
            **nodes, 0: replace(lift, lifts={**lift.lifts, hi: (minus, plus)})},
        "sum to": {**nodes, 0: replace(lift, lam=2 * lift.lam)},
    }
    for message, data in cases.items():
        with pytest.raises(InconsistentSpectralData, match=message):
            reconstruct_higgs(data, a)


def test_node_eigendata_rejects_wrong_framing():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=21, domain=FLOAT)
    phi = random_regular_higgs(a, seed=22)
    other = Framing.random(g, seed=23, domain=FLOAT)
    with pytest.raises(InconsistentSpectralData, match="transport mismatch"):
        all_node_eigendata(phi, other)


def test_random_regular_higgs_is_regular_and_deterministic():
    g = catalog_graph("k4")
    a = Framing.random(g, seed=21, domain=FLOAT)
    p1 = random_regular_higgs(a, seed=9)
    p2 = random_regular_higgs(a, seed=9)
    assert p1 == p2
    assert is_regular(hitchin_image(p1)).regular


def test_exact_inputs_accepted():
    # spectral data always floats internally, exact inputs get converted
    g = catalog_graph("theta")
    a = Framing.random(g, seed=22, domain=EXACT)
    phi = random_higgs_field(a, seed=23)
    curve = build_spectral_curve(phi, a)
    assert curve.arithmetic_genus == 5
    assert roundtrip_error(phi, a) < 1e-8


def _lift_bits(lift):
    return (bits(lift.lam), bits(lift.matching_residual),
            {d: bits(pair) for d, pair in lift.lifts.items()})


def test_node_eigendata_of_exact_field_equals_complex_copy():
    # node_eigendata converts only the two residue matrices it reads; the
    # bits must be those of converting the whole field first
    graphs = [catalog_graph(n) for n in CATALOG_NAMES]
    graphs += [random_trivalent(v, 1) for v in (8, 12)]
    for k, g in enumerate(graphs):
        a = Framing.random(g, seed=k, domain=EXACT)
        phi = random_higgs_field(a, seed=k + 1)
        phi_c = HiggsField(g, [complex(x) for x in phi.coefficients])
        for e in range(len(g.edges)):
            assert _lift_bits(node_eigendata(phi, a, e)) == \
                _lift_bits(node_eigendata(phi_c, a, e))


def test_random_regular_higgs_matches_component_oracle():
    graphs = [catalog_graph(n) for n in CATALOG_NAMES]
    graphs += [random_trivalent(v, s) for v in range(2, 31, 2) for s in range(3)]
    for k, g in enumerate(graphs):
        a = Framing.random(g, seed=k % 3, domain=FLOAT)
        try:
            phi = random_regular_higgs(a, seed=k)
        except IrregularDeterminant:
            with pytest.raises(IrregularDeterminant):
                old_random_regular_higgs(a, seed=k)
            continue
        assert bits(phi.coefficients) == bits(
            field_coefficients(old_random_regular_higgs(a, seed=k)))


def _plant_signed_zero_basis(monkeypatch):
    """Make higgs_space return one regular Higgs field on k4 with an
    exactly zero coefficient, so c * 0j is a signed zero for some c; only
    such a basis shows a combination's starting value.  Returns the
    exact framing the field lies on."""
    import graphcurves.higgs as higgs_mod
    import graphcurves.spectral as spectral_mod
    from graphcurves.higgs import higgs_space
    from graphcurves.linalg import KernelReport

    g = catalog_graph("k4")
    a = Framing.random(g, seed=3)
    basis = [psi.coefficients for psi in higgs_space(a).basis]
    vec = [sum(k * b[i] for k, b in enumerate(basis, 1)) for i in range(6 * 4)]
    vec = [x - vec[0] / basis[0][0] * y for x, y in zip(vec, basis[0])]
    assert vec[0] == 0
    phi = HiggsField(g, [complex(x) for x in vec])
    assert is_regular(hitchin_image(phi)).regular
    report = KernelReport(domain=FLOAT, nrows=0, ncols=24, rank=0, basis=[phi])
    for mod in (higgs_mod, spectral_mod):
        monkeypatch.setattr(mod, "higgs_space", lambda framing: report)
    return a


def test_regular_field_combination_keeps_signed_zeros(monkeypatch):
    # As in test_hitchin: only a planted basis shows the combination's
    # starting value.
    a = _plant_signed_zero_basis(monkeypatch)
    for seed in range(8):
        assert bits(random_regular_higgs(a, seed).coefficients) == bits(
            field_coefficients(old_random_regular_higgs(a, seed)))


def _first_draw_is_regular(phi, framing):
    if not is_regular(hitchin_image(phi)).regular:
        return False
    try:
        all_node_eigendata(phi, framing)
    except NumericalError:
        return False
    return True


@pytest.mark.parametrize("planted", [False, True])
def test_first_regular_draw_is_random_higgs_field(monkeypatch, planted):
    # random_regular_higgs draws by random_higgs_field's rule, so a regular
    # first draw has its bits, signed zeros of a planted basis included
    if planted:
        framings = [_as_complex_framing(_plant_signed_zero_basis(monkeypatch))]
    else:
        graphs = [catalog_graph(n) for n in CATALOG_NAMES]
        graphs += [random_trivalent(v, s) for v in (8, 20) for s in (0, 1)]
        framings = [Framing.random(g, seed=s, domain=FLOAT) for g in graphs for s in (0, 1)]
    checked = 0
    for a in framings:
        for seed in range(8 if planted else 2):
            phi = random_higgs_field(a, seed)
            if _first_draw_is_regular(phi, a):
                checked += 1
                assert bits(random_regular_higgs(a, seed).coefficients) == bits(
                    phi.coefficients)
    assert checked >= len(framings)
