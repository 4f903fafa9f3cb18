"""Acceptance gate: one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion; add -s to see the printed summaries too.
"""

import json
import subprocess
import sys
from fractions import Fraction
from random import Random

from graphcurves.graphs import (
    CATALOG_NAMES,
    catalog_graph,
    random_trivalent,
)
from graphcurves.scalars import EXACT, FLOAT
from graphcurves.sections import (
    bires_coordinates,
    canonical_space,
    double_canonical_space,
)
from graphcurves.framings import (
    Framing,
    GaugeTransform,
    apply_gauge,
    flat_linearization,
    flat_local_dimension,
    zero_section,
)
from graphcurves.higgs import (
    HiggsField,
    gauge_transform_higgs,
    higgs_residual,
    higgs_space,
    random_higgs_field,
    residue_parameterization,
    residue_parameterization_matrix,
)
from graphcurves.hitchin import (
    bires_det_residual,
    hitchin_edge_coords,
    hitchin_jacobian,
    jacobian_fd_error,
)
from graphcurves.linalg import exact_rank
from graphcurves.spectral import (
    anti_invariant_cycles,
    build_spectral_curve,
    prym_report,
    random_regular_higgs,
    roundtrip_error,
)

from helpers import cli_env


def _line(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _graph_pool(per_genus=20):
    """Catalog graphs plus 100 random ones covering genus 2 through 6."""
    graphs = [catalog_graph(name) for name in CATALOG_NAMES]
    for genus in range(2, 7):
        for i in range(per_genus):
            graphs.append(random_trivalent(2 * genus - 2,
                                           seed=1000 * genus + i))
    return graphs


def _combo_field(graph, basis, rng):
    coeffs = [rng.randint(-9, 9) for _ in basis]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    vec = None
    for c, phi in zip(coeffs, basis):
        term = [Fraction(c) * x for x in phi.coefficients]
        vec = term if vec is None else [a + b for a, b in zip(vec, term)]
    return HiggsField(graph, vec)


def test_criterion_01_canonical_dimension():
    graphs = _graph_pool()
    for g in graphs:
        sp = canonical_space(g, EXACT)
        if sp.dim != g.genus or sp.rank != 3 * g.genus - 4:
            _line(1, False,
                  f"genus {g.genus} graph gave dim {sp.dim} rank {sp.rank}")
    _line(1, True,
          f"dim K = g and corank one on {len(graphs)} graphs, genus 2..6")


def test_criterion_02_double_canonical_dimension():
    graphs = _graph_pool()
    bad = 0
    for g in graphs:
        sp = double_canonical_space(g, EXACT)
        if sp.dim != 3 * g.genus - 3 or sp.rank != 3 * g.genus - 3:
            bad += 1
            continue
        coords = bires_coordinates(sp.basis)
        if exact_rank(coords, len(g.edges)) != 3 * g.genus - 3:
            bad += 1
    _line(2, bad == 0,
          f"dim 2K = 3g-3 with injective edge coordinates on {len(graphs)} graphs")


def test_criterion_03_higgs_dimension():
    checked = 0
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        for seed in range(100):
            a = Framing.random(g, seed=seed)
            sp = higgs_space(a)
            ok = sp.dim == 3 * g.genus - 3
            ok = ok and higgs_residual(sp.basis, a) == 0
            if not ok:
                _line(3, False, f"{name} seed {seed}: dim {sp.dim}")
            checked += 1
    jump = higgs_space(Framing.identity(catalog_graph("theta"))).dim
    if jump != 6:
        _line(3, False, f"identity framing dimension {jump}, expected 6")
    _line(3, True,
          f"dim 3g-3 with exact zero residual on {checked} framings; "
          "identity jump = 6")


def test_criterion_04_gauge_invariance():
    rng = Random(404)
    trials = 0
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        for i in range(20):
            a = Framing.random(g, seed=rng.randrange(10**6))
            u = GaugeTransform.random(g, seed=rng.randrange(10**6))
            phi = random_higgs_field(a, seed=rng.randrange(10**6))
            before = hitchin_edge_coords(phi)
            after = hitchin_edge_coords(gauge_transform_higgs(u, phi))
            if before != after:
                _line(4, False, f"{name} trial {i}: coordinates moved")
            ag = apply_gauge(u, a)
            if higgs_residual([gauge_transform_higgs(u, phi)], ag) != 0:
                _line(4, False, f"{name} trial {i}: gauge left the variety")
            trials += 1
    _line(4, True,
          f"edge coordinates bitwise gauge-invariant on {trials} triples")


def test_criterion_05_biresidue_determinant_identity():
    rng = Random(505)
    count = 0
    for name in ("theta", "dumbbell", "k4", "k33"):
        g = catalog_graph(name)
        for _ in range(250):
            vec = [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 1, 3, 7]))
                   for _ in range(6 * g.vertex_count)]
            phi = HiggsField(g, vec)
            if bires_det_residual(phi) != 0:
                _line(5, False, f"residual nonzero on {name}")
            count += 1
    _line(5, True, f"biresidues of det equal residue determinants "
          f"on {count} fields, exactly")


def test_criterion_06_jacobian():
    rng = Random(606)
    fd_checked = 0
    for name in ("theta", "k4"):
        g = catalog_graph(name)
        a = Framing.random(g, seed=66, domain=FLOAT)
        basis = higgs_space(a).basis
        for _ in range(10):
            phi = _combo_field(g, basis, rng)
            err = jacobian_fd_error(phi, a, basis)
            if err > 1e-6:
                _line(6, False, f"{name}: finite difference gap {err:.2e}")
            fd_checked += 1
        rank = hitchin_jacobian(random_higgs_field(a, seed=67), a, basis).rank
        if rank != 3 * g.genus - 3:
            _line(6, False, f"{name}: generic rank {rank}")
    _line(6, True,
          f"Jacobian matches central differences within 1e-6 on "
          f"{fd_checked} fields; generic rank 3g-3 at genus 2 and 3")


def test_criterion_07_spectral_curve():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        a = Framing.random(g, seed=77, domain=FLOAT)
        phi = random_regular_higgs(a, seed=78)
        curve = build_spectral_curve(phi, a)
        ok = curve.arithmetic_genus == 4 * g.genus - 3
        fixed = curve.fixed_points_per_component()
        ok = ok and sum(len(v) for v in fixed.values()) == 2 * (2 * g.genus - 2)
        base = [g.edge_endpoints(e) for e in range(len(g.edges))]
        ok = ok and curve.quotient_dual_graph() == base
        if not ok:
            _line(7, False, f"{name}: genus {curve.arithmetic_genus}")
    _line(7, True, "cover genus 4g-3, fixed locus 2(2g-2), quotient "
          "recovers the base graph at genus 2, 3, 4")


def test_criterion_08_prym_dimension():
    graphs = _graph_pool()
    for g in graphs:
        pr = prym_report(g)
        quad = (pr.b1_base, pr.b1_spectral, pr.pullback_rank, pr.prym_dim)
        if quad != (g.genus, 4 * g.genus - 3, g.genus, 3 * g.genus - 3):
            _line(8, False, f"genus {g.genus}: {quad}")
        if len(anti_invariant_cycles(g)) != pr.prym_dim:
            _line(8, False, f"genus {g.genus}: cycle count mismatch")
    # the same number 3g-3 shows up as the generic Higgs dimension and
    # the generic rank of the determinant map's Jacobian
    for name in ("theta", "k4"):
        g = catalog_graph(name)
        target = prym_report(g).prym_dim
        a = Framing.random(g, seed=88)
        if higgs_space(a).dim != target:
            _line(8, False, f"{name}: Higgs dimension != Prym dimension")
        af = Framing.random(g, seed=88, domain=FLOAT)
        phi = random_higgs_field(af, seed=89)
        if hitchin_jacobian(phi, af).rank != target:
            _line(8, False, f"{name}: Jacobian rank != Prym dimension")
    _line(8, True, f"Prym data (g, 4g-3, g, 3g-3) on {len(graphs)} graphs; "
          "agrees with Higgs dimension and Jacobian rank")


def test_criterion_09_reconstruction():
    budgets = {"theta": 17, "dumbbell": 17, "k4": 16}
    worst = 0.0
    for name, count in budgets.items():
        g = catalog_graph(name)
        for seed in range(count):
            a = Framing.random(g, seed=seed, domain=FLOAT)
            phi = random_regular_higgs(a, seed=seed + 900)
            err = roundtrip_error(phi, a)
            worst = max(worst, err)
            if err > 1e-8:
                _line(9, False, f"{name} seed {seed}: error {err:.2e}")
    _line(9, True, f"eigendata roundtrip on 50 fields, worst "
          f"relative error {worst:.2e}")


def test_criterion_10_flat_linearization():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        for seed in range(3):
            a = Framing.random(g, seed=seed)
            if residue_parameterization_matrix(a) != \
                    flat_linearization(zero_section(a)):
                _line(10, False, f"{name} seed {seed}: matrices differ")
            rep = residue_parameterization(a)
            if not rep.matches_flat_linearization:
                _line(10, False, f"{name} seed {seed}: report flag")
            if flat_local_dimension(zero_section(a)) != 3 * g.genus - 3:
                _line(10, False, f"{name} seed {seed}: local dimension")
    _line(10, True, "edge-residue parameterization equals the flat "
          "linearization entry for entry; local dimension 3g-3")


def test_criterion_11_cli_determinism():
    commands = [
        ["graph", "--graph", "k4"],
        ["sections", "--graph", "theta"],
        ["higgs", "--graph", "dumbbell", "--seed", "12"],
        ["hitchin", "--graph", "theta", "--seed", "3", "--domain", "float"],
        ["spectral", "--graph", "k4", "--seed", "7"],
    ]
    for cmd in commands:
        runs = [subprocess.run([sys.executable, "-m", "graphcurves"] + cmd,
                               capture_output=True, text=True, env=cli_env())
                for _ in range(2)]
        if runs[0].returncode != 0 or runs[1].returncode != 0:
            _line(11, False, f"{cmd[0]}: nonzero exit")
        if runs[0].stdout != runs[1].stdout:
            _line(11, False, f"{cmd[0]}: stdout differs between runs")
        json.loads(runs[0].stdout)
    _line(11, True, f"byte-identical reports across repeated runs of "
          f"{len(commands)} commands")
