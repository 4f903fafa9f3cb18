"""Shared oracles for the test suite.

Rank checks here must not share code with graphcurves.linalg: the
minor oracle expands determinants, the float oracle goes through
numpy's SVD, and fraction_rref is Gauss-Jordan on Fraction objects.
All are slow and meant for small fixtures only.
"""

import importlib.util
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@lru_cache(maxsize=None)
def load_by_path(relative: str):
    """The module at ROOT / relative (a tool, a benchmark module), loaded once."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_env():
    """Environment for a `python -m graphcurves` child: the repository's
    src first on PYTHONPATH, so an uninstalled checkout runs too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def exact_det(rows):
    """Determinant by memoized Laplace expansion along rows."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    assert all(len(r) == n for r in rows)

    @lru_cache(maxsize=None)
    def sub(cols):
        if not cols:
            return Fraction(1)
        i = len(rows) - len(cols)
        total = Fraction(0)
        for j, c in enumerate(cols):
            a = rows[i][c]
            if a == 0:
                continue
            rest = cols[:j] + cols[j + 1:]
            term = a * sub(rest)
            total += term if j % 2 == 0 else -term
        return total

    return sub(tuple(range(n)))


def integer_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, for matrices too large for exact_det."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def minor_rank(rows):
    """Largest r with a nonzero r x r minor.  Exact entries only."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    if not rows or not rows[0]:
        return 0
    n, m = len(rows), len(rows[0])
    for r in range(min(n, m), 0, -1):
        for ri in combinations(range(n), r):
            for ci in combinations(range(m), r):
                minor = [tuple(rows[i][j] for j in ci) for i in ri]
                if exact_det(minor) != 0:
                    return r
    return 0


def svd_rank(rows, rtol=1e-9):
    """Numerical rank via SVD, independent of the package's dispatch."""
    arr = np.array([[complex(x) for x in row] for row in rows])
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def svd_kernel(rows, ncols, rtol=1e-9):
    """Orthonormal kernel basis, as the columns of an ncols x dim array,
    from numpy's SVD with svd_rank's threshold."""
    arr = np.array([[complex(x) for x in row] for row in rows]).reshape(-1, ncols)
    _, s, vh = np.linalg.svd(arr)
    rank = int(np.sum(s > rtol * s[0])) if len(s) and s[0] else 0
    return vh[rank:].conj().T


def fraction_rref(rows, ncols):
    """Reduced row echelon form by Gauss-Jordan on Fraction objects.

    Returns (matrix, pivot_columns).  This is the package's elimination
    before it moved to integers, kept as the oracle for exact_rref.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pr = m[r]
        p = pr[c]
        if p != 1:
            for j in range(c, ncols):
                if pr[j]:
                    pr[j] /= p
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][c]
            if f:
                ri = m[i]
                for j in range(c, ncols):
                    if pr[j]:
                        ri[j] -= f * pr[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_nullspace(rows, ncols):
    """Right kernel read off fraction_rref, one vector per free column."""
    m, pivots = fraction_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            if m[r][free]:
                v[c] = -m[r][free]
        basis.append(v)
    return basis


def residual(rows, vector):
    """Largest magnitude of (matrix . vector), for kernel membership checks."""
    worst = 0
    for row in rows:
        acc = 0
        for x, v in zip(row, vector):
            if x:
                acc += x * v
        worst = max(worst, abs(acc))
    return worst


# The package's dense integer elimination before its rows became sparse:
# one list of ncols ints per row, the first remaining row with an entry
# as pivot, and (with reduced) the entries above each pivot cleared as
# it goes (Gauss-Jordan).  Kept as the oracle for linalg's sparse rows.


def dense_integer_row(row):
    """The row as a dense list of primitive ints: cleared of denominators,
    content divided out."""
    den = math.lcm(*(x.denominator for x in row if x))
    out = [x.numerator * (den // x.denominator) if x else 0 for x in row]
    content = math.gcd(*out)
    if content > 1:
        return [x // content for x in out]
    return out


def _dense_reduce(row, pivot_row, c, support):
    p = pivot_row[c]
    f = row[c]
    gamma = math.gcd(p, f)
    a = p // gamma
    b = f // gamma
    if a < 0:
        a, b = -a, -b
    if a != 1:
        row = [a * x for x in row]
    for j in support:
        row[j] -= b * pivot_row[j]
    content = math.gcd(*row)
    if content > 1:
        return [x // content for x in row]
    return row


def _support(row, start):
    return [j for j in range(start, len(row)) if row[j]]


def dense_echelon(m, ncols, reduced):
    """Integer row echelon form of the dense rows m, in place; returns
    the pivot columns.  Pivot k sits in row k."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        support = _support(pr, c)
        for i in range(0 if reduced else r + 1, len(m)):
            if i != r and m[i][c]:
                m[i] = _dense_reduce(m[i], pr, c, support)
        pivots.append(c)
        r += 1
    return pivots


def dense_rank_mod_p(m, ncols, p):
    """Rank of the dense integer rows m reduced mod the prime p."""
    m = [[x % p for x in row] for row in m]
    n = len(m)
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for i in range(r, n):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        inv = pow(pr[c], -1, p)
        support = _support(pr, c + 1)
        for i in range(r + 1, n):
            row = m[i]
            f = row[c]
            if f:
                f = f * inv % p
                for j in support:
                    row[j] = (row[j] - f * pr[j]) % p
        r += 1
    return r


def naive_anti_invariant_cycles(graph):
    """anti_invariant_cycles by recomputing a rank for every candidate.

    Same candidates and order as the package; a candidate is kept when
    it raises the rank of those kept before it.  The rank is the
    package's integer_rank, itself checked against fraction_rref and
    minor_rank in test_linalg.
    """
    from graphcurves.linalg import integer_rank
    from graphcurves.spectral import _doubled_edges, _fundamental_cycles

    edges = _doubled_edges(graph)
    cycles = _fundamental_cycles(graph.vertex_count, edges)
    chosen = []
    for z in cycles:
        w = [0] * len(edges)
        for e in range(len(edges) // 2):
            diff = z[2 * e] - z[2 * e + 1]
            w[2 * e] = diff
            w[2 * e + 1] = -diff
        if any(w) and integer_rank(chosen + [w]) > len(chosen):
            chosen.append(w)
    return chosen


def old_twist_gluings(bundle, parameters):
    """Gluings of spectral.twist, reading each cycle's exponents at the
    offsets 2e (node (e, +1)) and 2e + 1 (node (e, -1)), on the cycles
    of naive_anti_invariant_cycles."""
    graph = bundle.curve.graph
    gluings = dict(bundle.gluings)
    for t, w in zip(parameters, naive_anti_invariant_cycles(graph)):
        t = complex(t)
        for e in range(len(graph.edges)):
            for offset, sign in ((0, 1), (1, -1)):
                exponent = w[2 * e + offset]
                if exponent:
                    gluings[(e, sign)] *= t ** exponent
    return gluings


# The package's three node systems as separate loops, before one builder
# (sections._node_rows) made all three; kept as bitwise oracles.


def old_canonical_matrix(graph):
    from graphcurves.sections import RESIDUE_FUNCTIONAL

    ncols = 2 * graph.vertex_count
    rows = []
    for a, b in graph.edges:
        row = [0] * ncols
        for d in (a, b):
            base = 2 * graph.vertex_of(d)
            func = RESIDUE_FUNCTIONAL[graph.marked_point(d)]
            row[base] += func[0]
            row[base + 1] += func[1]
        rows.append(row)
    return rows


def old_double_canonical_matrix(graph):
    from graphcurves.sections import BIRESIDUE_FUNCTIONAL

    ncols = 3 * graph.vertex_count
    rows = []
    for a, b in graph.edges:
        row = [0] * ncols
        for d, sign in ((a, 1), (b, -1)):
            base = 3 * graph.vertex_of(d)
            func = BIRESIDUE_FUNCTIONAL[graph.marked_point(d)]
            for j in range(3):
                row[base + j] += sign * func[j]
        rows.append(row)
    return rows


def old_adjoint_matrix(g):
    """adjoint_matrix through Mat2 products: column k is the coordinates
    of (g E_k) g^-1 for E_k in SL2_BASIS."""
    from graphcurves.matrices import SL2_BASIS, sl2_coords

    g_inv = g.inv()
    cols = [sl2_coords(g * e * g_inv) for e in SL2_BASIS]
    return tuple(tuple(cols[k][r] for k in range(3)) for r in range(3))


def old_flat_linearization(bundle):
    """flat_linearization through Mat2 products: the derivative of each
    dart's meridian for a unit move on its edge parameter, in a table,
    then prefix * derivative * suffix * product^-1 per vertex slot."""
    from graphcurves.matrices import IDENTITY, SL2_BASIS, sl2_coords

    g = bundle.graph
    a = bundle.framing
    # Lower dart: X mu(d).  Partner dart: -a(partner) mu(d)^-1 X a(partner)^-1.
    dmu = {}
    for lo, hi in g.edges:
        mu = bundle.meridian(lo)
        mu_inv = mu.inv()
        t = a.matrix(hi)
        t_inv = t.inv()
        for k, basis in enumerate(SL2_BASIS):
            dmu[(lo, k)] = basis * mu
            dmu[(hi, k)] = -(t * mu_inv * basis * t_inv)
    ncols = 3 * len(g.edges)
    rows = []
    for v in range(g.vertex_count):
        darts = g.vertex_darts(v)
        mats = [bundle.meridian(d) for d in darts]
        f_inv = (mats[0] * mats[1] * mats[2]).inv()
        prefix = [IDENTITY, mats[0], mats[0] * mats[1]]
        suffix = [mats[1] * mats[2], mats[2], IDENTITY]
        blocks = [[0] * ncols for _ in range(3)]
        for i, d in enumerate(darts):
            e = g.edge_index(d)
            for k in range(3):
                contrib = prefix[i] * dmu[(d, k)] * suffix[i] * f_inv
                for block, x in zip(blocks, sl2_coords(contrib)):
                    block[3 * e + k] += x
        rows.extend(blocks)
    return rows


def old_higgs_constraints(framing, edges=None):
    """assemble_higgs_constraints, each edge's equation anchored at the
    first dart of its pair in edges (by default graph.edges, lower dart
    first)."""
    from graphcurves.sections import RESIDUE_FUNCTIONAL

    g = framing.graph
    ncols = 6 * g.vertex_count
    rows = []
    for d, p in g.edges if edges is None else edges:
        block = [[0] * ncols for _ in range(3)]
        func = RESIDUE_FUNCTIONAL[g.marked_point(d)]
        base = 6 * g.vertex_of(d)
        for r in range(3):
            block[r][base + 2 * r] += func[0]
            block[r][base + 2 * r + 1] += func[1]
        ad = old_adjoint_matrix(framing.matrix(d))
        func = RESIDUE_FUNCTIONAL[g.marked_point(p)]
        base = 6 * g.vertex_of(p)
        for r in range(3):
            for k in range(3):
                coeff = ad[r][k]
                if coeff:
                    block[r][base + 2 * k] += coeff * func[0]
                    block[r][base + 2 * k + 1] += coeff * func[1]
        rows.extend(block)
    return rows


def higher_dart_higgs_constraints(framing):
    """assemble_higgs_constraints with each edge's equation anchored at its
    higher dart instead of its lower one.

    The two systems differ row by row (one is the other transported
    across the node) but must have the same kernel.
    """
    return old_higgs_constraints(framing, [(b, a) for a, b in framing.graph.edges])


# -- the per-component Hitchin layer, kept as a bitwise oracle -----------
#
# The package keeps differentials, quadratic differentials and Higgs fields
# as flat coefficient tuples, and the Hitchin kernels work on their scalars.
# Below is the earlier code that went through per-component objects,
# verbatim except that fields are passed as per-vertex (w11, w12, w21)
# triples of differentials.  It carries its own copies of the two
# component classes, so it shares no code with the package.  The tests
# compare bits, so a changed order of scalar operations (or a signed zero)
# shows up.


@dataclass(frozen=True)
class ComponentDifferential:
    """Logarithmic differential (r0/z + r1/(z-1)) dz on one component."""

    r0: object
    r1: object

    def residues(self):
        """Residues at the marked points (0, 1, inf)."""
        return (self.r0, self.r1, -(self.r0 + self.r1))

    def residue(self, point):
        return self.residues()[point]

    def __add__(self, other):
        return ComponentDifferential(self.r0 + other.r0, self.r1 + other.r1)

    def __neg__(self):
        return ComponentDifferential(-self.r0, -self.r1)

    def scale(self, s):
        return ComponentDifferential(s * self.r0, s * self.r1)


@dataclass(frozen=True)
class ComponentQuadratic:
    """Quadratic differential (q0 + q1 z + q2 z^2)/(z^2 (z-1)^2) dz^2."""

    q0: object
    q1: object
    q2: object

    def biresidues(self):
        """Leading double-pole coefficients at (0, 1, inf)."""
        return (self.q0, self.q0 + self.q1 + self.q2, self.q2)

    def biresidue(self, point):
        return self.biresidues()[point]

    def coefficients(self):
        return (self.q0, self.q1, self.q2)

    def __add__(self, other):
        return ComponentQuadratic(self.q0 + other.q0, self.q1 + other.q1,
                                  self.q2 + other.q2)

    def __neg__(self):
        return ComponentQuadratic(-self.q0, -self.q1, -self.q2)

    def scale(self, s):
        return ComponentQuadratic(s * self.q0, s * self.q1, s * self.q2)


def vertex_data(phi):
    """Per-vertex (w11, w12, w21) ComponentDifferential triples of a field."""
    c = phi.coefficients
    return [tuple(ComponentDifferential(c[i], c[i + 1]) for i in range(b, b + 6, 2))
            for b in range(0, len(c), 6)]


def field_coefficients(x):
    """The flat 6V coefficient list of per-vertex differential triples."""
    return [s for trip in x for w in trip for s in (w.r0, w.r1)]


def quadratic_coefficients(comps):
    """The flat 3V coefficient list of per-vertex component quadratics."""
    return [s for q in comps for s in q.coefficients()]


def old_multiply_differentials(d1, d2):
    r0, r1 = d1.r0, d1.r1
    s0, s1 = d2.r0, d2.r1
    cross = r0 * s1 + r1 * s0
    return ComponentQuadratic(
        r0 * s0,
        -2 * r0 * s0 - cross,
        r0 * s0 + cross + r1 * s1,
    )


def old_add(x, y):
    return [tuple(a + b for a, b in zip(ta, tb)) for ta, tb in zip(x, y)]


def old_scale(x, s):
    return [tuple(w.scale(s) for w in trip) for trip in x]


def old_residue_matrix(x, v, point):
    from graphcurves.matrices import from_sl2_coords

    w11, w12, w21 = x[v]
    return from_sl2_coords(w11.residue(point), w12.residue(point),
                           w21.residue(point))


def old_hitchin_image(x):
    """Per-vertex ComponentQuadratic determinants of a field."""
    comps = []
    for w11, w12, w21 in x:
        comps.append(-(old_multiply_differentials(w11, w11)
                       + old_multiply_differentials(w12, w21)))
    return comps


def old_polarization(x, y):
    comps = []
    for (a11, a12, a21), (b11, b12, b21) in zip(x, y):
        comps.append(-(old_multiply_differentials(a11, b11).scale(2)
                       + old_multiply_differentials(a12, b21)
                       + old_multiply_differentials(a21, b12)))
    return comps


def old_bires_coordinates(graph, comps, tol=None):
    from graphcurves.errors import MatchingViolated
    from graphcurves.scalars import EXACT, MATCH_TOL, domain_of

    if tol is None:
        tol = MATCH_TOL
    g = graph
    exact = domain_of(comps[0].q0) == EXACT
    scale = 1
    if not exact:
        scale = max([1.0] + [abs(x) for c in comps for x in c.coefficients()])
    coords = []
    for e, (a, b) in enumerate(g.edges):
        lhs = comps[g.vertex_of(a)].biresidue(g.marked_point(a))
        rhs = comps[g.vertex_of(b)].biresidue(g.marked_point(b))
        diff = abs(lhs - rhs)
        if (diff != 0) if exact else (diff > tol * scale):
            raise MatchingViolated(
                f"bi-residues differ across edge {e}: {lhs} vs {rhs}")
        coords.append(lhs)
    return coords


def old_hitchin_jacobian_rows(graph, x, basis):
    return [old_bires_coordinates(graph, old_polarization(x, y)) for y in basis]


def old_finite_difference_jacobian(graph, x, basis, step=1e-5):
    rows = []
    for y in basis:
        plus = old_bires_coordinates(
            graph, old_hitchin_image(old_add(x, old_scale(y, complex(step)))))
        minus = old_bires_coordinates(
            graph, old_hitchin_image(old_add(x, old_scale(y, complex(-step)))))
        rows.append([(p - m) / (2 * step) for p, m in zip(plus, minus)])
    return rows


def old_random_higgs_field(framing, seed, domain, report):
    """random_higgs_field's draws and its zero-started combination loop.

    report is higgs_space(framing, domain), passed in to save a solve.
    """
    from random import Random

    from graphcurves.scalars import EXACT

    rng = Random(seed)
    if domain == EXACT:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in report.basis]
        if all(c == 0 for c in coeffs) and report.basis:
            coeffs[0] = Fraction(1)
    else:
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in report.basis]
    return old_combination(coeffs, report.basis, framing.graph,
                           0 if domain == EXACT else 0j)


def old_combination(coeffs, basis, graph, zero):
    """The combination loop of random_higgs_field and random_regular_higgs:
    sum c_k psi_k started at zero, as per-vertex triples."""
    phi = [(ComponentDifferential(zero, zero),) * 3 for _ in range(graph.vertex_count)]
    for c, psi in zip(coeffs, basis):
        phi = old_add(phi, old_scale(vertex_data(psi), c))
    return phi


def old_random_regular_higgs(framing, seed, max_tries=32):
    """random_regular_higgs with the zero-started combination loop."""
    from random import Random

    from graphcurves.errors import IrregularDeterminant, NumericalError
    from graphcurves.higgs import HiggsField, higgs_space
    from graphcurves.hitchin import is_regular
    from graphcurves.sections import GlobalQuadratic
    from graphcurves.spectral import _as_complex_framing, all_node_eigendata

    a_c = _as_complex_framing(framing)
    g = a_c.graph
    report = higgs_space(a_c)
    rng = Random(seed)
    for _ in range(max_tries):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in report.basis]
        phi = old_combination(coeffs, report.basis, g, 0j)
        omega = GlobalQuadratic(g, quadratic_coefficients(old_hitchin_image(phi)))
        if not is_regular(omega).regular:
            continue
        try:
            all_node_eigendata(HiggsField(g, field_coefficients(phi)), a_c)
        except NumericalError:
            continue
        return phi
    raise IrregularDeterminant(
        f"no regular Higgs field found in {max_tries} draws (seed {seed})")


def old_higgs_residual(phi, framing):
    """higgs_residual through Mat2 products of Fraction residue matrices."""
    g = framing.graph
    worst = 0
    for a, b in g.edges:
        r_s = phi.residue_matrix(g.vertex_of(a), g.marked_point(a))
        r_t = phi.residue_matrix(g.vertex_of(b), g.marked_point(b))
        t = framing.matrix(a)
        worst = max(worst, (r_s + t * r_t * t.inv()).max_norm())
    return worst


def scalar_bits(x):
    """A key equal for two scalars only if their types and bits agree."""
    if isinstance(x, complex):
        return (type(x).__name__, float.hex(x.real), float.hex(x.imag))
    if isinstance(x, float):
        return (type(x).__name__, float.hex(x))
    return (type(x).__name__, x)


def bits(values):
    """scalar_bits of a nested structure of scalars, tuples and lists."""
    if isinstance(values, (list, tuple)):
        return [bits(v) for v in values]
    return scalar_bits(values)


# -- the dense exact Higgs path, kept as an oracle ----------------------
#
# The exact Higgs solve once read a dense Fraction kernel off the integer
# echelon rows, made every basis HiggsField at once, and cleared their
# denominators back to a dense integer working form per field, (ints,
# den, one bool per vertex).  The kernels read that form over all 6V
# coefficients and all edges.  Below is that path, verbatim but for
# taking the form as an argument.


def old_exact_nullspace(rows, ncols):
    """exact_nullspace reading each entry as Fraction(-x, p) off the
    reduced integer rows."""
    from graphcurves.linalg import _echelon, _integer_row

    m = [_integer_row(row) for row in rows]
    pivots = _echelon(m, ncols, reduced=True)
    pivot_set = set(pivots)
    basis = {}
    for free in range(ncols):
        if free not in pivot_set:
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            basis[free] = v
    for c, row in zip(pivots, m):
        p = row[c]
        for free, x in row.items():
            if free != c:
                basis[free][c] = Fraction(-x, p)
    return list(basis.values())


def old_exact_higgs_basis(framing):
    """The exact Higgs basis as coefficient tuples: old_exact_nullspace of
    the dense node-cancellation rows."""
    from graphcurves.higgs import assemble_higgs_constraints

    return [tuple(v) for v in old_exact_nullspace(
        assemble_higgs_constraints(framing), 6 * framing.graph.vertex_count)]


def old_integer_higgs_rows(framing):
    """The exact Higgs rows as their own edge loop once built them, with
    no code shared with sections._node_rows: d^2 times an edge's three
    rows, for the matrix a = T/d of its lower dart, is d^2 times the
    source functional plus d^2 Ad(a) (_integer_transport) on the
    partner, all integers, and the content of each row is divided out."""
    from graphcurves.higgs import _integer_transport
    from graphcurves.sections import RESIDUE_FUNCTIONAL

    g = framing.graph
    rows = []
    for u, pu, w, pw, (a, _) in zip(*g._edge_ends[0], *g._edge_ends[1], g.edges):
        dd, transport = _integer_transport(framing.matrix(a))
        source, partner = RESIDUE_FUNCTIONAL[pu], RESIDUE_FUNCTIONAL[pw]
        for k in range(3):
            row = {6 * u + 2 * k + j: dd * f for j, f in enumerate(source) if f}
            for i, coeff in enumerate(transport[k]):
                if coeff:
                    for j, f in enumerate(partner):
                        if f:
                            col = 6 * w + 2 * i + j
                            y = row.get(col, 0) + coeff * f
                            if y:
                                row[col] = y
                            else:  # a loop's two sides cancel
                                del row[col]
            content = math.gcd(*row.values())
            rows.append({j: x // content for j, x in row.items()} if content > 1 else row)
    return rows


def old_exact_form(coefficients):
    """The dense exact working form of fields given by their coefficients."""
    from graphcurves.linalg import _clear_denominators

    cleared = (_clear_denominators(c) for c in coefficients)
    return tuple((tuple(c), den, tuple(any(c[i:i + 6]) for i in range(0, len(c), 6)))
                 for c, den in cleared)


def old_exact_residual(form, framing):
    """higgs_residual of exact fields, in their dense form, on an exact
    framing: every edge, on ints."""
    from graphcurves.higgs import _residue_coords
    from graphcurves.linalg import _clear_denominators
    from graphcurves.matrices import Mat2, _conjugation

    g = framing.graph
    (vs, ps), (vt, pt) = g._edge_ends
    hoisted = []
    for e in range(len(g.edges)):
        (p, q, r, s), d = _clear_denominators(framing.matrix(g.edges[e][0]).entries())
        hoisted.append((vs[e], ps[e], vt[e], pt[e], d * d,
                        _conjugation(Mat2(p, q, r, s), Mat2(s, -q, -r, p))))
    worst = 0
    for c, den, live in form:
        for u, pu, w, pw, dd, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) in hoisted:
            if not (live[u] or live[w]):
                continue
            x0, x1, x2 = _residue_coords(c, 6 * u, pu)
            y0, y1, y2 = _residue_coords(c, 6 * w, pw)
            m = max(abs(dd * x0 + a0 * y0 + a1 * y1 + a2 * y2),
                    abs(dd * x1 + b0 * y0 + b1 * y1 + b2 * y2),
                    abs(dd * x2 + c0 * y0 + c1 * y1 + c2 * y2))
            if m:
                worst = max(worst, Fraction(m, den * dd))
    return worst


def old_exact_jacobian_rows(phi, form):
    """hitchin_jacobian's integer and Fraction rows of an exact phi against
    exact fields in their dense form: the polarization over all 6V
    coefficients, matched on every edge."""
    from graphcurves.errors import MatchingViolated
    from graphcurves.hitchin import _polarization_coefficients
    from graphcurves.linalg import _clear_denominators
    from graphcurves.sections import _biresidues

    g = phi.graph
    x, den_phi = _clear_denominators(phi.coefficients)
    int_rows, rows = [], []
    for y, den_psi, _ in form:
        den = den_phi * den_psi
        q = _polarization_coefficients(x, y)
        bires = list(map(_biresidues, q[::3], q[1::3], q[2::3]))
        coords = []
        for e, (u, pu, w, pw) in enumerate(zip(*g._edge_ends[0], *g._edge_ends[1])):
            a, b = bires[u][pu], bires[w][pw]
            if a != b:
                raise MatchingViolated(f"bi-residues differ across edge {e}: "
                                       f"{Fraction(a, den)} vs {Fraction(b, den)}")
            coords.append(a)
        int_rows.append(coords)
        rows.append([Fraction(c, den) for c in coords])
    return int_rows, rows


def old_exact_random_coefficients(framing, seed, form):
    """random_higgs_field's coefficients on an exact framing whose basis
    has the dense form: the draws, then the sum over all 6V numerators at
    one common denominator."""
    from random import Random

    rng = Random(seed)
    coeffs = [rng.randint(-9, 9) for _ in form]
    if not any(coeffs):
        coeffs[0] = 1
    den = math.lcm(*(d for _, d, _ in form))
    acc = [0] * (6 * framing.graph.vertex_count)
    for c, (ints, d, _) in zip(coeffs, form):
        if c:
            s = c * (den // d)
            acc = [a + s * x for a, x in zip(acc, ints)]
    return [Fraction(a, den) for a in acc]


def expand_exact_form(form, vertex_count):
    """The sparse exact working form, per field (live, den), laid out as
    the dense one, per field (ints, den, one bool per vertex)."""
    out = []
    for live, den in form:
        ints = [0] * (6 * vertex_count)
        for v, six in live:
            ints[6 * v:6 * v + 6] = six
        vertices = {v for v, _ in live}
        out.append((tuple(ints), den, tuple(v in vertices for v in range(vertex_count))))
    return tuple(out)
