"""Sections of the dualizing sheaf and its square on a graph curve.

On a single component (a projective line with marked points 0, 1, inf) a
logarithmic differential is

    omega = (r0 / z + r1 / (z - 1)) dz,

with residues r0 at 0, r1 at 1 and minus their sum at inf (_residues);
the space is two dimensional per vertex.  A quadratic differential with
double poles at the marked points is

    Omega = (q0 + q1 z + q2 z^2) / (z^2 (z - 1)^2) dz^2,

with bi-residues (leading double-pole coefficients) q0 at 0, q2 at inf
and the sum of all three at 1 (_biresidues); three dimensions per vertex.

Per-vertex data is one flat coefficient tuple, vertex by vertex:
(r0, r1) per vertex for differentials (2V entries), (q0, q1, q2) per
vertex for quadratic differentials (3V entries).  A global section is
such a tuple that meets one node rule at every edge (a, b) (_node_rows):
the functional at a's point plus a factor times the one at b's is zero,
the factor being 1 for residues, -1 for bi-residues and Ad(a) for the
residue matrices of Higgs fields.  Its rows are sparse maps {column:
value}: _dense lays them out for the public matrices, and the exact
solves read them as integer rows (linalg._integer_row).  Global
sections of the dualizing sheaf form a g-dimensional space; its square
gives a (3g-3)-dimensional space on which the per-edge bi-residues are
global coordinates.

The K, 2K and Higgs spaces are kernels of such rows.  _section_space
solves K, 2K and the exact Higgs space (a float framing's, in residue
coordinates, is higgs._float_higgs_space), and each solve returns its
basis as one lazy sequence type (_Basis) that keeps the
kernel in a working form per domain: exact, per vector, its lcm
denominator and the integer numerators of its live vertices, those
with a nonzero coefficient (_live_form), as linalg._integer_kernel
reads them off the integer rows; float, the read-only complex batch of
linalg._float_kernel's array.  The fields, GlobalDifferentials,
GlobalQuadratics or HiggsFields, are made from it only when a caller
first indexes, slices or iterates the basis, with the bits
exact_nullspace and float_nullspace give.  The bi-residue rows of a 2K
basis are read off its working form (_biresidue_rows), so the sections
report solves, matches and ranks on ints or on one array and makes no
field.
"""
from __future__ import annotations

import cmath
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat

from .errors import MatchingViolated, ValidationError
from .graphs import TrivalentGraph
from .linalg import (KernelReport, _clear_denominators, _float_kernel, _fractions,
                     _integer_kernel, _integer_row)
from .scalars import (EXACT, FLOAT, MATCH_TOL, _ComplexBatch, _from_pairs, _to_pairs,
                      check_domain, domain_of)


def _residues(r0, r1):
    """Residues of the (r0, r1) differential at the marked points (0, 1, inf)."""
    return (r0, r1, -(r0 + r1))


def _biresidues(q0, q1, q2):
    """Bi-residues of the (q0, q1, q2) quadratic differential at (0, 1, inf)."""
    return (q0, q0 + q1 + q2, q2)


# Residue functionals on (r0, r1), indexed by marked point.
RESIDUE_FUNCTIONAL = tuple(zip(_residues(1, 0), _residues(0, 1)))
# Bi-residue functionals on (q0, q1, q2), indexed by marked point.
BIRESIDUE_FUNCTIONAL = tuple(zip(_biresidues(1, 0, 0), _biresidues(0, 1, 0),
                                 _biresidues(0, 0, 1)))


def multiply_differentials(d1, d2):
    """(q0, q1, q2) of the product of the (r0, r1) and (s0, s1) differentials.

    The numerator over z^2 (z-1)^2 is
    r0 s0 (z-1)^2 + (r0 s1 + r1 s0) z (z-1) + r1 s1 z^2, and the
    bi-residue of the product at each marked point is the product of the
    residues there.
    """
    return _product_coefficients(*d1, *d2)


def _product_coefficients(r0, r1, s0, s1, minus_two_r0=None):
    """(q0, q1, q2) of the product of (r0, r1) and (s0, s1) differentials,
    with -2 r0 taken in r0's own scalars unless given as minus_two_r0."""
    r0s0 = r0 * s0
    cross = r0 * s1 + r1 * s0
    if minus_two_r0 is None:
        minus_two_r0 = -2 * r0
    return (r0s0, minus_two_r0 * s0 - cross, r0s0 + cross + r1 * s1)


class _VertexCoefficients:
    """A flat tuple of WIDTH coefficients per vertex of graph, and their
    domain_of; the base of the per-vertex coefficient classes.

    Raises ValidationError when coefficients is not iterable, on any
    other length, on mixed domains, and on a float coefficient that is
    nan or infinite (every comparison with nan is false, so the rules
    downstream would accept it).
    """

    __slots__ = ("graph", "coefficients", "domain")
    WIDTH = 0

    def __init__(self, graph: TrivalentGraph, coefficients):
        try:
            coefficients = tuple(coefficients)
        except TypeError:
            raise ValidationError(f"coefficients must be a sequence, "
                                  f"got {type(coefficients).__name__}") from None
        if len(coefficients) != self.WIDTH * graph.vertex_count:
            raise ValidationError(f"need {self.WIDTH * graph.vertex_count} "
                                  f"coefficients, got {len(coefficients)}")
        domain = domain_of(*coefficients)
        if domain == FLOAT and not all(map(cmath.isfinite, coefficients)):
            raise ValidationError("float coefficients must be finite")
        self.graph, self.coefficients, self.domain = graph, coefficients, domain

    @classmethod
    def _checked(cls, graph: TrivalentGraph, coefficients: tuple, domain: str):
        """An instance on coefficients that its maker has already checked:
        a tuple of the right length, all of domain, finite when FLOAT."""
        obj = object.__new__(cls)
        obj.graph, obj.coefficients, obj.domain = graph, coefficients, domain
        return obj

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.graph == other.graph and self.coefficients == other.coefficients


class GlobalDifferential(_VertexCoefficients):
    """Differentials on every component: coefficients (r0, r1) per vertex."""

    __slots__ = ()
    WIDTH = 2


class GlobalQuadratic(_VertexCoefficients):
    """Quadratic differentials on every component: (q0, q1, q2) per vertex."""

    __slots__ = ()
    WIDTH = 3


class _Basis(Sequence):
    """A kernel basis as a section space or higgs_space returns it, in
    either domain: an immutable sequence of size fields of the class cls
    (a _VertexCoefficients) on graph, all of domain.

    It keeps its working form per domain, forms[domain], starting with
    the one its solve made (_exact_basis, _float_basis).  The fields are
    made when a caller first indexes, slices or iterates the basis, by
    cls._checked from coefficients(), which gives each field's
    coefficients as the solve has already checked them; len, the forms,
    the class, the graph and the domain are read without making them.
    """

    __slots__ = ("cls", "graph", "domain", "forms", "_size", "_coefficients",
                 "_fields")

    def __init__(self, cls, graph, domain: str, size: int, forms: dict, coefficients):
        self.cls, self.graph, self.domain, self.forms = cls, graph, domain, forms
        self._size, self._coefficients, self._fields = size, coefficients, None

    def __len__(self):
        return self._size

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def _read(self):
        """The tuple of fields, made on the first call."""
        if self._fields is None:
            self._fields = tuple(self.cls._checked(self.graph, tuple(c), self.domain)
                                 for c in self._coefficients())
            self._coefficients = None
        return self._fields


def _live_form(numerators, den, width: int):
    """One vector's exact working form from its nonzero integer
    numerators, as (column, int) pairs, and their lcm denominator den:
    (live, den), live the pairs (v, the width numerators of vertex v) of
    the vertices v with a nonzero numerator, in increasing order, each
    as a tuple."""
    live = {}
    for j, x in numerators:
        v, i = divmod(j, width)
        block = live.get(v)
        if block is None:
            block = live[v] = [0] * width
        block[i] = x
    return tuple(sorted((v, tuple(block)) for v, block in live.items())), den


def _exact_basis(cls, graph: TrivalentGraph, kernel) -> _Basis:
    """The _Basis of cls on graph of an exact kernel, (ints, den) per
    vector as linalg._integer_kernel gives it, kept in its live-vertex
    form (_live_form); a field's coefficients are the linalg._fractions
    of its numerators, as exact_nullspace gives them."""
    width = cls.WIDTH
    ncols = width * graph.vertex_count
    form = tuple(_live_form(ints.items(), den, width) for ints, den in kernel)

    def coefficients():
        for live, den in form:
            yield _fractions(((i, x) for v, block in live
                              for i, x in enumerate(block, width * v)), den, ncols)

    return _Basis(cls, graph, EXACT, len(form), {EXACT: form}, coefficients)


def _float_basis(cls, graph: TrivalentGraph, z) -> _Basis:
    """The _Basis of cls on graph of the complex array z, one vector per
    row, kept as its read-only complex batch; a field's coefficients are
    its row's Python complex numbers (z.tolist), as float_nullspace gives
    them.  Raises ValidationError, as a field would, on an entry that is
    not finite."""
    import numpy as np

    if not np.isfinite(z).all():
        raise ValidationError("float coefficients must be finite")
    batch = _read_only(_to_pairs(z, cls.WIDTH * graph.vertex_count))
    return _Basis(cls, graph, FLOAT, len(z), {FLOAT: batch}, z.tolist)


def _read_only(arrays):
    """The arrays, each made so that it cannot be written."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _section_space(cls, graph: TrivalentGraph, rows, nrows: int,
                   domain: str) -> KernelReport:
    """The kernel of the sparse node rows (_node_rows) on cls's
    coefficients, in domain: linalg._integer_kernel of their integer rows
    (linalg._integer_row) when exact, linalg._float_kernel of the dense
    rows when float, kept as the working form of the basis (_exact_basis,
    _float_basis).  The report gives nrows as the system's row count."""
    check_domain(domain)
    ncols = cls.WIDTH * graph.vertex_count
    if domain == EXACT:
        basis = _exact_basis(cls, graph, _integer_kernel(
            [_integer_row(row) for row in rows], ncols))
    else:
        basis = _float_basis(cls, graph, _float_kernel(_dense(rows, ncols), ncols))
    return KernelReport(domain=domain, nrows=nrows, ncols=ncols,
                        rank=ncols - len(basis), basis=basis)


def _node_rows(graph: TrivalentGraph, width: int, functional, blocks):
    """The sparse node rows of width coefficients per vertex: per edge
    (a, b), n rows block_a · functional[point of a] on a's vertex plus
    block_b · functional[point of b] on b's, for the pair of n-row blocks
    that blocks gives per edge.  Block column k acts on the k-th run of
    len(functional[0]) coordinates.  A row is a map {column: value} of
    every column that a nonzero block entry writes, with its sum, even
    when that sum is zero; a zero block entry writes nothing."""
    per = len(functional[0])
    rows = []
    for u, pu, w, pw, (block_a, block_b) in zip(*graph._edge_ends[0],
                                                *graph._edge_ends[1], blocks):
        edge_rows = [{} for _ in block_a]
        for v, point, block in ((u, pu, block_a), (w, pw, block_b)):
            func = functional[point]
            for row, block_row in zip(edge_rows, block):
                for k, coeff in enumerate(block_row):
                    if coeff:
                        for j, f in enumerate(func, width * v + per * k):
                            row[j] = row.get(j, 0) + coeff * f
        rows.extend(edge_rows)
    return rows


def _dense(rows, ncols):
    """The sparse rows {column: value} as lists of ncols entries, 0 off
    their maps."""
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return out


def _canonical_rows(graph: TrivalentGraph):
    """The sparse rows of canonical_matrix (_node_rows)."""
    return _node_rows(graph, 2, RESIDUE_FUNCTIONAL, repeat((((1,),), ((1,),))))


def canonical_matrix(graph: TrivalentGraph):
    """Residue-cancellation system for global differentials.

    One row per edge, columns (r0, r1) per vertex; entries are small
    integers, usable in either scalar domain.
    """
    return _dense(_canonical_rows(graph), 2 * graph.vertex_count)


def canonical_space(graph: TrivalentGraph, domain: str = EXACT) -> KernelReport:
    """Global sections of the dualizing sheaf; dimension g, rank 3g - 4.

    The basis (_Basis) makes its GlobalDifferentials on first read.  The
    report describes canonical_matrix, E rows, but the kernel is solved
    on all rows but the last: every (vertex, marked point) is an end of
    exactly one edge, and the residues of a vertex at 0, 1 and inf sum
    to zero, so the rows sum to zero and the last is minus the sum of
    the others.  The row space is the same, so the exact basis, read off
    the unique reduced echelon form, is too, and the E - 1 rows have
    full rank, which the float solve certifies in place of an SVD.
    """
    return _section_space(GlobalDifferential, graph, _canonical_rows(graph)[:-1],
                          len(graph.edges), domain)


def _double_canonical_rows(graph: TrivalentGraph):
    """The sparse rows of double_canonical_matrix (_node_rows)."""
    return _node_rows(graph, 3, BIRESIDUE_FUNCTIONAL, repeat((((1,),), ((-1,),))))


def double_canonical_matrix(graph: TrivalentGraph):
    """Bi-residue matching system for global quadratic differentials.

    One row per edge: the bi-residue functional on the lower-dart side
    minus the functional on the partner side.
    """
    return _dense(_double_canonical_rows(graph), 3 * graph.vertex_count)


def double_canonical_space(graph: TrivalentGraph, domain: str = EXACT) -> KernelReport:
    """Global quadratic differentials; dimension 3g - 3, full rank system.

    The basis (_Basis) makes its GlobalQuadratics on first read;
    _biresidue_rows reads its bi-residue rows without them.
    """
    return _section_space(GlobalQuadratic, graph, _double_canonical_rows(graph),
                          len(graph.edges), domain)


def bires_coordinates(quadratics):
    """Per-edge bi-residues of global quadratic differentials on one graph.

    quadratics is a sequence of GlobalQuadratics on one graph; the result
    has one row per quadratic, one scalar per edge in canonical edge
    order, and an empty sequence gives [].  The two sides of each node
    must agree.  When every quadratic is exact, each is matched exactly on
    its integer numerators (_exact_biresidues).  Otherwise the whole
    sequence is FLOAT, as domain_of decides for a value, and is matched
    at once (_float_biresidue_rows), within MATCH_TOL relative to each
    quadratic's scale; its values are Python complex numbers.
    MatchingViolated names the first edge that fails in the first
    quadratic with one; a quadratic on another graph raises
    ValidationError.
    """
    if not quadratics:
        return []
    g = quadratics[0].graph
    if any(omega.graph != g for omega in quadratics):
        raise ValidationError("quadratic differentials on different graphs")
    if all(omega.domain == EXACT for omega in quadratics):
        return [_exact_biresidues(g, omega.coefficients) for omega in quadratics]
    q = _to_pairs([omega.coefficients for omega in quadratics], 3 * g.vertex_count)
    return _from_pairs(_float_biresidue_rows(g, q.columns(3))).tolist()


def _biresidue_rows(basis: _Basis):
    """The per-edge bi-residue rows of a double-canonical basis, read off
    its working form without making a field.

    EXACT: (rows, dens), per quadratic its integer row, the bi-residues
    times its lcm denominator den (_integer_biresidue_rows), and den.
    FLOAT: (the complex array of the rows, None), matched at once by
    _float_biresidue_rows on the batch the basis keeps.  Each exact row
    is den > 0 times the rational row, so both have one rank.
    """
    g = basis.graph
    if basis.domain == EXACT:
        return _integer_biresidue_rows(g, (([(v, _biresidues(*q)) for v, q in live], den)
                                           for live, den in basis.forms[EXACT]))
    return _from_pairs(_float_biresidue_rows(g, basis.forms[FLOAT].columns(3))), None


def _float_biresidue_rows(g: TrivalentGraph, q):
    """The float bi-residue matcher, over many quadratic differentials at once.

    q is the triple (q0, q1, q2) of coefficients, each a complex batch
    (scalars._ComplexBatch) of shape (rows, V), one row per quadratic
    differential; the result is the (rows, E) batch of their per-edge
    bi-residues.  Each row is checked against MATCH_TOL times max(1, max
    |coefficient|) of that row, with magnitudes by np.hypot (the hypot of
    abs(complex)); MatchingViolated names the first edge that fails in
    the first row with one, with the two bi-residues as Python complex
    numbers.
    """
    import numpy as np

    # [row, vertex, point]: the bi-residues at (0, 1, inf)
    bires = _ComplexBatch.stack(_biresidues(*q), axis=-1)
    lhs, rhs = (bires.map(lambda b: b[:, v, p]) for v, p in g._edge_ends)
    scale = np.maximum(1.0, np.max([np.hypot(*x) for x in q], axis=(0, 2),
                                   initial=0.0))
    bad = np.argwhere(np.hypot(*(lhs - rhs)) > MATCH_TOL * scale[:, None])
    if len(bad):
        k, e = bad[0]
        raise MatchingViolated(
            f"bi-residues differ across edge {e}: "
            f"{_from_pairs(lhs)[k, e].item()} vs {_from_pairs(rhs)[k, e].item()}")
    return lhs


def _exact_biresidues(g: TrivalentGraph, coeffs):
    """The per-edge bi-residues of one exact quadratic differential's flat
    coefficients, matched on their integer numerators.

    An entry has the type rational arithmetic gives it: an int where
    every coefficient it sums is an int, a Fraction otherwise.
    """
    ints, den = _clear_denominators(coeffs)
    bires = map(_biresidues, ints[::3], ints[1::3], ints[2::3])
    (coords,), _ = _integer_biresidue_rows(g, [(list(enumerate(bires)), den)])
    # per bi-residue, whether it sums a Fraction coefficient
    fractions = [not isinstance(x, int) for x in coeffs]
    kinds = list(map(_biresidues, fractions[::3], fractions[1::3], fractions[2::3]))
    return [Fraction(n, den) if kinds[u][pu] else n // den
            for n, u, pu in zip(coords, *g._edge_ends[0])]


def _edges_at(graph: TrivalentGraph, vertices):
    """The indices of the edges with an end at one of the vertices, in
    increasing order."""
    return sorted({graph._edge_of_dart[d] for v in vertices
                   for d in graph._vertex_darts[v]})


def _integer_biresidue_rows(g: TrivalentGraph, live_bires):
    """The exact bi-residue matcher, of a double-canonical basis
    (_biresidue_rows), of bires_coordinates (_exact_biresidues) and of
    the exact hitchin_jacobian rows.

    live_bires gives per differential (live, den): den > 0, and live the
    pairs (v, the bi-residues at (0, 1, inf) times den) of the vertices
    where the differential may not vanish; it vanishes at every other
    vertex.  Each is matched on the edges at its live vertices
    (_edges_at), in increasing order: on any other edge both sides are 0.
    Returns (rows, dens): per differential, the list of its per-edge
    bi-residues times den, as ints, and den.  MatchingViolated names the
    first edge whose two sides differ, in the first differential with
    one, and shows them over den, as Fractions.
    """
    (vs, ps), (vt, pt) = g._edge_ends
    none = (0, 0, 0)
    nedges = len(g.edges)
    rows, dens = [], []
    for live, den in live_bires:
        bires = [none] * g.vertex_count
        for v, b in live:
            bires[v] = b
        row = [0] * nedges
        for e in _edges_at(g, (v for v, _ in live)):
            x, y = bires[vs[e]][ps[e]], bires[vt[e]][pt[e]]
            if x != y:
                raise MatchingViolated(f"bi-residues differ across edge {e}: "
                                       f"{Fraction(x, den)} vs {Fraction(y, den)}")
            row[e] = x
        rows.append(row)
        dens.append(den)
    return rows, dens
