"""Shared oracles for the test suite.

Rank checks here must not share code with graphcurves.linalg: the
minor oracle expands determinants, the float oracle goes through
numpy's SVD, and fraction_rref is Gauss-Jordan on Fraction objects.
All are slow and meant for small fixtures only.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


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


def as_float_rows(rows):
    return [[complex(x) for x in row] for row in rows]


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
