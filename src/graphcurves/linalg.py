"""Rank and kernel computations in both scalar domains.

Exact path: fraction-free elimination on Python ints, in the spirit of
Bareiss (1968), with row contents divided out where Bareiss divides by
the previous pivot (that keeps the zero-skipping below).  Each row
is first cleared of denominators (scaled by the lcm of its entries'
denominators) and divided by its content, the gcd of its entries.  A row
with entry f under a pivot p then becomes (p/γ)·row − (f/γ)·pivot_row
with γ = gcd(p, f), and is again divided by its content, which keeps the
integers small.  Rows with a zero under the pivot are skipped, and only
the pivot row's nonzero columns are subtracted (the assembled systems
are sparse).  Ranks need only this forward pass.  exact_rref also clears
the entries above each pivot and divides each pivot row by its pivot
once, at the end.  Every step scales a row by a nonzero rational or adds
a multiple of another row to it, so the row space over the rationals
never changes; the reduced row echelon form of a matrix is unique, so
the result equals Gauss–Jordan over the rationals, Fraction for Fraction.

exact_rank (and integer_rank through it) first eliminates the primitive
integer rows mod the prime P = 2^61 - 1.  Every minor of the integer
matrix reduces mod P to the same minor of the reduced matrix, so the
rank mod P is never larger than the rank over the rationals (Cohen, A
Course in Computational Algebraic Number Theory, 1993, ch. 2).  A rank
mod P equal to min(nrows, ncols) is therefore the rational rank; any
lower result may be a drop at P, and the rank is recomputed by the
integer elimination above.

Float path: numpy SVD with a relative singular value threshold.  numpy
is imported on the first float call, so an exact run never loads it.
The rows may be lists of scalars or a complex array; a kernel basis
comes back as lists of Python complex numbers, not numpy scalars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import EXACT, RANK_RTOL, check_domain

P = 2**61 - 1  # the Mersenne prime behind exact_rank's certificate


def _clear_denominators(vec):
    """(ints, den) with den the lcm of the denominators of the int or
    Fraction entries of vec and ints[j] = vec[j] * den."""
    den = math.lcm(*(x.denominator for x in vec if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in vec], den


def _integer_row(row):
    """The row as primitive ints: cleared of denominators, content divided out."""
    out, _ = _clear_denominators(row)
    content = math.gcd(*out)
    if content > 1:
        return [x // content for x in out]
    return out


def _reduce(row, pivot_row, c, support):
    """Clear row[c] with the pivot row; returns the new primitive row.

    The row becomes (p/γ)·row − (f/γ)·pivot_row, p = pivot_row[c],
    f = row[c], γ = gcd(p, f); support lists the pivot row's nonzero
    columns.  The row may be updated in place.
    """
    p = pivot_row[c]
    f = row[c]
    gamma = math.gcd(p, f)
    a = p // gamma
    b = f // gamma
    if a < 0:  # the negated update: same row up to sign, and a = 1 when p | f
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


def _echelon(m, ncols, reduced):
    """Integer row echelon form of m, in place; returns the pivot columns.

    Rows are swapped so that pivot k sits in row k.  With reduced, the
    entries above each pivot are cleared as well.
    """
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
                m[i] = _reduce(m[i], pr, c, support)
        pivots.append(c)
        r += 1
    return pivots


def exact_rref(rows, ncols):
    """Reduced row echelon form over the rationals.

    Returns (matrix, pivot_columns) with Fraction entries; the input is
    not modified.  The elimination runs on integers (see the module
    docstring) and each pivot row is divided by its pivot once, at the
    end.  Because the reduced row echelon form is unique, the output is
    the one rational Gauss–Jordan gives.
    """
    m = [_integer_row(row) for row in rows]
    pivots = _echelon(m, ncols, reduced=True)
    zero = Fraction(0)
    out = []
    for r, row in enumerate(m):
        p = row[pivots[r]] if r < len(pivots) else 1
        out.append([Fraction(x, p) if x else zero for x in row])
    return out, pivots


def _rank_mod_p(m, ncols) -> int:
    """Rank of the integer matrix m reduced mod P, by Gaussian elimination.

    Entries left of the pivot column are never read again, so they are
    not updated.
    """
    m = [[x % P for x in row] for row in m]
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
        inv = pow(pr[c], -1, P)
        support = _support(pr, c + 1)
        for i in range(r + 1, n):
            row = m[i]
            f = row[c]
            if f:
                f = f * inv % P
                for j in support:
                    row[j] = (row[j] - f * pr[j]) % P
        r += 1
    return r


def exact_rank(rows, ncols) -> int:
    """Rank over the rationals, certified mod P when it is full.

    The integer rows are first eliminated mod P; a full rank there is
    the answer, and anything lower is recomputed by _echelon.
    """
    m = [_integer_row(row) for row in rows]
    full = min(len(m), ncols)
    if _rank_mod_p(m, ncols) == full:
        return full
    return len(_echelon(m, ncols, reduced=False))


def exact_nullspace(rows, ncols):
    """Basis of the right kernel over the rationals, one vector per free column.

    Read straight off the integer reduced form: the entry for pivot
    column c of row r is -m[r][free] / m[r][c], one Fraction per entry.
    """
    m = [_integer_row(row) for row in rows]
    pivots = _echelon(m, ncols, reduced=True)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x = m[r][free]
            if x:
                v[c] = Fraction(-x, m[r][c])
        basis.append(v)
    return basis


def _svd_rank(s) -> int:
    """Singular values above RANK_RTOL * s_max."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > RANK_RTOL * s[0]).sum())


def float_rank(rows, ncols) -> int:
    import numpy as np
    a = np.array(rows, dtype=complex)
    if a.size == 0:
        return 0
    return _svd_rank(np.linalg.svd(a, compute_uv=False))


def float_nullspace(rows, ncols):
    """Orthonormal kernel basis from the trailing right singular vectors."""
    if len(rows) == 0:
        return [[complex(i == j) for j in range(ncols)] for i in range(ncols)]
    import numpy as np
    _, s, vh = np.linalg.svd(np.array(rows, dtype=complex))
    return vh[_svd_rank(s):].conj().tolist()


def rank(rows, ncols, domain: str) -> int:
    check_domain(domain)
    if domain == EXACT:
        return exact_rank(rows, ncols)
    return float_rank(rows, ncols)


def nullspace(rows, ncols, domain: str):
    check_domain(domain)
    if domain == EXACT:
        return exact_nullspace(rows, ncols)
    return float_nullspace(rows, ncols)


def integer_rank(rows) -> int:
    """Rank over the integers of an integer matrix (equals the rational rank)."""
    if not rows:
        return 0
    return exact_rank(rows, len(rows[0]))


def independent_rows(rows):
    """Indices of the rows not in the span of the rows before them.

    Row k is such a row exactly when column k of the transposed matrix
    is not in the span of the columns before it, that is, when k is a
    pivot column of the transpose's echelon form (_echelon).  The chosen
    rows are the first greedy basis of the row space.
    """
    return _echelon([_integer_row(col) for col in zip(*rows)], len(rows),
                    reduced=False)


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


@dataclass
class KernelReport:
    """Outcome of a constraint-system solve."""

    domain: str
    nrows: int
    ncols: int
    rank: int
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def solve_kernel(rows, ncols, domain: str) -> KernelReport:
    basis = nullspace(rows, ncols, domain)
    return KernelReport(domain=domain, nrows=len(rows), ncols=ncols,
                        rank=ncols - len(basis), basis=basis)
