"""Rank and kernel computations in both scalar domains.

Exact path: fraction-free elimination on Python ints, in the spirit of
Bareiss (1968), with row contents divided out where Bareiss divides by
the previous pivot.  A row is a sparse map {column: int} with the zeros
left out (the assembled systems touch a few columns per row).  Each row
is first cleared of denominators (scaled by the lcm of its nonzero
entries' denominators) and divided by its content, the gcd of its
entries (_primitive).  A row with entry f under a pivot p then becomes
(p/γ)·row − (f/γ)·pivot_row with γ = gcd(p, f), and is again divided by
its content, which keeps the integers small.

The forward pass takes the columns in order and picks as pivot of
column c the shortest remaining row with an entry there, to limit
fill-in (Davis, Direct Methods for Sparse Linear Systems, 2006); it
clears column c from the other remaining rows.  Ranks need only this
pass.  exact_rref and the kernels then run a backward pass that clears
the entries above each pivot, last pivot first.  exact_rref divides each
pivot row by its pivot once, at the end.  A kernel has one reader,
_kernel_numerators: it reads each free column's vector off the reduced
integer rows as integer numerators over their lcm denominator, a sparse
map that is never made dense.  exact_nullspace is the Fraction view of
that reader, and the one exact solve of the K, 2K and Higgs spaces
(sections._section_space) calls _integer_kernel on their integer rows
and keeps its integers as the basis's working form.  Every dense
Fraction vector made from integers over a denominator is laid out by
_fractions.  The choice of pivot rows cannot change a result: every step
scales a row by a nonzero rational or adds a multiple of another row to
it, so the row space over the rationals never changes; the pivot columns
are then the leftmost independent columns, whichever rows carry them,
and the reduced row echelon form of a matrix is unique, so the result
equals Gauss–Jordan over the rationals, Fraction for Fraction.

exact_rank (and integer_rank through it) takes the columns in order of
increasing nonzero count, which a rank does not depend on: a column
with few entries, eliminated early, spreads fill-in over few rows.  It
then eliminates the primitive integer rows mod the prime P = 2^61 - 1,
in one copy of the rows that _rank_mod_p renumbers as it reduces them.
Every minor of the integer matrix reduces mod P to the same minor of
the reduced matrix, so the rank mod P is never larger than the rank
over the rationals (Cohen, A Course in Computational Algebraic Number
Theory, 1993, ch. 2).  A rank mod P equal to min(nrows, ncols) is
therefore the rational rank; any lower result may be a drop at P, and
the rank is recomputed by the integer elimination above, on rows
renumbered only then.  exact_rref, the kernels and independent_rows keep
the given column order, on which their results depend.  The mod-P rows
are sparse maps too, and one loop, _echelon, eliminates both kinds with
the same pivot choice; only the update that clears a column differs.

Float path: a rank counts the singular values above RANK_RTOL times the
largest, s_0.  Most float systems here have full rank, and for those a
Cholesky certificate replaces the SVD (_full_rank).  With G = A A^H for
a wide or square A and A^H A for a tall one, a successful Cholesky
factorization of G - (c ||A||_F)^2 I, c = FULL_RANK_RTOL, shows
sigma_min(A) > c ||A||_F >= c s_0, far above RANK_RTOL s_0, so the SVD
would keep full rank too and the rank is min(m, n) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 10).  The kernel of a
wide A of full row rank m is then spanned by the trailing n - m columns
of the complete Q factor of A^H, which are orthogonal to its row space
(Golub and Van Loan, Matrix Computations, 4th ed., section 5.4).  When the
certificate fails the SVD decides, with the kernel from the trailing
right singular vectors.  numpy is imported on the first float call, so
an exact run never loads it.  The rows may be lists of scalars or a
complex array; a kernel basis comes back as lists of Python complex
numbers, not numpy scalars.  The float K, 2K and Higgs solves call
_float_kernel and keep its array as the basis's working form.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .scalars import EXACT, FULL_RANK_RTOL, RANK_RTOL, check_domain

P = 2**61 - 1  # the Mersenne prime behind exact_rank's certificate


def _clear_denominators(vec):
    """(ints, den) with den the lcm of the denominators of the int or
    Fraction entries of vec and ints[j] = vec[j] * den."""
    den = math.lcm(*(x.denominator for x in vec if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in vec], den


def _primitive(row):
    """The sparse integer row {column: int} divided by its content, the
    gcd of its entries."""
    content = math.gcd(*row.values())
    if content > 1:
        return {j: x // content for j, x in row.items()}
    return row


def _integer_row(row):
    """The row, a sequence or a map {column: value} of ints and Fractions,
    as a primitive sparse row {column: int}: its nonzero entries cleared
    of denominators, the content divided out."""
    pairs = row.items() if isinstance(row, dict) else enumerate(row)
    items = [(j, x) for j, x in pairs if x]
    den = math.lcm(*(x.denominator for _, x in items))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in items})


_ZERO = Fraction(0)  # the one zero of every vector _fractions makes


def _fractions(entries, den, ncols):
    """The dense Fraction vector of length ncols with x/den at each
    (column, int x) of entries, x nonzero, and the shared _ZERO
    everywhere else."""
    v = [_ZERO] * ncols
    for j, x in entries:
        if x:
            v[j] = Fraction(x, den)
    return v


def _integer_update(pr, c):
    """_echelon's integer update: a row with entry f at column c becomes
    the primitive (p/γ)·row − (f/γ)·pr, p = pr[c], γ = gcd(p, f).  The
    row may be updated in place."""
    p = pr[c]
    items = list(pr.items())
    items.remove((c, p))

    def clear(row):
        f = row.pop(c)
        gamma = math.gcd(p, f)
        a = p // gamma
        b = f // gamma
        if a < 0:  # the negated update: same row up to sign, and a = 1 when p | f
            a, b = -a, -b
        if a != 1:
            row = {j: a * x for j, x in row.items()}
        for j, x in items:
            y = row.get(j, 0) - b * x
            if y:
                row[j] = y
            else:
                del row[j]
        return _primitive(row)

    return clear


def _mod_p_update(pr, c):
    """_echelon's GF(P) update: a row with entry f at column c loses
    f·pr[c]^-1·pr, in place; the inverse is taken once per pivot."""
    inv = pow(pr[c], -1, P)
    items = list(pr.items())
    items.remove((c, pr[c]))

    def clear(row):
        f = row.pop(c) * inv % P
        for j, x in items:
            y = (row.get(j, 0) - f * x) % P
            if y:
                row[j] = y
            else:
                del row[j]
        return row

    return clear


def _echelon(m, ncols, reduced, update=_integer_update):
    """Echelon form of the sparse rows m, in place; returns the pivot columns.

    The pivot of column c is the shortest remaining row with an entry
    there, and it becomes row k for the k-th pivot; the rows without a
    pivot, all zero by then, follow.  With reduced, a backward pass then
    clears the entries above each pivot, last pivot first.  update(pr, c)
    gives the function that clears column c from a row with the pivot
    row pr, and stores no zero.
    """
    rest = list(m)
    done = []
    pivots = []
    for c in range(ncols):
        if not rest:
            break
        hits = [i for i, row in enumerate(rest) if c in row]
        if not hits:
            continue
        k = min(hits, key=lambda i: len(rest[i]))
        pr = rest[k]
        clear = update(pr, c)
        for i in hits:
            if i != k:
                rest[i] = clear(rest[i])
        del rest[k]
        done.append(pr)
        pivots.append(c)
    if reduced:
        for r in range(len(done) - 1, 0, -1):
            c = pivots[r]
            clear = update(done[r], c)
            for k in range(r):
                if c in done[k]:
                    done[k] = clear(done[k])
    m[:] = done + rest
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
    return [_fractions(row.items(), row[pivots[r]] if r < len(pivots) else 1, ncols)
            for r, row in enumerate(m)], pivots


def _column_order(m):
    """{column: k}: the nonzero columns of the sparse rows m numbered
    0, 1, ... in order of increasing nonzero count, ties by column."""
    counts = Counter(chain.from_iterable(m))
    return dict(zip(sorted(sorted(counts), key=counts.__getitem__), range(len(counts))))


def _rank_mod_p(m, ncols, order) -> int:
    """Rank of the sparse integer rows m reduced mod P (m is unchanged):
    _echelon, with the GF(P) update, on the nonzero residues, each column
    j renumbered order[j] in the one copy it makes."""
    rows = [{order[j]: y for j, x in row.items() if (y := x % P)} for row in m]
    return len(_echelon(rows, ncols, False, _mod_p_update))


def exact_rank(rows, ncols) -> int:
    """Rank over the rationals, certified mod P when it is full.

    A rank does not depend on the order of the columns, so both
    eliminations take them in order of increasing nonzero count
    (_column_order), in which _echelon's pivots fill in less.  The
    integer rows are first eliminated mod P; a full rank there is the
    answer, and anything lower is recomputed by _echelon on the rows
    renumbered in the same order.
    """
    m = [_integer_row(row) for row in rows]
    order = _column_order(m)
    full = min(len(m), ncols)
    if _rank_mod_p(m, ncols, order) == full:
        return full
    return len(_echelon([{order[j]: x for j, x in row.items()} for row in m], ncols,
                        reduced=False))


def _kernel_numerators(m, pivots, ncols):
    """The kernel read off the reduced integer echelon rows m, with pivot
    columns pivots, that _echelon(m, ncols, reduced=True) returns.

    One vector v_f per free column f, in increasing order, as (ints, den):
    ints the sparse map {column: int} of the numerators of v_f, den their
    lcm denominator.  Row r, with pivot p at column c and entry x at f,
    gives v_f[c] = -x/p, and v_f[f] = 1; so den is the lcm, over the rows
    with an entry at f, of |p| / gcd(x, p), ints[c] = -x·den/p and
    ints[f] = den.  Each map holds exactly the nonzero entries of v_f.
    """
    pivot_set = set(pivots)
    hits = {f: [] for f in range(ncols) if f not in pivot_set}
    for c, row in zip(pivots, m):
        p = row[c]
        for f, x in row.items():
            if f != c:
                hits[f].append((c, x, p))
    out = []
    for f, entries in hits.items():
        den = 1
        for _, x, p in entries:
            if p != 1 and p != -1:  # most pivots are units, which add no denominator
                den = math.lcm(den, abs(p) // math.gcd(x, p))
        ints = {c: -x * den // p for c, x, p in entries}
        ints[f] = den
        out.append((ints, den))
    return out


def _integer_kernel(m, ncols):
    """_kernel_numerators of the primitive sparse integer rows m, which
    _echelon reduces in place."""
    return _kernel_numerators(m, _echelon(m, ncols, reduced=True), ncols)


def exact_nullspace(rows, ncols):
    """Basis of the right kernel over the rationals, one vector per free column.

    The Fraction view (_fractions) of _integer_kernel on the integer rows:
    entry j of a vector is ints[j] / den, and Fraction(0) off its map.
    """
    return [_fractions(ints.items(), den, ncols)
            for ints, den in _integer_kernel([_integer_row(row) for row in rows], ncols)]


def _svd_rank(s) -> int:
    """Singular values above RANK_RTOL * s_max."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > RANK_RTOL * s[0]).sum())


def _full_rank(a) -> bool:
    """The full-rank certificate of the complex array a (module docstring).

    True when the Cholesky factorization of the smaller Gram matrix less
    (FULL_RANK_RTOL ||a||_F)^2 I succeeds with finite entries: then
    sigma_min(a) > FULL_RANK_RTOL ||a||_F.  False for a zero matrix, for
    any entry that is not finite, and whenever the factorization fails,
    which it must for a matrix of lower rank.
    """
    import numpy as np
    m, n = a.shape
    with np.errstate(invalid="ignore", over="ignore"):  # refused below
        g = a @ a.conj().T if m <= n else a.conj().T @ a
        g[np.diag_indices_from(g)] -= (FULL_RANK_RTOL * np.linalg.norm(a)) ** 2
    try:
        return bool(np.isfinite(np.linalg.cholesky(g)).all())
    except np.linalg.LinAlgError:
        return False


def float_rank(rows, ncols) -> int:
    """Numerical rank: min(nrows, ncols) when the full-rank certificate
    holds, otherwise the singular values above RANK_RTOL * s_0."""
    import numpy as np
    a = np.array(rows, dtype=complex)
    if a.size == 0:
        return 0
    if _full_rank(a):
        return min(a.shape)
    return _svd_rank(np.linalg.svd(a, compute_uv=False))


def _float_kernel(rows, ncols):
    """Orthonormal kernel basis as a complex array, one vector per row.

    With the full-rank certificate, the kernel is empty for a tall or
    square system and the trailing ncols - nrows columns of the complete
    Q of A^H for a wide one; otherwise it is the trailing right singular
    vectors past the SVD rank.
    """
    import numpy as np
    if len(rows) == 0:
        return np.eye(ncols, dtype=complex)
    a = np.array(rows, dtype=complex)
    m, n = a.shape
    if _full_rank(a):
        if m >= n:
            return np.zeros((0, n), dtype=complex)
        return np.linalg.qr(a.conj().T, mode="complete").Q[:, m:].T
    _, s, vh = np.linalg.svd(a)
    return vh[_svd_rank(s):].conj()


def float_nullspace(rows, ncols):
    """Orthonormal kernel basis (_float_kernel), as lists of Python complex."""
    return _float_kernel(rows, ncols).tolist()


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
