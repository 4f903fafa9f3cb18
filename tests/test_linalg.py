"""Exact and floating linear algebra against independent oracles."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphcurves.linalg as linalg_mod
from graphcurves.errors import ScalarDomainMismatch, ValidationError
from graphcurves.graphs import catalog_graph
from graphcurves.linalg import (
    exact_nullspace,
    exact_rank,
    exact_rref,
    float_nullspace,
    independent_rows,
    float_rank,
    integer_rank,
    nullspace,
    rank,
    solve_kernel,
)
from graphcurves.matrices import (
    IDENTITY,
    SL2_BASIS,
    Mat2,
    adjoint_matrix,
    check_unimodular,
    from_sl2_coords,
    mat_close,
    random_unimodular,
    sl2_coords,
)
from graphcurves.scalars import (
    EXACT,
    FLOAT,
    check_domain,
    domain_of,
    random_nonzero_int,
)
from graphcurves.sections import canonical_space, double_canonical_space

from helpers import (dense_integer_row, dense_rank_mod_p, fraction_nullspace,
                     fraction_rref, minor_rank, residual, svd_rank)


# -- scalars ------------------------------------------------------------


def test_domain_tags():
    assert check_domain(EXACT) == EXACT
    assert check_domain(FLOAT) == FLOAT
    with pytest.raises(ScalarDomainMismatch):
        check_domain("decimal")


@pytest.mark.parametrize("solve", [
    lambda d: rank([[1, 0]], 2, d),
    lambda d: nullspace([[1, 0]], 2, d),
    lambda d: solve_kernel([[1, 0]], 2, d),
    lambda d: canonical_space(catalog_graph("theta"), d),
    lambda d: double_canonical_space(catalog_graph("theta"), d),
], ids=["rank", "nullspace", "solve_kernel", "canonical_space",
        "double_canonical_space"])
def test_solvers_check_domain(solve):
    with pytest.raises(ScalarDomainMismatch):
        solve("decimal")


def test_domain_of():
    assert domain_of(3) == EXACT
    assert domain_of(Fraction(1, 2)) == EXACT
    assert domain_of(0.5) == FLOAT
    assert domain_of(1j) == FLOAT
    with pytest.raises(ScalarDomainMismatch):
        domain_of("x")
    # ints fit either domain; one float or complex makes the values float
    import numpy as np
    assert domain_of(0, 1, -2) == EXACT
    assert domain_of(0, Fraction(1, 2), 3) == EXACT
    assert domain_of(0, 1.5, 2j) == FLOAT
    assert domain_of(0, np.complex128(1j), np.float64(0.5)) == FLOAT
    for mixed in [(Fraction(1), 1.0), (Fraction(1), 0, 2j), (0, None), (1j, "1")]:
        with pytest.raises(ScalarDomainMismatch):
            domain_of(*mixed)


def test_random_nonzero_int():
    rng = Random(0)
    vals = [random_nonzero_int(rng) for _ in range(200)]
    assert all(v != 0 for v in vals)
    assert any(v < 0 for v in vals) and any(v > 0 for v in vals)


# -- 2x2 matrices -------------------------------------------------------


def test_mat2_algebra():
    m = Mat2(1, 2, 3, 4)
    n = Mat2(0, 1, 1, 0)
    assert (m * n).entries() == (2, 1, 4, 3)
    assert (m + n).entries() == (1, 3, 4, 4)
    assert (-m).entries() == (-1, -2, -3, -4)
    assert m.det() == -2
    assert m.trace() == 5
    assert m.scale(2).entries() == (2, 4, 6, 8)
    assert m.apply((1, 0)) == (1, 3)


def test_inverse_is_exact_for_unimodular():
    m = Mat2(Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    assert m.det() == 1
    inv = m.inv()
    assert (m * inv).entries() == (1, 0, 0, 1)
    assert all(isinstance(x, Fraction) for x in inv.entries())
    # integer entries stay integral, no float creep
    assert all(isinstance(x, int) for x in IDENTITY.inv().entries())


def test_inverse_general():
    m = Mat2(2.0, 0.0, 0.0, 4.0)
    assert mat_close(m * m.inv(), IDENTITY, 1e-14)


def test_sl2_coordinate_round_trip():
    m = from_sl2_coords(Fraction(2), Fraction(-1), Fraction(5))
    assert m.entries() == (2, -1, 5, -2)
    assert sl2_coords(m) == (2, -1, 5)
    for basis in SL2_BASIS:
        assert from_sl2_coords(*sl2_coords(basis)).entries() == basis.entries()


def test_adjoint_matrix_of_shear():
    # columns are images of the coordinate basis under m -> g m g^-1
    A = adjoint_matrix(Mat2(1, 1, 0, 1))
    assert A == ((1, 0, 1), (-2, 1, -1), (0, 0, 1))


def test_adjoint_matrix_matches_conjugation():
    rng = Random(12)
    for _ in range(20):
        g = random_unimodular(rng, EXACT)
        A = adjoint_matrix(g)
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        direct = sl2_coords(g * from_sl2_coords(*x) * g.inv())
        via_matrix = tuple(
            sum(A[i][j] * x[j] for j in range(3)) for i in range(3))
        assert direct == via_matrix


def test_adjoint_is_multiplicative():
    rng = Random(3)
    g, h = random_unimodular(rng, EXACT), random_unimodular(rng, EXACT)
    Agh = adjoint_matrix(g * h)
    Ag, Ah = adjoint_matrix(g), adjoint_matrix(h)
    prod = tuple(
        tuple(sum(Ag[i][k] * Ah[k][j] for k in range(3)) for j in range(3))
        for i in range(3))
    assert Agh == prod


def test_random_unimodular_exact():
    rng = Random(7)
    seen = set()
    for _ in range(25):
        m = random_unimodular(rng, EXACT)
        assert m.det() == 1
        assert domain_of(m.a) == EXACT
        seen.add(m.entries())
    assert len(seen) > 20  # draws should rarely repeat


def test_random_unimodular_float():
    rng = Random(7)
    for _ in range(10):
        m = random_unimodular(rng, FLOAT)
        assert abs(m.det() - 1) < 1e-12


def test_check_unimodular():
    assert check_unimodular(IDENTITY, EXACT) is IDENTITY
    with pytest.raises(ValidationError):
        check_unimodular(Mat2(2, 0, 0, 1), EXACT)
    for x in (math.nan, math.inf):  # no finite determinant
        with pytest.raises(ValidationError):
            check_unimodular(Mat2(x, 0, 0, 1), FLOAT)


# -- kernels and ranks --------------------------------------------------


def test_rref_frozen_example():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(7)],
    ]
    reduced, pivots = exact_rref(rows, 3)
    assert pivots == [0, 2]
    assert reduced[0] == [1, 2, 0]
    assert reduced[1] == [0, 0, 1]


def test_exact_rank_zero_matrix():
    rows = [[Fraction(0)] * 4 for _ in range(3)]
    assert exact_rank(rows, 4) == 0
    basis = exact_nullspace(rows, 4)
    assert len(basis) == 4


def _random_fraction_matrix(rng, n, m, sparse=False):
    def entry():
        if sparse and rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    return [[entry() for _ in range(m)] for _ in range(n)]


def test_exact_rank_against_minor_oracle():
    rng = Random(21)
    for trial in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = _random_fraction_matrix(rng, n, m, sparse=trial % 2 == 0)
        assert exact_rank(rows, m) == minor_rank(rows)


def test_exact_nullspace_kills_rows():
    rng = Random(22)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(2, 6)
        rows = _random_fraction_matrix(rng, n, m)
        basis = exact_nullspace(rows, m)
        assert len(basis) == m - exact_rank(rows, m)
        for v in basis:
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0


def test_float_rank_against_svd_oracle():
    rng = Random(23)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
                for _ in range(n)]
        if rng.random() < 0.4 and n > 1:
            rows[-1] = [2 * x for x in rows[0]]  # force a dependency
        assert float_rank(rows, m) == svd_rank(rows)


def test_float_nullspace_residual():
    rng = Random(24)
    rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)]
            for _ in range(3)]
    basis = float_nullspace(rows, 6)
    assert len(basis) == 3
    for v in basis:
        for row in rows:
            assert abs(sum(a * x for a, x in zip(row, v))) < 1e-12


def test_rank_dispatch_agrees_across_domains():
    rng = Random(25)
    for _ in range(15):
        n, m = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        exact = [[Fraction(x) for x in row] for row in rows]
        flt = [[complex(x) for x in row] for row in rows]
        assert rank(exact, m, EXACT) == rank(flt, m, FLOAT)
        assert integer_rank(rows) == rank(exact, m, EXACT)


def test_solve_kernel_report():
    rows = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)]]
    rep = solve_kernel(rows, 3, EXACT)
    assert rep.domain == EXACT
    assert (rep.nrows, rep.ncols) == (2, 3)
    assert rep.rank == 1
    assert rep.dim == 2
    for v in rep.basis:
        assert residual(rows, v) == 0


def test_residual_float():
    rows = [[1.0, 2.0]]
    assert residual(rows, [2.0, -1.0]) == 0
    assert residual(rows, [1.0, 0.0]) == 1.0


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _matrices(draw):
    """(rows, ncols) with integer, rational or zero entries; some rows
    are combinations of the first two, so the rank is often deficient."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = draw(st.sampled_from([st.integers(-4, 4), _RATIONALS, st.just(0)]))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices())
@example(([], 0))
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2], [3, 4], [5, 6], [7, 8], [2, 4], [0, 1], [1, 1]], 2))
@example(([[1, 0, 2, 0, 3, 0, 4], [Fraction(1, 2), 0, 1, 0, Fraction(3, 2), 0, 2]], 7))
def test_exact_rref_equals_fraction_gauss_jordan(system):
    rows, ncols = system
    m, pivots = exact_rref(rows, ncols)
    expected, expected_pivots = fraction_rref(rows, ncols)
    assert pivots == expected_pivots
    assert m == expected
    assert all(type(x) is Fraction for row in m for x in row)
    assert exact_rank(rows, ncols) == len(pivots)
    basis = exact_nullspace(rows, ncols)
    assert basis == fraction_nullspace(rows, ncols)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    if len(rows) <= 4 and ncols <= 4:
        r = minor_rank(rows)
        assert exact_rank(rows, ncols) == r
        assert integer_rank(rows) == r


# -- the mod-P certificate of exact_rank ---------------------------------


@st.composite
def _shaped_matrices(draw):
    """(rows, ncols): empty, all-zero, tall, wide or square, with rows
    often combinations of earlier ones."""
    shape = draw(st.sampled_from(["empty", "zero", "tall", "wide", "square"]))
    if shape == "empty":
        return [], draw(st.integers(0, 5))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if shape == "tall":
        nrows = ncols + draw(st.integers(1, 3))
    elif shape == "wide":
        ncols = nrows + draw(st.integers(1, 3))
    elif shape == "square":
        ncols = nrows
    if shape == "zero":
        return [[0] * ncols for _ in range(nrows)], ncols
    entry = draw(st.sampled_from([st.integers(-5, 5), _RATIONALS]))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
    return rows, ncols


def _oracle_rank(rows, ncols):
    return len(fraction_rref(rows, ncols)[1])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_shaped_matrices())
def test_certified_rank_matches_oracles(system):
    rows, ncols = system
    r = exact_rank(rows, ncols)
    assert r == _oracle_rank(rows, ncols)
    if len(rows) <= 4 and ncols <= 4:
        assert r == minor_rank(rows)
    if rows and all(type(x) is int for row in rows for x in row):
        assert integer_rank(rows) == r


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2], [1, 2], [0, 0], [2, 4], [0, 1], [0, 1]], 2))
@example(([[Fraction(1, 2), 1], [1, 2], [Fraction(1, 3), 0], [0, Fraction(5, 3)]], 2))
def test_independent_rows_are_the_rows_that_raise_the_rank(system):
    rows, ncols = system
    ranks = [_oracle_rank(rows[:k], ncols) for k in range(len(rows) + 1)]
    if ncols <= 4:
        assert ranks == [minor_rank(rows[:k]) for k in range(len(rows) + 1)]
    assert independent_rows(rows) == [k for k in range(len(rows))
                                      if ranks[k + 1] > ranks[k]]


@st.composite
def _drops_mod_3(draw):
    """(rows, ncols, scaled): rows congruent mod 3 to nonzero multiples of
    the first, which has an entry 1, so no row content is divisible by 3
    and the rank mod 3 of the primitive rows is 1, while the rational
    rank is usually larger.  With scaled, one row is divided by 3 and
    shifted, which puts a denominator 3 into the input."""
    nrows, ncols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    small = st.integers(-3, 3)
    first = [draw(small) for _ in range(ncols)]
    first[draw(st.integers(0, ncols - 1))] = 1
    rows = [first]
    for _ in range(1, nrows):
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows.append([k * x + 3 * draw(small) for x in first])
    scaled = draw(st.booleans())
    if scaled:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i] = [Fraction(x, 3) for x in rows[i]]
        rows[i][j] += 1
    return rows, ncols, scaled


def _count_echelon_calls(mp):
    """Record the integer eliminations behind exact_rank: the calls of
    _echelon with the integer update, not the mod-P certificate's."""
    calls = []
    echelon = linalg_mod._echelon

    def counted(m, ncols, reduced, update=linalg_mod._integer_update):
        if update is linalg_mod._integer_update:
            calls.append(m)
        return echelon(m, ncols, reduced, update)

    mp.setattr(linalg_mod, "_echelon", counted)
    return calls


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_drops_mod_3())
@example(([[1, 1], [1, 2]], 2, False))  # full rank mod 3: certified, no fallback
@example(([[1, 2, 0], [Fraction(1, 3), 0, 1]], 3, True))
def test_rank_falls_back_when_the_prime_divides_a_minor(system):
    rows, ncols, scaled = system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_mod, "P", 3)
        calls = _count_echelon_calls(mp)
        r = exact_rank(rows, ncols)
    assert r == _oracle_rank(rows, ncols)
    # the integer elimination runs exactly when the rank mod 3 is not full;
    # for a drawn unscaled system that rank is 1, so only the fallback
    # knows an r above 1
    rank_mod_3 = dense_rank_mod_p([dense_integer_row(row) for row in rows], ncols, 3)
    assert len(calls) == (rank_mod_3 < min(len(rows), ncols))
    if r > 1 and not scaled:
        assert calls or rank_mod_3 == r


def test_rank_fallback_and_certificate_at_p_3(monkeypatch):
    calls = _count_echelon_calls(monkeypatch)
    monkeypatch.setattr(linalg_mod, "P", 3)
    # det 3: rank 1 mod 3, rank 2 over the rationals
    assert exact_rank([[1, 1], [1, 4]], 2) == 2
    assert len(calls) == 1
    # det 1: full rank mod 3 is certified without the integer elimination
    assert exact_rank([[1, 1], [1, 2]], 2) == 2
    assert integer_rank([[2, 1, 0], [1, 1, 5]]) == 2
    assert len(calls) == 1
    # denominators 3 are cleared before the reduction: rows (1, 3) and (1, 6)
    assert exact_rank([[Fraction(1, 3), 1], [Fraction(1, 6), 1]], 2) == 2
    assert len(calls) == 2
