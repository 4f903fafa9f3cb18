"""The sparse integer rows of linalg's exact elimination.

The elimination picks the shortest remaining row as pivot and clears
above the pivots in a backward pass; its results are checked against
Gauss-Jordan on Fractions and against the dense integer elimination it
replaced (helpers.dense_echelon, helpers.dense_rank_mod_p), on random
matrices that are mostly zeros; so is the one kernel reader, against the
Fraction reading of the echelon rows it replaced
(helpers.old_exact_nullspace).
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphcurves.linalg as linalg_mod
import graphcurves.sections as sections_mod
from graphcurves.framings import Framing
from graphcurves.graphs import random_trivalent
from graphcurves.higgs import _higgs_rows, assemble_higgs_constraints, higgs_space
from graphcurves.linalg import (
    exact_nullspace,
    exact_rank,
    exact_rref,
    independent_rows,
    integer_rank,
)
from graphcurves.scalars import EXACT
from graphcurves.sections import (canonical_matrix, canonical_space,
                                  double_canonical_matrix, double_canonical_space)

from helpers import (
    bits,
    dense_echelon,
    dense_integer_row,
    dense_rank_mod_p,
    fraction_nullspace,
    fraction_rref,
    old_exact_nullspace,
)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _sparse_matrices(draw):
    """(rows, ncols): empty, tall, wide or square, of int or Fraction
    entries that are mostly zeros, with some all-zero rows and columns
    and some rows that are combinations of two others."""
    shape = draw(st.sampled_from(["empty", "tall", "wide", "square"]))
    if shape == "empty":
        nrows, ncols = draw(st.sampled_from([(0, 0), (0, 4), (3, 0)]))
        return [[] for _ in range(nrows)], ncols
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if shape == "tall":
        nrows = ncols + draw(st.integers(1, 4))
    elif shape == "wide":
        ncols = nrows + draw(st.integers(1, 4))
    elif shape == "square":
        ncols = nrows
    nonzero = draw(st.sampled_from([
        st.integers(-6, 6).filter(bool),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)]))
    density = draw(st.integers(1, 4))  # tenths of the entries
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            live = i not in zero_rows and j not in zero_cols
            row.append(draw(nonzero) if live and draw(st.integers(0, 9)) < density else 0)
        rows.append(row)
    for i in range(2, nrows):
        if i not in zero_rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
    return rows, ncols


def _sparse_to_dense(row, ncols):
    dense = [0] * ncols
    for j, x in row.items():
        dense[j] = x
    return dense


@PROPERTY
@given(_sparse_matrices())
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[0, 2, 0, 0], [0, 0, 0, 3], [0, 4, 0, 6], [0, 0, 0, 0]], 4))
@example(([[1, 1, 1], [1, 0, 0], [0, 1, 0]], 3))
def test_sparse_kernels_match_fraction_gauss_jordan(system):
    rows, ncols = system
    m, pivots = exact_rref(rows, ncols)
    assert (m, pivots) == fraction_rref(rows, ncols)
    assert all(type(x) is Fraction for row in m for x in row)
    basis = exact_nullspace(rows, ncols)
    assert basis == fraction_nullspace(rows, ncols)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    assert exact_rank(rows, ncols) == len(pivots)
    if rows and all(type(x) is int for row in rows for x in row):
        assert integer_rank(rows) == len(pivots)
    transpose = [dense_integer_row(col) for col in zip(*rows)]
    assert independent_rows(rows) == dense_echelon(transpose, len(rows), False)


@PROPERTY
@given(_sparse_matrices(), st.booleans())
def test_sparse_echelon_matches_the_dense_oracle(system, reduced):
    rows, ncols = system
    sparse = [linalg_mod._integer_row(row) for row in rows]
    dense = [dense_integer_row(row) for row in rows]
    assert [_sparse_to_dense(row, ncols) for row in sparse] == dense
    assert all(x for row in sparse for x in row.values())  # zeros left out
    pivots = linalg_mod._echelon(sparse, ncols, reduced)
    assert pivots == dense_echelon(dense, ncols, reduced)
    assert len(sparse) == len(dense)
    assert all(not row for row in sparse[len(pivots):])
    for row, expected in zip(sparse, dense):
        assert all(x for x in row.values())
        # each is the one primitive integer row through its rational row, up to sign
        if reduced:
            got = _sparse_to_dense(row, ncols)
            assert got in (expected, [-x for x in expected])


@PROPERTY
@given(_sparse_matrices(), st.sampled_from([linalg_mod.P, 3]))
def test_sparse_rank_mod_p_matches_the_dense_oracle(system, p):
    rows, ncols = system
    sparse = [linalg_mod._integer_row(row) for row in rows]
    dense = [dense_integer_row(row) for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_mod, "P", p)
        # a rank mod p does not depend on the column order
        assert (linalg_mod._rank_mod_p(sparse, ncols, linalg_mod._column_order(sparse))
                == dense_rank_mod_p(dense, ncols, p))
    assert [_sparse_to_dense(row, ncols) for row in sparse] == dense  # input untouched


@PROPERTY
@given(_sparse_matrices(), st.sampled_from([linalg_mod.P, 3]))
@example(([[1, 1, 2], [1, 4, 5], [2, 2, 1]], 3), 3)  # row 2 cancels to 0 mod 3
def test_echelon_with_the_mod_p_update(system, p):
    rows, ncols = system
    dense = [dense_integer_row(row) for row in rows]
    m = [{j: x % p for j, x in enumerate(row) if x % p} for row in dense]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_mod, "P", p)
        pivots = linalg_mod._echelon(m, ncols, False, linalg_mod._mod_p_update)
    assert len(pivots) == dense_rank_mod_p(dense, ncols, p)
    assert all(0 < x < p for row in m for x in row.values())  # no zero stored
    assert [min(row) for row in m[:len(pivots)]] == pivots
    assert not any(m[len(pivots):])


# -- the pivot choice cannot change an output -----------------------------


@PROPERTY
@given(_sparse_matrices(), st.randoms(use_true_random=False))
def test_shuffled_rows_give_the_same_results(system, rng):
    rows, ncols = system
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = [rows[i] for i in order]
    assert exact_rref(shuffled, ncols) == exact_rref(rows, ncols)
    assert exact_nullspace(shuffled, ncols) == exact_nullspace(rows, ncols)
    assert exact_rank(shuffled, ncols) == exact_rank(rows, ncols)
    # independent_rows eliminates the transpose: shuffle its rows, the columns
    cols = list(range(ncols))
    rng.shuffle(cols)
    assert independent_rows([[row[j] for j in cols] for row in rows]) \
        == independent_rows(rows)


@pytest.mark.parametrize("seed", [0, 1])
def test_higgs_system_kernel_equals_fraction_gauss_jordan(seed):
    framing = Framing.random(random_trivalent(20, seed), seed, EXACT)
    rows = assemble_higgs_constraints(framing)
    ncols = 6 * framing.graph.vertex_count
    assert exact_nullspace(rows, ncols) == fraction_nullspace(rows, ncols)


@PROPERTY
@given(_sparse_matrices())
@example(([[0, 2, 0, 3], [0, 0, 4, -6]], 4))  # pivots 2 and 4, entries sharing factors
def test_kernel_reader_matches_the_fraction_reading(system):
    # the one kernel reader gives, per free column, the numerators of the
    # kernel vector over their lcm denominator, its nonzero entries only;
    # exact_nullspace, its Fraction view, has the bits of the reading of
    # each entry as Fraction(-x, p) that it replaced
    rows, ncols = system
    oracle = old_exact_nullspace(rows, ncols)
    assert bits(exact_nullspace(rows, ncols)) == bits(oracle)
    kernel = linalg_mod._integer_kernel(
        [linalg_mod._integer_row(row) for row in rows], ncols)
    assert len(kernel) == len(oracle)
    for (ints, den), vec in zip(kernel, oracle):
        assert den == math.lcm(*(x.denominator for x in vec))
        assert ints == {j: x.numerator * (den // x.denominator)
                        for j, x in enumerate(vec) if x}


# -- exact_rank in column-count order ---------------------------------------


@st.composite
def _low_rank_integer_matrices(draw):
    """(rows, ncols, r): B C for sparse integer B (nrows x r) and C
    (r x ncols), so of rank at most r, often less than both sides; the
    columns of C are given very different nonzero counts."""
    nrows, ncols, r = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(
        st.integers(0, 6))
    entry = st.integers(-5, 5)
    b = [[draw(entry) if draw(st.integers(0, 2)) else 0 for _ in range(r)]
         for _ in range(nrows)]
    density = [draw(st.integers(0, 9)) for _ in range(ncols)]  # tenths, per column
    c = [[draw(entry) if draw(st.integers(0, 9)) < density[j] else 0
          for j in range(ncols)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] if r else
            [0] * ncols for row in b], ncols, r


@PROPERTY
@given(_low_rank_integer_matrices())
@example(([[0, 0, 0], [0, 0, 0]], 3, 0))
@example(([[1, 2, 0], [2, 4, 0], [0, 1, 1]], 3, 2))
def test_exact_rank_in_column_count_order_is_the_rational_rank(system):
    rows, ncols, r = system
    rank = len(fraction_rref(rows, ncols)[1])
    assert rank <= r
    assert exact_rank(rows, ncols) == rank
    assert integer_rank(rows) == rank
    # exact_rank reorders the columns itself: any order gives one rank
    reversed_cols = [row[::-1] for row in rows]
    assert exact_rank(reversed_cols, ncols) == rank


# -- the rows the elimination leaves on the node systems ---------------------


@pytest.mark.parametrize("vertices, seed", [(8, 0), (20, 1), (40, 2)])
@pytest.mark.parametrize("reduced", [False, True])
def test_echelon_rows_of_the_node_systems_are_primitive(vertices, seed, reduced):
    # every row _echelon leaves on the K, 2K and Higgs integer rows is
    # divided by its content: the update of a row keeps it primitive
    g = random_trivalent(vertices, seed)
    V = g.vertex_count
    systems = [(canonical_matrix(g), 2 * V), (double_canonical_matrix(g), 3 * V),
               (_higgs_rows(Framing.random(g, seed, EXACT)), 6 * V)]
    for rows, ncols in systems:
        m = [linalg_mod._integer_row(row) for row in rows]
        pivots = linalg_mod._echelon(m, ncols, reduced)
        assert len(pivots) > 0
        assert all(math.gcd(*row.values()) == 1 for row in m if row)


@pytest.mark.parametrize("vertices, seed", [(8, 0), (20, 1)])
def test_the_exact_solve_eliminates_the_primitive_node_rows(monkeypatch, vertices, seed):
    # sections._section_space, the one exact solve of K, 2K and the Higgs
    # space, hands the elimination each node row as linalg._integer_row
    # gives it, divided by its content: a row left with a common factor
    # gives the same kernel, only on larger integers, so no output shows it
    g = random_trivalent(vertices, seed)
    framing = Framing.random(g, seed, EXACT)
    seen = []
    kernel = linalg_mod._integer_kernel

    def recorded(m, ncols):
        seen.append([dict(row) for row in m])
        return kernel(m, ncols)

    monkeypatch.setattr(sections_mod, "_integer_kernel", recorded)
    canonical_space(g, EXACT)
    double_canonical_space(g, EXACT)
    higgs_space(framing)
    systems = [canonical_matrix(g)[:-1], double_canonical_matrix(g),
               assemble_higgs_constraints(framing)]
    assert seen == [[linalg_mod._integer_row(row) for row in rows] for rows in systems]
