"""The sparse exact Higgs solve against the dense path it replaced.

The exact solve assembles primitive sparse integer rows, reads its kernel
off their reduced echelon form as integers, keeps those per live vertex
as the basis's working form, and makes the Fraction fields on first read.
The residual, the Jacobian rows and random_higgs_field read that form
on the live vertices only.  tests/helpers.py keeps the dense path as the
oracle: old_exact_nullspace of the dense rows, old_exact_form (each
field's denominators cleared), and the kernels over all coefficients and
edges.  Everything here equals it, on the catalog, on
random_trivalent(8|20|40, 0|1) and on random graphs and framings.
"""
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcurves import higgs as higgs_mod
from graphcurves.errors import MatchingViolated, ValidationError
from graphcurves.framings import Framing
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.higgs import (HiggsField, _higgs_rows, _working_form,
                               assemble_higgs_constraints, higgs_residual,
                               higgs_space, random_higgs_field)
from graphcurves.hitchin import _exact_jacobian_rows, hitchin_jacobian
from graphcurves.linalg import _integer_row, exact_nullspace, exact_rref
from graphcurves.scalars import EXACT, FLOAT

from helpers import (bits, expand_exact_form, old_exact_form, old_exact_higgs_basis,
                     old_exact_jacobian_rows, old_exact_random_coefficients,
                     old_exact_residual, old_integer_higgs_rows)

FIXED = [catalog_graph(name) for name in CATALOG_NAMES] + [
    random_trivalent(v, s) for v in (8, 20, 40) for s in (0, 1)]
GRAPHS = st.builds(random_trivalent, st.integers(1, 12).map(lambda k: 2 * k),
                   st.integers(0, 10**6))
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def _off_space_fields(graph, seed):
    """Exact fields that are not Higgs fields: random Fractions on one
    vertex, on three and on every vertex, zero elsewhere."""
    rng = Random(seed)
    n = graph.vertex_count
    fields = []
    for support in ([rng.randrange(n)], rng.sample(range(n), min(3, n)), range(n)):
        c = [Fraction(0)] * (6 * n)
        for v in support:
            for i in range(6 * v, 6 * v + 6):
                c[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        fields.append(HiggsField(graph, c))
    return fields


def _outcome(fn, *args):
    """bits of fn(*args), or the message of the MatchingViolated it raised."""
    try:
        return bits(fn(*args))
    except MatchingViolated as exc:
        return ("MatchingViolated", str(exc))


def _check_solve(framing):
    g = framing.graph
    basis = higgs_space(framing).basis
    oracle = old_exact_higgs_basis(framing)
    # the sparse assembly is the primitive integer rows of the dense one,
    # and the rows of the edge loop it replaced
    rows = [_integer_row(r) for r in _higgs_rows(framing)]
    assert rows == [_integer_row(row) for row in assemble_higgs_constraints(framing)]
    assert rows == old_integer_higgs_rows(framing)
    # the size and the sparse form are read without making a field
    assert len(basis) == len(oracle)
    form = _working_form(basis, g, EXACT)
    assert basis._fields is None
    assert expand_exact_form(form, g.vertex_count) == old_exact_form(oracle)
    # the fields, made on first read, are the dense kernel's Fractions
    assert bits([psi.coefficients for psi in basis]) == bits(oracle)
    assert bits([psi.coefficients for psi in basis[1:3]]) == bits(oracle[1:3])
    assert all(psi.domain == EXACT for psi in basis)
    # and a fresh conversion of them gives the form the solve kept
    assert _working_form(list(basis), g, EXACT) == form


def _check_kernels(framing, seed):
    g = framing.graph
    basis = higgs_space(framing).basis
    form = old_exact_form(old_exact_higgs_basis(framing))
    phi = random_higgs_field(framing, seed)
    assert bits(phi.coefficients) == bits(old_exact_random_coefficients(framing, seed, form))
    others = _off_space_fields(g, seed)
    for fields in (basis, [*basis[:3], *others], others[:1]):
        assert bits(higgs_residual(fields, framing)) == bits(old_exact_residual(
            old_exact_form([psi.coefficients for psi in fields]), framing))
    assert _outcome(_exact_jacobian_rows, phi, basis) == _outcome(
        old_exact_jacobian_rows, phi, form)
    assert bits(hitchin_jacobian(phi, framing).matrix) == bits(
        old_exact_jacobian_rows(phi, form)[1])
    # fields off the space, as phi or in the basis: the same rows, or the
    # same first edge that fails to match, with the same message
    for psi in others:
        dense = old_exact_form([psi.coefficients])
        assert _outcome(_exact_jacobian_rows, phi, [psi]) == _outcome(
            old_exact_jacobian_rows, phi, dense)
        assert _outcome(_exact_jacobian_rows, psi, basis) == _outcome(
            old_exact_jacobian_rows, psi, form)


@pytest.mark.parametrize("graph", FIXED, ids=lambda g: f"V{g.vertex_count}")
@pytest.mark.parametrize("seed", [0, 1])
def test_sparse_solve_and_kernels_match_the_dense_oracle(graph, seed):
    framing = Framing.random(graph, seed, EXACT)
    _check_solve(framing)
    _check_kernels(framing, seed)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_identity_framing_matches_the_dense_oracle(name):
    # the dimension jumps to 3g here: more free columns, sparser fields
    framing = Framing.identity(catalog_graph(name))
    _check_solve(framing)
    _check_kernels(framing, 2)


@PROPERTY
@given(GRAPHS, st.integers(0, 10**6))
@example(catalog_graph("dumbbell"), 0)
def test_sparse_higgs_path_matches_the_dense_oracle(graph, seed):
    framing = Framing.random(graph, seed, EXACT)
    _check_solve(framing)
    _check_kernels(framing, seed)


@pytest.mark.parametrize("domain", [EXACT, FLOAT])
def test_a_basis_makes_its_fields_once_on_first_read(domain):
    basis = higgs_space(Framing.random(random_trivalent(8, 1), 1, domain)).basis
    assert basis._fields is None
    assert len(basis) == 3 * basis.graph.genus - 3 and basis.domain == domain
    first = basis[0]
    assert basis[0] is first and next(iter(basis)) is first
    assert list(basis)[1:] == list(basis[1:])
    with pytest.raises(TypeError):
        basis[0] = first


def test_dense_fraction_vectors_share_one_zero():
    # the dense Fraction vectors made from integers over a denominator,
    # of exact_rref, exact_nullspace, the exact Higgs fields and the exact
    # Jacobian rows, hold one Fraction(0) object between them
    framing = Framing.random(random_trivalent(8, 1), 1, EXACT)
    rows, ncols = assemble_higgs_constraints(framing), 6 * 8
    phi = random_higgs_field(framing, 1)
    vectors = [*exact_rref(rows, ncols)[0], *exact_nullspace(rows, ncols),
               *(psi.coefficients for psi in higgs_space(framing).basis),
               *hitchin_jacobian(phi, framing).matrix]
    assert len({id(x) for vec in vectors for x in vec if not x}) == 1


def test_a_float_basis_that_is_not_finite_is_a_validation_error(monkeypatch):
    # one check on the solve's array replaces the check of every field
    solve = higgs_mod._float_kernel

    def poisoned(rows, ncols):
        kernel = solve(rows, ncols)
        kernel[0, 0] = np.nan
        return kernel

    monkeypatch.setattr(higgs_mod, "_float_kernel", poisoned)
    framing = Framing.random(catalog_graph("k4"), 1, FLOAT)
    with pytest.raises(ValidationError, match="^float coefficients must be finite$"):
        higgs_space(framing)
