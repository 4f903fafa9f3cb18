"""Float values leave numpy arrays as Python complex numbers.

The float solvers and kernels compute on numpy arrays, but every float
scalar they hand back, in a basis, a field or a Jacobian row, is a
Python complex, and the finite-difference error is a Python float.
"""
import pytest

from graphcurves.framings import Framing
from graphcurves.graphs import catalog_graph, random_trivalent
from graphcurves.higgs import higgs_space, random_higgs_field
from graphcurves.hitchin import (finite_difference_jacobian, hitchin_jacobian,
                                 jacobian_fd_error)
from graphcurves.scalars import FLOAT
from graphcurves.sections import canonical_space, double_canonical_space
from graphcurves.spectral import random_regular_higgs

GRAPHS = {"theta": lambda: catalog_graph("theta"),
          "k4": lambda: catalog_graph("k4"),
          "random_20_1": lambda: random_trivalent(20, 1)}


def _types(rows):
    return {type(x) for row in rows for x in row}


@pytest.mark.parametrize("name", GRAPHS)
def test_float_values_leave_numpy_as_python_complex(name):
    g = GRAPHS[name]()
    framing = Framing.random(g, 1, FLOAT)
    basis = higgs_space(framing).basis
    assert _types(psi.coefficients for psi in basis) == {complex}
    phi = random_higgs_field(framing, 1)
    assert _types([phi.coefficients]) == {complex}
    assert _types([random_regular_higgs(framing, 1).coefficients]) == {complex}
    assert _types(hitchin_jacobian(phi, framing).matrix) == {complex}
    assert _types(finite_difference_jacobian(phi, framing)) == {complex}
    for space in (canonical_space, double_canonical_space):
        assert _types(f.coefficients for f in space(g, FLOAT).basis) == {complex}
    assert type(jacobian_fd_error(phi, framing)) is float
