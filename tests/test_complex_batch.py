"""The complex batch of the float kernels rounds as CPython's complex does.

scalars._ComplexBatch holds complex numbers as their (re, im) float64
arrays.  Its +, -, *, unary - and / by a real number give, entry by
entry, the bits of the same operation on Python complex numbers, with a
number operand on either side read as complex(x).  numpy's complex128
multiply may fuse operations and give other bits, and a plain (re, im)
tuple is not a batch.
"""
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcurves.scalars import _ComplexBatch, _from_pairs

from helpers import bits

PARTS = (st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.5])
         | st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False))
ENTRIES = st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=40)
NUMBERS = st.one_of(st.integers(-10**20, 10**20),
                    st.fractions(max_denominator=10**6),
                    PARTS,
                    st.builds(complex, PARTS, PARTS))
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# entries reach 1e300, so results overflow to inf and nan, which Python's
# complex arithmetic gives without a warning
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _batch(entries):
    re, im = zip(*entries)
    return _ComplexBatch(np.array(re), np.array(im))


def _entries(batch):
    assert type(batch) is _ComplexBatch
    return _from_pairs(batch).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ENTRIES, st.sampled_from(sorted(OPERATORS)), st.booleans(),
       st.one_of(NUMBERS, st.data()))
def test_batch_arithmetic_has_the_bits_of_python_complex(entries, name, left,
                                                        other):
    # the batch on the left or on the right of a number or of another batch
    op = OPERATORS[name]
    x = [complex(*e) for e in entries]
    if isinstance(other, st.DataObject):
        more = other.draw(st.lists(st.tuples(PARTS, PARTS), min_size=len(entries),
                                   max_size=len(entries)))
        y, operand = [complex(*e) for e in more], _batch(more)
    else:
        y, operand = [other] * len(x), other
    if left:
        got, want = op(_batch(entries), operand), list(map(op, x, y))
    else:
        got, want = op(operand, _batch(entries)), list(map(op, y, x))
    assert bits(_entries(got)) == bits(want)
    assert bits(_entries(-_batch(entries))) == bits([-z for z in x])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ENTRIES, st.one_of(st.integers(-10**20, 10**20),
                          st.fractions(max_denominator=10**6), PARTS))
def test_division_by_a_real_number_has_the_bits_of_python_complex(entries, divisor):
    x = [complex(*e) for e in entries]
    if divisor == 0:
        with pytest.raises(ZeroDivisionError):
            _batch(entries) / divisor
        with pytest.raises(ZeroDivisionError):
            x[0] / divisor
        return
    assert bits(_entries(_batch(entries) / divisor)) == bits([z / divisor for z in x])


@pytest.mark.parametrize("name", [*OPERATORS, "/"])
def test_a_plain_pair_or_an_array_is_not_a_batch(name):
    op = {**OPERATORS, "/": operator.truediv}[name]
    batch = _batch([(1.0, 2.0), (-0.0, 3.5)])
    for other in [(np.array([1.0, 2.0]), np.array([0.5, 0.0])), (1.0, 2.0),
                  np.array([1.0, 2.0]), "1"]:
        with pytest.raises(TypeError):
            op(batch, other)
        with pytest.raises(TypeError):
            op(other, batch)
    with pytest.raises(TypeError):
        batch / 1j
