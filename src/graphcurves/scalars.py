"""Scalar domain plumbing shared by every module.

All linear algebra runs in one of two interchangeable scalar domains:

* ``EXACT``: arbitrary-precision rationals (:class:`fractions.Fraction`).
  Ranks and kernels are exact, so a dimension statement checked in this
  domain is a proof for the given input.
* ``FLOAT``: double-precision complex numbers.  Ranks are counted from
  singular values with the relative threshold :data:`RANK_RTOL`.

A value's domain is fixed where it is built (:func:`domain_of`): a
``Fraction`` is exact, a ``float`` or ``complex`` is float, and an
``int`` fits either domain.  Mixing the two, or a value that is not a
number, raises ScalarDomainMismatch, a ValidationError (CLI exit 2).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ScalarDomainMismatch

EXACT = "exact"
FLOAT = "float"
DOMAINS = (EXACT, FLOAT)

# Every float tolerance of the package.  Exact-domain checks are exact;
# these bounds apply to the float domain unless stated otherwise.
RANK_RTOL = 1e-9         # singular values below RANK_RTOL * s_max count as zero
DET_TOL = 1e-12          # |det - 1| allowed for unimodular matrices
IDENTITY_TOL = 1e-10     # max-norm distance at which a matrix is the identity
MATCH_TOL = 1e-9         # bi-residue agreement across a node
FLAT_TOL = 1e-8          # residual bound for points of the relation variety
EIGEN_TOL = 1e-10        # eigenline transport mismatch at a node
RECONSTRUCT_TOL = 1e-8   # spectral-data consistency and round-trip tolerance
REGULAR_RTOL = 1e-12     # relative threshold for "nonzero" in regularity tests
DEGENERATE_RTOL = 1e-12  # node residue |det| below this * max(1, |R|^2) vanishes
TRANSVERSE_RTOL = 1e-13  # eigenline pairs this close (relative) are not transverse


def check_domain(domain: str) -> str:
    if domain not in DOMAINS:
        raise ScalarDomainMismatch(f"unknown scalar domain {domain!r}")
    return domain


def domain_of(*values) -> str:
    """FLOAT if any of values is a float or complex (by subclass, so
    numpy.complex128 counts), EXACT otherwise; ScalarDomainMismatch on a
    Fraction mixed with those, or on a value that is not a number."""
    fraction = floating = False
    for kind in set(map(type, values)):
        if issubclass(kind, (float, complex)):
            floating = True
        elif issubclass(kind, Fraction):
            fraction = True
        elif not issubclass(kind, int):
            raise ScalarDomainMismatch(f"unsupported scalar type {kind.__name__}")
    if fraction and floating:
        raise ScalarDomainMismatch("exact (Fraction) and float scalars mixed")
    return FLOAT if floating else EXACT


# -- complex arithmetic on (re, im) pairs ---------------------------------
#
# The float kernels that run over many fields at once hold a complex value
# as a pair of float64 arrays, real and imaginary parts, and use the
# formulas of CPython's complex arithmetic (numpy's complex scalars use the
# same ones), so every entry rounds as the scalar code rounds it.  numpy's
# complex array multiply may fuse operations, so none runs on complex
# arrays.  A pair may also hold plain floats, such as (2.0, 0.0) for the
# int 2 in complex arithmetic.  None of the arithmetic imports numpy.
#
# A float value outside an array is a Python complex (or float), never a
# numpy scalar.  _to_pairs and _from_pairs are the two conversions
# between the rows of scalars the package passes around and the pairs;
# the complex array _from_pairs gives leaves it through tolist().


def _to_pairs(rows, width: int):
    """(re, im) float64 arrays of shape (len(rows), width) of rows of
    width scalars, each read as a complex number."""
    import numpy as np

    z = np.array(rows, dtype=complex).reshape(len(rows), width)
    return z.real, z.imag


def _from_pairs(pair):
    """The complex array of an (re, im) pair of float64 arrays; its
    tolist() gives the entries as Python complex numbers."""
    z = pair[0].astype(complex)
    z.imag = pair[1]
    return z


def _cmul(x, y):
    """x y: (xr yr - xi yi, xr yi + xi yr)."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _cneg(x):
    return (-x[0], -x[1])


def _cmatmul(m, k):
    """Product of 2x2 matrices given as (a, b, c, d) tuples of pairs, in
    Mat2's order."""
    return (_cadd(_cmul(m[0], k[0]), _cmul(m[1], k[2])),
            _cadd(_cmul(m[0], k[1]), _cmul(m[1], k[3])),
            _cadd(_cmul(m[2], k[0]), _cmul(m[3], k[2])),
            _cadd(_cmul(m[2], k[1]), _cmul(m[3], k[3])))


def random_nonzero_int(rng) -> int:
    """Uniform nonzero integer in [-3, 3]."""
    k = rng.randint(1, 3)
    return k if rng.random() < 0.5 else -k
