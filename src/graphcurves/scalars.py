"""Scalar domain plumbing shared by every module.

All linear algebra runs in one of two interchangeable scalar domains:

* ``EXACT``: arbitrary-precision rationals (:class:`fractions.Fraction`).
  Ranks and kernels are exact, so a dimension statement checked in this
  domain is a proof for the given input.
* ``FLOAT``: double-precision complex numbers.  Ranks are counted from
  singular values with the relative threshold :data:`RANK_RTOL`, or
  found full by a Cholesky certificate (:data:`FULL_RANK_RTOL`).

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
# A float system has full rank, with no SVD, when the Cholesky factorization
# of its smaller Gram matrix G less (FULL_RANK_RTOL ||A||_F)^2 I succeeds
# (linalg._full_rank).  Forming G and factoring it round by n eps ||A||_F^2
# <= 1e-13 ||A||_F^2 for a Gram order n <= 1000 (Higham, Accuracy and
# Stability, 2nd ed., ch. 10), 10^3 below FULL_RANK_RTOL^2 ||A||_F^2, so a
# success still shows sigma_min > 0.999 FULL_RANK_RTOL ||A||_F >= 0.999e-5
# s_max, about 10^4 times the RANK_RTOL threshold: the SVD would keep full
# rank too.  The constant is small enough to certify the full-rank systems
# the package builds: on random_trivalent(V, s) with Framing.random for
# V = 80 and 160, s = 0, 1, 7, sigma_min / ||A||_F is at least 8e-3 for the
# float Higgs residue system, 2.5e-4 for the flat linearization and 2.7e-4
# for the float Hitchin Jacobian.
FULL_RANK_RTOL = 1e-5
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


# -- batches of complex numbers ------------------------------------------
#
# The float kernels that run over many fields at once run on batches as
# on scalars.  A float value outside an array is a Python complex (or
# float), never a numpy scalar: _to_pairs and _from_pairs are the two
# conversions between the rows of scalars and the batches, and the
# complex array _from_pairs gives leaves it through tolist().


class _ComplexBatch(tuple):
    """Complex numbers held as their (re, im) float64 arrays.

    +, -, * and unary - act entry by entry with CPython's complex
    formulas (numpy's complex scalars use the same ones), so every entry
    rounds as the scalar code rounds it; numpy's complex array multiply
    may fuse operations, so none runs on complex arrays.  An int, float,
    Fraction or complex operand on either side is read as complex(x), as
    CPython reads it; / takes a real divisor only.  Any other operand,
    such as a plain (re, im) tuple or an array, raises TypeError.  As a
    tuple it unpacks to its two arrays.  None of the arithmetic imports
    numpy.
    """

    __slots__ = ()
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __new__(cls, re, im):
        return tuple.__new__(cls, (re, im))

    def __add__(self, other):
        y = _operand(other)
        return _ComplexBatch(self[0] + y[0], self[1] + y[1])

    def __sub__(self, other):
        y = _operand(other)
        return _ComplexBatch(self[0] - y[0], self[1] - y[1])

    def __rsub__(self, other):
        y = _operand(other)
        return _ComplexBatch(y[0] - self[0], y[1] - self[1])

    def __mul__(self, other):
        """(xr yr - xi yi, xr yi + xi yr)."""
        y = _operand(other)
        return _ComplexBatch(self[0] * y[0] - self[1] * y[1],
                             self[0] * y[1] + self[1] * y[0])

    # float + and * commute to the bits, so y x rounds as x y
    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _ComplexBatch(-self[0], -self[1])

    def __truediv__(self, other):
        """self / x for a real x, by CPython's quotient by complex(x)."""
        if not isinstance(other, (int, float, Fraction)):
            raise TypeError(f"a complex batch divided by {type(other).__name__}")
        b = float(other)
        ratio = 0.0 / b  # complex(x).imag / complex(x).real, a signed zero
        return _ComplexBatch((self[0] + self[1] * ratio) / b,
                             (self[1] - self[0] * ratio) / b)

    def map(self, f):
        """f on each part, such as an index or a reshape."""
        return _ComplexBatch(f(self[0]), f(self[1]))

    def rows(self):
        """The batches of its entries along the first axis."""
        return [_ComplexBatch(re, im) for re, im in zip(*self)]

    def columns(self, width: int):
        """Entries k, k + width, ... of the last axis, for each k < width."""
        return [self.map(lambda a: a[..., k::width]) for k in range(width)]

    @staticmethod
    def stack(batches, axis: int):
        """numpy.stack of the batches, part by part."""
        import numpy as np

        re, im = zip(*batches)
        return _ComplexBatch(np.stack(re, axis), np.stack(im, axis))


def _operand(x):
    """A batch, or a number as the (re, im) floats of complex(x)."""
    if isinstance(x, _ComplexBatch):
        return x
    # Fraction comes last: its isinstance check goes through an ABC
    if isinstance(x, (complex, float, int, Fraction)):
        z = complex(x)
        return z.real, z.imag
    raise TypeError(f"unsupported operand for a complex batch: {type(x).__name__}")


def _to_pairs(rows, width: int) -> _ComplexBatch:
    """The (len(rows), width) batch of rows of width scalars, each read as
    a complex number; a complex array is taken without a copy."""
    import numpy as np

    z = np.asarray(rows, dtype=complex).reshape(len(rows), width)
    return _ComplexBatch(z.real, z.imag)


def _from_pairs(batch):
    """The complex array of a batch; its tolist() gives the entries as
    Python complex numbers."""
    re, im = batch
    z = re.astype(complex)
    z.imag = im
    return z


def random_nonzero_int(rng) -> int:
    """Uniform nonzero integer in [-3, 3]."""
    k = rng.randint(1, 3)
    return k if rng.random() < 0.5 else -k
