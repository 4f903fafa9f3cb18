"""2x2 matrices over either scalar domain, and the adjoint action on sl2.

Traceless matrices are written in the coordinate triple
``(x11, x12, x21)`` with the (2,2) entry implied as ``-x11``; the basis
behind those coordinates is :data:`SL2_BASIS`.

Every sl2 transport, across a node or by a gauge, reads one closed-form
kernel, _conjugation(g, h), the matrix of X -> g X h in those coordinates.
"""
from __future__ import annotations

import cmath

from .errors import ValidationError
from .scalars import DET_TOL, EXACT, check_domain, random_nonzero_int


class Mat2:
    """Immutable-by-convention 2x2 matrix; entries share one scalar domain."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s) -> "Mat2":
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 1:
            # adjugate; avoids int -> float division on unimodular input
            return Mat2(self.d, -self.b, -self.c, self.a)
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def max_norm(self):
        """Largest entry magnitude (Fraction in the exact domain, float otherwise)."""
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def apply(self, v):
        """Image of a column vector (x, y)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)


IDENTITY = Mat2(1, 0, 0, 1)

# Basis of traceless matrices behind the (x11, x12, x21) coordinates.
SL2_BASIS = (Mat2(1, 0, 0, -1), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0))


def sl2_coords(m: Mat2):
    """Coordinates of a traceless matrix in SL2_BASIS order."""
    return (m.a, m.b, m.c)


def from_sl2_coords(x11, x12, x21) -> Mat2:
    return Mat2(x11, x12, x21, -x11)


def _conjugation(g: Mat2, h: Mat2):
    """3x3 matrix of X -> g X h on (x11, x12, x21) coordinates, nested tuples:
    column k is sl2_coords(g E_k h), each entry paired as the Mat2 product
    (g E_k) h pairs it, so a float entry rounds as there."""
    (a, b, c, d), (p, q, r, s) = g.entries(), h.entries()
    return ((a * p - b * r, a * r, b * p),
            (a * q - b * s, a * s, b * q),
            (c * p - d * r, c * r, d * p))


def adjoint_matrix(g: Mat2):
    """3x3 matrix of m -> g m g^-1 on (x11, x12, x21) coordinates, rows
    indexing the image coordinate: the kernel _conjugation(g, g.inv())."""
    return _conjugation(g, g.inv())


def mat_close(m1: Mat2, m2: Mat2, tol) -> bool:
    return (m1 - m2).max_norm() <= tol


def check_unimodular(m: Mat2, domain: str, scale=1) -> Mat2:
    """Require det = 1 (exactly, or within DET_TOL in the float domain).

    The float tolerance is relative to |ad| + |bc|, the size of the
    rounding error in computing ad - bc, so products of many unimodular
    matrices, whose entries grow, still pass.  A caller that computed m
    as a product passes the size of that product's rounding error as
    scale, when it can exceed |ad| + |bc|.
    """
    check_domain(domain)
    det = m.det()
    if domain == EXACT:
        if det != 1:
            raise ValidationError(f"matrix determinant is {det}, expected 1")
    else:
        tol = DET_TOL * max(1, abs(m.a * m.d) + abs(m.b * m.c), scale)
        if not cmath.isfinite(det) or abs(det - 1) > tol:  # nan or inf entries
            raise ValidationError(f"matrix determinant {det} is not 1 within {tol}")
    return m


def _shear_lower(p) -> Mat2:
    return Mat2(1, 0, p, 1)


def _shear_upper(p) -> Mat2:
    return Mat2(1, p, 0, 1)


def random_unimodular(rng, domain: str) -> Mat2:
    """Seeded random determinant-one matrix.

    Exact domain: a product of four elementary shears with nonzero integer
    parameters, so the matrix has int entries, the determinant is exactly
    one and entries stay small.  Float domain: a complex Gaussian matrix
    divided by a square root of its determinant.
    """
    check_domain(domain)
    if domain == EXACT:
        m = _shear_upper(random_nonzero_int(rng))
        m = m * _shear_lower(random_nonzero_int(rng))
        m = m * _shear_upper(random_nonzero_int(rng))
        m = m * _shear_lower(random_nonzero_int(rng))
        return m
    while True:
        entries = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        m = Mat2(*entries)
        det = m.det()
        if abs(det) > 1e-3:
            return m.scale(1 / cmath.sqrt(det))


def to_complex_mat(m: Mat2) -> Mat2:
    return Mat2(complex(m.a), complex(m.b), complex(m.c), complex(m.d))
