"""Exact integer geometry in Z^3 and squared projective distances.

Everything in this module is exact: integer vectors, integer determinants,
and rational squared distances. The projective distance between two nonzero
points x, y is sin of the angle between the lines R x and R y,

    dist(x, y) = ||x ^ y|| / (||x|| ||y||),

and is kept as its exact rational square wherever possible. Square roots and
certified comparisons live in `balls`.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Optional, Tuple

from .errors import CertificateFailure, InputError


class IVec3:
    """Immutable integer vector in Z^3.

    A slotted class with a frozen dataclass's behaviour: assigning or
    deleting a coordinate raises FrozenInstanceError, an IVec3 equals only
    another IVec3, and the hash and repr are the dataclass's.  Every
    arithmetic method builds a vector, so __init__ sets the slots through
    their descriptors, at about half the cost of the dataclass's three
    object.__setattr__ calls.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int) -> None:
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IVec3:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"IVec3(x={self.x!r}, y={self.y!r}, z={self.z!r})"

    def __reduce__(self):
        return IVec3, (self.x, self.y, self.z)

    def __add__(self, other: "IVec3") -> "IVec3":
        return IVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "IVec3") -> "IVec3":
        return IVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "IVec3":
        return IVec3(-self.x, -self.y, -self.z)

    def __rmul__(self, k: int) -> "IVec3":
        if not isinstance(k, int):
            return NotImplemented
        return IVec3(k * self.x, k * self.y, k * self.z)

    def dot(self, other: "IVec3") -> int:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "IVec3") -> "IVec3":
        return IVec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> int:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def content(self) -> int:
        """gcd of the coordinates (0 for the zero vector)."""
        return math.gcd(math.gcd(abs(self.x), abs(self.y)), abs(self.z))

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)


_set_x, _set_y, _set_z = (IVec3.x.__set__, IVec3.y.__set__, IVec3.z.__set__)


def dot(a: IVec3, b: IVec3) -> int:
    return a.dot(b)


def cross(a: IVec3, b: IVec3) -> IVec3:
    return a.cross(b)


def det3(a: IVec3, b: IVec3, c: IVec3) -> int:
    """Determinant of the 3x3 integer matrix with rows a, b, c."""
    return a.dot(b.cross(c))


def proj_dist_sq(a: IVec3, b: IVec3) -> Fraction:
    """Exact squared projective distance ||a^b||^2 / (||a||^2 ||b||^2).

    Symmetric, zero iff the points span the same line, scale and sign
    invariant, and at most 1 by the Lagrange identity.
    """
    return Fraction(*proj_dist_sq_terms(a, b))


def proj_dist_sq_terms(a: IVec3, b: IVec3,
                       c: Optional[IVec3] = None) -> Tuple[int, int]:
    """(||a^b||^2, ||a||^2 ||b||^2), the squared distance's unreduced terms.

    For callers headed for a square root (balls.sqrt_ratio), which need no
    gcd of terms that reach tens of thousands of bits. c, when given, is
    a^b, which the caller already holds.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("projective distance needs nonzero vectors")
    if c is None:
        c = a.cross(b)
    return c.norm_sq(), a.norm_sq() * b.norm_sq()


def is_primitive_point(a: IVec3) -> bool:
    """True when the coordinates are coprime (gcd 1, in particular nonzero)."""
    return a.content() == 1


def is_primitive_pair(a: IVec3, b: IVec3) -> bool:
    """True when (a, b) extends to a basis of Z^3.

    Equivalent to the cross product being a primitive point, and to the 3x2
    coordinate matrix having elementary divisors (1, 1).
    """
    return is_primitive_point(a.cross(b))


def smith_invariants_3x2(a: IVec3, b: IVec3) -> Tuple[int, int]:
    """Elementary divisors (s1, s2) of the 3x2 matrix with columns a, b.

    s1 = gcd of the entries, s1*s2 = gcd of the 2x2 minors; s2 = 0 when the
    columns are linearly dependent.
    """
    d1 = math.gcd(a.content(), b.content())
    d2 = a.cross(b).content()
    if d2 == 0:
        return (d1, 0)
    return (d1, d2 // d1)


def floor_log2(fr: Fraction) -> int:
    """Largest e with 2^e <= fr, for fr > 0, read off the bit lengths."""
    if fr <= 0:
        raise InputError("positive value required")
    e = fr.numerator.bit_length() - fr.denominator.bit_length()
    return e if Fraction(2) ** e <= fr else e - 1


def _bezout(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), by one C-level modular inverse."""
    g = math.gcd(a, b)
    if b == 0:
        return g, (-1 if a < 0 else 1), 0
    # a/g is invertible modulo b/g; pow returns 0 when b/g = +-1
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def solve_dot_one(c: IVec3) -> IVec3:
    """Some z in Z^3 with c.z = 1, for primitive c, by two Bezout steps."""
    g1, u, v = _bezout(c.x, c.y)
    g, w, t = _bezout(g1, c.z)
    if g != 1:
        raise ValueError("vector is not primitive")
    return IVec3(u * w, v * w, t)


def nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); a half-integer tie goes toward zero."""
    q = (2 * abs(num) + den - 1) // (2 * den)
    return q if num >= 0 else -q


def _gauss_reduce(a: IVec3, b: IVec3) -> Tuple[IVec3, IVec3]:
    """Lagrange-reduce the planar lattice basis (a, b) inside Z^3.

    Shortest-vector style reduction on the exact Gram data; terminates since
    norms strictly decrease.
    """
    if a.norm_sq() > b.norm_sq():
        a, b = b, a
    while True:
        b2 = b - nearest_int(a.dot(b), a.norm_sq()) * a
        if b2.norm_sq() >= a.norm_sq():
            return a, b2
        a, b = b2, a


# the (m, n) offsets of complete_to_basis's +-2 window
_WINDOW = tuple((m, n) for m in range(-2, 3) for n in range(-2, 3))


def complete_to_basis(a: IVec3, b: IVec3, z0: Optional[IVec3] = None,
                      c: Optional[IVec3] = None) -> IVec3:
    """Canonical third basis vector z with det3(a, b, z) = 1.

    Requires (a, b) primitive. The solutions of (a x b).z = 1 form one coset
    z0 + Z a + Z b, and z is its smallest-norm element, ties broken by
    lexicographically smallest tuple, so z does not depend on which z0
    starts the search. A caller that knows a solution passes it as z0, and
    ValueError is raised unless (a x b).z0 = 1; otherwise solve_dot_one
    finds one, which needs two modular inverses of coordinates of a x b.
    c, when given, is a x b, which the caller already holds. One Babai
    rounding on the Lagrange-reduced basis (ra, rb) moves z0 to z1; the 25
    offsets (m, n) of a +-2 window around it are scored as
    |z1 + m ra + n rb|^2 from Gram scalars, and only the minimal-norm
    candidates are formed, as coordinate tuples for the tie-break.
    """
    if c is None:
        c = a.cross(b)
    if z0 is None:
        if not is_primitive_point(c):
            raise ValueError("not a primitive pair")
        z0 = solve_dot_one(c)
    elif c.dot(z0) != 1:
        raise ValueError("z0 does not solve (a x b).z0 = 1")
    ra, rb = _gauss_reduce(a, b)
    # for a Lagrange-reduced 2d basis the closest vector is within 1 of the
    # rounded coefficients, a +-2 window is belt and braces
    g11, g12, g22 = ra.norm_sq(), ra.dot(rb), rb.norm_sq()
    det = g11 * g22 - g12 * g12
    t1, t2 = ra.dot(z0), rb.dot(z0)
    m0 = nearest_int(g12 * t2 - g22 * t1, det)
    n0 = nearest_int(g12 * t1 - g11 * t2, det)
    ax, ay, az = ra.x, ra.y, ra.z
    bx, by, bz = rb.x, rb.y, rb.z
    zx, zy, zz = (z0.x + m0 * ax + n0 * bx, z0.y + m0 * ay + n0 * by,
                  z0.z + m0 * az + n0 * bz)  # z1
    # |z1 + m ra + n rb|^2 - |z1|^2, from s1 = 2 z1.ra, s2 = 2 z1.rb
    s1, s2 = 2 * (ax * zx + ay * zy + az * zz), 2 * (bx * zx + by * zy + bz * zz)
    scores = [m * (s1 + m * g11 + 2 * n * g12) + n * (s2 + n * g22)
              for m, n in _WINDOW]
    least = min(scores)
    z = IVec3(*min((zx + m * ax + n * bx, zy + m * ay + n * by, zz + m * az + n * bz)
                   for (m, n), v in zip(_WINDOW, scores) if v == least))
    if det3(a, b, z) != 1:
        raise CertificateFailure("basis_det", f"det3(a, b, z) = {det3(a, b, z)}")
    return z


def complete_single(x0: IVec3) -> IVec3:
    """Canonical partner vector making a primitive pair with primitive x0.

    Enumerates candidates ordered by (norm^2, number of negative entries,
    lexicographic tuple) and returns the first that works.
    """
    if not is_primitive_point(x0):
        raise ValueError("x0 must be primitive")
    for nsq in range(1, 64):
        cands = []
        r = math.isqrt(nsq)
        for i in range(-r, r + 1):
            for j in range(-r, r + 1):
                k2 = nsq - i * i - j * j
                if k2 < 0:
                    continue
                k = math.isqrt(k2)
                if k * k != k2:
                    continue
                for kk in {k, -k}:
                    cands.append(IVec3(i, j, kk))
        cands.sort(key=lambda v: (sum(1 for t in v.as_tuple() if t < 0), v.as_tuple()))
        for b in cands:
            if is_primitive_pair(x0, b):
                return b
    raise RuntimeError("no small completion found")  # pragma: no cover
