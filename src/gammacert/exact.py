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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import CertificateFailure


@dataclass(frozen=True)
class IVec3:
    """Immutable integer vector in Z^3."""

    x: int
    y: int
    z: int

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

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

    @staticmethod
    def from_iter(it: Iterable[int]) -> "IVec3":
        a, b, c = (int(v) for v in it)
        return IVec3(a, b, c)


E1 = IVec3(1, 0, 0)
E2 = IVec3(0, 1, 0)
E3 = IVec3(0, 0, 1)


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
    if a.is_zero() or b.is_zero():
        raise ValueError("projective distance needs nonzero vectors")
    w = a.cross(b)
    return Fraction(w.norm_sq(), a.norm_sq() * b.norm_sq())


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


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended gcd. Returns (g, s, t) with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_dot_one(c: IVec3) -> IVec3:
    """Some z in Z^3 with c.z = 1, for primitive c, by the xgcd chain."""
    g1, u, v = xgcd(c.x, c.y)
    g, w, t = xgcd(g1, c.z)
    if g != 1:
        raise ValueError("vector is not primitive")
    return IVec3(u * w, v * w, t)


def _gauss_reduce(a: IVec3, b: IVec3) -> Tuple[IVec3, IVec3]:
    """Lagrange-reduce the planar lattice basis (a, b) inside Z^3.

    Shortest-vector style reduction on the exact Gram data; terminates since
    norms strictly decrease.
    """
    if a.norm_sq() > b.norm_sq():
        a, b = b, a
    while True:
        # nearest integer to (a.b)/(a.a), ties toward zero for determinism
        num, den = a.dot(b), a.norm_sq()
        if num >= 0:
            q = (2 * num + den - 1) // (2 * den)
        else:
            q = -((2 * -num + den - 1) // (2 * den))
        b2 = b - q * a
        if b2.norm_sq() >= a.norm_sq():
            return a, b2
        a, b = b2, a


def complete_to_basis(a: IVec3, b: IVec3) -> IVec3:
    """Canonical third basis vector z with det3(a, b, z) = 1.

    Requires (a, b) primitive. z is the smallest-norm representative of the
    coset z0 + Z a + Z b, ties broken by lexicographically smallest tuple.
    """
    c = a.cross(b)
    if not is_primitive_point(c):
        raise ValueError("not a primitive pair")
    z0 = solve_dot_one(c)
    ra, rb = _gauss_reduce(a, b)
    # Babai rounding on the reduced basis, then a local window; for a
    # Lagrange-reduced 2d basis the closest vector is within 1 of the
    # rounded coefficients, a +-2 window is belt and braces.
    g11, g12, g22 = ra.norm_sq(), ra.dot(rb), rb.norm_sq()
    det = g11 * g22 - g12 * g12
    t1, t2 = ra.dot(z0), rb.dot(z0)
    m0 = round(Fraction(-(g22 * t1 - g12 * t2), det))
    n0 = round(Fraction(-(g11 * t2 - g12 * t1), det))
    best = None
    for dm in range(-2, 3):
        for dn in range(-2, 3):
            cand = z0 + (m0 + dm) * ra + (n0 + dn) * rb
            key = (cand.norm_sq(), cand.as_tuple())
            if best is None or key < best[0]:
                best = (key, cand)
    z = best[1]
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
