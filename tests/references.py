"""Plain reference versions of the integer fast paths, as differential oracles.

Each function states its fact in the most direct form: Fraction arithmetic,
the limit export as Fraction quotients of refined balls, Random.randint draws, a dict-scored basis window, one residue per q of the
gap loop, lists of pieces for a row's in-ball count, and recursion for the
failing-line descent.  The tests assert that the package's integer versions
agree with them value for value.
"""

import math
import random
from fractions import Fraction

from gammacert.balls import PAYLOAD_PREC, BallReal, sqrt_int
from gammacert.cf import GapReport
from gammacert.errors import CertificateFailure, InputError
from gammacert.exact import (IVec3, _gauss_reduce, cross, det3, dot,
                             is_primitive_point, nearest_int, proj_dist_sq,
                             solve_dot_one)
from gammacert.scan import _quad_range, _round_half_even
from gammacert.verifier import SandwichVerdict


def rand_vec(rng: random.Random) -> IVec3:
    """A nonzero vector of coordinates rng.randint(-9, 9)."""
    while True:
        v = IVec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if not v.is_zero():
            return v


def quaternion_frame(rng: random.Random):
    """The scaled rotation rows of a, b, c, d = rng.randint(-5, 5), not all 0."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        s = a * a + b * b + c * c + d * d
        if s > 0:
            break
    row0 = IVec3(a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c))
    row1 = IVec3(2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b))
    row2 = IVec3(2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d)
    return row0, row1, row2


def triangle_holds(a: IVec3, b: IVec3, c: IVec3) -> bool:
    """dist(a,c) <= dist(a,b) + dist(b,c) on the Fraction squared distances."""
    dac = proj_dist_sq(a, c)
    dab = proj_dist_sq(a, b)
    dbc = proj_dist_sq(b, c)
    gap = dac - dab - dbc
    if gap <= 0:
        return True
    return gap * gap <= 4 * dab * dbc


def sandwich(u: IVec3, v: IVec3, w: IVec3, x: IVec3) -> SandwichVerdict:
    """The sandwich verdict in Fractions, for a valid frame and x != 0."""
    nu, nv, nw = u.norm_sq(), v.norm_sq(), w.norm_sq()
    su, sv, sw = math.isqrt(nu), math.isqrt(nv), math.isqrt(nw)
    a_v = Fraction(abs(det3(x, u, v)), su * sv)
    a_w = Fraction(abs(det3(x, u, w)), su * sw)
    a_min = min(a_v, a_w)
    mid_sq = min(Fraction(cross(x, v).norm_sq(), nv),
                 Fraction(cross(x, w).norm_sq(), nw))
    upper = Fraction(abs(dot(x, u)), su) + a_min
    return SandwichVerdict(lower_ok=a_min * a_min <= mid_sq,
                           upper_ok=mid_sq <= upper * upper)


def complete_to_basis(a: IVec3, b: IVec3) -> IVec3:
    """The least-norm, then least-tuple z with det3(a, b, z) = 1, from a dict
    of the 25 window scores around the Babai point."""
    c = a.cross(b)
    if not is_primitive_point(c):
        raise ValueError("not a primitive pair")
    z0 = solve_dot_one(c)
    ra, rb = _gauss_reduce(a, b)
    g11, g12, g22 = ra.norm_sq(), ra.dot(rb), rb.norm_sq()
    det = g11 * g22 - g12 * g12
    t1, t2 = ra.dot(z0), rb.dot(z0)
    m0 = nearest_int(g12 * t2 - g22 * t1, det)
    n0 = nearest_int(g12 * t1 - g11 * t2, det)
    z1 = z0 + m0 * ra + n0 * rb
    s1, s2 = 2 * ra.dot(z1), 2 * rb.dot(z1)
    scores = {(m, n): m * (s1 + m * g11 + 2 * n * g12) + n * (s2 + n * g22)
              for m in range(-2, 3) for n in range(-2, 3)}
    least = min(scores.values())
    return min((z1 + m * ra + n * rb for (m, n), v in scores.items() if v == least),
               key=IVec3.as_tuple)


def convergent_gap_check(table, n: int) -> GapReport:
    """The gap certificate with one modular reduction and one min() per q."""
    pn, qn = table.pair(n)
    c1 = table.c1
    min_qbest = None
    for q in range(1, qn):
        m = (q * pn) % qn
        best = min(m, qn - m)
        if best == 0:
            raise CertificateFailure("gap_degenerate", f"n={n}, q={q}")
        if 2 * c1.numerator * q * best < c1.denominator * qn:
            raise CertificateFailure("gap_bound", f"n={n}, q={q}")
        if min_qbest is None or q * best < min_qbest:
            min_qbest = q * best
    min_scaled = Fraction(0) if min_qbest is None else Fraction(2 * min_qbest, qn) * c1
    return GapReport(n, min_scaled)


def row_in_ball(qa, g, d, n0, e, k1, zero, u0, u1, rest):
    """scan._row_in_ball from a list of the edge and zero pieces, the hull
    by min() and max(), and one helper call per boundary line."""
    if rest < 0:
        return 0, (1, 0), (1, 0)
    c = 4 * d * d * rest
    edges = [_quad_range(qa, 4 * p * g, p * p - c)
             for p in (2 * n0 + e, 2 * n0 - e)]
    r = math.isqrt(rest)
    pieces = [s for s in edges + [(max(zero[0], -r), min(zero[1], r))]
              if s[0] <= s[1]]
    s_lo = max(u0, min((s[0] for s in pieces), default=1))
    s_hi = min(u1, max((s[1] for s in pieces), default=0))
    w_lo = max(s_lo, edges[0][0], edges[1][0])
    w_hi = min(s_hi, edges[0][1], edges[1][1])
    if w_lo > w_hi:
        w_lo, w_hi = s_hi + 1, s_hi
    count = (2 * k1 + 1) * (w_hi - w_lo + 1)
    for lo, hi in ((s_lo, w_lo - 1), (w_hi + 1, s_hi)):
        for u in range(lo, hi + 1):
            a_s = _round_half_even(n0 + g * u, d)
            room = math.isqrt(rest - u * u)
            count += max(0, min(a_s + k1, room) - max(a_s - k1, -room) + 1)
    return count, (s_lo, s_hi), (w_lo, w_hi)


def first_hit(g: int, d: int, lo: int, hi: int):
    """scan._first_hit as the recursive descent: one call per level, each
    rescaling its sub-call's wrap count on the way out."""
    if lo == 0:
        return 0
    g %= d
    if g == 0:
        return None
    if 2 * g > d:
        g, lo, hi = d - g, d - hi, d - lo
    k = -(-lo // g)
    if g * k <= hi:
        return k
    y = first_hit(-d % g, g, lo % g, hi % g)
    return None if y is None else -(-(d * y + lo) // g)


def export_alpha_beta(enc):
    """verifier.export_alpha_beta in Fractions: ||rep|| and sqrt(2 radius_sq)
    refined to PAYLOAD_PREC bits, each unit coordinate bounded, then the four
    corner quotients of the coordinate intervals."""
    rep = enc.rep
    norm = sqrt_int(rep.norm_sq()).refined_to(PAYLOAD_PREC)
    n_lo, n_up = norm.lo, norm.hi
    if n_lo <= 0:
        raise InputError("representative norm not separated from zero")
    e = BallReal.wrap(2 * Fraction(enc.radius_sq_ub)).sqrt().refined_to(PAYLOAD_PREC).hi

    def coord_bounds(c):
        if c >= 0:
            return (Fraction(c) / n_up - e, Fraction(c) / n_lo + e)
        return (Fraction(c) / n_lo - e, Fraction(c) / n_up + e)

    d0_lo, d0_hi = coord_bounds(rep.x)
    if not (d0_lo > 0 or d0_hi < 0):
        raise InputError("first coordinate not separated from zero")

    def ratio_bounds(c):
        num_lo, num_hi = coord_bounds(c)
        corners = [num_lo / d0_lo, num_lo / d0_hi, num_hi / d0_lo, num_hi / d0_hi]
        return (min(corners), max(corners))

    return ratio_bounds(rep.y), ratio_bounds(rep.z)
