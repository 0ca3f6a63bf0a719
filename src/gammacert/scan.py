"""Exhaustive certified scan of the lower-bound condition over a norm slab.

For every primitive-or-not integer x with C' <= ||x|| <= min(B, 2 C'),
C' = X2/X1 (no B: the full shell up to 2 C'), the condition under test is

    |x . u|  >=  dist(x, {v, w}) / (psi(||x||) ||x||^gamma).

The right side never exceeds t* = 1/(psi(C') C'^gamma), so a single certified
threshold decides almost every point.  The scan fixes the coordinate kappa
where the direction enclosure is largest, walks all lines in the other two
coordinates, and on each line checks only the 2*K_near - 1 integer points
nearest the plane x . u = 0: a one-time guard certificate shows every other
point on the line clears t* outright.  The per-line test is exact integer
arithmetic against the threshold of verifier.LowerBoundEngine; points that
fail it go to the engine's certify against the true right side.

The kernel, _scan_lines, works per row of lines (fixed first free
coordinate t1), not per line.  With d = |m_kappa| and N = -sign(m_kappa)
(t1 m1 + t2 m2), the candidates of a line lie in the band |a - N/d| <=
K_near - 1/2, and N is linear in t2.  A row's candidates in the shell are
its candidates in the outer ball minus those strictly inside the inner
one.  Two exact quadratics per ball (one per edge of the band) give the
lines whose band lies wholly in it, counted 2*K_near - 1 each, and the
lines the sphere cuts, which alone are counted point by point.  A point
fails the threshold when N lies within t_int of a multiple of d, so the
failing lines are the hits of a linear sequence modulo d, found one at a
time by a Euclid-style descent over the lines that reach the shell.  A row
costs its lines near the two spheres plus one descent per failing line,
whatever the direction: about 0.42 M Python steps for the 9.1 M lines of
the toy shell.

Nothing is decided or selected in floating point.  The reach gate keeps
|s| < 2^52, and there a float64 selection rint(-s/m_kappa), as in the tests'
reference kernel, picks the same a* as exact half-even rounding: its
rounding error, below |s/m_kappa| 2^-53 < 1/(2|m_kappa|), is less than the
distance from s/m_kappa to any half-integer it does not equal.  The gate
bounds |s| by isqrt(nsq_hi) (|m_o1| + |m_o2|), so how large a shell it
admits depends on the direction's two smaller coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, sqrt_int
from .builder import ConstructionState, x_dot_u_lower
from .errors import CertificateFailure, InputError
from .exact import IVec3, dot
from .record import record, replace
from .verifier import LowerBoundEngine

Rat = Fraction

M_BITS = 40  # fixed-point scale of the integer direction vector


@record
class ScanReport:
    range_lo_sq: Rat
    range_hi_sq: Rat
    lines: int
    candidates: int
    fast_passed: int
    slow_checked: int
    violations: Tuple[str, ...]
    undecided: Tuple[str, ...]
    positivity_failures: Tuple[str, ...]
    below_threshold: bool
    window_index: int
    used_clauses: Tuple[str, ...]
    skipped_clauses: Tuple[str, ...]
    threads: int


def _canonical(c0: int, c1: int, c2: int) -> Tuple[int, int, int]:
    for c in (c0, c1, c2):
        if c != 0:
            return (c0, c1, c2) if c > 0 else (-c0, -c1, -c2)
    raise InputError("zero vector has no canonical sign")


def _round_half_even(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even (d > 0)."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def _quad_range(qa: int, qb: int, qc: int) -> Tuple[int, int]:
    """The integers u with qa u^2 + qb u + qc <= 0 (qa > 0), as (lo, hi);
    lo > hi when there are none."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return 1, 0
    r = math.isqrt(disc)
    # the real roots lie within 1/(2 qa) of these bounds, so at most two
    # exact steps inward reach the first and last integer solutions
    lo = -((qb + r + 1) // (2 * qa))
    hi = (r + 1 - qb) // (2 * qa)
    while lo <= hi and (qa * lo + qb) * lo + qc > 0:
        lo += 1
    while hi >= lo and (qa * hi + qb) * hi + qc > 0:
        hi -= 1
    return lo, hi


def _row_in_ball(qa: int, g: int, d: int, n0: int, e: int, k1: int,
                 zero: Tuple[int, int], u0: int, u1: int, rest: int
                 ) -> Tuple[int, Tuple[int, int], Tuple[int, int]]:
    """Count the candidates a of the lines u in [u0, u1] of one row of
    _scan_lines with u^2 + a^2 <= rest, and return a u-range `some` that
    holds every line with such a candidate and a u-range `whole` of lines
    each of whose candidates does.  whole lies in some, and an empty whole
    has lo = hi + 1.

    Along the row N = n0 + g u, e = (2 k1 + 1) d and qa = 4 (g^2 + d^2).
    The band |a - N/d| <= k1 + 1/2 that holds a line's candidates lies
    wholly in the disk where both its edges a = (2 N +- e) / 2d do, and
    partly where an edge does or where it covers a = 0 (zero) with u^2 <=
    rest.  Each set is convex, so the hull of those pieces is exact.  Lines
    of the first set count 2 k1 + 1 candidates each; the rest of the
    second, the lines the circle cuts, are counted point by point.
    """
    if rest < 0:
        return 0, (1, 0), (1, 0)
    c = 4 * d * d * rest
    # the lines whose band edge (2 N + e) / 2d (a_lo..a_hi) or (2 N - e) / 2d
    # (b_lo..b_hi) lies in the disk
    p = 2 * n0 + e
    a_lo, a_hi = _quad_range(qa, 4 * p * g, p * p - c)
    p = 2 * n0 - e
    b_lo, b_hi = _quad_range(qa, 4 * p * g, p * p - c)
    # the hull of the nonempty pieces, (1, 0) when there are none
    s_lo, s_hi = (a_lo, a_hi) if a_lo <= a_hi else (1, 0)
    if b_lo <= b_hi:
        if s_lo > s_hi:
            s_lo, s_hi = b_lo, b_hi
        else:
            if b_lo < s_lo:
                s_lo = b_lo
            if b_hi > s_hi:
                s_hi = b_hi
    z_lo, z_hi = zero
    if z_lo <= z_hi:
        r = math.isqrt(rest)
        if z_lo < -r:
            z_lo = -r
        if z_hi > r:
            z_hi = r
        if z_lo <= z_hi:
            if s_lo > s_hi:
                s_lo, s_hi = z_lo, z_hi
            else:
                if z_lo < s_lo:
                    s_lo = z_lo
                if z_hi > s_hi:
                    s_hi = z_hi
    if s_lo < u0:
        s_lo = u0
    if s_hi > u1:
        s_hi = u1
    w_lo = max(s_lo, a_lo, b_lo)
    w_hi = min(s_hi, a_hi, b_hi)
    if w_lo > w_hi:
        w_lo, w_hi = s_hi + 1, s_hi
    count = (2 * k1 + 1) * (w_hi - w_lo + 1)
    # the boundary lines [s_lo, w_lo) and (w_hi, s_hi], one point count each
    # from a* = round-half-even(N/d) and the line's room isqrt(rest - u^2)
    for lo, hi in ((s_lo, w_lo), (w_hi + 1, s_hi + 1)):
        n = n0 + g * lo
        for u in range(lo, hi):
            q, rem = divmod(n, d)
            if 2 * rem > d or (2 * rem == d and q & 1):
                q += 1
            room = math.isqrt(rest - u * u)
            top = q + k1 if q + k1 < room else room
            bot = q - k1 if q - k1 > -room else -room
            if top >= bot:
                count += top - bot + 1
            n += g
    return count, (s_lo, s_hi), (w_lo, w_hi)


def _first_hit(g: int, d: int, lo: int, hi: int) -> Optional[int]:
    """The least k >= 0 with lo <= g k mod d <= hi (0 <= lo <= hi < d), or
    None; a Euclid-style descent of about log2(d) levels, run as a loop
    that keeps each level's rescale and applies them on the way back."""
    pending: List[Tuple[int, int, int]] = []
    while lo:
        g %= d
        if g == 0:
            return None
        if 2 * g > d:  # (d - g) k mod d = d - g k mod d on the nonzero residues
            g, lo, hi = d - g, d - hi, d - lo
        k = -(-lo // g)
        if g * k <= hi:
            break
        # no multiple of g lies in [lo, hi]: find the least wrap count y with
        # one in [d y + lo, d y + hi], i.e. -d y mod g in [lo mod g, hi mod g],
        # and then k = ceil((d y + lo) / g)
        pending.append((d, lo, g))
        g, d, lo, hi = -d % g, g, lo % g, hi % g
    else:
        k = 0
    for d, lo, g in reversed(pending):
        k = -(-(d * k + lo) // g)
    return k


def _scan_lines(m: Tuple[int, int, int], kappa: int, k_near: int, t_int: int,
                nsq_lo: int, nsq_hi: int
                ) -> Tuple[int, int, int, List[Tuple[int, int, int]]]:
    """Scan every line of the shell nsq_lo <= ||x||^2 <= nsq_hi.

    Returns (lines, candidates, fast_passed, failing canonical coords), with
    failing ordered by t1, then offset a - a*, then ascending t2.  The lines
    of one t1 >= 0 form a row, t2 in [-w, w] with w = isqrt(nsq_hi - t1^2)
    ([0, w] for t1 = 0).  On the line (t1, t2) the candidates are
    a = a* + off, |off| < k_near, with a* = round-half-even(N/d), d = |m_kappa|
    and N = -sign(m_kappa) (t1 m1 + t2 m2), so m.x = sign(m_kappa) (a d - N).

    A row's candidates in the shell are its candidates in the outer ball
    minus those strictly inside the inner one, and _row_in_ball counts each
    from the band |a - N/d| <= k_near - 1/2 that holds them.  A failing
    point has N within t_int of a multiple of d, and N is linear in t2, so
    the failing lines are found one at a time by _first_hit over the outer
    ball's lines; a hit among the lines whose band lies wholly in the inner
    ball, none of whose candidates is in the shell, skips past them all.  A
    row costs its lines near the two spheres plus one descent per failing
    line, whatever the direction of m.
    """
    o1, o2 = [c for c in range(3) if c != kappa]
    mk, m1, m2 = m[kappa], m[o1], m[o2]
    d = abs(mk)
    sgn = 1 if mk > 0 else -1
    # walk u = flip t2, along which N = n0 + g u is nondecreasing
    flip = 1 if sgn * m2 <= 0 else -1
    g = abs(m2)
    k1 = k_near - 1
    e = (2 * k1 + 1) * d  # the band's half-width k_near - 1/2, scaled by 2 d
    qa = 4 * (g * g + d * d)
    lines = candidates = 0
    failing: List[Tuple[int, int, int]] = []
    for t1 in range(math.isqrt(nsq_hi) + 1):
        w = math.isqrt(nsq_hi - t1 * t1)
        t2_lo = 0 if t1 == 0 else -w
        lines += w - t2_lo + 1
        u0, u1 = (t2_lo, w) if flip == 1 else (-w, -t2_lo)
        n0 = -sgn * t1 * m1
        # the band covers a = 0 where |2 N| <= e
        if g:
            zero = (-((e + 2 * n0) // (2 * g)), (e - 2 * n0) // (2 * g))
        else:
            zero = (u0, u1) if abs(2 * n0) <= e else (1, 0)
        row_args = (qa, g, d, n0, e, k1, zero, u0, u1)
        outer, (s_lo, s_hi), _ = _row_in_ball(*row_args, nsq_hi - t1 * t1)
        inner, _, (i_lo, i_hi) = _row_in_ball(*row_args, nsq_lo - 1 - t1 * t1)
        candidates += outer - inner
        if t_int <= 0:
            continue
        # failing lines: (N + t_int - 1) mod d <= 2 t_int - 2
        row: List[Tuple[int, int, int]] = []
        win = 2 * t_int - 2
        u = s_lo
        while u <= s_hi:
            b = (n0 + t_int - 1 + g * u) % d
            k = 0 if b <= win else _first_hit(g, d, d - b, d - b + win)
            if k is None:
                break
            u += k
            if u > s_hi:
                break
            if i_lo <= u <= i_hi:
                u = i_hi + 1  # every candidate of these lines is inside C'
                continue
            n = n0 + g * u
            a_s = _round_half_even(n, d)
            rest = t1 * t1 + u * u
            for a in range(a_s - k1, a_s + k1 + 1):
                if abs(a * d - n) < t_int and nsq_lo <= rest + a * a <= nsq_hi:
                    row.append((a - a_s, flip * u, a))
            u += 1
        row.sort()
        for _, t2, a in row:
            coords = [0, 0, 0]
            coords[kappa] = a
            coords[o1] = t1
            coords[o2] = t2
            failing.append(_canonical(*coords))
    return lines, candidates, candidates - len(failing), failing


def _direction_fixed_point(enc) -> Tuple[Tuple[int, int, int], int, Rat]:
    """Integer vector m ~ 2^M_BITS * rep/||rep|| with exact coordinate error.

    Returns (m, kappa, err_max) with kappa = argmax |m_c| and err_max an
    exact upper bound on max_c |m_c/2^M_BITS - rep_c/||rep|||.
    """
    norm = sqrt_int(enc.rep.norm_sq()).refined_to(128)
    n_lo, n_hi = norm.lo, norm.hi
    if n_lo <= 0:
        raise InputError("direction representative has zero norm")
    scale = Fraction(2 ** M_BITS)
    m: List[int] = []
    err_max = Fraction(0)
    for c in enc.rep.as_tuple():
        mid = scale * c * 2 / (n_lo + n_hi)
        mc = round(mid)
        lo_val = scale * c / (n_hi if c >= 0 else n_lo)
        hi_val = scale * c / (n_lo if c >= 0 else n_hi)
        err = max(abs(mc - lo_val), abs(mc - hi_val)) / scale
        err_max = max(err_max, err)
        m.append(mc)
    kappa = max(range(3), key=lambda c: abs(m[c]))
    return (m[0], m[1], m[2]), kappa, err_max


def slab_scan_iv(state: ConstructionState, b: Optional[Rat] = None, *,
                 skipped_clauses: Tuple[str, ...], k_near: int = 2,
                 max_prec: int = DEFAULT_MAX_PREC
                 ) -> ScanReport:
    """Certify the lower-bound condition for every x with C' <= ||x|| <= B.

    The scanned shell is capped at 2 C' (one doubling of the entry norm,
    inside the second growth window); a larger B only widens work, never the
    claim, and b=None scans that whole capped shell [C', 2 C'].  B < C' means
    the condition is vacuous at this size and the scan reports
    below_threshold instead of scanning.  The weight is the plan's psi.

    Candidate coverage is exhaustive: per line only the k_near-nearest
    integer points to the direction plane can fall under the certified
    threshold (guard certificate); each of those is tested exactly, and
    survivors of the integer test are re-certified against the true right
    side by the engine's certify: an exact pre-test, then escalating anchors
    and precision for any point it does not pass.  A shell past the reach
    gate, or a guard that does not certify, is reported as one undecided
    entry naming the reason, and nothing is scanned.
    skipped_clauses names the size-threshold audit clauses the run fails,
    for disclosure; the scan's own certificates do not depend on them.
    """
    if k_near < 1:
        raise InputError("k_near must be at least 1")
    if b is not None:
        b = Fraction(b)
        if b <= 0:
            raise InputError("scan bound must be positive")
    lo_sq = state.scale(2).sq / Fraction(state.plan.x1_sq)
    hi_sq = 4 * lo_sq if b is None else min(b * b, 4 * lo_sq)
    empty = ScanReport(range_lo_sq=lo_sq, range_hi_sq=hi_sq, lines=0,
                       candidates=0, fast_passed=0, slow_checked=0,
                       violations=(), undecided=(), positivity_failures=(),
                       below_threshold=hi_sq < lo_sq, window_index=2,
                       used_clauses=(), skipped_clauses=tuple(skipped_clauses),
                       threads=1)
    if empty.below_threshold:
        return empty

    engine = LowerBoundEngine(state, 2, state.plan.psi.at)
    m, kappa, err_max = _direction_fixed_point(engine.encs[state.last_index])
    nsq_lo, nsq_hi = math.ceil(lo_sq), math.floor(hi_sq)
    o1, o2 = [c for c in range(3) if c != kappa]
    s_max = math.isqrt(nsq_hi) * (abs(m[o1]) + abs(m[o2]))
    k_max = s_max // max(abs(m[kappa]), 1) + k_near + 2
    if s_max >= 2 ** 52 or s_max + k_max * abs(m[kappa]) >= 2 ** 62:
        return replace(empty, undecided=(
            f"slab_int64_reach:s_max_bits={s_max.bit_length()}",))

    # |x.u_last|/||u_last|| >= bound decides every x in the shell outright
    bound = engine.shell_bound(lo_sq, hi_sq, state.last_index)
    b_up = BallReal.wrap(hi_sq).sqrt().refined_to(96).hi
    e_m = BallReal.wrap(3).sqrt().refined_to(96).hi * b_up * err_max
    # one-time guard: a* is exact, so every non-candidate point of a line
    # has |a - N/d| >= k_near - 1/2 and |x.m| >= (k_near - 1/2) |m_kappa|
    guard_lhs = (Fraction((2 * k_near - 1) * abs(m[kappa]), 2 ** (M_BITS + 1))
                 - e_m)
    if guard_lhs < bound:
        return replace(empty, undecided=("slab_guard_margin",))
    t_int = math.ceil((bound + e_m) * 2 ** M_BITS)

    lines, candidates, fast, failing = _scan_lines(
        m, kappa, k_near, t_int, nsq_lo, nsq_hi)

    violations: List[str] = []
    undecided: List[str] = []
    positivity: List[str] = []
    for coords in failing:
        x = IVec3(*coords)
        if not lo_sq <= x.norm_sq() <= hi_sq:
            raise CertificateFailure("slab_membership", f"{coords} outside the slab")
        ok, prec = engine.certify(x, True, max_prec)
        if ok is False:
            violations.append(f"{coords}")
        elif ok is None:
            undecided.append(f"{coords}:prec={prec}")
        # True puts an anchored lower bound on |x.u| at or above the right
        # side, which is positive (psi > 0, dist_vw_upper adds a radius > 0)
        pos = ok is True or any(
            dot(x, engine.encs[j].rep) != 0
            and x_dot_u_lower(x, engine.encs[j]).refined_to(PAYLOAD_PREC).lo > 0
            for j in engine.order)
        if not pos:
            positivity.append(f"{coords}")

    return replace(empty, lines=lines, candidates=candidates, fast_passed=fast,
                   slow_checked=len(failing), violations=tuple(violations),
                   undecided=tuple(undecided),
                   positivity_failures=tuple(positivity))
