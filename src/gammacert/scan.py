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
fail it take the engine's interval path against the true right side.

The kernel, _scan_lines, works per row of lines (fixed first free
coordinate t1), not per line.  With d = |m_kappa| and N = -sign(m_kappa)
(t1 m1 + t2 m2), the candidates of a line lie in the band |a - N/d| <=
K_near - 1/2, and N is linear in t2.  Four exact quadratics per row (each
edge of the band against each sphere of the shell) split the row into lines
whose candidates are all in the shell, lines with none in it, and the lines
near the two spheres, which alone are counted point by point.  A point
fails the threshold when N lies within t_int of a multiple of d, so the
failing lines are the hits of a linear sequence modulo d, found one at a
time by a Euclid-style descent.  A row costs its boundary lines plus one
descent per failing line, whatever the direction: about 0.5 M Python steps
for the 9.1 M lines of the toy shell.

Nothing is decided or selected in floating point.  The reach gate keeps
|s| < 2^52, and there a float64 selection rint(-s/m_kappa), as in the tests'
reference kernel, picks the same a* as exact half-even rounding: its
rounding error, below |s/m_kappa| 2^-53 < 1/(2|m_kappa|), is less than the
distance from s/m_kappa to any half-integer it does not equal.  The gate
also bounds the shell, and so the kernel's work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, sqrt_int
from .builder import ConstructionState, x_dot_u_lower
from .errors import CertificateFailure, InputError
from .exact import IVec3, dot
from .verifier import LowerBoundEngine

Rat = Fraction

M_BITS = 40  # fixed-point scale of the integer direction vector
FLOAT_SLOP = Fraction(1, 2 ** 20)  # guard margin below the exact (2 K_near - 1)/2


@dataclass(frozen=True)
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

    @property
    def all_pass(self) -> bool:
        return (not self.violations and not self.undecided
                and not self.positivity_failures)


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


def _band_in_ball(qa: int, g: int, n0: int, e: int, zero: Tuple[int, int],
                  c: int, dd4: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The u-ranges where all of the band of _scan_lines, and where some of
    it, lies in the ball dd4 (u^2 + a^2) <= c; empty ranges have lo > hi.

    All of it lies in the ball where both edges a = (2 N +- e) / 2d do; some
    of it where an edge does, or where the band covers a = 0 (zero) and
    u^2 fits.  Each set is convex, so the hull of those pieces is exact.
    """
    if c < 0:
        return (1, 0), (1, 0)
    los, his = [], []
    for p in (2 * n0 + e, 2 * n0 - e):
        lo, hi = _quad_range(qa, 4 * p * g, p * p - c)
        los.append(lo)
        his.append(hi)
    r = math.isqrt(c // dd4)
    los.append(max(zero[0], -r))
    his.append(min(zero[1], r))
    some = [(lo, hi) for lo, hi in zip(los, his) if lo <= hi]
    return ((max(los[:2]), min(his[:2])),
            (min(s[0] for s in some), max(s[1] for s in some)) if some else (1, 0))


def _first_hit(g: int, d: int, lo: int, hi: int) -> Optional[int]:
    """The least k >= 0 with lo <= g k mod d <= hi (0 <= lo <= hi < d), or
    None; a Euclid-style descent of about log2(d) levels."""
    if lo == 0:
        return 0
    g %= d
    if g == 0:
        return None
    if 2 * g > d:  # (d - g) k mod d = d - g k mod d on the nonzero residues
        g, lo, hi = d - g, d - hi, d - lo
    k = -(-lo // g)
    if g * k <= hi:
        return k
    # no multiple of g lies in [lo, hi]: find the least wrap count y with
    # one in [d y + lo, d y + hi], i.e. -d y mod g in [lo mod g, hi mod g]
    y = _first_hit(-d % g, g, lo % g, hi % g)
    return None if y is None else -(-(d * y + lo) // g)


def _scan_lines(t1_lo: int, t1_hi: int, b_int: int, m: Tuple[int, int, int],
                kappa: int, k_near: int, t_int: int, nsq_lo: int, nsq_hi: int
                ) -> Tuple[int, int, int, List[Tuple[int, int, int]]]:
    """Scan lines with first free coordinate in [t1_lo, t1_hi).

    Returns (lines, candidates, fast_passed, failing canonical coords), with
    failing ordered by t1, then offset a - a*, then ascending t2.  The lines
    of one t1 form a row, t2 in [-w, w] with w = min(b_int, isqrt(nsq_hi -
    t1^2)) ([0, w] for t1 = 0).  On the line (t1, t2) the candidates are
    a = a* + off, |off| < k_near, with a* = round-half-even(N/d), d = |m_kappa|
    and N = -sign(m_kappa) (t1 m1 + t2 m2), so m.x = sign(m_kappa) (a d - N).

    Every candidate lies in the band |a - N/d| <= k_near - 1/2.  Per row,
    four exact quadratics (each edge of the band against each sphere) and
    one linear range (the band covering a = 0) give the t2-ranges where the
    whole band is inside the shell, where none of it is, and the rest, near
    the two spheres; lines of the first kind count 2 k_near - 1 candidates,
    of the second none, and only the rest are counted point by point.  A
    failing point has N within t_int of a multiple of d, and N is linear in
    t2, so the failing lines are found one at a time by _first_hit.  A row
    costs its boundary lines plus one descent per failing line, whatever
    the direction of m.
    """
    o1, o2 = [c for c in range(3) if c != kappa]
    mk, m1, m2 = m[kappa], m[o1], m[o2]
    d = abs(mk)
    sgn = 1 if mk > 0 else -1
    # walk u = flip t2, along which N = n0 + g u is nondecreasing
    flip = 1 if sgn * m2 <= 0 else -1
    g = abs(m2)
    k1 = k_near - 1
    span = 2 * k1 + 1  # candidates per line
    e = span * d  # 2 d (k_near - 1/2): the band's half-width, scaled by 2 d
    qa, dd4 = 4 * (g * g + d * d), 4 * d * d
    lines = candidates = 0
    failing: List[Tuple[int, int, int]] = []
    for t1 in range(t1_lo, t1_hi):
        rest_hi = nsq_hi - t1 * t1
        rest_lo = nsq_lo - t1 * t1
        w = min(b_int, math.isqrt(rest_hi))
        t2_lo = 0 if t1 == 0 else -w
        lines += w - t2_lo + 1
        u0, u1 = (t2_lo, w) if flip == 1 else (-w, -t2_lo)
        n0 = -sgn * t1 * m1
        # the band covers a = 0 where |2 N| <= e
        if g:
            zero = (-((e + 2 * n0) // (2 * g)), (e - 2 * n0) // (2 * g))
        else:
            zero = (u0, u1) if abs(2 * n0) <= e else (1, 0)
        # all of the band is inside the outer sphere on in_hi, some of it on
        # some_hi; some of it strictly inside the inner one on some_lo, all
        # of it on in_lo
        in_hi, some_hi = _band_in_ball(qa, g, n0, e, zero, dd4 * rest_hi, dd4)
        in_lo, some_lo = _band_in_ball(qa, g, n0, e, zero, dd4 * rest_lo - 1,
                                       dd4)
        # full lines: in_hi minus some_lo
        f_lo, f_hi = max(in_hi[0], u0), min(in_hi[1], u1)
        if f_lo <= f_hi:
            candidates += span * (f_hi - f_lo + 1)
            c_lo, c_hi = max(f_lo, some_lo[0]), min(f_hi, some_lo[1])
            if c_lo <= c_hi:
                candidates -= span * (c_hi - c_lo + 1)
        # boundary lines: some_hi minus in_hi, and some_lo minus in_lo
        parts = []
        for big, small in ((some_hi, in_hi), (some_lo, in_lo)):
            if big[0] > big[1]:
                continue
            if small[0] > small[1]:
                parts.append(big)
            else:
                parts += [(big[0], small[0] - 1), (small[1] + 1, big[1])]
        parts = sorted((max(lo, u0), min(hi, u1)) for lo, hi in parts)
        u_next = u0
        for lo, hi in parts:
            for u in range(max(lo, u_next), hi + 1):
                a_s = _round_half_even(n0 + g * u, d)
                rest = t1 * t1 + u * u
                for a in range(a_s - k1, a_s + k1 + 1):
                    if nsq_lo <= rest + a * a <= nsq_hi:
                        candidates += 1
            u_next = max(u_next, hi + 1)
        if t_int <= 0:
            continue
        # failing lines: (N + t_int - 1) mod d <= 2 t_int - 2
        row: List[Tuple[int, int, int]] = []
        win = 2 * t_int - 2
        u, u_end = max(u0, some_hi[0]), min(u1, some_hi[1])
        while u <= u_end:
            b = (n0 + t_int - 1 + g * u) % d
            k = 0 if b <= win else _first_hit(g, d, d - b, d - b + win)
            if k is None:
                break
            u += k
            if u > u_end:
                break
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
    side with escalating anchors and precision.  A shell past the reach gate,
    or a guard that does not certify, is reported as one undecided entry
    naming the reason, and nothing is scanned.
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
    b_int = math.isqrt(nsq_hi)
    o1, o2 = [c for c in range(3) if c != kappa]
    s_max = b_int * (abs(m[o1]) + abs(m[o2]))
    k_max = s_max // max(abs(m[kappa]), 1) + k_near + 2
    if s_max >= 2 ** 52 or s_max + k_max * abs(m[kappa]) >= 2 ** 62:
        return replace(empty, undecided=(
            f"slab_int64_reach:s_max_bits={s_max.bit_length()}",))

    # |x.u_last|/||u_last|| >= bound decides every x in the shell outright
    bound = engine.shell_bound(lo_sq, hi_sq, state.last_index)
    b_up = BallReal.wrap(hi_sq).sqrt().refined_to(96).hi
    e_m = BallReal.wrap(3).sqrt().refined_to(96).hi * b_up * err_max
    # one-time guard: every non-candidate point on any line clears the bound
    guard_lhs = ((Fraction(2 * k_near - 1, 2) - FLOAT_SLOP)
                 * Fraction(abs(m[kappa]), 2 ** M_BITS) - e_m)
    if guard_lhs < bound:
        return replace(empty, undecided=("slab_guard_margin",))
    t_int = math.ceil((bound + e_m) * 2 ** M_BITS)

    lines, candidates, fast, failing = _scan_lines(
        0, b_int + 1, b_int, m, kappa, k_near, t_int, nsq_lo, nsq_hi)

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
