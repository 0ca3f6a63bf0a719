"""Exhaustive certified scan of the lower-bound condition over a norm slab.

For every primitive-or-not integer x with C' <= ||x|| <= min(B, 2 C'),
C' = X2/X1 (no B: the full shell up to 2 C'), the condition under test is

    |x . u|  >=  dist(x, {v, w}) / (psi(||x||) ||x||^gamma).

The right side never exceeds t* = 1/(psi(C') C'^gamma), so a single certified
threshold decides almost every point.  The scan fixes the coordinate kappa
where the direction enclosure is largest, walks all lines in the other two
coordinates, and on each line checks only the 2*K_near - 1 integer points
nearest the plane x . u = 0: a one-time guard certificate shows every other
point on the line clears t* outright.  The per-line test is exact int64
arithmetic against the threshold of verifier.LowerBoundEngine; points that
fail it take the engine's interval path against the true right side.

The kernel, _scan_lines, walks the shell one row of lines (fixed first free
coordinate t1) at a time.  A row is a slice of arrays precomputed once
over t2 in [-b, b], and its candidate offsets are stacked into one int64
array, so membership and the threshold test are one pass each.  Most rows
need no threshold test at all: with e0 = m . x at the selected point, a row
where every |e0| lies in [t_int, |m_kappa| - t_int] passes at every offset,
since |e0 + off m_kappa| >= |m_kappa| - |e0| >= t_int for off != 0.  numpy is
imported inside the kernel, so the commands that never scan a slab start
without it.

Nothing is decided in floating point: float64 only *selects* candidate
points, and the guard certificate absorbs its worst-case selection error.
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
FLOAT_SLOP = Fraction(1, 2 ** 20)  # covers candidate-selection rounding
OFFSET_GROUP = 3  # candidate offsets stacked per pass: 2*2-1 at the default K_near


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


def _scan_lines(t1_lo: int, t1_hi: int, b_int: int, m: Tuple[int, int, int],
                kappa: int, k_near: int, t_int: int, nsq_lo: int, nsq_hi: int
                ) -> Tuple[int, int, int, List[Tuple[int, int, int]]]:
    """Scan lines with first free coordinate in [t1_lo, t1_hi).

    Returns (lines, candidates, fast_passed, failing canonical coords), with
    failing ordered by t1, then offset, then ascending t2.  The lines of one
    t1 form a row, t2 in [-w, w] with w = isqrt(nsq_hi - t1^2) ([0, w] for
    t1 = 0): a slice of t2, t2*m2 and t2^2 computed once per call.  Candidate
    selection a* = rint(-s/m_kappa), s = t1 m1 + t2 m2, uses float64;
    membership and the threshold test are exact in int64, on the row's
    offsets stacked OFFSET_GROUP at a time.  A row whose residuals
    e0 = s + a* m_kappa all lie in [t_int, |m_kappa| - t_int] passes at every
    offset, so only its in-slab points are counted.
    """
    # imported here, the one function that uses numpy: plan, build, report
    # and the non-slab verify modes then start without it
    import numpy as np

    o1, o2 = [c for c in range(3) if c != kappa]
    mk, m1, m2 = m[kappa], m[o1], m[o2]
    t2_all = np.arange(-b_int, b_int + 1, dtype=np.int64)
    t2m2_all = t2_all * m2
    t2sq_all = t2_all * t2_all
    offs = np.arange(-(k_near - 1), k_near, dtype=np.int64)[:, None]
    # each pass holds at most OFFSET_GROUP x row int64 values, whatever k_near
    groups = [offs[g:g + OFFSET_GROUP] for g in range(0, len(offs), OFFSET_GROUP)]
    neg_mk = -float(mk)  # s / -mk is bit-identical to -s / mk
    width = nsq_hi - nsq_lo
    skip_hi = abs(mk) - t_int
    lines = candidates = fast = 0
    failing: List[Tuple[int, int, int]] = []
    for t1 in range(t1_lo, t1_hi):
        w = math.isqrt(nsq_hi - t1 * t1)  # the row's lines: t1^2 + t2^2 <= nsq_hi
        lo, hi = (b_int if t1 == 0 else b_int - w), b_int + w + 1
        lines += hi - lo
        s = t2m2_all[lo:hi] + t1 * m1
        r = t2sq_all[lo:hi] + (t1 * t1 - nsq_lo)  # ||x||^2 - nsq_lo - a^2
        q = np.divide(s, neg_mk)
        a_star = np.rint(q, out=q).astype(np.int64)
        e0 = a_star * mk
        e0 += s
        ae0 = np.abs(e0)
        skip = ae0.min() >= t_int and ae0.max() <= skip_hi
        for off in groups:
            a = a_star + off
            excess = a * a
            excess += r
            # nsq_lo <= ||x||^2 <= nsq_hi as one unsigned compare of the excess
            in_slab = excess.view(np.uint64) <= width
            n_in = int(np.count_nonzero(in_slab))
            candidates += n_in
            if skip:
                fast += n_in
                continue
            low = np.abs(e0 + off * mk) < t_int
            low &= in_slab
            g_at, j_at = np.nonzero(low)  # offset-major, t2 ascending
            fast += n_in - len(g_at)
            for g, j in zip(g_at.tolist(), j_at.tolist()):
                coords = [0, 0, 0]
                coords[kappa] = int(a[g, j])
                coords[o1] = t1
                coords[o2] = lo - b_int + j
                failing.append(_canonical(*coords))
    return lines, candidates, fast, failing


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
    side with escalating anchors and precision.  A shell the int64 path
    cannot reach, or a guard that does not certify, is reported as one
    undecided entry naming the reason, and nothing is scanned.
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
