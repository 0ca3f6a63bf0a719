"""Exhaustive certified scan of the lower-bound condition over a norm slab.

For every primitive-or-not integer x with C' <= ||x|| <= min(B, 2 C'),
C' = X2/X1, the condition under test is

    |x . u|  >=  dist(x, {v, w}) / (psi(||x||) ||x||^gamma).

The right side never exceeds t* = 1/(psi(C') C'^gamma), so a single certified
threshold decides almost every point.  The scan fixes the coordinate kappa
where the direction enclosure is largest, walks all lines in the other two
coordinates, and on each line checks only the 2*K_near - 1 integer points
nearest the plane x . u = 0: a one-time guard certificate shows every other
point on the line clears t* outright.  The per-line test is exact int64
arithmetic against a precomputed integer threshold; points that fail it fall
through to a full interval-certified check against the true right side.

Nothing is decided in floating point: float64 only *selects* candidate
points, and the guard certificate absorbs its worst-case selection error.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple

import numpy as np

from .balls import BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, sqrt_int
from .builder import ConstructionState, enclose_u, enclose_vw, x_dot_u_lower
from .errors import CertificateFailure, InputError, UndecidedError
from .exact import IVec3, dot
from .planner import PsiSpec
from .verifier import (_anchor_order, _certify_at_least, dist_vw_upper,
                       starred_ledger_audit)

Rat = Fraction

M_BITS = 40  # fixed-point scale of the integer direction vector
FLOAT_SLOP = Fraction(1, 2 ** 20)  # covers candidate-selection rounding


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
    wall_time_s: float
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


def _ceil_frac(fr: Rat) -> int:
    return -((-fr.numerator) // fr.denominator)


def _scan_lines(t1_lo: int, t1_hi: int, b_int: int, m: Tuple[int, int, int],
                kappa: int, k_near: int, t_int: int, nsq_lo: int, nsq_hi: int
                ) -> Tuple[int, int, int, List[Tuple[int, int, int]]]:
    """Scan lines with first free coordinate in [t1_lo, t1_hi).

    Returns (lines, candidates, fast_passed, failing canonical coords).
    Candidate selection uses float64; membership, dedup and the threshold
    test are exact in int64.
    """
    o1, o2 = [c for c in range(3) if c != kappa]
    mk, m1, m2 = m[kappa], m[o1], m[o2]
    offs = list(range(-(k_near - 1), k_near))
    lines = candidates = fast = 0
    failing: List[Tuple[int, int, int]] = []
    hi_line = nsq_hi  # a line can host slab points only if t1^2+t2^2 <= hi
    for t1 in range(t1_lo, t1_hi):
        t2_lo = 0 if t1 == 0 else -b_int
        t2 = np.arange(t2_lo, b_int + 1, dtype=np.int64)
        t2 = t2[t1 * t1 + t2 * t2 <= hi_line]
        if t2.size == 0:
            continue
        lines += int(t2.size)
        s = t1 * m1 + t2 * m2
        a_star = np.rint(-(s.astype(np.float64)) / float(mk)).astype(np.int64)
        for off in offs:
            a = a_star + off
            nsq = a * a + t1 * t1 + t2 * t2
            in_slab = (nsq >= nsq_lo) & (nsq <= nsq_hi)
            if not in_slab.any():
                continue
            av, t2v, sv = a[in_slab], t2[in_slab], s[in_slab]
            dotm = np.abs(sv + av * mk)
            ok = dotm >= t_int
            candidates += int(av.size)
            fast += int(np.count_nonzero(ok))
            for j in np.nonzero(~ok)[0]:
                coords = [0, 0, 0]
                coords[kappa] = int(av[j])
                coords[o1] = t1
                coords[o2] = int(t2v[j])
                failing.append(_canonical(*coords))
    return lines, candidates, fast, failing


def _direction_fixed_point(enc, prec: int = 128
                           ) -> Tuple[Tuple[int, int, int], int, Rat]:
    """Integer vector m ~ 2^M_BITS * rep/||rep|| with exact coordinate error.

    Returns (m, kappa, err_max) with kappa = argmax |m_c| and err_max an
    exact upper bound on max_c |m_c/2^M_BITS - rep_c/||rep|||.
    """
    norm = sqrt_int(enc.rep.norm_sq()).refined_to(prec)
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


def slab_scan_iv(state: ConstructionState, b, psi: Optional[PsiSpec] = None,
                 k_near: int = 2, threads: int = 1,
                 max_prec: int = DEFAULT_MAX_PREC,
                 _range_override: Optional[Tuple[Rat, Rat]] = None
                 ) -> ScanReport:
    """Certify the lower-bound condition for every x with C' <= ||x|| <= B.

    The scanned shell is capped at 2 C' (one doubling of the entry norm,
    inside the second growth window); a larger B only widens work, never the
    claim.  B < C' means the condition is vacuous at this size and the scan
    reports below_threshold instead of scanning.

    Candidate coverage is exhaustive: per line only the k_near-nearest
    integer points to the direction plane can fall under the certified
    threshold (guard certificate); each of those is tested exactly, and
    survivors of the integer test are re-certified against the true right
    side with escalating anchors and precision.  skipped_clauses names the
    size-threshold audit clauses this run fails, for disclosure; the scan's
    own certificates do not depend on them.
    """
    t_start = time.monotonic()
    plan = state.plan
    if psi is None:
        psi = plan.psi
    if k_near < 1:
        raise InputError("k_near must be at least 1")
    if threads < 1:
        raise InputError("threads must be at least 1")
    b = Fraction(b)
    if b <= 0:
        raise InputError("scan bound must be positive")
    x1sq = Fraction(plan.x1_sq)
    cprime_sq = state.scale(2).sq / x1sq
    audit = starred_ledger_audit(state, max_prec=max_prec)
    skipped = audit.failures
    if _range_override is not None:
        lo_sq, hi_sq = (Fraction(v) for v in _range_override)
    else:
        if b * b < cprime_sq:
            return ScanReport(range_lo_sq=cprime_sq, range_hi_sq=b * b,
                              lines=0, candidates=0, fast_passed=0,
                              slow_checked=0, violations=(), undecided=(),
                              positivity_failures=(), below_threshold=True,
                              window_index=2, used_clauses=(),
                              skipped_clauses=skipped,
                              wall_time_s=time.monotonic() - t_start,
                              threads=threads)
        lo_sq, hi_sq = cprime_sq, min(b * b, 4 * cprime_sq)
    if not 0 < lo_sq <= hi_sq:
        raise InputError("empty or invalid scan range")

    gamma = BallReal.golden()
    lo_ball = BallReal.wrap(lo_sq).sqrt()
    thr = (1 / (psi.at(lo_ball) * lo_ball.pow(gamma))).refined_to(128)
    thr_up = thr.hi

    enc = enclose_u(state, state.last_index)
    m, kappa, err_max = _direction_fixed_point(enc)
    b_up = BallReal.wrap(hi_sq).sqrt().refined_to(96).hi
    e_m = BallReal.wrap(3).sqrt().refined_to(96).hi * b_up * err_max
    e_u = 2 * b_up * BallReal.wrap(Fraction(enc.radius_sq_ub)).sqrt().refined_to(96).hi

    # one-time guard: every non-candidate point on any line clears thr_up
    guard_lhs = ((Fraction(2 * k_near - 1, 2) - FLOAT_SLOP)
                 * Fraction(abs(m[kappa]), 2 ** M_BITS) - e_m - e_u)
    if guard_lhs < thr_up:
        raise UndecidedError("slab_guard_margin", 0)
    t_int = _ceil_frac((thr_up + e_m + e_u) * 2 ** M_BITS)

    nsq_lo, nsq_hi = _ceil_frac(lo_sq), int(hi_sq.numerator // hi_sq.denominator)
    b_int = isqrt(nsq_hi)
    o1, o2 = [c for c in range(3) if c != kappa]
    s_max = b_int * (abs(m[o1]) + abs(m[o2]))
    k_max = s_max // max(abs(m[kappa]), 1) + k_near + 2
    if s_max >= 2 ** 52 or s_max + k_max * abs(m[kappa]) >= 2 ** 62:
        raise InputError("scan bound too large for the int64 fast path")

    args = (b_int, m, kappa, k_near, t_int, nsq_lo, nsq_hi)
    lines = candidates = fast = 0
    failing: List[Tuple[int, int, int]] = []
    if threads == 1:
        lines, candidates, fast, failing = _scan_lines(0, b_int + 1, *args)
    else:
        chunk = max(1, (b_int + 1) // (4 * threads))
        spans = [(t, min(t + chunk, b_int + 1)) for t in range(0, b_int + 1, chunk)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_scan_lines, lo, hi, *args) for lo, hi in spans]
            for fut in futures:  # submission order keeps the merge deterministic
                ln, cd, fs, fl = fut.result()
                lines += ln
                candidates += cd
                fast += fs
                failing.extend(fl)

    encs = {j: enclose_u(state, j) for j in range(1, state.last_index + 1)}
    order = _anchor_order(2, state.last_index)
    venc = enclose_vw(state, "V")
    wenc = enclose_vw(state, "W")
    violations: List[str] = []
    undecided: List[str] = []
    positivity: List[str] = []
    for coords in failing:
        x = IVec3(*coords)
        nsq = Fraction(x.norm_sq())
        if not lo_sq <= nsq <= hi_sq:
            raise CertificateFailure("slab_membership", f"{coords} outside the slab")
        nx = BallReal.wrap(nsq).sqrt()
        rhs = dist_vw_upper(x, venc, wenc) / (psi.at(nx) * nx.pow(gamma))
        ok, _, prec = _certify_at_least(state, x, rhs, encs, order, max_prec)
        if ok is False:
            violations.append(f"{coords}")
        elif ok is None:
            undecided.append(f"{coords}:prec={prec}")
        pos = any(dot(x, encs[j].rep) != 0
                  and x_dot_u_lower(x, encs[j]).refined_to(PAYLOAD_PREC).lo > 0
                  for j in order)
        if not pos:
            positivity.append(f"{coords}")

    return ScanReport(range_lo_sq=lo_sq, range_hi_sq=hi_sq, lines=lines,
                      candidates=candidates, fast_passed=fast,
                      slow_checked=len(failing), violations=tuple(violations),
                      undecided=tuple(undecided),
                      positivity_failures=tuple(positivity),
                      below_threshold=False, window_index=2, used_clauses=(),
                      skipped_clauses=skipped,
                      wall_time_s=time.monotonic() - t_start, threads=threads)
