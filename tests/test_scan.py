"""Slab scan: frozen counts, brute-force exhaustiveness, guard behavior."""

import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from gammacert import (BallReal, CertificateFailure, InputError, scan, slab_scan_iv,
                       sqrt_int)
from gammacert.builder import enclose_u, x_dot_u_lower
from gammacert.exact import IVec3
from gammacert.planner import PsiSpec
from gammacert.verifier import LowerBoundEngine
from gammacert.scan import (
    M_BITS,
    _canonical,
    _direction_fixed_point,
    _first_hit,
    _quad_range,
    _row_in_ball,
    _scan_lines,
)

import references as ref
from conftest import TOY, build_run

TOY_AUDIT_FAILURES = (
    "q_below_qn", "mid_norm_margin", "mid_norm_const", "plane_const",
    "scale_floor", "contraction_seed", "axis_const_i1",
)


def test_full_scan_frozen_counts(toy_scan):
    r = toy_scan
    assert r.range_lo_sq == F(2 ** 28, 186)
    assert r.range_hi_sq == F(2 ** 30, 186)  # capped at (2 C')^2 < B^2
    assert (r.lines, r.candidates) == (9067865, 19841341)
    assert (r.fast_passed, r.slow_checked) == (19841253, 88)
    assert r.fast_passed + r.slow_checked == r.candidates
    assert r.violations == () and r.undecided == () and r.positivity_failures == ()
    assert not r.below_threshold
    assert r.window_index == 2 and r.threads == 1
    assert r.used_clauses == ()
    assert r.skipped_clauses == TOY_AUDIT_FAILURES


def test_default_bound_scans_capped_shell(toy_state, toy_scan):
    # b=None scans [C', 2 C'] itself, as a bound at or above 2 C' does
    r = slab_scan_iv(toy_state, skipped_clauses=toy_scan.skipped_clauses)
    for field in ("range_lo_sq", "range_hi_sq", "lines", "candidates",
                  "fast_passed", "slow_checked", "violations", "undecided",
                  "positivity_failures", "below_threshold", "skipped_clauses"):
        assert getattr(r, field) == getattr(toy_scan, field)


def test_largest_command_shell_frozen_counts():
    # verify --mode slab --toy --theta 1/2 scans the largest shell any
    # command reaches today: norms up to 27,527 and about 130 times the toy
    # shell's lines, too many for the per-line numpy reference in tier-1
    state = build_run(dict(TOY, delta=F(1, 2), theta=F(1, 2)), toy=True)
    r = slab_scan_iv(state, skipped_clauses=())
    assert r.range_lo_sq == F(2 ** 38, 1451)
    assert r.range_hi_sq == F(2 ** 40, 1451)
    assert math.isqrt(math.floor(r.range_hi_sq)) == 27527
    assert (r.lines, r.candidates) == (1190288743, 2662115959)
    assert (r.fast_passed, r.slow_checked) == (2662115598, 361)
    assert r.violations == () and r.undecided == () and r.positivity_failures == ()


def reference_scan_lines(m, kappa, k_near, t_int, nsq_lo, nsq_hi):
    """Per-line numpy kernel: float64 rint selection of a*, one arange and
    mask per line, one pass per offset.  Inside the reach gate (|s| < 2^52)
    its selection is exact half-even rounding, so _scan_lines must return
    the same tuple."""
    o1, o2 = [c for c in range(3) if c != kappa]
    mk, m1, m2 = m[kappa], m[o1], m[o2]
    offs = list(range(-(k_near - 1), k_near))
    b_int = math.isqrt(nsq_hi)
    lines = candidates = fast = 0
    failing = []
    for t1 in range(b_int + 1):
        t2_lo = 0 if t1 == 0 else -b_int
        t2 = np.arange(t2_lo, b_int + 1, dtype=np.int64)
        t2 = t2[t1 * t1 + t2 * t2 <= nsq_hi]
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
            ok = np.abs(sv + av * mk) >= t_int
            candidates += int(av.size)
            fast += int(np.count_nonzero(ok))
            for j in np.nonzero(~ok)[0]:
                coords = [0, 0, 0]
                coords[kappa] = int(av[j])
                coords[o1] = t1
                coords[o2] = int(t2v[j])
                failing.append(_canonical(*coords))
    return lines, candidates, fast, failing


def _recorded_toy_scan(monkeypatch, state, k_near, b=2403):
    """Run the toy slab scan and return its report and the kernel's
    (arguments, result) of its one call."""
    calls = []

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    real = scan._scan_lines
    monkeypatch.setattr(scan, "_scan_lines", recording)
    report = slab_scan_iv(state, b, skipped_clauses=(), k_near=k_near)
    (call,) = calls
    return report, call


@pytest.mark.parametrize("k_near", [2, 3])
def test_kernel_matches_reference_on_toy_shell(monkeypatch, toy_state, k_near):
    # same counts and the same failing points in the same order, at the
    # default k_near and with five candidates per line
    report, (args, got) = _recorded_toy_scan(monkeypatch, toy_state, k_near)
    assert args[2] == k_near
    assert got == reference_scan_lines(*args)
    assert (report.lines, report.slow_checked) == (9067865, 88)
    assert report.violations == report.undecided == report.positivity_failures == ()
    if k_near == 2:
        assert report.candidates == 19841341


def _synthetic_cases():
    """Small whole-shell kernel inputs: every kappa, both signs of m[kappa],
    k_near 1-3, and t_int tiny (few lines fail) or above |m_kappa|/2 (every
    line does).  The inner radius is at least 1, as in every scan: the
    origin has no canonical sign."""
    rng = random.Random(11)
    cases = []
    for kappa in (0, 1, 2):
        for k_near in (1, 2, 3):
            for sign in (1, -1):
                mk = sign * rng.randrange(50, 5000)
                m = [rng.randrange(-abs(mk), abs(mk) + 1) for _ in range(3)]
                m[kappa] = mk
                nsq_hi = rng.randrange(40, 700)
                nsq_lo = rng.randrange(1, nsq_hi)
                for t_int in (rng.randrange(1, abs(mk) // 100 + 2),
                              rng.randrange(abs(mk) // 2 + 1, abs(mk) + 2)):
                    cases.append((tuple(m), kappa, k_near, t_int, nsq_lo,
                                  nsq_hi))
    return cases + _edge_cases()


def _edge_cases():
    """Exact half ties (even m_kappa, 2 s an odd multiple of m_kappa: a*
    rounds to even), m[o2] = 0 and negative m[o2], on every kappa and both
    signs of m_kappa; t_int = |m_kappa|/2 + 1 puts the tie points below the
    threshold."""
    cases = []
    for kappa in (0, 1, 2):
        for j, (mk, m1, m2) in enumerate(((6, 3, 2), (6, 3, -2), (4, 2, 0),
                                          (4, 0, 2), (10, -5, 5),
                                          (1000, 37, -3))):
            for sign in (1, -1):
                m = [m1, m2]
                m.insert(kappa, sign * mk)
                cases.append((tuple(m), kappa, 1 + j % 3,
                              mk // 2 + 1 if sign > 0 else 1, 20, 130))
    return cases


@pytest.mark.parametrize("args", _synthetic_cases())
def test_kernel_matches_reference_synthetic(args):
    assert _scan_lines(*args) == reference_scan_lines(*args)


def test_kernel_matches_reference_on_every_small_shell():
    # at an exact tie the band's edge is a candidate, so a sphere through
    # such a point decides whether it is counted: sweep the inner and outer
    # radii over every small value for directions full of ties
    for m in ((4, 2, 0), (4, 2, 2), (6, -3, 3), (-8, 4, 2)):
        for k_near in (1, 2):
            for nsq_lo in range(1, 60):
                for nsq_hi in range(nsq_lo, nsq_lo + 60, 11):
                    args = (m, 0, k_near, 3, nsq_lo, nsq_hi)
                    assert _scan_lines(*args) == reference_scan_lines(*args)


class _OverBudget(Exception):
    pass


def _kernel_steps(args, budget):
    """Python lines that _scan_lines(*args) and its helpers in scan run,
    counted by a trace function that gives up past budget."""
    steps = 0

    def tracer(frame, event, arg):
        nonlocal steps
        if frame.f_globals is not vars(scan):
            return None
        if event == "line":
            steps += 1
            if steps > budget:
                raise _OverBudget
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        _scan_lines(*args)
    except _OverBudget:
        pass
    finally:
        sys.settrace(outer)
    return steps


@pytest.mark.parametrize("x0, kappa, counts", [
    ((0, 0, 1), 0, (9067865, 19841341, 88)),
    ((1, 0, 0), 1, (9067865, 19841341, 88)),
    ((1, 1, 1), 0, (13824859, 23884961, 134)),
])
def test_kernel_work_is_independent_of_the_direction(monkeypatch, x0, kappa,
                                                     counts):
    # at x0 = (0, 0, 1) the toy's |m_o2/m_kappa| is below 1/300; at
    # (1, 0, 0) the small coordinate of m is o1, and at (1, 1, 1) m has none
    # (0.195).  The kernel agrees with the reference on each, and runs fewer
    # Python lines than an eighth of the shell's lines (about a twentieth
    # on all three), where a walk over the candidate values of each row
    # runs more than three per line at (1, 0, 0)
    state = build_run(dict(TOY, x0=IVec3(*x0)), toy=True)
    report, (args, got) = _recorded_toy_scan(monkeypatch, state, 2, b=None)
    assert args[1] == kappa
    assert got == reference_scan_lines(*args)
    assert (report.lines, report.candidates, report.slow_checked) == counts
    assert report.violations == report.undecided == report.positivity_failures == ()
    assert _kernel_steps(args, report.lines // 8) <= report.lines // 8


def test_quad_range_matches_brute_force():
    # qa (u - r1)(u - r2) + nudge: with qa near 2^90 a nudge of one moves
    # the roots by about 2^-90, which decides whether r1 and r2 belong
    rng = random.Random(5)
    for _ in range(600):
        qa = rng.randrange(1, 2 ** rng.choice([3, 40, 90]))
        r1 = rng.randrange(-40, 40)
        r2 = r1 + rng.randrange(0, 12)
        nudge = rng.choice([0, 1, -1, rng.randrange(-qa, qa + 1)])
        qb, qc = -qa * (r1 + r2), qa * r1 * r2 + nudge
        lo, hi = _quad_range(qa, qb, qc)
        inside = [u for u in range(r1 - 20, r2 + 21)
                  if (qa * u + qb) * u + qc <= 0]
        if inside:
            assert (lo, hi) == (inside[0], inside[-1])
        else:
            assert lo > hi


def test_first_hit_matches_brute_force():
    for d in range(1, 14):
        for g in range(-d, 2 * d):
            for lo in range(d):
                for hi in range(lo, d):
                    want = next((k for k in range(d)
                                 if lo <= g * k % d <= hi), None)
                    assert _first_hit(g, d, lo, hi) == want


def test_first_hit_matches_the_recursive_descent():
    # random residue windows up to 2^120, with lo = 0, g = 0 mod d, 2 g > d
    # and d = 1 drawn on purpose, against the recursion the loop replaced
    rng = random.Random(11)
    for case in range(4000):
        d = 1 if case % 10 == 0 else rng.randrange(1, 2 ** rng.choice([4, 20, 64, 120]))
        pick = case % 5
        g = (d * rng.randrange(-3, 4) if pick == 1
             else d - rng.randrange(0, (d + 1) // 2) if pick == 2
             else rng.randrange(-3 * d, 3 * d))
        lo = 0 if pick == 3 else rng.randrange(d)
        hi = rng.randrange(lo, min(d, lo + 1 + d // rng.choice([1, 7, 1000])))
        assert _first_hit(g, d, lo, hi) == ref.first_hit(g, d, lo, hi)


@pytest.mark.parametrize("d, g, m1", [
    (4, 2, 2), (4, 0, 2), (4, 0, 3), (6, 3, -3), (8, 4, 1), (5, 2, -7),
    (1000, 37, -3),
])
def test_row_in_ball_matches_brute_force(d, g, m1):
    # every row of every shell up to norm^2 40, in both walking halves of
    # the t1 = 0 row, against every ball from rest = -2 up to the row's
    # own: g = 0, bands straddling a = 0 (small n0 + g u) and, for even d,
    # exact half ties (n0 + g u an odd multiple of d/2); the count and both
    # ranges equal those of the list-of-pieces reference
    qa = 4 * (g * g + d * d)
    for k1 in (0, 1, 2):
        e = (2 * k1 + 1) * d
        for nsq in range(41):
            for t1 in range(math.isqrt(nsq) + 1):
                w = math.isqrt(nsq - t1 * t1)
                n0 = t1 * m1
                near = {u: round(F(n0 + g * u, d)) for u in range(-w, w + 1)}
                for u0, u1 in ((-w, w), (0, w), (-w, 0)):
                    covers = [u for u in range(u0, u1 + 1)
                              if abs(2 * (n0 + g * u)) <= e]
                    zero = (covers[0], covers[-1]) if covers else (1, 0)
                    for rest in range(-2, nsq - t1 * t1 + 1):
                        args = (qa, g, d, n0, e, k1, zero, u0, u1, rest)
                        got = _row_in_ball(*args)
                        assert got == ref.row_in_ball(*args)
                        count, (lo, hi), (w_lo, w_hi) = got
                        hits = [u for u in range(u0, u1 + 1)
                                for a in range(near[u] - k1, near[u] + k1 + 1)
                                if u * u + a * a <= rest]
                        assert count == len(hits)
                        assert all(lo <= u <= hi for u in hits)
                        # whole is a subrange of some, empty as lo = hi + 1,
                        # whose lines have every candidate in the ball
                        assert lo <= w_lo <= w_hi + 1 <= hi + 1 or (
                            w_lo == w_hi + 1 and lo > hi)
                        assert all(hits.count(u) == 2 * k1 + 1
                                   for u in range(w_lo, w_hi + 1))


# Past the reach gate a float64 selection can miss the nearest integer:
# with K = 2^53, m_kappa = 2K and s = (2j+1) K + 1 (j even, |s| >= 2^53),
# fl(s) drops the +1 and rint breaks the tie the wrong way, so the float
# reference scans another candidate window on row t1 = 1 and counts
# (159, 177, 118) where the exact kernel counts (159, 178, 119).  The kernel
# must still surface every threshold failure of the shell, among them the
# nearest points on row t1 = 1, where |m.x| = K - 1 < t_int.
K53 = 2 ** 53


@pytest.mark.parametrize("kappa", [0, 1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_exact_when_selection_misses(kappa, sign):
    m = [-3 * K53 + 1, 4 * K53]
    m.insert(kappa, sign * 2 * K53)
    args = (tuple(m), kappa, 2, K53, 1, 100)
    got = _scan_lines(*args)
    brute = {_canonical(*p) for p in itertools.product(range(-10, 11), repeat=3)
             if 1 <= sum(c * c for c in p) <= 100
             and abs(sum(c * mc for c, mc in zip(p, m))) < K53}
    assert sorted(got[3]) == sorted(brute)
    o1 = min(c for c in range(3) if c != kappa)
    assert any(abs(p[o1]) == 1 for p in got[3])


def _threshold_ints(state, psi, lo_sq, hi_sq, k_near):
    """Recompute (m, kappa, t_int) with the scan's own guard algebra."""
    gamma = BallReal.golden()
    lo_ball = BallReal.wrap(F(lo_sq)).sqrt()
    thr_up = (1 / (psi.at(lo_ball) * lo_ball.pow(gamma))).refined_to(128).hi
    enc = enclose_u(state, state.last_index)
    m, kappa, err_max = _direction_fixed_point(enc)
    b_up = BallReal.wrap(F(hi_sq)).sqrt().refined_to(96).hi
    e_m = BallReal.wrap(3).sqrt().refined_to(96).hi * b_up * err_max
    e_u = 2 * b_up * BallReal.wrap(F(enc.radius_sq_ub)).sqrt().refined_to(96).hi
    guard = F((2 * k_near - 1) * abs(m[kappa]), 2 ** (M_BITS + 1)) - e_m - e_u
    assert guard >= thr_up
    # the shared engine's shell bound is exactly the scan's threshold plus slack
    engine = LowerBoundEngine(state, 2, psi.at)
    assert engine.shell_bound(F(lo_sq), F(hi_sq), state.last_index) == thr_up + e_u
    return m, kappa, math.ceil((thr_up + e_m + e_u) * 2 ** M_BITS)


def test_line_enumeration_is_exhaustive(toy_state):
    # every integer point of the shell that fails the integer threshold must
    # be surfaced by the line walk; compare against a full numpy sweep
    lo_sq, hi_sq = 25, 225
    m, kappa, t_int = _threshold_ints(toy_state, toy_state.plan.psi,
                                      lo_sq, hi_sq, k_near=2)
    _, _, _, failing = _scan_lines(m, kappa, 2, t_int, lo_sq, hi_sq)

    axis = np.arange(-15, 16, dtype=np.int64)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    nsq = (pts * pts).sum(axis=1)
    pts = pts[(nsq >= lo_sq) & (nsq <= hi_sq)]
    shell = {_canonical(*map(int, p)) for p in pts}
    assert len(shell) == 6831
    brute = {p for p in shell
             if abs(p[0] * m[0] + p[1] * m[1] + p[2] * m[2]) < t_int}
    assert set(failing) == brute
    assert len(brute) == 6


def test_slow_path_is_the_x1_ray(toy_state):
    # the six threshold failures in [5, 15] are exactly the x1 multiples
    lo_sq, hi_sq = 25, 225
    m, kappa, t_int = _threshold_ints(toy_state, toy_state.plan.psi,
                                      lo_sq, hi_sq, k_near=2)
    _, _, _, failing = _scan_lines(m, kappa, 2, t_int, lo_sq, hi_sq)
    x1 = toy_state.plan.x1.as_tuple()
    expect = set()
    r = 1
    while 186 * r * r <= hi_sq:
        if 186 * r * r >= lo_sq:
            expect.add(_canonical(*(r * c for c in x1)))
        r += 1
    assert expect <= set(failing)


def _positivity_calls(monkeypatch, toy_state, skipped):
    """Scan the toy slab, counting the scan's own positivity evaluations."""
    calls = []

    def counted(x, enc):
        calls.append(x)
        return x_dot_u_lower(x, enc)

    monkeypatch.setattr(scan, "x_dot_u_lower", counted)
    return slab_scan_iv(toy_state, 2403, skipped_clauses=skipped), calls


def test_certified_points_take_positivity_from_the_certificate(
        monkeypatch, toy_state, toy_scan):
    r, calls = _positivity_calls(monkeypatch, toy_state, toy_scan.skipped_clauses)
    assert r == toy_scan and r.slow_checked == 88
    assert calls == []


def test_undecided_points_still_get_positivity_checked(
        monkeypatch, toy_state, toy_scan):
    monkeypatch.setattr(LowerBoundEngine, "certify",
                        lambda self, x, lattice, max_prec: (None, 64))
    r, calls = _positivity_calls(monkeypatch, toy_state, toy_scan.skipped_clauses)
    assert len(r.undecided) == 88 and r.violations == ()
    # every undecided point, and only those, had its positivity evaluated
    assert {f"{x.as_tuple()}:prec=64" for x in calls} == set(r.undecided)
    assert r.positivity_failures == ()


def test_below_threshold(toy_state):
    r = slab_scan_iv(toy_state, 1000, skipped_clauses=TOY_AUDIT_FAILURES)
    assert r.below_threshold and r.lines == 0 and r.candidates == 0
    assert r.range_hi_sq == F(10 ** 6) < r.range_lo_sq
    assert r.skipped_clauses == TOY_AUDIT_FAILURES
    assert r.violations == r.undecided == r.positivity_failures == ()


def test_guard_margin_failure(toy_state):
    # a tiny psi inflates the threshold past what the guard can certify: the
    # scan records that as undecided instead of scanning
    plan = dataclasses.replace(toy_state.plan, psi=PsiSpec(F(1, 10 ** 12), 1))
    r = slab_scan_iv(dataclasses.replace(toy_state, plan=plan), 2403,
                     skipped_clauses=())
    assert r.undecided == ("slab_guard_margin",)
    assert (r.lines, r.candidates) == (0, 0) and not r.below_threshold


def test_guard_holds_at_exact_equality(monkeypatch, toy_state):
    # a* is exact, so the guard needs (k_near - 1/2) |m_kappa| / 2^M_BITS
    # - e_m >= bound and nothing more: a bound equal to it scans (every
    # candidate then falls below t_int and takes the slow path), one
    # rational step above it does not
    engine = LowerBoundEngine(toy_state, 2, toy_state.plan.psi.at)
    m, kappa, err_max = _direction_fixed_point(
        engine.encs[toy_state.last_index])
    b = F(1202)  # C' = (2^28/186)^(1/2) is about 1201.3
    b_up = BallReal.wrap(b * b).sqrt().refined_to(96).hi
    e_m = BallReal.wrap(3).sqrt().refined_to(96).hi * b_up * err_max
    edge = F(3 * abs(m[kappa]), 2 ** (M_BITS + 1)) - e_m
    monkeypatch.setattr(LowerBoundEngine, "certify",
                        lambda self, x, lattice, max_prec: (True, 64))
    monkeypatch.setattr(LowerBoundEngine, "shell_bound",
                        lambda self, lo_sq, hi_sq, i: edge)
    r, (args, got) = _recorded_toy_scan(monkeypatch, toy_state, 2, b=b)
    assert args[3] == math.ceil(3 * F(abs(m[kappa]), 2))
    assert got == reference_scan_lines(*args)
    assert r.violations == r.undecided == r.positivity_failures == ()
    assert r.candidates == r.slow_checked > 0 and r.fast_passed == 0

    monkeypatch.setattr(LowerBoundEngine, "shell_bound",
                        lambda self, lo_sq, hi_sq, i: edge + F(1, 2 ** 200))
    r = slab_scan_iv(toy_state, b, skipped_clauses=())
    assert r.undecided == ("slab_guard_margin",) and r.lines == 0


def test_shell_beyond_int64_reach_is_undecided(honest_state):
    # C'^2 ~ 2^226 puts the honest shell far past the int64 fast path
    r = slab_scan_iv(honest_state, skipped_clauses=())
    assert r.undecided == ("slab_int64_reach:s_max_bits=128",)
    assert (r.lines, r.candidates) == (0, 0) and not r.below_threshold


def test_input_validation(toy_state):
    with pytest.raises(InputError):
        slab_scan_iv(toy_state, 2403, skipped_clauses=(), k_near=0)
    with pytest.raises(InputError):
        slab_scan_iv(toy_state, -5, skipped_clauses=())
    with pytest.raises(InputError):
        _canonical(0, 0, 0)


def test_canonical_sign():
    assert _canonical(0, -2, 5) == (0, 2, -5)
    assert _canonical(3, -1, 0) == (3, -1, 0)


def test_slab_checks_that_each_failing_point_lies_in_the_shell(monkeypatch, toy_state):
    # a kernel that also returns a failing point at three times its norm,
    # beyond the shell's 4 lo^2
    def kernel(*args):
        lines, candidates, fast, failing = _scan_lines(*args)
        return lines, candidates, fast, list(failing) + [tuple(3 * c for c in failing[0])]

    monkeypatch.setattr(scan, "_scan_lines", kernel)
    with pytest.raises(CertificateFailure, match="slab_membership"):
        slab_scan_iv(toy_state, skipped_clauses=())
