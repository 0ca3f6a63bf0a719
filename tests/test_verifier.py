"""Audit clauses, witness grid, coefficient boxes, sandwich, exports."""

import fractions
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import mpmath
import pytest

import references as ref
from conftest import TOY, build_run, run_table
from gammacert import (
    DirectionEnclosure,
    InputError,
    cli,
    exact,
    make_plan,
    schedule_X,
    verifier,
)
from gammacert.balls import DEFAULT_MAX_PREC, BallReal, sqrt_int, sqrt_ratio
from gammacert.builder import build, enclose_u, enclose_vw, x_dot_u_lower
from gammacert.exact import IVec3, det3, dot
from gammacert.planner import PsiSpec, plan_clauses
from gammacert.scan import slab_scan_iv
from gammacert.serialize import canonical_bytes, report_body
from gammacert.verifier import (
    BoxReport,
    LowerBoundEngine,
    c4_of,
    check_condition_iii,
    coeff_box_lemma3,
    dist_vw_upper,
    export_alpha_beta,
    property_suites,
    starred_ledger_audit,
    vperp_sandwich_check,
    witness_grid,
)

TOY_AUDIT_FAILURES = (
    "q_below_qn", "mid_norm_margin", "mid_norm_const", "plane_const",
    "scale_floor", "contraction_seed", "axis_const_i1",
)


def test_derived_constants(toy_state):
    p = toy_state.plan
    d0 = p.delta0_sq
    c2 = (8 * p.c1) ** 3 / d0
    assert c2 == F(24379392, 17)
    # the large-|q| margin step: (8 C1)^3 / (50 C1^2) = 10.24 C1 >= 10 C1
    assert (8 * p.c1) ** 3 / (50 * p.c1 ** 2) == F(256, 25) * p.c1
    lhs = {name: left for name, left, _ in plan_clauses(p)}
    assert lhs["q_below_qn"] == c2
    assert lhs["mid_norm_margin"] == 16 * p.c1 * 25 * p.c1 ** 3 * c2  # 16 C1 C3
    assert lhs["regime_product"] == p.theta == F(3, 10)
    auto = {name: left for name, left, _ in plan_clauses(replace(p, theta=None))}
    assert auto["regime_product"] == 2 * c2  # the automatic rule theta = 2 C2
    assert c4_of(p) == (6 * p.c1) ** 5 / d0 == F(5924192256, 17)


def test_toy_audit_flags_size_clauses(toy_state):
    led = starred_ledger_audit(toy_state)
    assert len(led.clauses) == 35
    assert led.refuted == TOY_AUDIT_FAILURES
    # every failure is a definite False, never an undecided comparison
    assert led.undecided == ()
    clauses = {c.name: c for c in led.clauses}
    assert clauses["large_q_margin"].passed is True
    assert clauses["gap_budget"].prec == 0  # exact rational clause


def test_audit_clean_at_scale():
    # theta = 2^31 pushes X1 high enough that every size clause clears
    plan = make_plan("sqrt2m1", IVec3(0, 0, 1), F(1, 2), PsiSpec(F(1), 1), 3,
                     theta=F(2) ** 31, toy=False)
    st = build(plan, schedule_X(plan))
    led = starred_ledger_audit(st)
    assert len(led.clauses) == 25
    assert led.refuted == () and led.undecided == ()


def test_witness_grid_shape(toy_state):
    grid = witness_grid(toy_state)
    assert len(grid) == 32
    lo = 25 * 16 * F(1)
    assert grid[0] == lo
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # N = n_steps, so the top of the range is 5 C1 X_5 = 20 * 2^826
    assert grid[-1] == lo * F(2) ** 1652


def test_condition_iii_toy(toy_state):
    rep = check_condition_iii(toy_state)
    assert len(rep.samples) == 32
    assert rep.failures == () and rep.undecided == ()
    idx = [s.witness_index for s in rep.samples]
    assert idx[0] == 0 and idx[-1] == 5
    assert all(a <= b for a, b in zip(idx, idx[1:]))
    assert rep.c == c4_of(toy_state.plan)


@pytest.mark.parametrize("state_name", ["toy_state", "honest_state"])
def test_witness_orthogonal_to_next_anchor(request, state_name):
    # x_m . u_{m+1} = det3(x_m, x_m, x_{m+1}) = 0, which witness_xu rests on
    state = request.getfixturevalue(state_name)
    for m in range(state.last_index):
        assert dot(state.xs[m], enclose_u(state, m + 1).rep) == 0


def test_coeff_box_counts(toy_state):
    for i in (2, 3, 4):
        rep = coeff_box_lemma3(toy_state, i)
        assert (rep.points_total, rep.in_window) == (4912, 4896)
        assert (rep.strong_branch, rep.lattice_branch) == (4624, 272)
        assert rep.strong_branch + rep.lattice_branch == rep.in_window
        assert rep.violations == () and rep.undecided == ()


def _all_interval_box(state, i, k_bound):
    """coeff_box_lemma3 with every in-window point on the interval path.

    Returns the report, each in-window point's interval verdict and the
    engine; this is the reference the box's exact threshold test and the
    engine's exact pre-test are checked against.
    """
    xi_prev, xi, xi_next = state.xs[i - 1], state.xs[i], state.xs[i + 1]
    pn, qn = run_table(state).pair(state.step_outputs[i - 1].n)
    x1sq = F(state.plan.x1_sq)
    win_lo, win_hi = state.scale(i).sq / x1sq, state.scale(i + 1).sq / x1sq
    weight = BallReal.wrap(x1sq).pow(F(3, 2)) * state.scale(i - 1).ball()
    engine = LowerBoundEngine(state, i, lambda t: weight)
    verdicts = {}
    total = lattice = 0
    violations, undecided = [], []
    for q, p, r in product(range(-k_bound, k_bound + 1), repeat=3):
        if q == p == r == 0:
            continue
        total += 1
        x = q * state.ys[i - 1] + p * xi_prev + r * xi
        tag = f"(q={q},p={p},r={r})"
        if det3(x, xi_prev, xi) != q:
            violations.append(f"det_left:{tag}")
            continue
        if det3(x, xi, xi_next) != -(q * pn - p * qn):
            violations.append(f"det_right:{tag}")
            continue
        if not win_lo <= x.norm_sq() < win_hi:
            continue
        lattice += q == 0
        ok, prec = engine._certify_intervals(x, q == 0, DEFAULT_MAX_PREC)
        verdicts[x.as_tuple()] = ok
        if ok is False:
            violations.append(f"bound:{tag}")
        elif ok is None:
            undecided.append(f"bound:{tag}:prec={prec}")
    report = BoxReport(index=i, k_bound=k_bound, points_total=total,
                       in_window=len(verdicts),
                       strong_branch=len(verdicts) - lattice,
                       lattice_branch=lattice, violations=tuple(violations),
                       undecided=tuple(undecided))
    return report, verdicts, engine


# points per box the exact threshold test leaves to the interval path (K=3)
SURVIVORS = {("toy_state", 2): 6, ("toy_state", 3): 42, ("toy_state", 4): 42,
             ("honest_state", 2): 42, ("honest_state", 3): 42,
             ("honest_state", 4): 42}


@pytest.mark.parametrize("state_name, i", sorted(SURVIVORS))
def test_box_threshold_matches_interval_path(request, monkeypatch, state_name, i):
    state = request.getfixturevalue(state_name)
    sent, pretest, shells = [], [], []
    certify, shell_bound = LowerBoundEngine.certify, LowerBoundEngine.shell_bound

    def recording_certify(self, x, lattice, max_prec):
        sent.append(x.as_tuple())
        pretest.append(self._pretest(x, lattice))
        return certify(self, x, lattice, max_prec)

    def recording_shell_bound(self, lo_sq, hi_sq, j):
        shells.append((lo_sq, hi_sq, j, shell_bound(self, lo_sq, hi_sq, j)))
        return shells[-1][3]

    monkeypatch.setattr(LowerBoundEngine, "certify", recording_certify)
    monkeypatch.setattr(LowerBoundEngine, "shell_bound", recording_shell_bound)
    got = coeff_box_lemma3(state, i, k_bound=3)
    monkeypatch.undo()
    want, verdicts, engine = _all_interval_box(state, i, 3)
    assert got == want
    assert len(sent) == len(set(sent)) == SURVIVORS[state_name, i]
    passed = set(verdicts) - set(sent)
    assert len(passed) == got.in_window - len(sent)
    # every point the exact test passes is certified by the interval path too
    assert all(verdicts[x] is True for x in passed)
    # the engine's pre-test passes every point sent to it, and the interval
    # path certifies each of them
    assert all(pretest)
    assert all(verdicts[x] is True for x in sent)
    # each in-window point lies in a shell whose bound is at least the bound
    # of the point's own one-point shell
    for x in verdicts:
        nsq = IVec3(*x).norm_sq()
        own = engine.shell_bound(F(nsq), F(nsq), i + 1)
        mine = [t for lo, hi, j, t in shells if lo <= nsq <= hi and j == i + 1]
        assert mine and min(mine) >= own


def _sent_to_certify(monkeypatch, run):
    """(engine, x, lattice) of every point run() sends to certify."""
    sent = []
    certify = LowerBoundEngine.certify

    def recording(self, x, lattice, max_prec):
        sent.append((self, x, lattice))
        return certify(self, x, lattice, max_prec)

    with monkeypatch.context() as patch:
        patch.setattr(LowerBoundEngine, "certify", recording)
        run()
    return sent


def _toy_slab_at(x0):
    state = build_run(dict(TOY, x0=IVec3(*x0)), toy=True)
    return slab_scan_iv(state, skipped_clauses=())


# runs whose survivors of the integer threshold tests reach certify, with
# their count; the boxes at K = 3 are checked in
# test_box_threshold_matches_interval_path
SURVIVOR_RUNS = {
    "toy-box-K8": (lambda st: [coeff_box_lemma3(st, i, 8) for i in (2, 3, 4)], 560),
    "toy-slab-x0=0,0,1": (lambda st: slab_scan_iv(st, skipped_clauses=()), 88),
    "toy-slab-x0=1,1,1": (lambda st: _toy_slab_at((1, 1, 1)), 134),
}


@pytest.mark.parametrize("name", sorted(SURVIVOR_RUNS))
def test_pretest_passes_only_interval_certified_points(monkeypatch, toy_state,
                                                       name):
    run, count = SURVIVOR_RUNS[name]
    sent = _sent_to_certify(monkeypatch, lambda: run(toy_state))
    assert len(sent) == count
    for engine, x, lattice in sent:
        assert engine._pretest(x, lattice)
        assert engine._certify_intervals(x, lattice, DEFAULT_MAX_PREC)[0] is True


def _weight_for(x, num, rhs):
    """A constant weight that puts the right side num / (w ||x||^gamma) of
    the point x at rhs."""
    w = num / (rhs * sqrt_int(x.norm_sq()).pow(BallReal.golden()))
    return lambda t: w


def _dist_vw_lower(x, venc, wenc):
    """The least over v and w of sqrt(proj_dist_sq(x, rep)) - radius, the
    lower bound on dist(x, {v, w}) that a refutation divides by."""
    return min((sqrt_ratio(*exact.proj_dist_sq_terms(x, enc.rep)) - enc.radius
                for enc in (venc, wenc)), key=lambda b: b.refined_to(128).lo)


def test_pretest_declines_points_the_interval_path_refutes(monkeypatch,
                                                          toy_state):
    # a weight that lifts each survivor's right side, with the lower
    # numerator, just above the least anchored upper bound on |x.u|, so the
    # interval path refutes the point
    sent = _sent_to_certify(
        monkeypatch, lambda: coeff_box_lemma3(toy_state, 3, k_bound=3))
    assert len(sent) == 42 and any(lattice for _, _, lattice in sent)
    for engine, x, lattice in sent:
        upper = min(
            (BallReal.wrap(F(abs(dot(x, enc.rep)))) / enc.rep_norm
             + 2 * sqrt_int(x.norm_sq()) * enc.radius).refined_to(128).hi
            for enc in engine.encs.values())
        num = _dist_vw_lower(x, engine.venc, engine.wenc) if lattice else 1
        weight = _weight_for(x, num, upper * (1 + F(1, 2 ** 20)))
        refuting = LowerBoundEngine(toy_state, 3, weight)
        assert refuting._certify_intervals(x, lattice, DEFAULT_MAX_PREC)[0] is False
        assert not refuting._pretest(x, lattice)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pretest_declines_points_orthogonal_to_every_anchor(toy_state, m):
    # x_m . u_m = x_m . u_{m+1} = 0, so with only those anchors no anchored
    # lower bound on |x_m . u| is positive; a right side, with the lower
    # numerator, of twice the larger anchored upper bound 2 ||x_m|| radius_j
    # has the interval path refute x_m
    x = toy_state.xs[m]
    upper = max((2 * sqrt_int(x.norm_sq()) * enclose_u(toy_state, j).radius
                 ).refined_to(128).hi for j in (m, m + 1))
    vw = [enclose_vw(toy_state, kind) for kind in "VW"]
    for lattice in (False, True):
        num = _dist_vw_lower(x, *vw) if lattice else 1
        engine = LowerBoundEngine(toy_state, 2, _weight_for(x, num, 2 * upper))
        engine.order = [m, m + 1]
        assert engine._certify_intervals(x, lattice, DEFAULT_MAX_PREC)[0] is False
        assert not engine._pretest(x, lattice)


def _one_anchor_engine(state, weight, v_rep, w_rep):
    """An engine over the anchor (2, -3, 5) alone, with v, w and the anchor
    of radius^2 1/100."""
    engine = LowerBoundEngine(state, 2, weight)
    engine.encs, engine.order = {1: DirectionEnclosure(IVec3(2, -3, 5), F(1, 100))}, [1]
    engine.venc, engine.wenc = (DirectionEnclosure(r, F(1, 100)) for r in (v_rep, w_rep))
    return engine


@pytest.mark.parametrize("v_rep, w_rep", [(IVec3(1, 1, 0), IVec3(0, 1, 2)),
                                          (IVec3(0, 1, 2), IVec3(1, 1, 0))])
def test_interval_path_refutes_only_below_the_lower_right_side(toy_state, v_rep, w_rep):
    # x = (1, 0, 0) on the span lattice: a weight that puts the right side
    # with dist_vw_upper's numerator at 1.2 times the anchored upper bound
    # on |x.u| leaves it, with the lower numerator of (1, 1, 0), below that
    # bound, so dist(x, {v, w}) may put the true right side there too and
    # the point is not refuted, whichever of v and w that direction is
    x = IVec3(1, 0, 0)
    engine = _one_anchor_engine(toy_state, None, v_rep, w_rep)
    enc, venc, wenc = engine.encs[1], engine.venc, engine.wenc
    upper = (BallReal.wrap(F(abs(dot(x, enc.rep)))) / enc.rep_norm
             + 2 * enc.radius).refined_to(128).hi
    assert F(5244, 10000) < upper < F(5245, 10000)
    engine.weight = _weight_for(x, dist_vw_upper(x, venc, wenc), F(6, 5) * upper)
    low = (_dist_vw_lower(x, venc, wenc) / engine.weight(None)).refined_to(128)
    assert F(473, 1000) < low.lo < low.hi < F(474, 1000) < upper
    assert engine._certify_intervals(x, True, DEFAULT_MAX_PREC)[0] is None


def test_interval_path_does_not_refute_at_a_tie(toy_state):
    # a weight that puts the lower right side of v = (1, 1, 0) exactly at
    # the anchored upper bound on |x.u|: the compare stays undecided, which
    # refutes nothing, though w's lower right side lies above the bound
    x = IVec3(1, 0, 0)
    engine = _one_anchor_engine(toy_state, None, IVec3(1, 1, 0), IVec3(0, 1, 2))
    enc = engine.encs[1]
    upper = BallReal.wrap(F(2)) / enc.rep_norm + 2 * enc.radius  # x.rep = 2
    low_v = sqrt_ratio(*exact.proj_dist_sq_terms(x, engine.venc.rep)) - engine.venc.radius
    engine.weight = _weight_for(x, low_v, upper)
    assert engine._certify_intervals(x, True, 256)[0] is None


def test_pretest_sound_at_every_working_precision(monkeypatch, toy_state):
    # every term of the pre-test's right side is rounded up, so what it
    # passes the interval path certifies at any working precision; with a
    # few bits each rounding is coarse.  One anchor and v, w of radius 1/10
    # make the slack and the numerator's radius count, ||x||^2 = 2^e makes
    # the shell threshold that of ||x|| itself, and a constant weight puts
    # the right side at f times the anchored lower bound L: just above L,
    # where the interval path cannot certify the point, or below it
    radius_sq = F(1, 100)
    passed = set()
    for rep, v_rep, w_rep in ((IVec3(2, -3, 5), IVec3(1, 1, 0), IVec3(0, 1, 2)),
                              (IVec3(7, 1, -4), IVec3(3, -1, 1), IVec3(1, 5, 2))):
        enc = DirectionEnclosure(rep, radius_sq)
        venc = DirectionEnclosure(v_rep, radius_sq)
        wenc = DirectionEnclosure(w_rep, radius_sq)
        for k, (a, b, c) in product((1, 2, 4), ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                                (1, 1, 0), (1, -1, 0), (0, 1, 1),
                                                (0, 1, -1), (1, 0, 1), (1, 0, -1))):
            x = IVec3(k * a, k * b, k * c)
            low = x_dot_u_lower(x, enc).refined_to(128).lo
            if low <= 0:
                continue
            for lattice, f in product((False, True), (F(1, 2), 1 - F(1, 2 ** 30),
                                                      1 + F(1, 2 ** 30))):
                num = dist_vw_upper(x, venc, wenc) if lattice else 1
                engine = LowerBoundEngine(toy_state, 2, _weight_for(x, num, f * low))
                engine.encs, engine.order = {1: enc}, [1]
                engine.venc, engine.wenc = venc, wenc
                verdict = None
                for bits in range(9):
                    monkeypatch.setattr(verifier, "PRETEST_BITS", bits)
                    if engine._pretest(x, lattice):
                        passed.add(bits)
                        verdict = verdict or engine._certify_intervals(x, lattice, 256)
                        assert verdict[0] is True, (rep, x, lattice, f, bits)
    assert passed == set(range(9))


def test_coeff_box_index_bounds(toy_state):
    for bad in (0, 1, toy_state.n_steps, toy_state.n_steps + 3):
        with pytest.raises(InputError):
            coeff_box_lemma3(toy_state, bad)
    with pytest.raises(InputError):
        coeff_box_lemma3(toy_state, 2, k_bound=0)


def test_vperp_sandwich_exact_frame():
    u, v, w = IVec3(1, 2, 2), IVec3(2, 1, -2), IVec3(2, -2, 1)
    assert vperp_sandwich_check(u, v, w, IVec3(5, -1, 7)).all_ok


def test_vperp_sandwich_rejects_non_square_frame():
    # |v|^2 = |w|^2 = 2: only frames with perfect-square norms are checked
    with pytest.raises(InputError, match="perfect squares"):
        vperp_sandwich_check(IVec3(0, 0, 1), IVec3(1, 1, 0), IVec3(1, -1, 0),
                             IVec3(3, 4, 5))


def test_vperp_sandwich_validation():
    u, v, w = IVec3(1, 2, 2), IVec3(2, 1, -2), IVec3(2, -2, 1)
    zero = IVec3(0, 0, 0)
    with pytest.raises(InputError):
        vperp_sandwich_check(u, v, w, zero)
    with pytest.raises(InputError):
        vperp_sandwich_check(u, IVec3(1, 0, 0), w, IVec3(1, 1, 1))
    # a zero frame vector passes the orthogonality and square-norm tests
    for frame in ((zero, v, w), (u, zero, w), (u, v, zero)):
        with pytest.raises(InputError, match="nonzero"):
            vperp_sandwich_check(*frame, IVec3(1, 1, 1))


def _frames_and_points(rng, count):
    """count (u, v, w, x): quaternion frames in their three row orders, some
    with a sign flipped, each row scaled by 1..3, and in about a third of
    them w replaced by 3 v' + 4 w' (norm 5 ||v'||, not orthogonal to v), so
    v and w differ in norm; points x are random, frame rows, or sums and
    differences of them, where the sandwich's sides can meet."""
    for _ in range(count):
        rows = list(ref.quaternion_frame(rng))
        rng.shuffle(rows)
        if rng.random() < 0.3:
            i = rng.randrange(3)
            rows[i] = -rows[i]
        if rng.random() < 0.3:
            rows[2] = 3 * rows[1] + 4 * rows[2]
        rows = [rng.randint(1, 3) * r for r in rows]
        u, v, w = rows
        pick = rng.randrange(4)
        if pick == 0:
            x = ref.rand_vec(rng)
        else:
            x = rows[rng.randrange(3)]
            if pick > 1:
                x = x + rng.choice((1, -1, 2)) * rows[rng.randrange(3)]
            if x.is_zero():
                x = ref.rand_vec(rng)
        yield u, v, w, x


def test_vperp_sandwich_matches_fraction_reference():
    verdicts = set()
    for u, v, w, x in _frames_and_points(random.Random(7), 20000):
        got = vperp_sandwich_check(u, v, w, x)
        assert got == ref.sandwich(u, v, w, x), (u, v, w, x)
        verdicts.add(got)
    assert verdicts == {verifier.SandwichVerdict(True, True)}


def test_triangle_matches_fraction_reference():
    # random triples, triples with a repeated or negated point, and points
    # on one plane through the origin, where the two sides can meet
    rng = random.Random(11)
    for k in range(20000):
        a, b, c = (ref.rand_vec(rng) for _ in range(3))
        if k % 4 == 1:
            b = rng.choice((a, -a, c, -c, 2 * a))
        elif k % 4 == 2:
            c = a + rng.choice((1, -1, 2)) * b
            if c.is_zero():
                c = a
        assert verifier._triangle_holds_exact(a, b, c) == ref.triangle_holds(a, b, c)


@pytest.mark.parametrize("seed", range(5))
def test_randints_reproduce_randint_stream(seed):
    for lo, hi in ((-5, 5), (-9, 9)):  # widths 11 and 19
        mine, theirs = random.Random(seed), random.Random(seed)
        got = verifier._randints(mine, lo, hi, 10 ** 5)
        assert got == [theirs.randint(lo, hi) for _ in range(10 ** 5)]
        assert mine.getstate() == theirs.getstate()
    mine, theirs = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        assert verifier._rand_vec(mine) == ref.rand_vec(theirs)
        assert verifier._quaternion_frame(mine) == ref.quaternion_frame(theirs)


def test_dist_vw_upper_tail_anchor(toy_state):
    V = enclose_vw(toy_state, "V")
    W = enclose_vw(toy_state, "W")
    d = dist_vw_upper(toy_state.xs[5], V, W).refined_to(64)
    assert 0 < d.hi < F(1, 1 << 9000)
    # the whole sequence stays projectively close to x0
    d0 = dist_vw_upper(toy_state.xs[0], V, W).refined_to(64)
    assert F(3, 1000) < d0.hi < F(4, 1000)


def test_export_alpha_beta_exact_rep():
    enc = DirectionEnclosure(rep=IVec3(2, 1, 1), radius_sq_ub=F(0))
    (a_lo, a_hi), (b_lo, b_hi) = export_alpha_beta(enc)
    assert a_lo <= F(1, 2) <= a_hi and a_hi - a_lo < F(1, 1 << 180)
    assert b_lo <= F(1, 2) <= b_hi and b_hi - b_lo < F(1, 1 << 180)


def test_export_alpha_beta_toy(toy_state):
    (a_lo, a_hi), (b_lo, b_hi) = export_alpha_beta(
        enclose_u(toy_state, toy_state.last_index))
    assert F(23953829612540, 10 ** 14) < a_lo <= a_hi < F(23953829612542, 10 ** 14)
    assert F(3218985807048, 10 ** 15) < b_lo <= b_hi < F(3218985807050, 10 ** 15)
    assert a_hi - a_lo < F(1, 1 << 120)


def test_export_alpha_beta_needs_separation():
    enc = DirectionEnclosure(rep=IVec3(0, 1, 1), radius_sq_ub=F(0))
    with pytest.raises(InputError):
        export_alpha_beta(enc)


EXPORT_CASES = ["toy", "honest", "exact", "negative-r0"]


def _export_enclosure(request, case):
    if case in ("toy", "honest"):
        state = request.getfixturevalue(f"{case}_state")
        return state.u_enclosures[state.last_index]
    if case == "exact":
        return DirectionEnclosure(rep=IVec3(2, 1, 1), radius_sq_ub=F(0))
    # 2 ||rep||^2 radius_sq = 1 - 2^-600, so E = 1 lies just above the exact
    # offset, and the signs make each of the four corners an endpoint
    return DirectionEnclosure(rep=IVec3(-5, 3, -2),
                              radius_sq_ub=(1 - F(1, 1 << 600)) / 76)


@pytest.mark.parametrize("case", EXPORT_CASES)
def test_export_alpha_beta_meets_the_reference(request, case):
    # the integer export meets the Fraction reference's interval, no wider
    enc = _export_enclosure(request, case)
    for (lo, hi), (ref_lo, ref_hi) in zip(export_alpha_beta(enc),
                                          ref.export_alpha_beta(enc)):
        assert lo <= ref_hi and ref_lo <= hi
        assert hi - lo <= ref_hi - ref_lo


@pytest.mark.parametrize("case", EXPORT_CASES)
def test_export_alpha_beta_encloses_the_corners(request, case):
    # each interval holds the corners (r_k +- e)/(r0 +- e) at 2,000 digits,
    # e = ||rep|| sqrt(2 radius_sq) unrounded, and build's limit line, whose
    # decimals are rounded outward, holds each interval
    enc = _export_enclosure(request, case)
    rep, rsq = enc.rep, enc.radius_sq_ub
    with mpmath.workdps(2000):
        e = mpmath.sqrt(2 * rep.norm_sq() * mpmath.mpf(rsq.numerator) / rsq.denominator)
        for c, (lo, hi) in zip((rep.y, rep.z), export_alpha_beta(enc)):
            corners = [(c + a) / (rep.x + b) for a in (-e, e) for b in (-e, e)]
            assert mpmath.mpf(lo.numerator) / lo.denominator <= min(corners)
            assert max(corners) <= mpmath.mpf(hi.numerator) / hi.denominator
            assert F(cli._decimal(lo, math.floor)) <= lo
            assert hi <= F(cli._decimal(hi, math.ceil))


def test_property_suites_match_reference(monkeypatch):
    # the suites' driver run on the reference draws, predicates, basis
    # completion and gap loop gives the same report, seed by seed
    used = []

    def counted(fn):
        def wrapper(*args):
            used.append(fn.__name__)
            return fn(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_rand_vec", counted(ref.rand_vec))
        patch.setattr(verifier, "_quaternion_frame", counted(ref.quaternion_frame))
        patch.setattr(verifier, "_triangle_holds_exact", counted(ref.triangle_holds))
        patch.setattr(verifier, "vperp_sandwich_check", counted(ref.sandwich))
        patch.setattr(verifier, "complete_to_basis", counted(ref.complete_to_basis))
        patch.setattr(verifier, "convergent_gap_check",
                      counted(ref.convergent_gap_check))
        want = [property_suites(seed, 1000) for seed in range(6)]
    assert set(used) == {"rand_vec", "quaternion_frame", "triangle_holds",
                         "sandwich", "complete_to_basis", "convergent_gap_check"}
    for seed in range(6):
        assert property_suites(seed, 1000) == want[seed]


# Fraction constructions in one property_suites call on Python 3.11: all
# of them in the convergent-table and gap suites, whose work does not depend
# on `cases`
PROPERTY_SUITE_FRACTIONS = 704


def test_property_suites_work_in_plain_integers(monkeypatch):
    # no randint draw, no Fraction distance and no Fraction per case
    def no_randint(self, a, b):
        raise AssertionError("Random.randint called")

    dist_calls = []
    proj_dist_sq = exact.proj_dist_sq

    def counted_dist(a, b):
        dist_calls.append((a, b))
        return proj_dist_sq(a, b)

    made = []
    new = fractions.Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    # from Python 3.12 fractions builds arithmetic results through this
    # classmethod, without __new__
    coprime = getattr(fractions.Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        def counted_coprime(cls, *args):
            made.append(1)
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(fractions.Fraction, "_from_coprime_ints",
                            classmethod(counted_coprime))

    monkeypatch.setattr(random.Random, "randint", no_randint)
    monkeypatch.setattr(exact, "proj_dist_sq", counted_dist)
    monkeypatch.setattr(verifier, "proj_dist_sq", counted_dist, raising=False)
    monkeypatch.setattr(fractions.Fraction, "__new__", counted_new)
    counts = []
    for cases in (200, 0):
        made.clear()
        suites = property_suites(seed=0, cases=cases).suites
        assert all(not fails for _, _, fails in suites)
        counts.append(len(made))
    assert dist_calls == []
    assert counts[0] == counts[1]
    if sys.version_info[:2] == (3, 11):
        assert counts[0] == PROPERTY_SUITE_FRACTIONS


def test_property_suites_deterministic():
    a = property_suites(seed=3, cases=120)
    b = property_suites(seed=3, cases=120)
    assert canonical_bytes(report_body(a)) == canonical_bytes(report_body(b))
    assert all(not fails for _, _, fails in a.suites)
    names = [name for name, _, _ in a.suites]
    assert names == ["triangle_inequality", "lagrange_identity",
                     "primitive_pair_equiv", "vperp_sandwich",
                     "convergent_gap", "cf_table"]
    counts = {name: cases for name, cases, _ in a.suites}
    assert counts["triangle_inequality"] == 120
    assert counts["convergent_gap"] == 11  # n = 2 .. 12
    assert counts["cf_table"] == 59  # rows n = 1 .. 59
