"""Acceptance gate: one certified pass/fail line per criterion."""

import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

from gammacert import (
    ALPHA_PRESETS,
    ConvergentTable,
    certify_bad_approx,
    convergent_gap_check,
)
from gammacert.balls import DEFAULT_MAX_PREC, BallReal, cert_le
from gammacert.builder import build
from gammacert.exact import IVec3, cross, det3, proj_dist_sq, smith_invariants_3x2
from gammacert.planner import PsiSpec, make_plan, schedule_X
from gammacert.serialize import canonical_bytes, report_body
from gammacert.stepper import YSpec, recursive_step
from gammacert.verifier import c4_of, check_condition_iii, coeff_box_lemma3, property_suites

from conftest import TOY, PSI_LINEAR, build_run, record_criterion, run_table

PREC_GATE = 1 << 16


def test_criterion_1():
    t0 = time.monotonic()
    st = build_run(TOY, toy=True)
    ok = st.n_steps == 5
    t = run_table(st)
    for i in range(1, 6):
        pn, qn = t.pair(st.step_outputs[i - 1].n)
        ok &= det3(st.xs[i - 1], st.xs[i], st.ys[i - 1]) == 1
        ok &= det3(st.xs[i - 1], st.xs[i], st.xs[i + 1]) == qn
        ok &= det3(st.ys[i - 1], st.xs[i], st.xs[i + 1]) == -pn
        u_i = cross(st.xs[i - 1], st.xs[i])
        u_next = cross(st.xs[i], st.xs[i + 1])
        ok &= cross(u_i, u_next) == qn * st.xs[i]
    dt = time.monotonic() - t0
    ok &= dt < 60
    record_criterion(1, ok, f"5-step build, exact det and triple-cross "
                            f"identities at every step, {dt:.1f}s (budget 60s)")


def test_criterion_2(honest_state):
    t0 = time.monotonic()
    st = honest_state
    plan = st.plan
    undecided = failures = 0

    def tally(ok):
        nonlocal undecided, failures
        if ok is None:
            undecided += 1
        elif ok is not True:
            failures += 1

    gamma = BallReal.golden()
    for i in range(1, 6):
        y_sq = F(st.ys[i - 1].norm_sq())
        xg = BallReal.wrap(st.scale(i).sq).pow(gamma)  # X_i^(2 gamma)
        tally(cert_le(xg, y_sq, PREC_GATE)[0])
        tally(cert_le(y_sq, 4 * xg, PREC_GATE)[0])
        x_sq = st.xs[i + 1].norm_sq()
        tally(st.scale(i + 1).sq <= x_sq <= 25 * plan.c1 ** 2 * st.scale(i + 1).sq)
        if i >= 2:
            tally(cert_le(plan.delta0_sq,
                          proj_dist_sq(st.xs[i - 1], st.xs[i]), PREC_GATE)[0])
    # the base and ledger verdicts the build recorded, at build_run's cap
    tally(DEFAULT_MAX_PREC == PREC_GATE)
    verdicts = st.base_verdicts + [v for e in st.ledger for v in e.verdicts]
    halving = [v for v in verdicts if v.name.startswith("halving_i")]
    tally(len(halving) == 5 and all(v.passed for v in halving))
    tally(all(v.passed for v in verdicts))
    dt = time.monotonic() - t0
    ok = failures == 0 and undecided == 0 and dt < 300
    record_criterion(2, ok, f"norm sandwiches, distance floor and halving "
                            f"chain on the large run: {failures} failures, "
                            f"{undecided} undecided at max_prec=2^16, "
                            f"{dt:.1f}s (budget 300s)")


def test_criterion_3():
    t0 = time.monotonic()
    table = ConvergentTable(ALPHA_PRESETS["sqrt2m1"], c1=F(4))
    table.extend_to(60)  # each appended row is certified exactly
    q60 = table.pair(60)[1]
    bad = certify_bad_approx(table, q60)
    rows = len(table)  # the gap checks walk the cursor back to row 12
    gaps = [convergent_gap_check(table, n) for n in range(2, 13)]
    dt = time.monotonic() - t0
    ok = (rows >= 60 and bad.blocks == 60 and bad.q_max == q60
          and all(g.min_scaled >= 1 for g in gaps) and dt < 60)
    record_criterion(3, ok, f"convergent table to n=60, badly-approximable "
                            f"certificate to q_60={q60}, gap certificates "
                            f"n<=12, {dt:.1f}s (budget 60s)")


def test_criterion_4():
    table = ConvergentTable(ALPHA_PRESETS["sqrt2m1"])
    x_star, x = IVec3(1, 0, 0), IVec3(0, 1, 0)
    out, _ = recursive_step(x_star, x, YSpec.of_rational(4), 10, table)
    ok = (out.y == IVec3(6, 0, 1) and out.x_prime == IVec3(77, 0, 12)
          and out.n == 4
          and (det3(x_star, x, out.y), det3(x_star, x, out.x_prime),
               det3(out.y, x, out.x_prime)) == (1, 12, -5))
    record_criterion(4, ok, "hand fixture: y=(6,0,1), x'=(77,0,12), n=4, "
                            "determinants (1,12,-5) bit-exact")


def test_criterion_5(toy_state):
    rep = check_condition_iii(toy_state)
    grid_ok = len(rep.samples) == 32
    ok = (grid_ok and rep.failures == () and rep.undecided == ()
          and rep.c == c4_of(toy_state.plan))
    record_criterion(5, ok, f"32 log-spaced norms, C = (6 C1)^5/delta0^2: "
                            f"{len(rep.failures)} failures, "
                            f"{len(rep.undecided)} undecided")


def test_criterion_6(toy_state):
    t0 = time.monotonic()
    reports = [coeff_box_lemma3(toy_state, i, k_bound=8) for i in (2, 3, 4)]
    dt = time.monotonic() - t0
    ok = all(not r.violations and not r.undecided for r in reports) and dt < 600
    total = sum(r.in_window for r in reports)
    record_criterion(6, ok, f"coefficient boxes K=8 at i=2,3,4: {total} "
                            f"points certified, 0 violations, {dt:.1f}s "
                            f"(budget 600s)")


def test_criterion_7(toy_scan):
    r = toy_scan
    cap = r.candidates // 10000  # 0.01 percent
    ok = (not r.below_threshold and r.violations == ()
          and len(r.undecided) <= cap
          and r.used_clauses == () and len(r.skipped_clauses) > 0)
    record_criterion(7, ok, f"slab scan of {r.candidates} candidates: "
                            f"0 violations, {len(r.undecided)} undecided, "
                            f"every skipped size clause disclosed "
                            f"({len(r.skipped_clauses)} named)")


def test_criterion_8(toy_state, toy_scan):
    ok = toy_scan.positivity_failures == ()
    for i in range(1, toy_state.n_steps + 1):
        a, b, c = toy_state.xs[i - 1], toy_state.xs[i], toy_state.xs[i + 1]
        ok &= smith_invariants_3x2(a, b) == (1, 1)
        ok &= smith_invariants_3x2(b, c) == (1, 1)
        ok &= det3(a, b, c) != 0
        ledger = toy_state.ledger[i - 1]
        ok &= any(v.name == f"intersection_i{i}" and v.passed
                  for v in ledger.verdicts)
    record_criterion(8, ok, "slab positivity certificates all pass; plane "
                            "intersection is exactly Z x_i at every step")


def test_criterion_9():
    a = property_suites(seed=0, cases=1000)
    b = property_suites(seed=0, cases=1000)
    with ProcessPoolExecutor(max_workers=2) as pool:
        c = pool.submit(property_suites, 0, 1000).result()
    ok = (all(not fails for _, _, fails in a.suites)
          and canonical_bytes(report_body(a)) == canonical_bytes(report_body(b))
          == canonical_bytes(report_body(c))
          and all(n >= 1000 for _, n, _ in a.suites[:4]))
    record_criterion(9, ok, "six property suites, 1000 seeded cases on the "
                            "randomized suites, byte-identical across "
                            "repeats and a worker pool")
