#!/usr/bin/env python3
"""End-to-end small-scale pipeline: plan, build, certify, scan, export.

Runs the five-step reference construction with printable integers, then
every verification layer against it, and writes plan/state documents plus
a short text summary to --out.  Exit code 0 only if every layer that is
expected to pass at this scale does pass (the size-threshold audit is
reported, not enforced: this run is deliberately below the thresholds).
"""

import argparse
import os
import sys
import time
from fractions import Fraction as F

from gammacert import (
    dump_document,
    make_plan,
    plan_body,
    schedule_X,
    slab_scan_iv,
    state_body,
)
from gammacert.builder import build
from gammacert.exact import IVec3
from gammacert.planner import PsiSpec
from gammacert.verifier import (
    check_condition_iii,
    coeff_box_lemma3,
    export_alpha_beta,
    property_suites,
    starred_ledger_audit,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/toy")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    t0 = time.monotonic()
    failures = 0

    def stage(name, ok, detail=""):
        nonlocal failures
        mark = "ok" if ok else "FAIL"
        print(f"[{mark:4}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures += 1

    plan = make_plan("sqrt2m1", IVec3(0, 0, 1), F(4, 5), PsiSpec(F(1), 1),
                     n_steps=5, theta=F(3, 10), toy=True)
    schedule = schedule_X(plan)
    dump_document(os.path.join(args.out, "plan.json"), "plan",
                  plan_body(plan, schedule))
    stage("plan", True,
          f"x1={plan.x1.as_tuple()}, exponents={schedule.exponents}")

    state = build(plan, schedule)
    dump_document(os.path.join(args.out, "state.json"), "state",
                  state_body(state))
    n_certs = (len(state.base_verdicts)
               + sum(len(c.verdicts) for c in state.step_certs)
               + sum(len(e.verdicts) for e in state.ledger))
    stage("build", True, f"{state.n_steps} steps, {n_certs} certificates")

    audit = starred_ledger_audit(state)
    print(f"[info] size-threshold audit: {len(audit.clauses)} clauses, "
          f"not met at this scale: {', '.join(audit.refuted) or 'none'}; "
          f"undecided: {', '.join(audit.undecided) or 'none'}")

    witness = check_condition_iii(state)
    stage("witness grid", witness.all_pass,
          f"{len(witness.samples)} samples")

    for i in range(2, state.n_steps):
        rep = coeff_box_lemma3(state, i, k_bound=8)
        stage(f"coefficient box i={i}", rep.all_pass,
              f"{rep.in_window} points in window")

    t_scan = time.monotonic()
    scan = slab_scan_iv(state, 2403, skipped_clauses=audit.refuted)
    stage("slab scan", scan.all_pass,
          f"{scan.candidates} candidates, {scan.slow_checked} slow-path, "
          f"{time.monotonic() - t_scan:.2f}s")

    props = property_suites(seed=0, cases=1000)
    stage("property suites", props.all_pass, f"{len(props.suites)} suites")

    (a_lo, a_hi), (b_lo, b_hi) = export_alpha_beta(
        state.u_enclosures[state.last_index])
    stage("direction export", a_hi > a_lo and b_hi > b_lo,
          f"alpha ~ {float((a_lo + a_hi) / 2):.12f}, "
          f"beta ~ {float((b_lo + b_hi) / 2):.12f}")

    print(f"done in {time.monotonic() - t0:.1f}s, artifacts in {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
