import sys
from fractions import Fraction

import pytest

from gammacert import ALPHA_PRESETS, ConvergentTable
from gammacert.builder import build
from gammacert.planner import PsiSpec, make_plan, schedule_X
from gammacert.exact import IVec3
from gammacert.scan import slab_scan_iv
from gammacert.verifier import starred_ledger_audit

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

F = Fraction

# small-scale reference run: every certificate is live but integers stay
# printable; the size-threshold audit flags this regime (expected)
TOY = dict(alpha="sqrt2m1", x0=IVec3(0, 0, 1), delta=F(4, 5),
           theta=F(3, 10), steps=5)

# default honest-mode run; the automatic theta rule sizes X1
HONEST = dict(alpha="sqrt2m1", x0=IVec3(0, 0, 1), delta=F(1, 2),
              theta=None, steps=5)

PSI_LINEAR = PsiSpec(c=F(1), e=F(1))


def build_run(params, toy, psi=PSI_LINEAR):
    plan = make_plan(params["alpha"], params["x0"], params["delta"], psi,
                     params["steps"], theta=params["theta"], toy=toy)
    schedule = schedule_X(plan)
    return build(plan, schedule)


def run_table(state):
    """The run's convergent table, walked to the last step's n."""
    table = ConvergentTable(ALPHA_PRESETS[state.plan.alpha], state.plan.c1)
    table.pair(state.step_outputs[-1].n)
    return table


@pytest.fixture(scope="session")
def toy_state():
    return build_run(TOY, toy=True)


@pytest.fixture(scope="session")
def honest_state():
    return build_run(HONEST, toy=False)


@pytest.fixture(scope="session")
def toy_scan(toy_state):
    return slab_scan_iv(toy_state, 2403,
                        skipped_clauses=starred_ledger_audit(toy_state).refuted)


# one pass/fail line per acceptance criterion, shown after the run
_ACCEPTANCE_LINES = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES.append((number, f"criterion {number}: {status} - {detail}"))
    assert ok, f"criterion {number}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
