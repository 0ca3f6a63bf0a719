"""Plan assembly: companion, multiplier, schedule exponents, invariants."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gammacert import (
    BallReal,
    CertificateFailure,
    InputError,
    Plan,
    PsiSpec,
    Schedule,
    XScale,
    choose_companion,
    make_plan,
    schedule_X,
)
from gammacert import planner
from gammacert.balls import DEFAULT_MAX_PREC, cert_le, sqrt_int
from gammacert.cf import ALPHA_PRESETS
from gammacert.exact import (IVec3, complete_single, complete_to_basis,
                             is_primitive_pair, is_primitive_point, proj_dist_sq)

E3 = IVec3(0, 0, 1)
PSI = PsiSpec(F(1), 1)


def toy_plan():
    return make_plan("sqrt2m1", E3, F(4, 5), PSI, 5, theta=F(3, 10), toy=True)


def test_companion_minimal():
    assert choose_companion(E3, F(1, 2)) == IVec3(0, 1, 4)
    # one multiple lower misses the distance budget delta^2/4
    assert proj_dist_sq(E3, IVec3(0, 1, 3)) == F(1, 10) > F(1, 16)
    assert proj_dist_sq(E3, IVec3(0, 1, 4)) == F(1, 17) <= F(1, 16)


def test_companion_wider_delta():
    assert choose_companion(E3, F(4, 5)) == IVec3(0, 1, 3)
    assert proj_dist_sq(E3, IVec3(0, 1, 2)) == F(1, 5) > F(4, 25)
    with pytest.raises(InputError):
        choose_companion(E3, F(0))


def reference_companion(x0, delta):
    """The linear scan m = 0, 1, 2, ... that the quadratic's root skips."""
    base = complete_single(x0)
    m = 0
    while proj_dist_sq(x0, base + m * x0) > delta * delta / 4:
        m += 1
    return base + m * x0


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 3),
       st.fractions(F(1, 1000), 2, max_denominator=1000))
@example((-6, 0, 1), F(2, 73))  # ties: the minimal m meets delta^2/4 exactly
@example((-5, -3, -6), F(2, 35))
def test_companion_matches_linear_scan(coords, delta):
    x0 = IVec3(*coords)
    assume(is_primitive_point(x0))
    assert choose_companion(x0, delta) == reference_companion(x0, delta)


def test_companion_small_delta_is_direct(monkeypatch):
    # the scan needs about 2/delta distance tests; the root, a handful
    calls = []

    def counted(a, b):
        calls.append(1)
        if len(calls) > 10:
            raise AssertionError("more than 10 distance tests")
        return proj_dist_sq(a, b)

    monkeypatch.setattr("gammacert.planner.proj_dist_sq", counted)
    delta = F(1, 10 ** 30)
    comp = choose_companion(E3, delta)
    base = complete_single(E3)
    m = (comp - base).z
    assert comp == base + m * E3
    assert proj_dist_sq(E3, comp) <= delta * delta / 4
    assert proj_dist_sq(E3, base + (m - 1) * E3) > delta * delta / 4


def test_toy_plan_values():
    p = toy_plan()
    assert p.x0_companion == IVec3(0, 1, 3)
    assert p.multiplier == 4
    assert p.x1 == IVec3(-1, 4, 13)
    assert p.delta0_sq == F(17, 744)
    assert p.x1_sq == 186 and p.x0_sq == 1


def test_delta0_is_quarter_projective_distance():
    p = toy_plan()
    assert p.delta0_sq == F(proj_dist_sq(p.x0, p.x1), 4)
    assert F(proj_dist_sq(IVec3(0, 0, 1), IVec3(0, 10, 31)), 4) == F(25, 1061)


def test_toy_schedule():
    p = toy_plan()
    sch = schedule_X(p)
    assert sch.exponents == (14, 55, 213, 826, 3202)
    assert sch.invariant_failures == ("growth_lower_i1", "psi_i1")
    assert [w["index"] for w in sch.witnesses] == [2, 3, 4, 5, 6]
    assert all(w["minimal"] for w in sch.witnesses)
    assert sch.scale(0, p).sq == 1
    assert sch.scale(1, p).sq == 186
    assert sch.scale(2, p).value_int == 1 << 14


def test_schedule_power_of_two_oracle():
    # X_1 = 2^10 and a psi with e = 2 force X_2 >= X_0 X_1^(gamma+2),
    # whose log2 is 36.18..., so the minimal admissible exponent is 37
    crafted = Plan(alpha="sqrt2m1", c1=F(4), x0=E3, x0_companion=IVec3(0, 1, 4),
                   multiplier=1, x1=IVec3(1024, 0, 0), delta=F(1, 2),
                   delta0_sq=F(1, 100), theta=None, psi=PsiSpec(F(1), 2),
                   n_steps=1, toy=True)
    sch = schedule_X(crafted)
    assert sch.exponents == (37,)
    assert sch.invariant_failures == ()


def test_honest_plan_values(honest_state):
    p = honest_state.plan
    assert p.x0_companion == IVec3(0, 1, 4)
    assert p.multiplier == 73497624
    assert p.theta is None
    assert honest_state.schedule.exponents == (141, 539, 2092, 8108, 31428)
    assert honest_state.schedule.invariant_failures == ()


@pytest.mark.parametrize("source", ["toy", "honest", "sqrt5m2"])
def test_growth_invariants_hold(request, source):
    # X_{i+1} >= X_{i-1} X_i^(gamma+2) (growth_main) and X_{i+1} >= X_i^gamma
    # (growth_upper): schedule_X accepts each exponent on the first, which
    # implies the second, so it certifies neither again
    if source == "sqrt5m2":
        plan = make_plan("sqrt5m2", E3, F(4, 5), PSI, 5, theta=F(3, 10), toy=True)
        sch = schedule_X(plan)
    else:
        state = request.getfixturevalue(f"{source}_state")
        plan, sch = state.plan, state.schedule
    scales = [sch.scale(i, plan) for i in range(plan.n_steps + 2)]
    for i in range(1, plan.n_steps + 1):
        prev, cur, nxt = scales[i - 1], scales[i], scales[i + 1]
        main = prev.ball() * cur.pow_gamma_plus(2)
        assert cert_le(main, nxt.ball())[0] is True
        assert cert_le(cur.pow_gamma_plus(0), nxt.ball())[0] is True


def test_make_plan_validation():
    with pytest.raises(InputError):
        make_plan("cube2", E3, F(1, 2), PSI, 5)
    with pytest.raises(InputError):
        make_plan("sqrt2m1", E3, F(5, 2), PSI, 5)
    with pytest.raises(InputError):
        make_plan("sqrt2m1", E3, F(1, 2), PSI, 0)
    with pytest.raises(InputError):
        make_plan("sqrt2m1", IVec3(0, 0, 2), F(1, 2), PSI, 5)
    with pytest.raises(InputError):
        make_plan("sqrt2m1", E3, F(1, 2), PSI, 5, c1=F(3))


def test_psispec():
    with pytest.raises(InputError):
        PsiSpec(F(0), 1)
    with pytest.raises(InputError):
        PsiSpec(F(1), F(-1))
    v = PsiSpec(F(3), 2).at(BallReal.exact(F(4)))
    assert v.lo <= 48 <= v.hi


def test_xscale():
    s = XScale.of_pow2(5)
    assert s.value_int == 32 and s.sq == 1024
    g = XScale.of_pow2(1).pow_gamma_plus(0).refined_to(96)
    assert F(3069, 1000) < g.lo and g.hi < F(307, 100)
    b = XScale.of_norm_sq(186).ball().refined_to(96)
    assert b.lo * b.lo <= 186 <= b.hi * b.hi


def test_schedule_scale_matches_plan():
    p = toy_plan()
    sch = schedule_X(p)
    assert isinstance(sch, Schedule)
    for i in range(2, p.n_steps + 2):
        assert sch.scale(i, p).sq == F(1) * (1 << (2 * sch.exponents[i - 2]))


# ---------------------------------------------------------------------------
# the multiplier search against the exact-square probe and linear scan it
# replaced


def _reference_conditions_hold(x0, x0_comp, z, n, delta, c1, theta: Optional[F],
                               toy, max_prec):
    x1 = n * x0_comp + x0 + z
    d0sq = proj_dist_sq(x0, x1) / 4
    if d0sq == 0:
        return False
    x1_sq = x1.norm_sq()
    if 9 * d0sq > delta * delta:
        return False
    if theta is None:
        # delta0^2 X_1 >= 2 (8 C1)^3 / delta0^2, squared to stay rational
        k = 2 * (8 * c1) ** 3
        if d0sq ** 4 * x1_sq < k * k:
            return False
    elif theta > 0 and d0sq * d0sq * x1_sq < theta * theta:
        return False
    x0_sq = x0.norm_sq()
    x1b = sqrt_int(x1_sq)
    gamma = BallReal.golden()
    if toy:
        ok, _ = cert_le(2 * (sqrt_int(x0_sq) + x1b),
                        BallReal.wrap(F(x1_sq)) ** (gamma / 2), max_prec)
        return ok is True
    if x1_sq < 25 * x0_sq:
        return False
    ok, _ = cert_le(BallReal.wrap(12 * c1) ** gamma, x1b, max_prec)
    if ok is not True:
        return False
    d0 = BallReal.wrap(d0sq).sqrt()
    x1_pow_1mg = BallReal.wrap(F(x1_sq)) ** ((1 - gamma) / 2)
    x1_pow_g1 = BallReal.wrap(F(x1_sq)) ** ((gamma + 1) / 2)
    lhs = 5 * c1 * x1_pow_1mg + BallReal.wrap(4 * c1) / (d0 * sqrt_int(x0_sq) * x1_pow_g1)
    ok, _ = cert_le(lhs, d0, max_prec)
    return ok is True


def reference_multiplier(x0, delta, c1, theta, toy, max_prec=DEFAULT_MAX_PREC):
    """(n, x1): linear scan over n <= 4096, then doubling and bisection."""
    comp = choose_companion(x0, delta)
    z = complete_to_basis(x0, comp)

    def ok(n):
        return _reference_conditions_hold(x0, comp, z, n, delta, c1, theta, toy, max_prec)

    scan_cap = 4096
    for n in range(1, scan_cap + 1):
        if ok(n):
            return n, n * comp + x0 + z
    lo, hi = scan_cap, 2 * scan_cap
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi, hi * comp + x0 + z


MULTIPLIER_GRID = list(product(
    [IVec3(0, 0, 1), IVec3(1, 2, 3)], [F(1, 2), F(4, 5)], ["sqrt2m1", "sqrt5m2"],
    [(None, False), (F(3, 10), True), (F(1), False)])) + [
    # the search ends at n = 1 and at n = 2 (n = 1 fails)
    (IVec3(1, 2, 3), F(1), "sqrt2m1", (F(1, 100), True)),
    (E3, F(1), "sqrt2m1", (F(1, 100), True)),
]


@pytest.mark.parametrize("x0,delta,alpha,theta_toy", MULTIPLIER_GRID, ids=[
    f"x0={','.join(map(str, x0.as_tuple()))}-delta={d}-{a}-theta={t}{'-toy' * toy}"
    for x0, d, a, (t, toy) in MULTIPLIER_GRID])
def test_multiplier_matches_reference_search(x0, delta, alpha, theta_toy):
    theta, toy = theta_toy
    plan = make_plan(alpha, x0, delta, PSI, 3, theta=theta, toy=toy)
    want = reference_multiplier(x0, delta, ALPHA_PRESETS[alpha].c1_min, theta, toy)
    assert (plan.multiplier, plan.x1) == want
    assert is_primitive_pair(x0, plan.x0_companion)


def test_entry_check_builds_only_the_clauses_it_probes(monkeypatch):
    # each entry check builds its clauses one at a time, in probe order, and
    # none past the first that fails: 153 builds over the 54 checks of the
    # honest multiplier search, where building every plan clause would
    # take 540; plan_clauses still builds all ten from the same definitions
    built = []
    for name, build in list(planner._CLAUSES.items()):
        monkeypatch.setitem(planner._CLAUSES, name,
                            lambda t, _name=name, _build=build: built.append(_name) or _build(t))
    per_check = []
    real_enters = planner._enters

    def counted(plan, max_prec):
        start = len(built)
        got = real_enters(plan, max_prec)
        per_check.append(built[start:])
        return got

    monkeypatch.setattr(planner, "_enters", counted)
    plan = make_plan("sqrt2m1", E3, F(1, 2), PSI, 5)
    assert len(per_check) == 54 and len(built) == 153
    assert all(names == list(planner._ENTRY_CLAUSES[:len(names)]) for names in per_check)
    built.clear()
    assert [c[0] for c in planner.plan_clauses(plan)] == built == list(planner._CLAUSES)


def test_honest_schedule_raises_on_its_invariants():
    # the toy plan's schedule misses growth_lower_i1 and records it; the
    # same plan marked honest has schedule_X raise instead
    plan = make_plan("sqrt2m1", E3, F(4, 5), PSI, 5, theta=F(3, 10), toy=True)
    assert "growth_lower_i1" in schedule_X(plan).invariant_failures
    with pytest.raises(CertificateFailure, match="schedule_invariants: growth_lower_i1"):
        schedule_X(replace(plan, toy=False))
