"""Plan assembly: companion, multiplier, schedule exponents, invariants."""

from fractions import Fraction as F

import pytest

from gammacert import (
    BallReal,
    InputError,
    Plan,
    PsiSpec,
    Schedule,
    XScale,
    choose_companion,
    make_plan,
    schedule_X,
)
from gammacert.exact import IVec3, proj_dist_sq

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
