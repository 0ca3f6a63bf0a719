"""Sequence construction: certificates, ledgers, direction enclosures."""

import sys
from fractions import Fraction as F

import pytest
from mpmath.libmp import libintmath, libmpf

from conftest import HONEST, build_run
from gammacert import DirectionEnclosure, InputError, make_plan, schedule_X
from gammacert import balls, builder, exact
from gammacert.balls import BallReal
from gammacert.builder import build, enclose_u, enclose_vw, x_dot_u_lower
from gammacert.exact import IVec3, cross, dot, proj_dist_sq
from gammacert.planner import PsiSpec


def log2f(fr):
    """floor(log2) up to +-1, safe for astronomically small rationals."""
    fr = F(fr)
    return fr.numerator.bit_length() - fr.denominator.bit_length()


def test_coordinate_growth(toy_state):
    bits = [max(abs(c).bit_length() for c in (v.x, v.y, v.z)) for v in toy_state.xs]
    assert bits == [1, 4, 17, 57, 215, 828, 3205]
    assert toy_state.n_steps == 5 and toy_state.last_index == 6


def test_x_norm_windows_exact(toy_state):
    c1 = toy_state.plan.c1
    for i in range(2, toy_state.n_steps + 2):
        n_sq = toy_state.xs[i].norm_sq()
        x_sq = toy_state.scale(i).sq
        assert x_sq <= n_sq <= 25 * c1 * c1 * x_sq


def test_ledger_delta_bounds(toy_state):
    assert [e.index for e in toy_state.ledger] == [1, 2, 3, 4, 5]
    mags = [log2f(e.delta_ub) for e in toy_state.ledger]
    assert mags == [-4, -35, -153, -607, -2370]
    for prev, cur in zip(toy_state.ledger, toy_state.ledger[1:]):
        assert cur.delta_ub < prev.delta_ub / 2


def test_certificate_census(toy_state):
    assert [v.name for v in toy_state.base_verdicts] == [
        "base_delta0_identity", "base_primitive_pair", "base_dist_floor",
        "tail_halving_generic"]
    assert [len(c.verdicts) for c in toy_state.step_certs] == [9] * 5
    assert [len(e.verdicts) for e in toy_state.ledger] == [6, 8, 8, 8, 8]
    total = (len(toy_state.base_verdicts)
             + sum(len(c.verdicts) for c in toy_state.step_certs)
             + sum(len(e.verdicts) for e in toy_state.ledger))
    assert total == 87
    for group in ([toy_state.base_verdicts]
                  + [c.verdicts for c in toy_state.step_certs]
                  + [e.verdicts for e in toy_state.ledger]):
        assert all(v.passed for v in group)


def test_delta0_ball(toy_state):
    b = toy_state.delta0_ball().refined_to(96)
    # sqrt(17/744) = 0.15116...
    assert F(1511, 10 ** 4) < b.lo and b.hi < F(1512, 10 ** 4)


def test_enclose_u_orthogonal_and_shrinking(toy_state):
    radii = []
    for i in range(1, toy_state.last_index + 1):
        enc = enclose_u(toy_state, i)
        assert dot(enc.rep, toy_state.xs[i - 1]) == 0
        assert dot(enc.rep, toy_state.xs[i]) == 0
        assert enc.radius_sq_ub > 0
        radii.append(enc.radius_sq_ub)
    assert all(b < a for a, b in zip(radii, radii[1:]))
    with pytest.raises(InputError):
        enclose_u(toy_state, 0)
    with pytest.raises(InputError):
        enclose_u(toy_state, toy_state.last_index + 1)


def test_enclose_vw(toy_state):
    V = enclose_vw(toy_state, "V")
    W = enclose_vw(toy_state, "W")
    assert V.rep == toy_state.xs[5] and W.rep == toy_state.xs[6]
    assert log2f(V.radius_sq_ub) == -18404
    assert log2f(W.radius_sq_ub) == -71375
    with pytest.raises(InputError):
        enclose_vw(toy_state, "X")


def test_vw_separation(toy_state):
    d2 = proj_dist_sq(enclose_vw(toy_state, "V").rep, enclose_vw(toy_state, "W").rep)
    assert F(913994, 10 ** 7) < d2 < F(913995, 10 ** 7)


def test_x_dot_u_lower_exact():
    enc = DirectionEnclosure(rep=IVec3(1, 0, 0), radius_sq_ub=F(0))
    b = x_dot_u_lower(IVec3(3, 4, 0), enc)
    assert b.is_exact and b.lo == 3


def test_x_dot_u_anchor_consistency(toy_state):
    # every anchor's certified lower bound must sit below every certified upper
    from gammacert.balls import BallReal, sqrt_int

    x = toy_state.xs[3]
    lowers, uppers = [], []
    for i in range(1, toy_state.last_index + 1):
        enc = enclose_u(toy_state, i)
        lowers.append(x_dot_u_lower(x, enc).refined_to(192).lo)
        d = abs(dot(x, enc.rep))
        up = (BallReal.wrap(F(d)) / sqrt_int(enc.rep.norm_sq())
              + 2 * sqrt_int(x.norm_sq()) * BallReal.wrap(enc.radius_sq_ub).sqrt())
        uppers.append(up.refined_to(192).hi)
    assert max(lowers) <= min(uppers)
    assert max(lowers) > 0


def test_delta_upper_tail(toy_state):
    d6 = toy_state.delta_upper(6).refined_to(64)
    d7 = toy_state.delta_upper(7).refined_to(64)
    assert 0 < d6.hi < F(1, 1 << 9000)
    assert 0 < d7.hi < F(1, 1 << 35000)
    with pytest.raises(InputError):
        toy_state.delta_upper(8)


def test_short_run_cannot_enclose_vw():
    plan = make_plan("sqrt2m1", IVec3(0, 0, 1), F(4, 5), PsiSpec(F(1), 1), 1,
                     theta=F(3, 10), toy=True)
    st = build(plan, schedule_X(plan))
    assert st.n_steps == 1
    with pytest.raises(InputError):
        enclose_vw(st, "V")


def test_honest_build_work(monkeypatch):
    # solve_dot_one runs for the planner's completion only, since step 1
    # starts from the plan's -x0' and every later step from the convergent
    # identity; step 5's
    # a-selection refines once, to a's bit length plus 64 = 11,090 bits;
    # and no square root reaches mpmath's mpf_sqrt and its pure-Python
    # integer roots, while balls' own kernel runs (mpmath's exp and log
    # call isqrt_fast_python themselves, not through mpf_sqrt)
    solved = []
    real_solve = exact.solve_dot_one
    monkeypatch.setattr(exact, "solve_dot_one",
                        lambda c: solved.append(c) or real_solve(c))
    steps, precs = [], []
    real_step = builder.recursive_step

    def counted_step(*args, **kwargs):
        steps.append(len(steps) + 1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(builder, "recursive_step", counted_step)
    for name in ("refine", "refined_to"):
        def recording(self, *args, _method=getattr(BallReal, name)):
            got = _method(self, *args)
            if sys._getframe(1).f_code.co_name == "recursive_step":
                precs.append((steps[-1], got.prec))
            return got
        monkeypatch.setattr(BallReal, name, recording)

    roots = {libintmath.isqrt_fast_python.__code__, libintmath.sqrtrem_python.__code__}
    via_mpf_sqrt, kernel_calls = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is balls._mpf_sqrt.__code__:
            kernel_calls.append(1)
        elif frame.f_code is libmpf.mpf_sqrt.__code__:
            via_mpf_sqrt.append("mpf_sqrt")
        elif frame.f_code in roots:
            caller = frame.f_back
            while caller is not None and caller.f_code is not libmpf.mpf_sqrt.__code__:
                caller = caller.f_back
            if caller is not None:
                via_mpf_sqrt.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        state = build_run(HONEST, toy=False)
    finally:
        sys.setprofile(None)
    assert len(solved) == 1 and steps == [1, 2, 3, 4, 5]
    assert [p for i, p in precs if i == 5] == [11_090]
    assert state.step_outputs[4].a.bit_length() + 64 == 11_090
    assert via_mpf_sqrt == [] and kernel_calls


@pytest.mark.parametrize("which", ["toy", "honest"])
def test_crosses_are_taken_once_and_match(request, monkeypatch, which):
    # us[k] is cross(xs[k], xs[k+1]); enclose_u reads it, and each ledger's
    # u_step value, from the triple cross identity, equals the squared
    # distance of the two crosses
    state = request.getfixturevalue(f"{which}_state")
    assert state.us == [cross(a, b) for a, b in zip(state.xs, state.xs[1:])]
    for i in range(1, state.last_index + 1):
        assert enclose_u(state, i).rep is state.us[i - 1]
    got = []
    real_certify = builder.certify

    def capture(name, lhs, rhs, max_prec, verdicts):
        if name.startswith("u_step_i"):
            got.append(lhs.exact_value)
        return real_certify(name, lhs, rhs, max_prec, verdicts)

    monkeypatch.setattr(builder, "certify", capture)
    plan, schedule = state.plan, state.schedule
    rebuilt = build(plan, schedule)
    assert rebuilt.xs == state.xs
    assert got == [proj_dist_sq(cross(state.xs[i - 1], state.xs[i]),
                                cross(state.xs[i], state.xs[i + 1]))
                   for i in range(1, state.n_steps + 1)]
