"""Recursive step: hand-checked fixture, identities, hypothesis gating."""

import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest

from conftest import TOY, build_run, run_table
from gammacert import (ALPHA_PRESETS, CertificateFailure, ConvergentTable,
                       InputError, UndecidedError, sqrt_int)
from gammacert import stepper
from gammacert.balls import DEFAULT_MAX_PREC, DEFAULT_PREC, BallReal, cert_le
from gammacert.exact import IVec3, complete_to_basis, cross, det3, dot
from gammacert.stepper import (
    Verdict,
    YSpec,
    certify,
    decompose_in_basis,
    recursive_step,
)

E1, E2 = IVec3(1, 0, 0), IVec3(0, 1, 0)


def table():
    return ConvergentTable(ALPHA_PRESETS["sqrt2m1"])


def test_certify_outcomes():
    verdicts = []
    certify("holds", sqrt_int(2), sqrt_int(3), 256, verdicts)
    assert verdicts == [Verdict("holds", True, 64)]
    with pytest.raises(CertificateFailure, match="refuted"):
        certify("too_big", F(2), sqrt_int(2), 256, verdicts)
    close = sqrt_int(2) + F(1, 2 ** 200)
    with pytest.raises(UndecidedError):
        certify("tight", sqrt_int(2), close, 64, verdicts)
    assert verdicts == [Verdict("holds", True, 64)]
    certify("tight", sqrt_int(2), close, 512, verdicts)
    assert verdicts[-1].name == "tight" and verdicts[-1].prec == 256


def record_step_precisions(monkeypatch):
    """The precision reached by each refine or refined_to call made directly
    from recursive_step, in call order."""
    seen = []
    for name in ("refine", "refined_to"):
        def recording(self, *args, _method=getattr(BallReal, name)):
            got = _method(self, *args)
            if sys._getframe(1).f_code.co_name == "recursive_step":
                seen.append(got.prec)
            return got
        monkeypatch.setattr(BallReal, name, recording)
    return seen


def test_a_selection_precision_stays_low(monkeypatch):
    # the a-selection refines only its own enclosure of the target, and only
    # until both endpoints share a ceiling: one jump through refined_to, then
    # doublings through refine
    seen = record_step_precisions(monkeypatch)
    build_run(TOY, toy=True)
    assert seen and max(seen) <= 4096, sorted(set(seen))


@pytest.mark.parametrize("cap", [100, 1024])
def test_a_selection_jump_stops_at_the_cap(monkeypatch, toy_state, cap):
    # toy step 5 needs 1186 bits to separate a's ceiling; under a lower cap
    # the a-selection jumps once, to the cap itself, and ceil(hi) still
    # certifies a sufficient a
    seen = record_step_precisions(monkeypatch)
    s = toy_state
    out, _ = recursive_step(s.xs[4], s.xs[5], YSpec.of_power(s.scale(5).sq),
                            s.scale(6).value_int, run_table(s), cap)
    assert seen == [cap]
    assert out.a >= s.step_outputs[4].a


@pytest.mark.parametrize("cap", [1000, 1185, 1187, 1500])
def test_a_selection_jump_goes_to_need_or_the_cap(monkeypatch, toy_state, cap):
    # toy step 5 separates a's ceiling at need = 1186 bits, a's bit length
    # plus 64: the jump goes there, or to a cap below it that is not a
    # power of two, and stops
    seen = record_step_precisions(monkeypatch)
    s = toy_state
    out, _ = recursive_step(s.xs[4], s.xs[5], YSpec.of_power(s.scale(5).sq),
                            s.scale(6).value_int, run_table(s), cap)
    assert seen == [min(cap, 1186)]
    if cap >= 1186:
        assert out.a == s.step_outputs[4].a
    else:
        assert out.a >= s.step_outputs[4].a


def near_half_integer_base_sq():
    """A base_sq with base_sq^(gamma/2) within about 2^-2290 of 21/2."""
    with mpmath.workprec(2400):
        gamma = (1 + mpmath.sqrt(5)) / 2
        man, exp = mpmath.frexp((mpmath.mpf(21) / 2) ** (2 / gamma))
        return F(int(mpmath.ldexp(man, 2300)), 2 ** (2300 - exp))


@pytest.mark.parametrize("cap, precs, a", [
    (1000, [68, 136, 272, 544, 1000], 13),
    (4096, [68, 136, 272, 544, 1088, 2176, 4096], 12),
])
def test_a_selection_doubles_up_to_the_cap(monkeypatch, cap, precs, a):
    # Y = 21/2 - 2^-2290 or so puts the target Y + 3/2 just below 12: the
    # jump to need = 68 bits leaves it undecided, the doublings stop at a
    # cap that is not a power of two, where ceil(hi) = 13 is still
    # sufficient, and a cap of 4096 bits separates a = 12
    seen = record_step_precisions(monkeypatch)
    out, _ = recursive_step(E1, E2, YSpec.of_power(near_half_integer_base_sq()), 40,
                            table(), cap)
    assert seen == precs
    assert out.a == a


def reference_a(x_star, x, Y_spec, X_prime, table, max_prec=DEFAULT_MAX_PREC):
    """The certified-compare search for a that recursive_step used to run.

    It takes recursive_step's arguments and tests
    (a + r)|x*| >= Y + |x|/2 + 1 one candidate at a time, upward from the
    floor of a target enclosure of width <= 1/4.
    """
    nx_star, nx = sqrt_int(x_star.norm_sq()), sqrt_int(x.norm_sq())
    Y = Y_spec.ball()
    r, _ = decompose_in_basis(complete_to_basis(x_star, x), x_star, x)
    target = ((Y + nx / 2 + 1) / nx_star - BallReal.exact(r)).refined_to(DEFAULT_PREC)
    while target.hi - target.lo > F(1, 4) and target.prec < max_prec:
        target = target.refined_to(2 * target.prec)
    a = math.floor(target.lo)

    def satisfies(cand):
        ok, _ = cert_le(Y + nx / 2 + 1, BallReal.exact(F(cand) + r) * nx_star,
                        max_prec)
        return ok

    while satisfies(a) is False:
        a += 1
    if satisfies(a) is None:
        a += 1
        assert satisfies(a) is True
    assert satisfies(a - 1) is not True
    return a


def _build_inputs(state):
    t = run_table(state)
    return [((state.xs[i - 1], state.xs[i], YSpec.of_power(state.scale(i).sq),
              state.scale(i + 1).value_int, t),
             state.step_outputs[i - 1].a)
            for i in range(1, state.n_steps + 1)]


def test_a_matches_reference_search(toy_state, honest_state):
    t = table()
    cases = _build_inputs(toy_state) + _build_inputs(honest_state)
    for Y, Xp in RATIONAL_Y_CASES:
        args = (E1, E2, YSpec.of_rational(Y), Xp, t)
        cases.append((args, recursive_step(*args)[0].a))
    assert len(cases) == 13
    for args, a in cases:
        assert a == reference_a(*args)


def test_hand_fixture():
    out, _ = recursive_step(E1, E2, YSpec.of_rational(4), 10, table())
    assert out.y == IVec3(6, 0, 1)
    assert out.x_prime == IVec3(77, 0, 12)
    assert out.n == 4
    assert (det3(E1, E2, out.y), det3(E1, E2, out.x_prime),
            det3(out.y, E2, out.x_prime)) == (1, 12, -5)


def test_hand_fixture_details():
    out, cert = recursive_step(E1, E2, YSpec.of_rational(4), 10, table())
    assert (out.a, out.m, out.ell) == (6, 0, 0)
    assert out.r == 0 and out.s == 0
    assert len(cert.verdicts) == 9 and all(v.passed for v in cert.verdicts)
    # y lands in the prescribed norm window [Y, 2Y]
    assert 16 <= out.y.norm_sq() <= 64
    assert 100 <= out.x_prime.norm_sq() <= 25 * 16 * 100


RATIONAL_Y_CASES = {
    (F(5), 14): (IVec3(7, 0, 1), IVec3(89, 0, 12), 4),
    (F(6), 19): (IVec3(8, 0, 1), IVec3(101, 0, 12), 4),
    (F(4), 12): (IVec3(6, 0, 1), IVec3(77, 0, 12), 4),
}


def test_rational_Y_sweep():
    t = table()
    for (Y, Xp), (y, xp, n) in RATIONAL_Y_CASES.items():
        out, _ = recursive_step(E1, E2, YSpec.of_rational(Y), Xp, t)
        assert (out.y, out.x_prime, out.n) == (y, xp, n)


def test_power_Y_spec():
    # Y = 17^(gamma/2) ~ 9.9 forces certified (not rational) comparisons
    out, cert = recursive_step(E1, E2, YSpec.of_power(17), 11, table())
    assert out.y == IVec3(12, 0, 1)
    assert out.x_prime == IVec3(62, 0, 5)
    assert out.n == 3
    assert all(v.passed for v in cert.verdicts)


def test_randomized_steps_hold_identities():
    t = table()
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        xs, x = IVec3(1, a, b), IVec3(0, 1, c)
        ns = math.isqrt(xs.norm_sq()) + 1
        nx = math.isqrt(x.norm_sq()) + 1
        Y = F(2 * (ns + nx) + rng.randint(0, 5))
        Xp = int(Y) * rng.randint(1, 8) + rng.randint(0, 9)
        out, cert = recursive_step(xs, x, YSpec.of_rational(Y), Xp, t)
        pn, qn = t.pair(out.n)
        assert (det3(xs, x, out.y), det3(xs, x, out.x_prime),
                det3(out.y, x, out.x_prime)) == (1, qn, -pn)
        assert cross(cross(xs, x), cross(x, out.x_prime)) == qn * x
        assert all(v.passed for v in cert.verdicts)
        assert Xp * Xp <= out.x_prime.norm_sq() <= 400 * Xp * Xp
        assert -F(1, 2) < out.s <= F(1, 2)


@pytest.mark.parametrize("state_name", ["toy_state", "honest_state"])
def test_step_facts_hold_on_built_states(request, state_name):
    # the facts recursive_step and the ledger no longer re-check, because
    # Cramer's rule, the ceiling, the nearest integer, det_qn and the
    # primitivity of each consecutive pair already prove them
    state = request.getfixturevalue(state_name)
    t = run_table(state)
    for i, out in enumerate(state.step_outputs, start=1):
        x_star, x, x_next = state.xs[i - 1], state.xs[i], state.xs[i + 1]
        y0 = complete_to_basis(x_star, x)
        s0 = out.s - out.ell  # the coordinate before the reduction
        for v in (x_star, x):
            assert dot(y0, v) - out.r * dot(x_star, v) - s0 * dot(x, v) == 0
        assert -F(1, 2) < out.s <= F(1, 2)
        _, qn = t.pair(out.n)
        assert abs(out.s * qn + out.m) <= F(1, 2)
        # the ledger's triple_cross_i and intersection_i
        u_i, u_next = cross(x_star, x), cross(x, x_next)
        assert cross(u_i, u_next) == qn * x
        assert u_i.content() == u_next.content() == 1
        assert det3(x_star, x, x_next) != 0


def test_step_identity_checks_fire(monkeypatch):
    # the ledger records triple_cross_i and intersection_i from det_qn and
    # output_pair_primitive, so each must raise when its fact fails
    xp = IVec3(77, 0, 12)  # the hand fixture's x'
    real_det3 = stepper.det3

    def det3_off_on_det_qn(a, b, c):
        return real_det3(a, b, c) + (1 if (a, b, c) == (E1, E2, xp) else 0)

    monkeypatch.setattr(stepper, "det3", det3_off_on_det_qn)
    with pytest.raises(CertificateFailure, match="det_qn"):
        recursive_step(E1, E2, YSpec.of_rational(4), 10, table())
    monkeypatch.undo()
    # the step takes u' = cross(x, x') once and tests that it is primitive
    real_primitive = stepper.is_primitive_point
    monkeypatch.setattr(stepper, "is_primitive_point",
                        lambda c: c != cross(E2, xp) and real_primitive(c))
    with pytest.raises(CertificateFailure, match="output_pair_primitive"):
        recursive_step(E1, E2, YSpec.of_rational(4), 10, table())


def test_hypothesis_gating():
    t = table()
    with pytest.raises(CertificateFailure, match="hyp_norms_le_Y"):
        recursive_step(E1, E2, YSpec.of_rational(3), 10, t)
    with pytest.raises(CertificateFailure, match="hyp_Y_le_Xprime"):
        recursive_step(E1, E2, YSpec.of_rational(6), 5, t)
    with pytest.raises(InputError):
        recursive_step(IVec3(2, 0, 0), IVec3(0, 2, 0), YSpec.of_rational(9), 20, t)


def test_decompose_in_basis():
    assert decompose_in_basis(IVec3(6, 0, 1), E1, E2) == (6, 0)
    xs, x = IVec3(1, 1, 0), IVec3(0, 1, 1)
    assert decompose_in_basis(IVec3(0, 0, 1), xs, x) == (F(-1, 3), F(2, 3))


def test_decompose_errors():
    with pytest.raises(InputError):
        decompose_in_basis(IVec3(0, 0, 1), IVec3(1, 2, 0), IVec3(2, 4, 0))


def test_yspec_validation():
    with pytest.raises(InputError):
        YSpec.of_power(-1)
    assert YSpec.of_rational(F(7, 2)).ball().is_exact


@pytest.mark.parametrize("x_star, x, y, x_prime, rows, clause", [
    (E1, E2, 13, 32, -1, "xprime_norm_lower"),
    (IVec3(1, 1, 0), IVec3(0, 0, 1), 5, 5, 1, "xprime_norm_upper"),
])
def test_xprime_norm_checks_fire(monkeypatch, x_star, x, y, x_prime, rows, clause):
    # the located row n puts X' <= ||x'|| <= 5 C1 X'; one row off, x' is
    # q_{n-1} y + ... or q_{n+1} y + ..., and leaves that range here
    recursive_step(x_star, x, YSpec.of_rational(y), x_prime, table())
    real_locate = stepper.locate_n
    monkeypatch.setattr(stepper, "locate_n",
                        lambda *args: real_locate(*args) + rows)
    with pytest.raises(CertificateFailure, match=clause):
        recursive_step(x_star, x, YSpec.of_rational(y), x_prime, table())
