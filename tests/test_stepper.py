"""Recursive step: hand-checked fixture, identities, hypothesis gating."""

import math
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import TOY, build_run
from gammacert import stepper
from gammacert import (ALPHA_PRESETS, CertificateFailure, ConvergentTable,
                       InputError, UndecidedError, sqrt_int)
from gammacert.exact import IVec3, cross
from gammacert.stepper import (
    StepInput,
    Verdict,
    YSpec,
    certify,
    decompose_in_basis,
    recursive_step,
    unit_normal_sq,
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


def test_satisfies_precision_stays_low(monkeypatch):
    # cert_le refines both operands in lockstep; a right side shared across
    # the a-search's calls would carry every earlier call's precision forward
    seen = []
    cert_le = stepper.cert_le

    def recording_cert_le(a, b, max_prec):
        got = cert_le(a, b, max_prec)
        if sys._getframe(1).f_code.co_name == "satisfies":
            seen.append(max(t.prec for t in (a, b) if not t.is_exact))
        return got

    monkeypatch.setattr(stepper, "cert_le", recording_cert_le)
    build_run(TOY, toy=True)
    assert seen and max(seen) <= 4096, sorted(set(seen))


def test_hand_fixture():
    out, cert = recursive_step(StepInput(E1, E2, YSpec.of_rational(4), 10, table()))
    assert out.y == IVec3(6, 0, 1)
    assert out.x_prime == IVec3(77, 0, 12)
    assert out.n == 4
    assert (cert.det_basis, cert.det_qn, cert.det_pn) == (1, 12, -5)


def test_hand_fixture_details():
    out, cert = recursive_step(StepInput(E1, E2, YSpec.of_rational(4), 10, table()))
    assert (out.a, out.m, out.ell) == (6, 0, 0)
    assert out.r == 0 and out.s == 0
    assert cert.h_sq == 1
    assert cert.notes == ()
    assert len(cert.verdicts) == 9 and all(v.passed for v in cert.verdicts)
    # y lands in the prescribed norm window [Y, 2Y]
    assert 16 <= out.y.norm_sq() <= 64
    assert 100 <= out.x_prime.norm_sq() <= 25 * 16 * 100


def test_rational_Y_sweep():
    t = table()
    cases = {
        (F(5), 14): (IVec3(7, 0, 1), IVec3(89, 0, 12), 4),
        (F(6), 19): (IVec3(8, 0, 1), IVec3(101, 0, 12), 4),
        (F(4), 12): (IVec3(6, 0, 1), IVec3(77, 0, 12), 4),
    }
    for (Y, Xp), (y, xp, n) in cases.items():
        out, _ = recursive_step(StepInput(E1, E2, YSpec.of_rational(Y), Xp, t))
        assert (out.y, out.x_prime, out.n) == (y, xp, n)


def test_power_Y_spec():
    # Y = 17^(gamma/2) ~ 9.9 forces certified (not rational) comparisons
    out, cert = recursive_step(StepInput(E1, E2, YSpec.of_power(17), 11, table()))
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
        out, cert = recursive_step(StepInput(xs, x, YSpec.of_rational(Y), Xp, t))
        pn, qn = t.pair(out.n)
        assert cert.det_basis == 1 and cert.det_qn == qn and cert.det_pn == -pn
        assert cross(cross(xs, x), cross(x, out.x_prime)) == qn * x
        assert all(v.passed for v in cert.verdicts)
        assert Xp * Xp <= out.x_prime.norm_sq() <= 400 * Xp * Xp
        assert -F(1, 2) < out.s <= F(1, 2)


def test_hypothesis_gating():
    t = table()
    with pytest.raises(CertificateFailure, match="hyp_norms_le_Y"):
        recursive_step(StepInput(E1, E2, YSpec.of_rational(3), 10, t))
    with pytest.raises(CertificateFailure, match="hyp_Y_le_Xprime"):
        recursive_step(StepInput(E1, E2, YSpec.of_rational(6), 5, t))
    with pytest.raises(InputError):
        recursive_step(StepInput(IVec3(2, 0, 0), IVec3(0, 2, 0),
                                 YSpec.of_rational(9), 20, t))


def test_decompose_in_basis():
    r, s, sign = decompose_in_basis(IVec3(6, 0, 1), E1, E2)
    assert (r, s, sign) == (6, 0, 1)
    xs, x = IVec3(1, 1, 0), IVec3(0, 1, 1)
    r, s, sign = decompose_in_basis(IVec3(0, 0, 1), xs, x)
    assert (r, s, sign) == (F(-1, 3), F(2, 3), 1)


def test_decompose_errors():
    with pytest.raises(InputError):
        decompose_in_basis(IVec3(0, 0, 1), IVec3(1, 2, 0), IVec3(2, 4, 0))
    with pytest.raises(InputError):
        decompose_in_basis(IVec3(1, 1, 0), E1, E2)  # y0 inside the plane


def test_unit_normal_sq():
    assert unit_normal_sq(E1, E2) == (IVec3(0, 0, 1), 1)
    assert unit_normal_sq(IVec3(2, 0, 0), IVec3(0, 3, 0)) == (IVec3(0, 0, 6), 36)


def test_yspec_validation():
    with pytest.raises(InputError):
        YSpec.of_power(-1)
    assert YSpec.of_rational(F(7, 2)).ball().is_exact
