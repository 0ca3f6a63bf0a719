"""Interval enclosure layer: refinement, certified compares, payloads."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gammacert.balls import (BallReal, Cmp, ball_payload, cert_le,
                             certified_compare, sqrt_int)

F = Fraction

rational = st.fractions(min_value=-1000, max_value=1000)


def test_golden_value():
    g = BallReal.golden().refined_to(200)
    # truncated / rounded-up 50-digit brackets of (1+sqrt 5)/2
    lo = F("16180339887498948482045868343656381177203091798057") / 10 ** 49
    hi = F("16180339887498948482045868343656381177203091798058") / 10 ** 49
    assert lo < g.lo and g.hi < hi
    assert g.width < F(1, 2 ** 150)
    # (2g - 1)^2 = 5 exactly
    alg = (F(2) * BallReal.golden() - F(1)).pow(2).refined_to(192)
    assert alg.lo <= F(5) <= alg.hi
    assert alg.width < F(1, 2 ** 120)
    ok, _ = cert_le(BallReal.golden() * BallReal.golden() - BallReal.golden(),
                    F(10001, 10000))
    assert ok is True


def test_refinement_shrinks():
    b = sqrt_int(186)
    w64 = b.refined_to(64).width
    w256 = b.refined_to(256).width
    assert w256 < w64
    assert b.refined_to(64).lo ** 2 <= 186 <= b.refined_to(64).hi ** 2


def test_exact_values():
    e = BallReal.exact(F(3, 4))
    assert e.is_exact and e.lo == e.hi == F(3, 4)
    assert (e + F(1, 4)).refined_to(64).lo <= 1 <= (e + F(1, 4)).refined_to(64).hi


def test_pow_integer_exact():
    b = BallReal.wrap(F(3, 2)).pow(3).refined_to(64)
    assert b.lo <= F(27, 8) <= b.hi
    assert b.width < F(1, 2 ** 40)


def test_pow_gamma():
    # 2^gamma between 3.069 and 3.070
    v = BallReal.wrap(2).pow(BallReal.golden()).refined_to(96)
    assert F(3069, 1000) < v.lo and v.hi < F(3070, 1000)


def test_cert_le_exact_rationals():
    ok, prec = cert_le(F(1, 3), F(1, 3))
    assert ok is True and prec == 0
    ok, _ = cert_le(F(1, 3), F(1, 4))
    assert ok is False


def test_cert_le_irrational_strict():
    ok, _ = cert_le(sqrt_int(2) * sqrt_int(2), F(2))  # equal values, one fuzzy
    assert ok is not False  # never falsely refuted


def test_certified_compare():
    assert certified_compare(F(1), F(2)) is Cmp.LESS
    assert certified_compare(sqrt_int(5), F(2)) is Cmp.GREATER
    assert certified_compare(sqrt_int(2) + sqrt_int(2), sqrt_int(8),
                             max_prec=256) is Cmp.UNDECIDED


def test_ball_payload_roundtrip():
    p = ball_payload(sqrt_int(186))
    mid = F(int(p["mid_man"])) * F(2) ** int(p["mid_exp"])
    rad = F(int(p["rad_man"])) * F(2) ** int(p["rad_exp"])
    assert (mid - rad) ** 2 <= 186 <= (mid + rad) ** 2
    assert rad < F(1, 2 ** 150)
    # payloads are reproducible: fresh evaluation, not refinement history
    b = sqrt_int(186)
    b.refined_to(4096)
    assert ball_payload(sqrt_int(186)) == p == ball_payload(b)


@given(rational, rational)
def test_cert_le_matches_ground_truth(a, b):
    ok, _ = cert_le(a, b)
    assert ok is (a <= b)


@given(rational, rational)
def test_arithmetic_encloses(a, b):
    s = (BallReal.wrap(a) + BallReal.wrap(b)).refined_to(64)
    assert s.lo <= a + b <= s.hi
    p = (BallReal.wrap(a) * BallReal.wrap(b)).refined_to(64)
    assert p.lo <= a * b <= p.hi


@given(st.integers(min_value=0, max_value=10 ** 12))
def test_sqrt_int_encloses(n):
    b = sqrt_int(n).refined_to(96)
    assert b.lo * b.lo <= n <= b.hi * b.hi
