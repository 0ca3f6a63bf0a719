"""Interval enclosure layer: refinement, certified compares, payloads."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_rational

from gammacert.balls import (PAYLOAD_PREC, BallReal, Cmp, _ctx, _dyadic_man,
                             _exact_sqrt, _isqrt_exact, _iv_from_fraction,
                             _mpf_tuple_to_fraction, ball_payload, cert_le,
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


# -- the linear-time conversion against mpmath's own -------------------------

precs = st.sampled_from((53, 64, PAYLOAD_PREC, 1024))


def _mpmath_endpoints(fr: Fraction, prec: int):
    p, q = fr.numerator, fr.denominator
    if q == 1:
        return from_int(p, prec, "f"), from_int(p, prec, "c")
    return from_rational(p, q, prec, "f"), from_rational(p, q, prec, "c")


def _check_conversion(fr: Fraction, prec: int):
    lo, hi = _iv_from_fraction(_ctx(prec), fr)._mpi_
    assert (lo, hi) == _mpmath_endpoints(fr, prec)
    assert _mpf_tuple_to_fraction(lo) <= fr <= _mpf_tuple_to_fraction(hi)


def test_negative_rationals_are_enclosed():
    # rounding toward zero and away from it would swap the endpoints here
    b = (BallReal.exact(F(-1, 3)) + sqrt_int(2) * 0).refined_to(64)
    assert not b.is_exact and b.lo < F(-1, 3) < b.hi


@given(st.integers(-2 ** 3000, 2 ** 3000), st.integers(0, 700), precs)
def test_conversion_integers(n, shift, prec):
    # hundreds of trailing zero bits, both signs, and zero
    _check_conversion(Fraction(n << shift), prec)


@settings(max_examples=25, deadline=None)
@given(st.integers(-2 ** 4000, 2 ** 4000), st.integers(70000, 72000), precs)
def test_conversion_huge_dyadics(n, k, prec):
    _check_conversion(Fraction(2 * n + 1, 1 << k), prec)


@given(st.integers(-2 ** 2000, 2 ** 2000), st.integers(1, 2 ** 2000),
       st.integers(0, 300), precs)
def test_conversion_rationals(p, q, shift, prec):
    # any rational; the shift puts trailing zeros into the denominator
    _check_conversion(Fraction(p, q << shift), prec)


# -- the quadratic-residue filter ahead of isqrt -----------------------------

def _plain_sqrt(fr: Fraction):
    pn, pd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if pn * pn == fr.numerator and pd * pd == fr.denominator:
        return Fraction(pn, pd)
    return None


@given(st.integers(0, 2 ** 4000))
def test_residue_filter_keeps_squares(k):
    assert _isqrt_exact(k * k) == k


@given(st.integers(0, 2 ** 1000), st.integers(-3, 3))
def test_isqrt_exact_matches_isqrt(k, d):
    n = max(k * k + d, 0)
    r = math.isqrt(n)
    assert _isqrt_exact(n) == (r if r * r == n else None)


@given(st.integers(0, 2 ** 600), st.integers(1, 2 ** 600), st.booleans())
def test_exact_sqrt_matches_plain(p, q, square):
    fr = Fraction(p * p, q * q) if square else Fraction(p, q)
    assert _exact_sqrt(fr) == _plain_sqrt(fr)


def test_dyadic_payload_rejects_non_dyadic():
    assert _dyadic_man(Fraction(-3, 8)) == -3
    with pytest.raises(ValueError, match="not dyadic"):
        _dyadic_man(Fraction(1, 3))
