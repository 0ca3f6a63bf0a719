"""Interval enclosure layer: refinement, certified compares, payloads."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (ComplexResult, finf, fnan, fninf, from_int,
                          from_man_exp, from_rational, fzero, mpf_sqrt)
from mpmath.libmp.libmpf import fnzero

from gammacert.balls import (PAYLOAD_PREC, BallReal, Cmp, _ctx, _dyadic_man,
                             _isqrt_exact, _iv_from_ratio, _mpf_sqrt,
                             _mpf_tuple_to_fraction, ball_payload, cert_le,
                             certified_compare, sqrt_int, sqrt_ratio)

F = Fraction

rational = st.fractions(min_value=-1000, max_value=1000)


def test_golden_value():
    g = BallReal.golden().refined_to(200)
    # truncated / rounded-up 50-digit brackets of (1+sqrt 5)/2
    lo = F("16180339887498948482045868343656381177203091798057") / 10 ** 49
    hi = F("16180339887498948482045868343656381177203091798058") / 10 ** 49
    assert lo < g.lo and g.hi < hi
    assert g.hi - g.lo < F(1, 2 ** 150)
    # (2g - 1)^2 = 5 exactly
    alg = (F(2) * BallReal.golden() - F(1)).pow(2).refined_to(192)
    assert alg.lo <= F(5) <= alg.hi
    assert alg.hi - alg.lo < F(1, 2 ** 120)
    ok, _ = cert_le(BallReal.golden() * BallReal.golden() - BallReal.golden(),
                    F(10001, 10000))
    assert ok is True


def test_refinement_shrinks():
    b = sqrt_int(186)
    # refined_to refines in place, so each width is read before the next call
    w64 = b.refined_to(64).hi - b.lo
    w256 = b.refined_to(256).hi - b.lo
    assert w256 < w64
    assert b.refined_to(64).lo ** 2 <= 186 <= b.refined_to(64).hi ** 2


def test_exact_values():
    e = BallReal.exact(F(3, 4))
    assert e.is_exact and e.lo == e.hi == F(3, 4)
    assert (e + F(1, 4)).refined_to(64).lo <= 1 <= (e + F(1, 4)).refined_to(64).hi


def test_pow_integer_exact():
    b = BallReal.wrap(F(3, 2)).pow(3).refined_to(64)
    assert b.lo <= F(27, 8) <= b.hi
    assert b.hi - b.lo < F(1, 2 ** 40)


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


def reference_certified_compare(a, b, max_prec=1 << 16):
    """certified_compare as its own refine-until-separated loop."""
    x, y = BallReal.wrap(a), BallReal.wrap(b)
    if x.is_exact and y.is_exact:
        if x.exact_value < y.exact_value:
            return Cmp.LESS
        if x.exact_value > y.exact_value:
            return Cmp.GREATER
        return Cmp.UNDECIDED
    while True:
        if x.hi < y.lo:
            return Cmp.LESS
        if x.lo > y.hi:
            return Cmp.GREATER
        worked = False
        for t in (x, y):
            if not t.is_exact and t.prec < max_prec:
                t.refine()
                worked = True
        if not worked:
            return Cmp.UNDECIDED


@given(rational, rational)
def test_certified_compare_matches_reference_on_rationals(a, b):
    assert certified_compare(a, b) is reference_certified_compare(a, b)
    assert certified_compare(a, a) is reference_certified_compare(a, a) is Cmp.UNDECIDED


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), rational)
def test_certified_compare_matches_reference_on_surds(n, b):
    # fresh balls per call: the reference must not start from refined ones
    for left, right in ((lambda: sqrt_int(n), lambda: b), (lambda: b, lambda: sqrt_int(n))):
        assert certified_compare(left(), right()) is reference_certified_compare(left(), right())


@pytest.mark.parametrize("left, right", [
    (lambda: sqrt_int(2) + sqrt_int(2), lambda: sqrt_int(8)),
    (lambda: sqrt_int(8), lambda: sqrt_int(2) + sqrt_int(2)),
    (lambda: sqrt_int(2) * sqrt_int(2), lambda: F(2)),
    (lambda: sqrt_int(3) * sqrt_int(12), lambda: F(6)),
    (lambda: BallReal.golden() * 2 - 1, lambda: sqrt_int(5)),
])
def test_certified_compare_matches_reference_on_equal_reals(left, right):
    got = certified_compare(left(), right(), max_prec=256)
    assert got is reference_certified_compare(left(), right(), max_prec=256)
    assert got is Cmp.UNDECIDED


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
    lo, hi = _iv_from_ratio(_ctx(prec), fr.numerator, fr.denominator)._mpi_
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


def _exact_sqrt(fr: Fraction):
    """Reference root test, one per term: a reduced fraction is a rational
    square exactly when both its terms are perfect squares."""
    pn, pd = _isqrt_exact(fr.numerator), _isqrt_exact(fr.denominator)
    return None if pn is None or pd is None else Fraction(pn, pd)


def _reference_sqrt(fr: Fraction) -> BallReal:
    """sqrt(fr) by the per-term test, else from fr's directed endpoints."""
    root = _exact_sqrt(fr)
    if root is not None:
        return BallReal.exact(root)
    return BallReal(lambda ctx: ctx.sqrt(_iv_from_ratio(ctx, fr.numerator,
                                                        fr.denominator)))


@given(st.integers(0, 2 ** 600), st.integers(1, 2 ** 600), st.booleans())
def test_exact_sqrt_matches_plain(p, q, square):
    fr = Fraction(p * p, q * q) if square else Fraction(p, q)
    assert _exact_sqrt(fr) == _plain_sqrt(fr)
    assert BallReal.exact(fr).sqrt().exact_value == _plain_sqrt(fr)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 700), st.integers(1, 2 ** 700), st.integers(1, 2 ** 300),
       st.booleans(), precs)
@example(0, 7, 5, False, 64)  # zero
@example(6, 12, 1, False, 64)  # 1/2 by an unreduced denominator
@example(4 * 9, 9 * 16, 1, True, 64)  # an unreduced square
def test_sqrt_ratio_matches_reduced_fraction(p, q, k, square, prec):
    # the terms as a caller hands them over, with a common factor k
    num, den = (p * p * k, q * q * k) if square else (p * k, q * k)
    fast, slow = sqrt_ratio(num, den), _reference_sqrt(Fraction(num, den))
    assert fast.exact_value == slow.exact_value
    if not fast.is_exact:
        assert fast._eval_at(prec) == slow._eval_at(prec)
        assert fast.refined_to(prec).prec == slow.refined_to(prec).prec


def test_dyadic_payload_rejects_non_dyadic():
    assert _dyadic_man(Fraction(-3, 8)) == -3
    with pytest.raises(ValueError, match="not dyadic"):
        _dyadic_man(Fraction(1, 3))


# -- the per-precision memo ---------------------------------------------------

def test_shared_leaf_runs_its_handle_once_per_precision():
    calls = Counter()

    def root_two(ctx):
        calls[ctx.prec] += 1
        return ctx.sqrt(_iv_from_ratio(ctx, 2, 1))

    leaf = BallReal(root_two)
    parents = [leaf * k + leaf.sqrt() / (leaf + k) for k in range(1, 21)]
    for p in parents:
        # each parent decides at its own precision; the leaf runs once there
        assert cert_le(p, p + F(1, 2 ** 300), max_prec=1024) == (True, 512)
        ball_payload(p)
    assert calls == {64: 1, 128: 1, 256: 1, 512: 1, PAYLOAD_PREC: 1}
    # the leaf's own refinement state stays untouched by its parents' use
    assert leaf.prec == 0


def _tree():
    """One expression with shared leaves: x = sqrt 7, g = golden, a = x g + x/3,
    value a^(g+1) / (x + 1/2) + sqrt(a) g."""
    x, g = sqrt_int(7), BallReal.golden()
    a = x * g + x / 3
    return a.pow(g + 1) / (x + F(1, 2)) + a.sqrt() * g


def _plain_tree(ctx):
    """_tree's value at ctx by the same interval operations, with no ball."""
    x = ctx.sqrt(_iv_from_ratio(ctx, 7, 1))
    g = (1 + ctx.sqrt(_iv_from_ratio(ctx, 5, 1))) / 2
    a = x * g + x / _iv_from_ratio(ctx, 3, 1)
    e = g + _iv_from_ratio(ctx, 1, 1)
    head = ctx.exp(e * ctx.log(a)) / (x + _iv_from_ratio(ctx, 1, 2))
    return head + ctx.sqrt(a) * g


_MEMO_TREE = _tree()  # shared by every example, so its memo accumulates


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(53, 4096), min_size=1, max_size=4))
@example([53, 4096, 53, 192])
def test_memoised_tree_matches_unmemoised_rebuild(precs):
    for prec in precs:
        lo, hi = _plain_tree(_ctx(prec))._mpi_
        plain = (_mpf_tuple_to_fraction(lo), _mpf_tuple_to_fraction(hi))
        assert _MEMO_TREE._eval_at(prec) == plain == _tree()._eval_at(prec)


def test_payload_ignores_refinement_to_1024_bits():
    fresh = ball_payload(_tree())
    for steps in ((1024,), (PAYLOAD_PREC, 1024), (64, 128, 256, 512, 1024)):
        b = _tree()
        for prec in steps:
            b.refined_to(prec)
        assert b.prec == 1024
        assert ball_payload(b) == fresh


def _sqrt_cases(rng, count):
    """(mpf, prec) pairs for the square-root kernel: the special values,
    man == 1 at even and odd exponents, exact squares, odd exponents and
    negative inputs, at precisions from 1 bit up, mostly below 600 bits and
    four cases in 100 up to 70,000 bits (powers of two and their neighbours
    among them)."""
    specials = [fzero, fnzero, finf, fninf, fnan, from_int(-1), from_int(-5)]
    wide = [1 << k for k in range(17)] + [(1 << k) + d for k in range(1, 17) for d in (-1, 1)]
    wide += [11_090, 65_536, 69_999, 70_000]
    for i in range(count):
        kind = i % 6
        if i % 100 < 2:
            prec = wide[(i // 2) % len(wide)]
        elif i % 100 in (50, 51):
            prec = rng.randint(1, 70_000)
        else:
            prec = rng.randint(1, rng.choice((8, 64, 600)))
        exp = rng.randint(-400, 400)
        if kind == 0:
            x = specials[(i // 6) % len(specials)]
        elif kind == 1:
            x = from_man_exp(1, exp)
        elif kind == 2:
            k = rng.getrandbits(rng.randint(1, 300)) | 1
            x = from_man_exp(k * k, 2 * exp)
        elif kind == 3:
            x = from_man_exp(rng.getrandbits(rng.randint(1, 400)) | 1, 2 * exp + 1)
        elif kind == 4:
            x = from_man_exp(-(rng.getrandbits(rng.randint(1, 200)) | 1), exp)
        else:
            x = from_man_exp(rng.getrandbits(rng.randint(1, 2 * prec + 64)) | 1, exp)
        yield x, prec


def test_sqrt_kernel_matches_mpf_sqrt():
    # the kernel's correctly rounded floor and ceiling roots are mpmath's,
    # bit for bit, and it raises where mpmath raises
    rng = random.Random(28)
    checked = Counter()
    for x, prec in _sqrt_cases(rng, 20_400):
        for rnd in ("f", "c"):
            try:
                want = mpf_sqrt(x, prec, rnd)
            except ComplexResult:
                with pytest.raises(ComplexResult):
                    _mpf_sqrt(x, prec, rnd)
                checked["raised"] += 1
                continue
            assert _mpf_sqrt(x, prec, rnd) == want, (x, prec, rnd)
            checked[rnd] += 1
    assert checked["raised"] >= 6_000 and checked["f"] == checked["c"] >= 15_000


@pytest.mark.parametrize("num, den", [(5, 1), (2, 1), (1, 3), (10 ** 40 + 1, 7)])
def test_sqrt_sites_match_the_interval_context(num, den):
    # sqrt_ratio, BallReal.sqrt and the golden ratio give the interval
    # context's ctx.sqrt endpoints at every precision tried
    for prec in (53, 64, 100, 11_090, 16_384):
        ctx = _ctx(prec)
        want = ctx.sqrt(_iv_from_ratio(ctx, num, den))._mpi_
        assert sqrt_ratio(num, den)._iv(ctx)._mpi_ == want
        ratio = BallReal(lambda c: _iv_from_ratio(c, num, den))  # not exact
        assert ratio.sqrt()._iv(ctx)._mpi_ == want
    for prec in (64, 100, 11_090):
        ctx = _ctx(prec)
        want = ((1 + ctx.sqrt(_iv_from_ratio(ctx, 5, 1))) / 2)._mpi_
        assert BallReal.golden()._iv(ctx)._mpi_ == want


def test_cert_le_stops_at_a_cap_that_is_not_a_power_of_two():
    # undecided at the cap: the last refinement goes to 100 bits, not 128
    def close():
        return sqrt_ratio((2 << 200) + 1, 1 << 200)

    assert cert_le(sqrt_int(2), close(), 100) == (None, 100)
    assert cert_le(sqrt_int(2), close(), 1000) == (True, 256)
    assert cert_le(sqrt_int(2), close(), 200) == (None, 200)
