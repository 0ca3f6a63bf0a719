"""Arbitrary-precision real enclosures with deterministic recompute handles.

A BallReal is a midpoint-radius style enclosure of one real number. The value
is defined by a pure recompute handle (a function of an interval context), so
the same quantity can be re-evaluated at any working precision. Refinement
intersects the new enclosure with the old one and therefore never enlarges it.

Each ball evaluates its handle at most once per precision and keeps the
interval in a memo keyed by bits; a ball built from others calls their
memoised evaluation, so a subexpression shared by many parents is computed
once per precision. The interval at a given precision is a pure function of
that precision, so the memo changes no endpoint. The refinement state (the
intersected endpoints and the precision reached) stays per ball: a shared
ball is a leaf that parents evaluate, and cert_le refines a fresh ball.

The interval backend is mpmath's directed-rounding interval context. Integers
and rationals enter through explicitly directed conversions so that every
enclosure is sound by construction.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (MPZ, ComplexResult, from_man_exp, fzero, mpf_div,
                          mpf_pos, normalize1)

from .errors import UndecidedError

DEFAULT_PREC = 64
DEFAULT_MAX_PREC = 1 << 16
PAYLOAD_PREC = 192  # bits of every stored enclosure and serialized payload

_CTX_CACHE: dict = {}


def _ctx(prec: int) -> MPIntervalContext:
    ctx = _CTX_CACHE.get(prec)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = prec
        _CTX_CACHE[prec] = ctx
    return ctx


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ArithmeticError("non-finite interval endpoint")
    if exp >= 0:
        val = Fraction(man << exp)
    else:
        val = Fraction(man, 1 << -exp)
    return -val if sign else val


def _exact_mpf(n: int, exp: int = 0):
    """Exact normalized mpf of n * 2**exp.

    Trailing zero bits are stripped with one shift; mpmath's normaliser
    strips them 8 bits per shift, which is quadratic in the bit length.
    """
    if n == 0:
        return fzero
    sign = 1 if n < 0 else 0
    man = -n if sign else n
    tz = (man & -man).bit_length() - 1
    man >>= tz
    return (sign, MPZ(man), exp + tz, man.bit_length())


def _iv_from_ratio(ctx: MPIntervalContext, p: int, q: int):
    """Endpoints of p/q, q > 0, rounded toward -inf and +inf, bit-identical
    to mpmath's from_int/from_rational with modes "f"/"c". p/q need not be
    in lowest terms, since directed division rounds the exact quotient; a
    power-of-two denominator folds into the exponent, so dyadics need no
    division."""
    prec = ctx.prec
    if q & (q - 1) == 0:
        x = _exact_mpf(p, 1 - q.bit_length())
        lo = mpf_pos(x, prec, "f")
        hi = mpf_pos(x, prec, "c")
    else:
        x, y = _exact_mpf(p), _exact_mpf(q)
        lo = mpf_div(x, y, prec, "f")
        hi = mpf_div(x, y, prec, "c")
    return ctx.make_mpf((lo, hi))


def _mpf_sqrt(s, prec: int, rnd: str):
    """mpmath's mpf_sqrt(s, prec, rnd) for rnd "f" or "c", special values
    included, with math.isqrt in place of mpmath's pure-Python Newton
    iteration.

    Both take the exact floor root of the same shifted mantissa, so the
    result is bit-identical. Rounding up, a nonzero remainder appends a
    sticky 1 bit below the root, so the ceiling lands past the exact
    floor.
    """
    sign, man, exp, bc = s
    if sign:
        raise ComplexResult("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    elif man == 1:
        return normalize1(sign, man, exp // 2, bc, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    n = int(man) << shift
    root = math.isqrt(n)
    if rnd == "c" and root * root != n:
        root = (root << 1) + 1
        shift += 2
    return from_man_exp(root, (exp - shift) // 2, prec, rnd)


def _iv_sqrt(ctx: MPIntervalContext, x):
    """ctx.sqrt(x) for an interval x: the floor root of its lower end and the
    ceiling root of its upper end, at ctx's precision."""
    lo, hi = x._mpi_
    prec = ctx.prec
    return ctx.make_mpf((_mpf_sqrt(lo, prec, "f"), _mpf_sqrt(hi, prec, "c")))


Handle = Callable[[MPIntervalContext], object]
Number = Union[int, Fraction, "BallReal"]


class BallReal:
    """Enclosure of one real number with a deterministic recompute handle.

    _memo maps a precision in bits to the handle's interval there; _lo, _hi
    and _prec are this ball's own refinement state.
    """

    __slots__ = ("_fn", "_exact", "_prec", "_lo", "_hi", "_memo")

    def __init__(self, fn: Handle, exact: Optional[Fraction] = None):
        self._fn = fn
        self._exact = exact
        self._prec = 0
        self._lo: Optional[Fraction] = None
        self._hi: Optional[Fraction] = None
        self._memo: dict = {}

    def _iv(self, ctx: MPIntervalContext):
        """The handle's interval at ctx's precision, evaluated once per precision.

        Parents call this rather than the handle. A handle that raises
        leaves nothing in the memo.
        """
        memo = self._memo
        prec = ctx.prec
        got = memo.get(prec)
        if got is None:
            got = memo[prec] = self._fn(ctx)
        return got

    # -- construction -----------------------------------------------------

    @staticmethod
    def exact(value: Union[int, Fraction]) -> "BallReal":
        fr = Fraction(value)
        return BallReal(lambda ctx: _iv_from_ratio(ctx, fr.numerator, fr.denominator),
                        exact=fr)

    @staticmethod
    def wrap(value: Number) -> "BallReal":
        if isinstance(value, BallReal):
            return value
        return BallReal.exact(value)

    @staticmethod
    def golden() -> "BallReal":
        """(1 + sqrt 5)/2: a fresh ball on one shared, memoised handle."""
        return BallReal(_GOLDEN._iv)

    # -- evaluation and refinement ----------------------------------------

    def _eval_at(self, prec: int) -> Optional[Tuple[Fraction, Fraction]]:
        """Fresh enclosure at the given precision, or None if non-finite."""
        ctx = _ctx(prec)
        try:
            res = self._iv(ctx)
            a, b = res._mpi_
            return _mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b)
        except (ArithmeticError, ValueError, ZeroDivisionError):
            return None

    def _ensure(self, prec: int = DEFAULT_PREC) -> None:
        if self._exact is not None:
            if self._lo is None:
                self._lo = self._hi = self._exact
                self._prec = DEFAULT_MAX_PREC
            return
        if self._prec >= prec and self._lo is not None:
            return
        p = max(prec, DEFAULT_PREC)
        while True:
            got = self._eval_at(p)
            if got is not None:
                lo, hi = got
                if self._lo is not None:
                    lo = max(lo, self._lo)
                    hi = min(hi, self._hi)
                self._lo, self._hi = lo, hi
                self._prec = p
                return
            if p >= DEFAULT_MAX_PREC:
                raise UndecidedError("enclosure stayed non-finite", p)
            p *= 2

    def refine(self, cap: Optional[int] = None) -> "BallReal":
        """Double the working precision, to at most cap bits when a cap is
        given. Never enlarges the enclosure."""
        prec = max(self._prec * 2, DEFAULT_PREC)
        self._ensure(prec if cap is None else min(prec, cap))
        return self

    def refined_to(self, prec: int) -> "BallReal":
        self._ensure(prec)
        return self

    # -- inspection --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    @property
    def exact_value(self) -> Optional[Fraction]:
        return self._exact

    @property
    def lo(self) -> Fraction:
        self._ensure()
        return self._lo

    @property
    def hi(self) -> Fraction:
        self._ensure()
        return self._hi

    @property
    def prec(self) -> int:
        return self._prec

    def __repr__(self) -> str:
        if self._exact is not None:
            return f"BallReal(exact={self._exact})"
        if self._lo is None:
            return "BallReal(<unevaluated>)"
        return f"BallReal([{float(self._lo):.6g}, {float(self._hi):.6g}] @ {self._prec}b)"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Number) -> "BallReal":
        o = BallReal.wrap(other)
        if self._exact is not None and o._exact is not None:
            return BallReal.exact(self._exact + o._exact)
        f, g = self._iv, o._iv
        return BallReal(lambda ctx: f(ctx) + g(ctx))

    __radd__ = __add__

    def __neg__(self) -> "BallReal":
        if self._exact is not None:
            return BallReal.exact(-self._exact)
        f = self._iv
        return BallReal(lambda ctx: -f(ctx))

    def __sub__(self, other: Number) -> "BallReal":
        return self + (-BallReal.wrap(other))

    def __rsub__(self, other: Number) -> "BallReal":
        return BallReal.wrap(other) + (-self)

    def __mul__(self, other: Number) -> "BallReal":
        o = BallReal.wrap(other)
        if self._exact is not None and o._exact is not None:
            return BallReal.exact(self._exact * o._exact)
        f, g = self._iv, o._iv
        return BallReal(lambda ctx: f(ctx) * g(ctx))

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "BallReal":
        o = BallReal.wrap(other)
        if self._exact is not None and o._exact is not None:
            if o._exact == 0:
                raise ZeroDivisionError
            return BallReal.exact(self._exact / o._exact)
        f, g = self._iv, o._iv
        return BallReal(lambda ctx: f(ctx) / g(ctx))

    def __rtruediv__(self, other: Number) -> "BallReal":
        return BallReal.wrap(other) / self

    def sqrt(self) -> "BallReal":
        if self._exact is not None:
            return sqrt_ratio(self._exact.numerator, self._exact.denominator)
        f = self._iv
        return BallReal(lambda ctx: _iv_sqrt(ctx, f(ctx)))

    def pow(self, e: Number) -> "BallReal":
        """self**e for positive self; exact when e is a nonnegative int."""
        if isinstance(e, int):
            if self._exact is not None and e >= 0:
                return BallReal.exact(self._exact ** e)
            f = self._iv
            return BallReal(lambda ctx: f(ctx) ** e)
        eb = BallReal.wrap(e)
        f, g = self._iv, eb._iv
        return BallReal(lambda ctx: ctx.exp(g(ctx) * ctx.log(f(ctx))))

    __pow__ = pow


_GOLDEN = BallReal(lambda ctx: (1 + _iv_sqrt(ctx, _iv_from_ratio(ctx, 5, 1))) / 2)


# squares modulo 64, 63, 65 and 11; a non-square is rejected by one of them
# with probability about 0.995, before any isqrt of the full integer
_SQUARE_MODULI = (64, 63, 65, 11)
_SQUARE_TABLES = tuple(frozenset(k * k % m for k in range(m)) for m in _SQUARE_MODULI)
_SQUARE_MODULUS = math.prod(_SQUARE_MODULI)


def _isqrt_exact(n: int) -> Optional[int]:
    """The integer square root of n >= 0 if n is a perfect square, else None."""
    r = n % _SQUARE_MODULUS
    for m, squares in zip(_SQUARE_MODULI, _SQUARE_TABLES):
        if r % m not in squares:
            return None
    root = math.isqrt(n)
    return root if root * root == n else None


def sqrt_int(n: int) -> BallReal:
    return sqrt_ratio(n, 1)


def sqrt_ratio(num: int, den: int) -> BallReal:
    """sqrt(num/den) for num >= 0, den > 0, with no gcd to reduce the ratio.

    Exact when num/den is a rational square, which holds exactly when
    num*den is a perfect square, since num/den = num*den/den^2; otherwise
    enclosed from the directed endpoints of num/den, which do not depend on
    whether the ratio is reduced.
    """
    if num < 0 or den <= 0:
        raise ValueError("sqrt_ratio needs num >= 0 and den > 0")
    root = _isqrt_exact(num * den)
    if root is not None:
        return BallReal.exact(Fraction(root, den))
    return BallReal(lambda ctx: _iv_sqrt(ctx, _iv_from_ratio(ctx, num, den)))


class Cmp(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    UNDECIDED = "undecided"


def certified_compare(a: Number, b: Number, max_prec: int = DEFAULT_MAX_PREC) -> Cmp:
    """Strict order of two enclosed reals, as refuted non-strict orders.

    a < b holds exactly when b <= a is refuted. Equal reals (exact or not)
    come back UNDECIDED: strict order genuinely does not hold.
    """
    if cert_le(b, a, max_prec)[0] is False:
        return Cmp.LESS
    if cert_le(a, b, max_prec)[0] is False:
        return Cmp.GREATER
    return Cmp.UNDECIDED


def cert_le(a: Number, b: Number, max_prec: int = DEFAULT_MAX_PREC) -> Tuple[Optional[bool], int]:
    """Certify a <= b. Returns (verdict, precision); verdict None = undecided.

    True means a <= b holds (sound: upper(a) <= lower(b), or exact equality).
    False means a > b holds.
    """
    x, y = BallReal.wrap(a), BallReal.wrap(b)
    if x.is_exact and y.is_exact:
        return (x.exact_value <= y.exact_value, x.prec)
    while True:
        if x.hi <= y.lo:
            return (True, max(x.prec, y.prec))
        if x.lo > y.hi:
            return (False, max(x.prec, y.prec))
        worked = False
        for t in (x, y):
            if not t.is_exact and t.prec < max_prec:
                t.refine(max_prec)
                worked = True
        if not worked:
            return (None, max(x.prec, y.prec))


def ball_payload(x: BallReal) -> dict:
    """Canonical dyadic mid/rad payload at PAYLOAD_PREC, from the handle's
    interval at that precision.

    The payload reads the handle's value (from the memo, when a refinement
    already evaluated it there), not the intersected enclosure, so it does
    not depend on the ball's refinement history.
    """
    v = x.exact_value
    if v is not None and (v.denominator & (v.denominator - 1)) == 0:
        got = (v, v)
    else:
        got = x._eval_at(PAYLOAD_PREC)
    if got is None:
        raise UndecidedError("ball serialization hit a non-finite enclosure",
                             PAYLOAD_PREC)
    lo, hi = got
    mid = (lo + hi) / 2
    rad = (hi - lo) / 2
    return {
        "mid_man": str(_dyadic_man(mid)),
        "mid_exp": _dyadic_exp(mid),
        "rad_man": str(_dyadic_man(rad)),
        "rad_exp": _dyadic_exp(rad),
    }


def _dyadic_man(fr: Fraction) -> int:
    d = fr.denominator
    if d & (d - 1):
        raise ValueError(f"payload value {fr} is not dyadic")
    return fr.numerator


def _dyadic_exp(fr: Fraction) -> int:
    return -(fr.denominator.bit_length() - 1)
