"""Arbitrary-precision real enclosures with deterministic recompute handles.

A BallReal is a midpoint-radius style enclosure of one real number. The value
is defined by a pure recompute handle (a function of an interval context), so
the same quantity can be re-evaluated at any working precision. Refinement
intersects the new enclosure with the old one and therefore never enlarges it.

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
from mpmath.libmp import MPZ, fzero, mpf_div, mpf_pos

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


def _iv_from_fraction(ctx: MPIntervalContext, fr: Fraction):
    """Endpoints of fr rounded toward -inf and +inf, bit-identical to
    mpmath's from_int/from_rational with modes "f"/"c"; a power-of-two
    denominator folds into the exponent, so dyadics need no division."""
    p, q = fr.numerator, fr.denominator
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


Handle = Callable[[MPIntervalContext], object]
Number = Union[int, Fraction, "BallReal"]


class BallReal:
    """Enclosure of one real number with a deterministic recompute handle."""

    __slots__ = ("_fn", "_exact", "_prec", "_lo", "_hi")

    def __init__(self, fn: Handle, exact: Optional[Fraction] = None):
        self._fn = fn
        self._exact = exact
        self._prec = 0
        self._lo: Optional[Fraction] = None
        self._hi: Optional[Fraction] = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def exact(value: Union[int, Fraction]) -> "BallReal":
        fr = Fraction(value)
        return BallReal(lambda ctx: _iv_from_fraction(ctx, fr), exact=fr)

    @staticmethod
    def wrap(value: Number) -> "BallReal":
        if isinstance(value, BallReal):
            return value
        return BallReal.exact(value)

    @staticmethod
    def golden() -> "BallReal":
        """(1 + sqrt 5)/2."""
        return BallReal(lambda ctx: (1 + ctx.sqrt(_iv_from_fraction(ctx, Fraction(5)))) / 2)

    # -- evaluation and refinement ----------------------------------------

    def _eval_at(self, prec: int) -> Optional[Tuple[Fraction, Fraction]]:
        """Fresh enclosure at the given precision, or None if non-finite."""
        ctx = _ctx(prec)
        try:
            res = self._fn(ctx)
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

    def refine(self) -> "BallReal":
        """Double the working precision. Never enlarges the enclosure."""
        self._ensure(max(self._prec * 2, DEFAULT_PREC))
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
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

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
        ex = None
        if self._exact is not None and o._exact is not None:
            ex = self._exact + o._exact
            return BallReal.exact(ex)
        f, g = self._fn, o._fn
        return BallReal(lambda ctx: f(ctx) + g(ctx))

    __radd__ = __add__

    def __neg__(self) -> "BallReal":
        if self._exact is not None:
            return BallReal.exact(-self._exact)
        f = self._fn
        return BallReal(lambda ctx: -f(ctx))

    def __sub__(self, other: Number) -> "BallReal":
        return self + (-BallReal.wrap(other))

    def __rsub__(self, other: Number) -> "BallReal":
        return BallReal.wrap(other) + (-self)

    def __mul__(self, other: Number) -> "BallReal":
        o = BallReal.wrap(other)
        if self._exact is not None and o._exact is not None:
            return BallReal.exact(self._exact * o._exact)
        f, g = self._fn, o._fn
        return BallReal(lambda ctx: f(ctx) * g(ctx))

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "BallReal":
        o = BallReal.wrap(other)
        if self._exact is not None and o._exact is not None:
            if o._exact == 0:
                raise ZeroDivisionError
            return BallReal.exact(self._exact / o._exact)
        f, g = self._fn, o._fn
        return BallReal(lambda ctx: f(ctx) / g(ctx))

    def __rtruediv__(self, other: Number) -> "BallReal":
        return BallReal.wrap(other) / self

    def sqrt(self) -> "BallReal":
        if self._exact is not None:
            r = _exact_sqrt(self._exact)
            if r is not None:
                return BallReal.exact(r)
        f = self._fn
        return BallReal(lambda ctx: ctx.sqrt(f(ctx)))

    def pow(self, e: Number) -> "BallReal":
        """self**e for positive self; exact when e is a nonnegative int."""
        if isinstance(e, int):
            if self._exact is not None and e >= 0:
                return BallReal.exact(self._exact ** e)
            f = self._fn
            return BallReal(lambda ctx: f(ctx) ** e)
        eb = BallReal.wrap(e)
        f, g = self._fn, eb._fn
        return BallReal(lambda ctx: ctx.exp(g(ctx) * ctx.log(f(ctx))))

    __pow__ = pow

    def log2(self) -> "BallReal":
        f = self._fn
        return BallReal(lambda ctx: ctx.log(f(ctx)) / ctx.log(_iv_from_fraction(ctx, Fraction(2))))


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


def _exact_sqrt(fr: Fraction) -> Optional[Fraction]:
    if fr < 0:
        raise ValueError("sqrt of negative")
    pn = _isqrt_exact(fr.numerator)
    if pn is None:
        return None
    pd = _isqrt_exact(fr.denominator)
    if pd is None:
        return None
    return Fraction(pn, pd)


def sqrt_int(n: int) -> BallReal:
    return BallReal.exact(n).sqrt()


class Cmp(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    UNDECIDED = "undecided"


def certified_compare(a: Number, b: Number, max_prec: int = DEFAULT_MAX_PREC) -> Cmp:
    """Strict order of two enclosed reals, refining until separated or capped.

    Equal exact rationals (and equal reals generally) come back UNDECIDED:
    strict order genuinely does not hold.
    """
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
                t.refine()
                worked = True
        if not worked:
            return (None, max(x.prec, y.prec))


def ball_payload(x: BallReal, prec: int = PAYLOAD_PREC) -> dict:
    """Canonical dyadic mid/rad payload, from a fresh evaluation.

    Evaluating the handle fresh (not the intersected cache) makes the payload
    independent of incidental refinement history.
    """
    if x.is_exact:
        v = x.exact_value
        got = None
        if (v.denominator & (v.denominator - 1)) == 0:
            got = (v, v)
        if got is None:
            got = x._eval_at(prec)
    else:
        got = x._eval_at(prec)
    if got is None:
        raise UndecidedError("ball serialization hit a non-finite enclosure", prec)
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
