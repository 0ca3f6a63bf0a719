"""Continued fractions of quadratic irrationals, with exact certificates.

The target numbers have the form (a + b sqrt(d))/c and sit in (0, 1/2).
Everything observable is certified exactly: the convergent rows (the
unimodular cross identity, the alternating sign and approximation quality of
each convergent, bounded denominator growth) follow from small-integer
checks made once per walk of the surd stream, see ConvergentTable, a cursor
over two rows that walks the quotients from alpha to the first repeat of the
surd state, proving them periodic, derives every row from them by one
stepping routine that jumps by powers of the period's matrix, and restarts
from alpha to go back; the badly approximable lower bound
|q*alpha - p| >= 1/(C1 |q|) by one exact sign computation in Q(sqrt d) per
convergent block; and the cross gap |q p_n - p q_n| >= q_n/(2 C1 |q|) by
integer arithmetic. locate_n walks the cursor forward with q_{n-1} <= T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .balls import BallReal, DEFAULT_MAX_PREC, cert_le
from .errors import CertificateFailure, InputError, UndecidedError


@dataclass(frozen=True)
class QF:
    """Element p + q*sqrt(d) of the real quadratic field Q(sqrt d).

    Arithmetic between two elements takes d from the left operand, so both
    must share d; the package only combines elements derived from one
    AlphaSpec.qf().
    """

    p: Fraction
    q: Fraction
    d: int

    def __add__(self, other):
        if isinstance(other, QF):
            return QF(self.p + other.p, self.q + other.q, self.d)
        return QF(self.p + Fraction(other), self.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QF(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QF) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if isinstance(other, QF):
            return QF(
                self.p * other.p + self.q * other.q * self.d,
                self.p * other.q + self.q * other.p,
                self.d,
            )
        k = Fraction(other)
        return QF(self.p * k, self.q * k, self.d)

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d)."""
        p, q = self.p, self.q
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against q^2 d
        lhs, rhs = p * p, q * q * self.d
        if p > 0:  # q < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


@dataclass(frozen=True)
class AlphaSpec:
    """A named quadratic irrational (a + b sqrt d)/c with its growth constant."""

    name: str
    a: int
    b: int
    c: int
    d: int
    c1_min: int  # smallest integer C1 known to work for this number

    def qf(self) -> QF:
        return QF(Fraction(self.a, self.c), Fraction(self.b, self.c), self.d)


ALPHA_PRESETS: Dict[str, AlphaSpec] = {
    "sqrt2m1": AlphaSpec("sqrt2m1", -1, 1, 1, 2, 4),
    "sqrt5m2": AlphaSpec("sqrt5m2", -2, 1, 1, 5, 5),
}


class _SurdQuotients:
    """Streaming partial quotients of (a + b sqrt d)/c via the surd recurrence.

    The complete quotient is x = (P + sqrt D)/Q with Q | D - P^2. State
    (P, Q, D) stays bounded for a quadratic irrational, so each next
    quotient costs O(1) small-integer work: with s = isqrt(D) and D not a
    square, floor(x) = (P + s) // Q for Q > 0 and (P + s + 1) // Q for Q < 0.
    The step x -> 1/(x - a) is (P, Q) -> (P', (D - P'^2)/Q) with P' = aQ - P,
    exact because Q divides D - P'^2, which is checked every step.
    """

    def __init__(self, spec: AlphaSpec):
        a, b, c, d = spec.a, spec.b, spec.c, spec.d
        if b <= 0:
            raise InputError("surd must have positive irrational part")
        P, D, Q = a, b * b * d, c
        if (D - P * P) % Q != 0:
            m = abs(c)  # scale by |c| so that sqrt(D) = b|c| sqrt(d) keeps its sign
            P, D, Q = a * m, b * b * d * m * m, c * m
        s = math.isqrt(D)
        if s * s == D:
            raise InputError("surd radicand must not be a perfect square")
        self.P, self.Q, self.D, self._s = P, Q, D, s

    def next(self) -> int:
        P, Q, D = self.P, self.Q, self.D
        ak = (P + self._s) // Q if Q > 0 else (P + self._s + 1) // Q
        P = ak * Q - P
        Q, rem = divmod(D - P * P, Q)
        if rem != 0:
            raise CertificateFailure("cf_surd_divisibility", f"P={P}, Q={self.Q}, D={D}")
        self.P, self.Q = P, Q
        return ak


# no move takes the cursor past this row, and no walk reads more quotients;
# the cursor holds two rows, so this bounds how far a move reaches, not memory
_MAX_TABLE_ROWS = 10 ** 7

Mat = Tuple[int, int, int, int]  # 2x2 integer matrix, row-major


def _mul(a: Mat, b: Mat) -> Mat:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


class ConvergentTable:
    """Cursor over the convergents p_n/q_n of alpha, n >= 1, with certificates.

    p and q hold rows n-1 and n only, and len(table) is n. The cursor starts
    at n = 1 with row 0, (p_0, q_0) = (1, 0), where the recurrence starts,
    and row 1, (0, 1); row n+1 is a_n (row n) + (row n-1), where a_n is the
    floor of the complete quotient x that the surd stream holds after n
    steps. As matrices,
    [[p_n, p_{n+1}], [q_n, q_{n+1}]] = [[p_{n-1}, p_n], [q_{n-1}, q_n]] [[0, 1], [1, a_n]].

    Each (re)start walks the surd stream from alpha, building no row, until
    its state (P, Q) before some a_k equals its state before an earlier a_i.
    (P, Q) determines x and so every later quotient, hence that exact
    equality proves a_{m+L} = a_m for all m >= i, with L = k - i. Lagrange's
    theorem makes every quadratic irrational eventually periodic, so the
    walk reads pre-period + period quotients (one on both presets). Every
    move then goes through _advance: a single row takes a_n from the walk
    before the period and from the period after it, and whole periods go
    by repeated squaring of the period's matrix product, as a binary
    descent on the target row (extend_to) or on the exact bound
    (extend_to_cover). Asking for a row before n-1 restarts.

    Checked exactly, once per (re)start:

    - alpha lies in (0, 1/2), the surd stream starts at alpha, its first
      quotient (the integer part) is 0, and the radicand is not a square;
    - per step of the surd stream: Q | D - P'^2, so each x is exactly
      1/(previous x - its floor) and each a is exactly that floor;
    - every walked quotient has a >= 1 (cf_partial_quotient);
    - a_max + 1 <= C1 over every walked quotient, pre-period included
      (cf_growth).

    Derived from those checks for every row, with no check per row (every
    a_n is a walked quotient, so a_n >= 1 and a_n + 1 <= C1):

    - Growth: a_1 = floor(1/alpha) >= 2 as alpha < 1/2, so q_1 = 1 < a_1 = q_2.
      For n >= 2, q_{n-1} >= 1, so q_{n+1} = a q_n + q_{n-1} > q_n. As
      q_{n-1} <= q_n for n >= 1, q_{n+1} <= (a + 1) q_n <= C1 q_n.
    - Range: rows 1 and 2 are (0, 1) and (1, a_1), and for n >= 2
      p_{n+1} = a p_n + p_{n-1} <= a q_n + q_{n-1} = q_{n+1}, so
      0 <= p_n <= q_n for n >= 1.
    - Cross identity q_n p_{n+1} - p_n q_{n+1} = (-1)^(n+1): at n = 1 it
      reads 1*1 - 0*a_1 = 1, and substituting the recurrence gives
      q_n p_{n+1} - p_n q_{n+1} = -(q_{n-1} p_n - p_{n-1} q_n).
    - alpha = (x p_n + p_{n-1})/(x q_n + q_{n-1}) with x the complete
      quotient above, by induction from alpha = 1/x at n = 1 (a_0 = 0) and
      x_prev = a + 1/x. Hence, by the cross identity,
      q_n alpha - p_n = (-1)^(n+1)/(x q_n + q_{n-1}).
    - x is irrational and x > a >= 1, so x q_n + q_{n-1} lies strictly between
      a q_n + q_{n-1} = q_{n+1} and q_{n+1} + q_n. That gives the sign
      (-1)^(n+1) of q_n alpha - p_n (alternation) and the quality bracket
      1/(q_{n+1} + q_n) < |q_n alpha - p_n| < 1/q_{n+1}.

    tests/test_cf.py re-checks these derived facts with exact arithmetic in
    Q(sqrt d) up to n = 2000, and the rows against the plain recurrence up to
    n = 20,000, on both presets, on two numbers of period 2, on one whose
    largest quotient lies before its period and on one whose pre-period is
    longer than its period.
    """

    def __init__(self, spec: AlphaSpec, c1: Optional[Fraction] = None):
        self.spec = spec
        self.c1 = Fraction(c1 if c1 is not None else spec.c1_min)
        self.alpha = spec.qf()
        self._restart()

    def _restart(self) -> None:
        """Back to n = 1, with the quotients walked and proven afresh from alpha."""
        if self.alpha.sign() <= 0 or (self.alpha - Fraction(1, 2)).sign() >= 0:
            raise InputError("alpha must lie in (0, 1/2)")
        st = _SurdQuotients(self.spec)
        if (Fraction(st.P, st.Q) != self.alpha.p
                or Fraction(st.D, st.Q * st.Q) != self.alpha.q ** 2 * self.spec.d
                or (st.Q > 0) != (self.alpha.q > 0)):
            raise CertificateFailure("cf_surd_start", f"{self.spec.name}")
        if st.next() != 0:
            raise InputError("alpha must have zero integer part")
        walked: List[int] = []  # a_1, a_2, ... up to the repeat
        seen: Dict[Tuple[int, int], int] = {}  # state before a_k -> k
        while (st.P, st.Q) not in seen:
            seen[st.P, st.Q] = len(walked) + 1
            if len(walked) >= _MAX_TABLE_ROWS:
                raise InputError("convergent table exhausted")
            a = st.next()
            if a < 1:
                raise CertificateFailure("cf_partial_quotient", f"a_{len(walked) + 1}={a}")
            walked.append(a)
        if (max(walked) + 1) * self.c1.denominator > self.c1.numerator:
            raise CertificateFailure("cf_growth", f"a_max + 1 > C1 over a_1.. = {walked}")
        i = seen[st.P, st.Q]  # the period is a_i .. a_{len(walked)}
        product = (1, 0, 0, 1)
        for a in walked[i - 1:]:
            product = _mul(product, (0, 1, 1, a))
        self._n, self.p, self.q = 1, [1, 0], [0, 1]  # p, q hold rows n-1 and n
        self._walked, self._i, self._product = tuple(walked), i, product

    def __len__(self) -> int:
        return self._n

    def extend_to(self, n: int) -> None:
        self._advance(lambda k, q_prev: k <= n)

    def extend_to_cover(self, bound: int) -> None:
        """Move forward until the current denominator q_n strictly exceeds `bound`."""
        self._advance(lambda k, q_prev: q_prev <= bound)

    def _advance(self, may_reach: Callable[[int, int], bool]) -> None:
        """Move forward to the last row k with may_reach(k, q_{k-1}).

        may_reach must hold up to some row and fail after it. The cursor
        steps to a period boundary, takes the most whole periods that fit by
        a binary descent over (period product)^(2^j), and steps the rest. A
        move past _MAX_TABLE_ROWS raises before the cursor leaves its row.
        """
        walked, i, product = self._walked, self._i, self._product
        span = len(walked) - i + 1
        at, rows = self._n, (*self.p, *self.q)

        def fits(k: int, q_prev: int) -> bool:
            if not may_reach(k, q_prev):
                return False
            if k > _MAX_TABLE_ROWS:
                raise InputError("convergent table exhausted")
            return True

        def on_boundary(at: int) -> bool:  # whole periods may start at row at
            return at >= i and (at - i) % span == 0

        def step(at: int, rows: Mat) -> Mat:  # rows at, at+1 from rows at-1, at
            a = walked[at - 1] if at < i else walked[i - 1 + (at - i) % span]
            return _mul(rows, (0, 1, 1, a))

        while not on_boundary(at) and fits(at + 1, rows[3]):
            at, rows = at + 1, step(at, rows)
        if on_boundary(at):
            powers = [product]  # product^(2^j), while 2^j periods fit
            while fits(at + (span << (len(powers) - 1)),
                       rows[2] * powers[-1][0] + rows[3] * powers[-1][2]):
                powers.append(_mul(powers[-1], powers[-1]))
            for j in range(len(powers) - 2, -1, -1):
                m = powers[j]
                if fits(at + (span << j), rows[2] * m[0] + rows[3] * m[2]):
                    at, rows = at + (span << j), _mul(rows, m)
        while fits(at + 1, rows[3]):
            at, rows = at + 1, step(at, rows)
        self._n, self.p, self.q = at, [rows[0], rows[1]], [rows[2], rows[3]]

    def pair(self, n: int) -> Tuple[int, int]:
        if n < self._n - 1:
            self._restart()
        self.extend_to(n)
        k = n - self._n + 1  # row n sits in slot 0 or 1
        return self.p[k], self.q[k]

    def eps(self, n: int) -> QF:
        """q_n alpha - p_n, sign (-1)^(n+1)."""
        pn, qn = self.pair(n)
        return self.alpha * qn - pn


def locate_n(T: Union[int, Fraction, BallReal], table: ConvergentTable,
             max_prec: int = DEFAULT_MAX_PREC) -> int:
    """The unique n >= 2 with q_{n-1} <= T < q_n. T must be >= 1.

    Exact for rational T (a hit T == q_k yields n = k + 1). For enclosed T
    the comparisons are certified; an inseparable comparison raises.
    The table moves forward and keeps q_{n-1} <= T: it restarts if q_{n-1}
    exceeds floor of the lower end of T's enclosure, moves by integer
    comparison (extend_to_cover) to the first q_n above that floor, then
    certifies q_n <= T row by row until a row exceeds T. The answer is the
    row it stops at.
    """
    tb = BallReal.wrap(T)
    ok, prec = cert_le(1, tb, max_prec)
    if ok is None:
        raise UndecidedError("locate_n lower bound", prec)
    if not ok:
        raise InputError("locate_n needs T >= 1")
    floor_lo = math.floor(tb.lo)
    if table.q[0] > floor_lo:
        table._restart()
    table.extend_to_cover(floor_lo)  # q_{n-1} <= floor(T.lo) < q_n
    while True:  # q_{n-1} <= T
        below, pr = cert_le(table.q[1], tb, max_prec)
        if below is None:
            raise UndecidedError(f"locate_n vs q_{len(table)}", pr)
        if not below:
            return len(table)
        table.extend_to(len(table) + 1)


@dataclass
class BadApproxReport:
    q_max: int
    blocks: int


def certify_bad_approx(table: ConvergentTable, q_max: int) -> BadApproxReport:
    """Certify |q*alpha - p| >= 1/(C1 q) for all 1 <= q <= q_max and p in Z.

    Block argument: for q in [q_n, q_{n+1}) every (p, q) decomposes integrally over
    the rows n, n+1 (cross identity = +-1); the two row errors carry opposite
    signs (certified alternation), so |q alpha - p| >= |q_n alpha - p_n|.
    Hence the block check C1 q_n |q_n alpha - p_n| >= 1 covers the block, and
    the blocks n = 1, 2, ... cover every q >= q_1 = 1. The table's cursor
    walks them from row 1, restarting if it stands past row 2.
    """
    n = 1
    while (qn := table.pair(n)[1]) <= q_max:
        eps = table.eps(n) * ((-1) ** (n + 1))  # = |q_n alpha - p_n| > 0
        if (eps * (table.c1 * qn) - 1).sign() < 0:
            raise CertificateFailure("bad_approx_block", f"n={n}")
        n += 1
    return BadApproxReport(q_max, n - 1)  # one block per row 1..n-1


@dataclass
class GapReport:
    n: int
    min_scaled: Fraction  # min over q of 2 C1 q min_p |q p_n - p q_n| / q_n


def convergent_gap_check(table: ConvergentTable, n: int) -> GapReport:
    """Certify |q p_n - p q_n| >= q_n/(2 C1 |q|) for 1 <= |q| < q_n, all p.

    For fixed q the inner minimum over p is the distance from q p_n to the
    nearest multiple of q_n, min(m, q_n - m) with m = q p_n mod q_n: one
    residue, stepped by adding p_n mod q_n as q grows, exact for every p at
    once. Negative q follows by symmetry (p -> -p).
    """
    pn, qn = table.pair(n)
    c1 = table.c1
    two_num, den_qn = 2 * c1.numerator, c1.denominator * qn
    step = pn % qn
    m = 0  # q p_n mod q_n
    min_qbest = qn * qn  # min of q*best, below q_n^2 once any q runs
    for q in range(1, qn):
        m += step
        if m >= qn:
            m -= qn
        best = qn - m if 2 * m > qn else m
        if best == 0:
            raise CertificateFailure("gap_degenerate", f"n={n}, q={q}")
        qbest = q * best
        if two_num * qbest < den_qn:
            raise CertificateFailure("gap_bound", f"n={n}, q={q}")
        if qbest < min_qbest:
            min_qbest = qbest
    # the scaled minimum is 2 C1 min_qbest / q_n
    min_scaled = Fraction(2 * min_qbest, qn) * c1 if qn > 1 else Fraction(0)
    return GapReport(n, min_scaled)
