"""Convergent table rows, locate_n, badly-approximable and gap certificates."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammacert import (
    ALPHA_PRESETS,
    BadApproxReport,
    CertificateFailure,
    ConvergentTable,
    InputError,
    certify_bad_approx,
    convergent_gap_check,
    locate_n,
    sqrt_int,
)
from gammacert import cf
from gammacert.cf import AlphaSpec, QF, _SurdQuotients

import references as ref
from conftest import run_table


# both presets have period 1; sqrt(2)/4 = [0; 2, (1, 4)] and
# (sqrt(3) - 1)/2 = [0; (2, 1)] have period 2, the first after a pre-period;
# (2 + sqrt(2))/7 = [0; 2, 19, (1, 8, 1, 18)] has its largest quotient
# before its period, and (4 + sqrt(2))/14 = [0; 2, 1, 1, (2)] a pre-period
# longer than its period
SPECS = {**ALPHA_PRESETS,
         "sqrt2/4": AlphaSpec("sqrt2/4", 0, 1, 4, 2, 5),
         "sqrt3m1/2": AlphaSpec("sqrt3m1/2", -1, 1, 2, 3, 3),
         "(2+sqrt2)/7": AlphaSpec("(2+sqrt2)/7", 2, 1, 7, 2, 20),
         "(4+sqrt2)/14": AlphaSpec("(4+sqrt2)/14", 4, 1, 14, 2, 3)}
# (pre-period, period) of the quotients a_1, a_2, ...
PERIODS = {"sqrt2m1": (0, 1), "sqrt5m2": (0, 1), "sqrt2/4": (1, 2), "sqrt3m1/2": (0, 2),
           "(2+sqrt2)/7": (2, 4), "(4+sqrt2)/14": (3, 1)}


def table(name="sqrt2m1", c1=None):
    return ConvergentTable(SPECS[name], c1=c1)


def dense_rows(spec, n):
    """Rows 0..n of the plain recurrence as two lists, with no checks."""
    stream = _SurdQuotients(spec)
    stream.next()  # the integer part, 0
    p, q = [1, 0], [0, 1]
    while len(p) <= n:
        ak = stream.next()
        p.append(ak * p[-1] + p[-2])
        q.append(ak * q[-1] + q[-2])
    return p, q


def qf_floor(x):
    """Exact floor of x in Q(sqrt d): a dyadic first guess, then certified steps."""
    s = math.isqrt(x.d << 64)
    f = math.floor(x.p + x.q * F(s if x.q >= 0 else s + 1, 1 << 32))
    while (x - (f + 1)).sign() >= 0:
        f += 1
    while (x - f).sign() < 0:
        f -= 1
    return f


def test_qf_arithmetic():
    a = ALPHA_PRESETS["sqrt2m1"].qf()  # sqrt(2) - 1
    sq = a * a
    assert sq.p == 3 and sq.q == -2 and sq.d == 2  # (sqrt2-1)^2 = 3 - 2 sqrt2
    assert a.sign() == 1 and (-a).sign() == -1 and (a - a).sign() == 0
    assert qf_floor(a * 5) == 2
    assert qf_floor(a * F(1, 3)) == 0
    assert (a - F(414213, 10 ** 6)).sign() == 1 and (a - F(414214, 10 ** 6)).sign() == -1


def test_pell_convergents():
    t = table()
    expect = [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29), (29, 70), (70, 169)]
    for n, pq in enumerate(expect, start=1):
        assert t.pair(n) == pq


def test_sqrt5m2_convergents():
    t = table("sqrt5m2")
    assert t.c1 == 5
    expect = [(0, 1), (1, 4), (4, 17), (17, 72), (72, 305)]
    for n, pq in enumerate(expect, start=1):
        assert t.pair(n) == pq


def test_row_invariants_to_60():
    t = table()
    t.extend_to(60)
    one = QF(F(1), F(0), 2)
    for n in range(1, 60):
        pn, qn = t.pair(n)
        pm, qm = t.pair(n + 1)
        assert 0 <= pn <= qn and qn < qm <= 4 * qn
        assert qn * pm - pn * qm == (-1) ** (n + 1)
        eps = t.eps(n)
        assert eps.sign() == (-1) ** (n + 1)
        aeps = eps * ((-1) ** (n + 1))
        # classic two-sided error bracket 1/(q_{n+1}+q_n) < |eps| < 1/q_{n+1}
        assert (aeps * (qm + qn) - one).sign() > 0
        assert (aeps * qm - one).sign() < 0


def test_alpha_domain_checks():
    with pytest.raises(InputError):
        ConvergentTable(AlphaSpec("big", 0, 1, 1, 2, 4))  # sqrt 2 > 1/2
    with pytest.raises(InputError):
        ConvergentTable(AlphaSpec("neg", -3, 1, 1, 2, 4))  # sqrt 2 - 3 < 0


def test_locate_n_exact():
    t = table()
    assert locate_n(1, t) == 2
    assert locate_n(2, t) == 3  # T == q_2 lands in the next block
    assert locate_n(F(7, 2), t) == 3
    assert locate_n(5, t) == 4
    assert locate_n(12, t) == 5
    assert locate_n(10 ** 6, t) == 17
    pn, qn = t.pair(17)
    assert t.pair(16)[1] <= 10 ** 6 < qn
    q30 = t.pair(30)[1]  # a hit on a fresh table, rational and enclosed
    assert locate_n(q30, table()) == 31
    assert locate_n(sqrt_int(q30 * q30), table()) == 31


def test_locate_n_enclosed_and_errors():
    t = table()
    assert locate_n(sqrt_int(2), t) == 2
    assert locate_n(sqrt_int(30), t) == 4  # 5 <= 5.477 < 12
    with pytest.raises(InputError):
        locate_n(F(1, 2), t)


def test_bad_approx_certificate():
    t = table()
    t.extend_to(60)
    q60 = t.pair(60)[1]
    rep = certify_bad_approx(t, q60)
    assert isinstance(rep, BadApproxReport)
    assert rep.q_max == q60 and rep.blocks == 60
    # q_n |q_n a - p_n| tends to 1/(2 sqrt 2); C1 = 4 leaves margin
    for n in range(1, 61):
        prod = t.eps(n) * ((-1) ** (n + 1) * t.pair(n)[1])
        assert (prod - F(1, 4)).sign() == 1 and (prod - F(1, 2)).sign() == -1


@pytest.mark.parametrize("name, c1", [("sqrt2m1", 4), ("sqrt5m2", 5)])
def test_bad_approx_brute_force_small_q(name, c1):
    # the literal loop over q that the block argument replaces
    t = table(name)
    assert t.c1 == c1
    for q in range(1, 1001):
        v = t.alpha * q
        f = qf_floor(v)
        for p in (f, f + 1):
            err = v - p
            if err.sign() < 0:
                err = -err
            assert (err * (c1 * q) - 1).sign() >= 0
    rep = certify_bad_approx(t, 1000)
    _, qs = dense_rows(t.spec, 40)
    assert rep.blocks == sum(1 for qn in qs[1:] if qn <= 1000)


def test_bad_approx_rejects_small_c1():
    # C1 = 2 < a_max + 1 = 3 on sqrt2m1 fails when the table is built
    with pytest.raises(CertificateFailure) as exc:
        table(c1=F(2))
    assert exc.value.clause == "cf_growth"
    # sqrt2/4 builds at C1 = a_max + 1 = 5, but q_3 |q_3 alpha - p_3| < 1/5
    with pytest.raises(CertificateFailure) as exc:
        certify_bad_approx(table("sqrt2/4"), 100)
    assert exc.value.clause == "bad_approx_block" and str(exc.value).endswith("n=3")


def test_gap_certificate_to_12():
    t = table()
    for n in range(2, 13):
        rep = convergent_gap_check(t, n)
        assert rep.n == n and rep.min_scaled >= 1


@pytest.mark.parametrize("name, n_max", [("sqrt2m1", 12), ("sqrt5m2", 7)])
def test_gap_min_scaled_matches_per_q_formula(name, n_max):
    # reference: one Fraction per q, minimized directly
    t = table(name)
    for n in range(2, n_max + 1):
        pn, qn = t.pair(n)
        ref = min(F(2 * q * min((q * pn) % qn, qn - (q * pn) % qn), qn) * t.c1
                  for q in range(1, qn))
        assert convergent_gap_check(t, n).min_scaled == ref


@pytest.mark.parametrize("name, n_max", [("sqrt2m1", 12), ("sqrt5m2", 10)])
def test_gap_check_matches_per_q_reference(name, n_max):
    # the streamed residue against one modular reduction and one min() per
    # q; sqrt5m2 stops at q_10 = 416,020, since q_12 = 7,465,176 would add
    # seconds to each loop
    t = table(name)
    for n in range(1, n_max + 1):
        assert convergent_gap_check(t, n) == ref.convergent_gap_check(t, n)


def _gap_outcome(check, t, n):
    try:
        return check(t, n)
    except CertificateFailure as exc:
        return exc.clause, str(exc)


@pytest.mark.parametrize("p6, c1, clause, q", [
    (34, None, "gap_bound", 2),
    (0, None, "gap_degenerate", 1),
    # 2 C1 q best = q_6 exactly at q = 2 passes; 35 p_6 = 17 q_6
    (34, F(35, 4), "gap_degenerate", 35),
])
def test_gap_check_raises_at_the_first_failing_q(p6, c1, clause, q):
    # p_6 := 34 against q_6 = 70: q = 1 leaves the residue 34, q = 2 leaves
    # 68, two from 70, and 2 C1 q best = 32 < q_6 at C1 = 4
    t = table(c1=c1)
    assert t.pair(6) == (29, 70)
    t.p[1] = p6  # row 6 is slot 1
    with pytest.raises(CertificateFailure) as exc:
        convergent_gap_check(t, 6)
    assert exc.value.clause == clause and exc.value.detail == f"n=6, q={q}"


@pytest.mark.parametrize("c1", [None, F(35, 4), F(7, 2), F(7)])
def test_gap_check_matches_reference_on_tampered_rows(c1):
    # every p_n from -80 to 220 on rows 5 and 6 (q = 29, 70), below 0 and
    # past q_n included: the same clause at the same q, or the same report;
    # at C1 = 7 and p_5 := 2, 2 C1 q best = 28 = q_5 - 1 at q = 1
    outcomes = set()
    for n in (5, 6):
        t = table(c1=c1)
        t.pair(n)
        for pn in range(-80, 221):
            t.p[1] = pn  # row n is slot 1
            got = _gap_outcome(convergent_gap_check, t, n)
            assert got == _gap_outcome(ref.convergent_gap_check, t, n), (n, pn)
            outcomes.add(got[0] if isinstance(got, tuple) else "pass")
    assert outcomes == {"gap_bound", "gap_degenerate", "pass"}


# every row n >= 2 with q_n <= 300, on both presets
SMALL_ROWS = [(name, n) for name in ("sqrt2m1", "sqrt5m2") for n in range(2, 12)
              if table(name).pair(n)[1] <= 300]


@pytest.mark.parametrize("name, n", SMALL_ROWS)
def test_gap_brute_force_small_tables(name, n):
    # the literal double loop over q and p that one modular reduction replaces
    t = table(name)
    pn, qn = t.pair(n)
    lit = min(q * abs(q * pn - p * qn) for q in range(1, qn)
              for p in range(-qn - 1, qn + 2))
    assert 2 * t.c1 * lit >= qn
    assert convergent_gap_check(t, n).min_scaled == F(2 * lit, qn) * t.c1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_cross_identity_property(n):
    t = table()
    pn, qn = t.pair(n)
    pm, qm = t.pair(n + 1)
    assert qn * pm - pn * qm == (-1) ** (n + 1)


# -- the row facts ConvergentTable derives from the surd state --------------


def _exact_row_facts(t, n):
    """Range, growth, cross identity, sign and quality bracket of row n, by
    exact products in Q(sqrt d)."""
    pn, qn = t.pair(n)
    pm, qm = t.pair(n + 1)
    one = QF(F(1), F(0), t.alpha.d)
    aeps = t.eps(n) * ((-1) ** (n + 1))
    return (0 <= pn <= qn and qn < qm <= t.c1 * qn
            and qn * pm - pn * qm == (-1) ** (n + 1)
            and aeps.sign() == 1
            and (aeps * qm - one).sign() < 0
            and (aeps * (qm + qn) - one).sign() > 0)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_derived_row_facts_match_exact_oracle(name):
    t = table(name)
    t.extend_to(2001)
    bad = [n for n in range(1, 2001) if not _exact_row_facts(t, n)]
    assert bad == []


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cursor_matches_dense_rows(name):
    # in order the cursor only walks forward; shuffled, every step back restarts
    t = table(name)
    p, q = dense_rows(t.spec, 2000)
    order = list(range(1, 2001))
    for shuffle in (False, True):
        if shuffle:
            random.Random(2000).shuffle(order)
        for n in order:
            assert t.pair(n) == (p[n], q[n])
            assert t.eps(n) == t.alpha * q[n] - p[n]
            assert len(t.p) == len(t.q) == 2


@pytest.mark.parametrize("name", sorted(SPECS))
def test_jumps_match_plain_recurrence_to_20000(name):
    # seeded rows up to 20,000, each reached by a forward jump, by a jump
    # after a restart, and by extend_to_cover on either side of q_n
    wanted = sorted(random.Random(20000).sample(range(1, 20001), 40)) + [20000]
    forward, back, cover = table(name), table(name), table(name)
    stream = _SurdQuotients(SPECS[name])
    stream.next()  # the integer part, 0
    (pm, p), (qm, q), n = (1, 0), (0, 1), 1  # rows n-1 and n of the plain recurrence
    for want in wanted:
        while n < want:
            ak = stream.next()
            pm, p, qm, q, n = p, ak * p + pm, q, ak * q + qm, n + 1
        assert forward.pair(n) == (p, q) and forward.pair(n - 1) == (pm, qm)
        back.extend_to(20000)
        assert back.pair(n) == (p, q)
        cover.extend_to_cover(q - 1)
        assert (len(cover), cover.q) == (n, [qm, q])
        cover.extend_to_cover(q)
        assert len(cover) == n + 1 and cover.q[0] == q
        cover.pair(1)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_surd_stream_steps_once_per_period(name, monkeypatch):
    # each (re)start steps its surd stream pre-period + period + 1 times
    # (the integer part, then every quotient up to the repeat), then jumps
    p, q = dense_rows(SPECS[name], 7)
    steps = {}  # stream -> steps; holding each stream keeps ids apart
    real_next = _SurdQuotients.next

    def counted(stream):
        steps[stream] = steps.get(stream, 0) + 1
        return real_next(stream)

    monkeypatch.setattr(_SurdQuotients, "next", counted)
    pre, period = PERIODS[name]
    t = table(name)
    t.extend_to(2000)
    t.pair(1)
    t.extend_to_cover(10 ** 3000)
    locate_n(10 ** 500, t)
    t.pair(3)
    assert t.pair(7) == (p[7], q[7])
    assert len(steps) == 4 and set(steps.values()) == {pre + period + 1}


def test_cursor_keeps_two_rows(honest_state):
    t = table()
    t.extend_to(2000)
    assert len(t) == 2000 and len(t.p) == len(t.q) == 2
    n = locate_n(10 ** 1000, t)
    _, q = dense_rows(t.spec, n)
    assert q[n - 1] <= 10 ** 1000 < q[n] and len(t.p) == len(t.q) == 2
    t = run_table(honest_state)
    assert len(t) == 14401 and len(t.p) == len(t.q) == 2


def _qf_inverse(x):
    den = x.p * x.p - x.q * x.q * x.d
    return QF(x.p / den, -x.q / den, x.d)


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(1, 6), st.integers(-12, 12),
       st.integers(2, 60))
def test_surd_floor_matches_qf(a, b, c, d):
    assume(c != 0 and math.isqrt(d) ** 2 != d)
    spec = AlphaSpec("h", a, b, c, d, 4)
    stream = _SurdQuotients(spec)
    x = spec.qf()  # independent expansion: x -> 1/(x - floor x) in Q(sqrt d)
    for _ in range(40):
        state_floor = qf_floor(QF(F(stream.P, stream.Q), F(1, stream.Q), stream.D))
        ak = stream.next()
        assert ak == state_floor == qf_floor(x)
        x = _qf_inverse(x - ak)


def test_surd_rejects_square_radicand():
    with pytest.raises(InputError):
        _SurdQuotients(AlphaSpec("sq", 0, 1, 3, 4, 4))


_STREAM_NEXT = _SurdQuotients.next


def _tamper_stream(monkeypatch, after, **state):
    """Every surd stream sets `state` on itself after its step `after`."""

    def tampered(stream):
        a = _STREAM_NEXT(stream)
        stream.steps = getattr(stream, "steps", 0) + 1
        if stream.steps == after:
            vars(stream).update(state)
        return a

    monkeypatch.setattr(_SurdQuotients, "next", tampered)


def test_corrupted_surd_state_fails(monkeypatch):
    # the table walks its stream until the state repeats, so a corrupted
    # state fails when the table is built: after the integer part on
    # sqrt2m1, after a_1 (inside the pre-period) on sqrt2/4
    _tamper_stream(monkeypatch, 1, Q=2)  # x = (1 + sqrt 2)/2: 2 does not divide D - P'^2
    with pytest.raises(CertificateFailure) as exc:
        table()
    assert exc.value.clause == "cf_surd_divisibility"
    start = _SurdQuotients(SPECS["sqrt2m1"])
    _tamper_stream(monkeypatch, 1, P=start.P, Q=start.Q)  # back at alpha: quotient 0
    with pytest.raises(CertificateFailure) as exc:
        table()
    assert exc.value.clause == "cf_partial_quotient"
    _tamper_stream(monkeypatch, 2, Q=3)
    with pytest.raises(CertificateFailure) as exc:
        table("sqrt2/4")
    assert exc.value.clause == "cf_surd_divisibility"
    # once the walk is proven, forward rows come from its quotients alone
    monkeypatch.undo()
    t, (p, q) = table("sqrt2/4"), dense_rows(SPECS["sqrt2/4"], 6)
    monkeypatch.setattr(_SurdQuotients, "next", lambda stream: pytest.fail("stream read"))
    assert [t.pair(n) for n in range(1, 7)] == list(zip(p[1:], q[1:]))


def test_corrupted_period_quotients_fail(monkeypatch):
    # quotients raised by 2 past the integer part: sqrt2m1's walk reads [4],
    # which fails a_max + 1 <= C1 = 4 when the table is built, before any
    # row is derived from it
    real_next = _SurdQuotients.next
    monkeypatch.setattr(_SurdQuotients, "next",
                        lambda st: (lambda a: a + 2 if a else a)(real_next(st)))
    with pytest.raises(CertificateFailure) as exc:
        table()
    assert exc.value.clause == "cf_growth" and "[4]" in str(exc.value)
    # sqrt2/4's period [1, 4] read as [0, 4]: the walk fails a >= 1 at a_2
    monkeypatch.setattr(_SurdQuotients, "next",
                        lambda st: (lambda a: 0 if a == 1 else a)(real_next(st)))
    with pytest.raises(CertificateFailure) as exc:
        table("sqrt2/4")
    assert exc.value.clause == "cf_partial_quotient" and "a_2=0" in str(exc.value)


def test_period_growth_bound_is_certified():
    # C1 = 9/2 on sqrt5m2 fails a_max + 1 = 5 (row 2 alone, q_2 = 4 <= 9/2,
    # would pass); sqrt2/4's period [1, 4] meets C1 = 5 and fails C1 = 49/10
    with pytest.raises(CertificateFailure) as exc:
        table("sqrt5m2", c1=F(9, 2)).extend_to(3)
    assert exc.value.clause == "cf_growth"
    table("sqrt2/4", c1=5).extend_to(100)
    with pytest.raises(CertificateFailure) as exc:
        table("sqrt2/4", c1=F(49, 10)).extend_to(100)
    assert exc.value.clause == "cf_growth"
    # (2 + sqrt 2)/7's a_2 = 19 lies before its period (1, 8, 1, 18): the
    # check covers the pre-period, so C1 = 20 builds and C1 = 19 fails
    table("(2+sqrt2)/7", c1=20).extend_to(100)
    with pytest.raises(CertificateFailure) as exc:
        table("(2+sqrt2)/7", c1=19)
    assert exc.value.clause == "cf_growth"


def _linear_locate(name, le):
    ref = table(name)
    n = 2
    while le(ref.pair(n)[1]):
        n += 1
    return n


# `shift` grows a second table to want + shift first: short of the answer,
# at it, or past it, where locate_n restarts the walk
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sqrt2m1", "sqrt5m2"]), st.integers(0, 10 ** 40),
       st.integers(1, 10 ** 6), st.integers(-120, 40))
def test_locate_n_matches_linear_scan_rational(name, k, den, shift):
    T = 1 + F(k, den)
    want = _linear_locate(name, lambda q: q <= T)
    assert locate_n(T, table(name)) == want
    grown = table(name)
    grown.extend_to(want + shift)
    assert locate_n(T, grown) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sqrt2m1", "sqrt5m2"]), st.integers(1, 10 ** 60),
       st.integers(-120, 40))
def test_locate_n_matches_linear_scan_enclosed(name, m, shift):
    want = _linear_locate(name, lambda q: q * q <= m)  # q <= sqrt(m)
    assert locate_n(sqrt_int(m), table(name)) == want
    grown = table(name)
    grown.extend_to(want + shift)
    assert locate_n(sqrt_int(m), grown) == want


def test_locate_n_row_cap(monkeypatch):
    # no move takes the cursor past the cap, and no walk reads more
    # quotients than it; a move that would raises and leaves the cursor
    # where it stood
    monkeypatch.setattr("gammacert.cf._MAX_TABLE_ROWS", 30)
    p, q = dense_rows(SPECS["sqrt2m1"], 30)
    t = table()
    assert locate_n(q[29] - 1, t) == 29
    with pytest.raises(InputError):
        locate_n(10 ** 100, t)  # needs about 263 rows
    assert len(t) == 29 and t.q == q[28:30]
    with pytest.raises(InputError):
        t.extend_to_cover(q[30])  # row 31
    with pytest.raises(InputError):
        t.pair(31)
    assert len(t) == 29
    t.extend_to_cover(q[30] - 1)
    assert len(t) == 30 and t.pair(30) == (p[30], q[30])
    monkeypatch.setattr("gammacert.cf._MAX_TABLE_ROWS", 3)
    t = table("sqrt2/4")  # the walk reads a_1, a_2, a_3 = 2, 1, 4 and builds no row
    with pytest.raises(InputError):
        t.extend_to(4)
    assert len(t) == 1 and (t.p, t.q) == ([1, 0], [0, 1])
    monkeypatch.setattr("gammacert.cf._MAX_TABLE_ROWS", 2)
    with pytest.raises(InputError):
        table("sqrt2/4")  # its state repeats only after a_3


@pytest.mark.parametrize("name", ["sqrt2/4", "(2+sqrt2)/7", "(4+sqrt2)/14"])
def test_failed_move_leaves_the_cursor(monkeypatch, name):
    # from every row, before, inside and past the first period, each kind of
    # move past the cap raises with len(t), t.p and t.q unchanged
    cap = 12
    monkeypatch.setattr("gammacert.cf._MAX_TABLE_ROWS", cap)
    p, q = dense_rows(SPECS[name], cap + 1)
    t = table(name)
    moves = (lambda: t.extend_to(cap + 1), lambda: t.extend_to(10 ** 6),
             lambda: t.extend_to_cover(q[cap]), lambda: t.pair(cap + 1),
             lambda: locate_n(q[cap], t), lambda: locate_n(10 ** 100, t))
    for n in range(1, cap + 1):
        t.extend_to(n)
        for move in moves:
            with pytest.raises(InputError):
                move()
            assert (len(t), t.p, t.q) == (n, p[n - 1:n + 1], q[n - 1:n + 1])


def test_gap_certificate_survives_optimize():
    code = (
        "from gammacert import ALPHA_PRESETS, CertificateFailure, ConvergentTable, "
        "convergent_gap_check\n"
        "assert not __debug__\n"
        "t = ConvergentTable(ALPHA_PRESETS['sqrt2m1'])\n"
        "pn, qn = t.pair(6)\n"
        "t.p[1] = 0  # row 6 is slot 1: every q p_6 is now a multiple of q_6\n"
        "try:\n"
        "    convergent_gap_check(t, 6)\n"
        "except CertificateFailure as exc:\n"
        "    print(exc.clause)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "gap_degenerate"


def test_table_checks_the_surd_start(monkeypatch):
    # a quotient stream that starts from alpha + 1 instead of alpha
    class Shifted(_SurdQuotients):
        def __init__(self, spec):
            super().__init__(spec)
            self.P += self.Q

    monkeypatch.setattr(cf, "_SurdQuotients", Shifted)
    with pytest.raises(CertificateFailure, match="cf_surd_start: sqrt2m1"):
        ConvergentTable(ALPHA_PRESETS["sqrt2m1"])
