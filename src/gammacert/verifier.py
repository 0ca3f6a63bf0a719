"""Run-level verification suites.

Contents:
  - starred_ledger_audit: instantiate every threshold inequality that the
    case analysis behind the slab bound takes for granted, with the run's
    actual delta0, X scales and C1, and record certified verdicts.  The
    clauses that depend on the plan alone come from planner.plan_clauses,
    the same expressions the multiplier search certifies; the audit adds
    the per-step clauses.
  - check_condition_iii: on a norm grid, select the witness point by the
    interval rule 5 C1 X_{i-1} <= X < 5 C1 X_i and certify the three
    small-value bounds with constant C4 = (6 C1)^5 / delta0^2.
  - LowerBoundEngine: the one threshold-then-certify path for the lower
    bound |x.u| >= dist(x,{v,w}) / (w(||x||) ||x||^gamma), shared by the
    coefficient boxes and scan.slab_scan_iv.
  - coeff_box_lemma3: enumerate x = q y_i + p x_{i-1} + r x_i over a
    coefficient box and certify the branch lower bounds on |x.u| through
    the engine; the bookkeeping determinants of x hold by step i's
    det_basis/det_qn/det_pn.
  - vperp_sandwich_check: min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x,{v,w})
    <= |x.u| + min{...}, decided by integer cross-multiplication on frames
    with perfect-square norms.
  - property_suites: seeded randomized identities, byte-deterministic; the
    draws reproduce Random.randint's stream and every per-case comparison
    is in plain integers.  clean_report is the report of a run in which no
    case fails, from the same table of suites.
  - export_alpha_beta: dyadic interval enclosures of alpha = u1/u0 and
    beta = u2/u0 from the representative and radius, in plain integers.

Everything is certified: exact rational arithmetic where possible, interval
enclosures with escalating precision elsewhere.  No verdict rests on floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt
from typing import Callable, Dict, List, Optional, Tuple, Union

from .balls import (BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, cert_le, sqrt_int,
                    sqrt_ratio)
from .builder import ConstructionState, DirectionEnclosure, x_dot_u_lower
from .cf import ALPHA_PRESETS, ConvergentTable, convergent_gap_check
from .errors import CertificateFailure, InputError
from .exact import (IVec3, complete_to_basis, cross, det3, dot, floor_log2,
                    is_primitive_pair, proj_dist_sq_terms,
                    smith_invariants_3x2)
from .planner import plan_clauses
from .stepper import Verdict

Rat = Fraction


def c4_of(plan) -> Rat:
    return (6 * plan.c1) ** 5 / plan.delta0_sq


# ---------------------------------------------------------------------------
# starred-threshold audit


@dataclass(frozen=True)
class StarredClause:
    name: str
    lhs: Tuple[Rat, Rat]  # certified interval around the instantiated left side
    rhs: Tuple[Rat, Rat]
    passed: Optional[bool]  # None only when the compare stayed undecided
    prec: int = 0


@dataclass(frozen=True)
class StarredLedger:
    clauses: Tuple[StarredClause, ...]

    @property
    def refuted(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.clauses if c.passed is False)

    @property
    def undecided(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.clauses if c.passed is None)


def _interval(v: Union[int, Rat, BallReal]) -> Tuple[Rat, Rat]:
    if isinstance(v, BallReal):
        return (v.refined_to(PAYLOAD_PREC).lo, v.hi)
    return (Fraction(v), Fraction(v))


def _clause(out: List[StarredClause], name: str, lhs, rhs, max_prec: int) -> None:
    """Record the verdict of lhs <= rhs with payload intervals."""
    ok, prec = cert_le(lhs, rhs, max_prec)
    out.append(StarredClause(name, _interval(lhs), _interval(rhs), ok, prec))


def starred_ledger_audit(state: ConstructionState,
                         max_prec: int = DEFAULT_MAX_PREC) -> StarredLedger:
    """Audit every run-size threshold the slab bound's case analysis assumes.

    First the clauses that depend on the plan alone, planner.plan_clauses
    (large_q_margin .. regime_product), then per step i = 1..n_steps (each
    an instantiated "lhs <= rhs"):
      plane_p_margin_i*     200 C1^3 X_i^gamma <= delta0^2 X1 X_{i+1}^gamma
      plane_dist_transfer_i* 9 <= delta0 X1 X_{i-1} X_i X_{i+1}^gamma
      axis_rep_bound_i*     ||x_{i-1}||^2 <= X1^2 X_{i-1}^2      (exact)
      axis_gap_i*           X1^4 X_{i-1}^2 <= X_{i+1}^2          (exact)
      axis_const_i*         (6 C1)^4 <= delta0 (X_i/X1)^(gamma+1) X1^3 X_{i-1}

    A Fail marks the run as outside the regime where the case analysis is
    self-sufficient; toy runs stay usable, flagged by the failing names.
    """
    plan = state.plan
    c1 = plan.c1
    d0sq = plan.delta0_sq
    x1sq = Fraction(plan.x1_sq)
    gamma = BallReal.golden()
    s = state.n_steps
    d0 = state.delta0_ball()
    x1 = state.scale(1).ball()
    out: List[StarredClause] = []
    for name, lhs, rhs in plan_clauses(plan):
        _clause(out, name, lhs, rhs, max_prec)

    for i in range(1, s + 1):
        xi_g = state.scale(i).pow_gamma_plus(0)
        xi1_g = state.scale(i + 1).pow_gamma_plus(0)
        _clause(out, f"plane_p_margin_i{i}",
                BallReal.wrap(200 * c1 ** 3) * xi_g,
                BallReal.wrap(d0sq) * x1 * xi1_g, max_prec)
        _clause(out, f"plane_dist_transfer_i{i}", 9,
                d0 * x1 * state.scale(i - 1).ball() * state.scale(i).ball() * xi1_g,
                max_prec)
        _clause(out, f"axis_rep_bound_i{i}",
                Fraction(state.xs[i - 1].norm_sq()),
                x1sq * state.scale(i - 1).sq, max_prec)
        _clause(out, f"axis_gap_i{i}",
                x1sq * x1sq * state.scale(i - 1).sq,
                state.scale(i + 1).sq, max_prec)
        ratio = state.scale(i).sq / x1sq
        _clause(out, f"axis_const_i{i}", (6 * c1) ** 4,
                d0 * BallReal.wrap(ratio).pow((gamma + 1) / 2)
                * BallReal.wrap(x1sq).pow(Fraction(3, 2)) * state.scale(i - 1).ball(),
                max_prec)
    return StarredLedger(clauses=tuple(out))


# ---------------------------------------------------------------------------
# condition (iii) witnesses


@dataclass(frozen=True)
class WitnessSample:
    x_sq: Rat
    witness_index: int
    verdicts: Tuple[Verdict, ...]


@dataclass(frozen=True)
class WitnessReport:
    c: Rat
    samples: Tuple[WitnessSample, ...]
    failures: Tuple[str, ...]
    undecided: Tuple[str, ...]


def witness_grid(state: ConstructionState) -> List[Rat]:
    """32 log-spaced sample norms as exact squares in [5C1 X0, 5C1 X_N]."""
    plan = state.plan
    base = 25 * plan.c1 * plan.c1 * Fraction(plan.x0_sq)
    e_max = floor_log2(state.scale(state.n_steps).sq / Fraction(plan.x0_sq))
    return [base * Fraction(2) ** ((j * e_max) // 31) for j in range(32)]


def check_condition_iii(state: ConstructionState,
                        max_prec: int = DEFAULT_MAX_PREC) -> WitnessReport:
    """Certify the small-value condition at each norm X of the witness grid.

    The witness is x_m for the unique index with 5C1 X_m <= X < 5C1 X_{m+1}
    (located by exact square comparison).  Three certificates per sample:
      witness_norm   ||x_m||^2 <= X^2                        (exact)
      witness_xu     (2 ||x_m|| rad(U_{m+1}))^2 <= (C/X^(gamma+1))^2
      witness_vperp  (2 ||x_m|| delta_{m+1})^2  <= (C/X^(gamma+1))^2
    The second uses x_m . u_{m+1} = det3(x_m, x_m, x_{m+1}) = 0, which holds
    for every pair of integer vectors; the third uses the sandwich
    min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x, {v,w}) and the parity-tail
    bound dist(x_m, {v,w}) <= 2 delta_{m+1}.
    """
    plan = state.plan
    c1 = plan.c1
    c = c4_of(plan)
    gamma_plus_1 = BallReal.golden() + 1
    # per anchor m: radius_sq_ub of U_{m+1} and the leaf delta_{m+1}^2, built
    # once and shared by the anchor's samples
    anchors: Dict[int, Tuple[Rat, BallReal]] = {}
    samples: List[WitnessSample] = []
    failures: List[str] = []
    undecided: List[str] = []
    for x_sq in witness_grid(state):
        i = 1
        while 25 * c1 * c1 * state.scale(i).sq <= x_sq:
            i += 1
        m = i - 1
        xm = state.xs[m]
        nm_sq = Fraction(xm.norm_sq())
        verdicts: List[Verdict] = []
        tag = f"X2={x_sq}"

        if nm_sq <= x_sq:
            verdicts.append(Verdict(f"witness_norm_m{m}", True))
        else:
            failures.append(f"witness_norm_m{m}:{tag}")
        if m not in anchors:
            anchors[m] = (state.u_enclosures[m + 1].radius_sq_ub,
                          state.delta_upper(m + 1) ** 2)
        radius_sq, delta_sq = anchors[m]
        rhs_sq = BallReal.wrap(c * c) / BallReal.wrap(x_sq).pow(gamma_plus_1)
        checks = (
            (f"witness_xu_m{m}", BallReal.wrap(4 * nm_sq * radius_sq)),
            (f"witness_vperp_m{m}", 4 * BallReal.wrap(nm_sq) * delta_sq),
        )
        for name, lhs in checks:
            ok, prec = cert_le(lhs, rhs_sq, max_prec)
            if ok is True:
                verdicts.append(Verdict(name, True, prec))
            elif ok is False:
                failures.append(f"{name}:{tag}")
            else:
                undecided.append(f"{name}:{tag}:prec={prec}")
        samples.append(WitnessSample(x_sq=x_sq, witness_index=m,
                                     verdicts=tuple(verdicts)))
    return WitnessReport(c=c, samples=tuple(samples), failures=tuple(failures),
                         undecided=tuple(undecided))


# ---------------------------------------------------------------------------
# coefficient-box enumeration


@dataclass(frozen=True)
class BoxReport:
    index: int
    k_bound: int
    points_total: int
    in_window: int
    strong_branch: int
    lattice_branch: int
    violations: Tuple[str, ...]
    undecided: Tuple[str, ...]


def dist_vw_upper(x: IVec3, venc: DirectionEnclosure,
                  wenc: DirectionEnclosure) -> BallReal:
    """A ball whose value upper-bounds dist(x, {v, w})."""
    best = None
    for enc in (venc, wenc):
        cand = sqrt_ratio(*proj_dist_sq_terms(x, enc.rep)) + enc.radius
        if best is None or cand.refined_to(96).hi < best.refined_to(96).hi:
            best = cand
    return best


PRETEST_BITS = 64  # bits the exact pre-test keeps of each side of its compare


def _sqrt_up(num: int, den: int, s: int) -> int:
    """The least integer r with r^2 >= 4^s num/den (num >= 0, den > 0), so
    r >= 2^s sqrt(num/den)."""
    n = -((-num << 2 * s) // den)
    r = isqrt(n)
    return r + (r * r < n)


def _log2_est(num: int, den: int) -> int:
    """log2(num/den) to within one, from bit lengths (num, den > 0)."""
    return num.bit_length() - den.bit_length()


class LowerBoundEngine:
    """The one certifier of |x.u| >= dist(x, {v,w}) / (w(||x||) ||x||^gamma).

    Built once per (state, window index i, weight w): w = X1^3 X_{i-1} for
    the coefficient boxes, w = psi for the slab scan.  It reads the anchor
    enclosures `encs` and the v/w enclosures from the state, which builds
    each once for all its engines, and holds the anchor `order` (u_{i+1},
    u_i, u_{i+2}, then outward).  The bound is checked in three tiers:

      1. shell_bound gives a rational t such that every x with lo^2 <=
         ||x||^2 <= hi^2 and |x.u_j|/||u_j|| >= t satisfies the bound: the
         threshold, the upper bound of 1/(w(lo) lo^gamma), plus the slack
         2 hi sqrt(radius_j), since |x.u| >= |x.u_j|/||u_j|| - 2 ||x||
         dist(u_j, u).  This is sound because dist(x, {v,w}) <= 1
         (proj_dist_sq never exceeds 1) and w(t) t^gamma is nondecreasing
         in t.  The callers test whole shells against it in integers.
      2. certify's exact pre-test passes one point in plain integers: the
         threshold of its dyadic shell of ||x||^2, its own numerator
         (dist(x, {v,w}) bounded from the exact squared distances on the
         span lattice) and its own slack 2 ||x|| sqrt(radius_j), each
         rounded up.
      3. The interval path, for the points the pre-test does not pass: it
         alone refutes a point, against a lower bound on the right side,
         or leaves it undecided.
    """

    def __init__(self, state: ConstructionState, i: int,
                 weight: Callable[[BallReal], BallReal]):
        last = state.last_index
        self.encs = state.u_enclosures
        pref = [j for j in (i + 1, i, i + 2) if 1 <= j <= last]
        self.order = pref + [j for j in range(last, 0, -1) if j not in pref]
        self.venc, self.wenc = state.vw_enclosures
        self.weight = weight
        self.gamma = BallReal.golden()
        self._thresholds: Dict[Rat, Rat] = {}

    def threshold(self, lo_sq: Rat) -> Rat:
        """The 128-bit upper bound of 1/(w(lo) lo^gamma), evaluated once
        per lo_sq."""
        got = self._thresholds.get(lo_sq)
        if got is None:
            lo = BallReal.wrap(lo_sq).sqrt()
            got = self._thresholds[lo_sq] = (
                1 / (self.weight(lo) * lo.pow(self.gamma))).refined_to(128).hi
        return got

    def shell_bound(self, lo_sq: Rat, hi_sq: Rat, j: int) -> Rat:
        """Threshold on |x.u_j|/||u_j|| for lo_sq <= ||x||^2 <= hi_sq."""
        hi_up = BallReal.wrap(hi_sq).sqrt().refined_to(96).hi
        return self.threshold(lo_sq) + 2 * hi_up * self.encs[j].radius.refined_to(96).hi

    def certify(self, x: IVec3, lattice: bool,
                max_prec: int) -> Tuple[Optional[bool], int]:
        """(True, prec) when an anchored lower bound on |x.u| clears the right
        side (numerator 1 off the span lattice, dist(x, {v,w}) on it), (False,
        prec) when an anchored upper bound stays below a lower bound on it,
        else (None, prec).

        The exact pre-test answers first and only ever passes a point, with
        prec 0; every other verdict comes from the interval path.
        """
        if self._pretest(x, lattice):
            return True, 0
        return self._certify_intervals(x, lattice, max_prec)

    def _pretest(self, x: IVec3, lattice: bool) -> bool:
        """True when |x.u_j| 2^(S+P) >= ceil(||u_j|| 2^P) (A + B_j) at some
        anchor j, which puts |x.u_j|/||u_j|| - 2 ||x|| sqrt(radius_j) at or
        above the right side.

        T_e is the threshold at the floor 2^e of the dyadic shell of
        ||x||^2, at least 1/(w(||x||) ||x||^gamma) since w(t) t^gamma is
        nondecreasing.  D >= 2^S times the numerator: 2^S off the span
        lattice, on it the least over v and w of ceil(2^S sqrt(|x^rep|^2 /
        (||x||^2 ||rep||^2))) + ceil(2^S radius).  A = ceil(D T_e) and B_j =
        ceil(2^(S+1) sqrt(||x||^2 radius_j)).  Every rounding lifts the right
        side, so any S, P >= 0 is sound; they are chosen from bit lengths so
        that D, A and ceil(||u_j|| 2^P) keep about PRETEST_BITS bits.
        """
        nsq = x.norm_sq()
        t = self.threshold(Fraction(1 << (nsq.bit_length() - 1)))
        terms = [(proj_dist_sq_terms(x, enc.rep), enc.radius_sq_ub)
                 for enc in (self.venc, self.wenc)] if lattice else []
        # log2 of the numerator to within one; an exact zero |x^rep|^2
        # stands in as 1/(||x||^2 ||rep||^2), below the radius
        log_num = min((max(_log2_est(r.numerator, r.denominator),
                           _log2_est(c, n) if c else -n.bit_length()) // 2
                       for (c, n), r in terms), default=0)
        s = max(0, PRETEST_BITS - log_num
                - min(0, _log2_est(t.numerator, t.denominator)))
        d = min((_sqrt_up(c, n, s) + _sqrt_up(r.numerator, r.denominator, s)
                 for (c, n), r in terms), default=1 << s)
        a = -(-d * t.numerator // t.denominator)
        for j in self.order:
            enc = self.encs[j]
            xu = abs(dot(x, enc.rep))
            if xu == 0:
                continue  # vacuous anchor, as on the interval path
            rep_sq = enc.rep.norm_sq()
            p = max(0, PRETEST_BITS - rep_sq.bit_length() // 2)
            rsq = enc.radius_sq_ub
            b = _sqrt_up(4 * nsq * rsq.numerator, rsq.denominator, s)
            if xu << (s + p) >= _sqrt_up(rep_sq, 1, p) * (a + b):
                return True
        return False

    def _certify_intervals(self, x: IVec3, lattice: bool,
                           max_prec: int) -> Tuple[Optional[bool], int]:
        """certify's interval path: anchored interval bounds, refined up to
        max_prec, against the right side with dist_vw_upper's numerator to
        pass x, and to refute it with the lower numerator of both v and w:
        sqrt(proj_dist_sq(x, rep)) - radius, by the triangle inequality."""
        nx = sqrt_int(x.norm_sq())
        denom = self.weight(nx) * nx.pow(self.gamma)
        rhs = (dist_vw_upper(x, self.venc, self.wenc) if lattice else 1) / denom
        last_prec = 0
        for j in self.order:
            if dot(x, self.encs[j].rep) == 0:
                continue  # vacuous anchor: the lower bound cannot be positive
            ok, prec = cert_le(rhs, x_dot_u_lower(x, self.encs[j]), max_prec)
            last_prec = max(last_prec, prec)
            if ok is True:
                return True, prec
        lows = [(sqrt_ratio(*proj_dist_sq_terms(x, enc.rep)) - enc.radius) / denom
                for enc in (self.venc, self.wenc)] if lattice else [rhs]
        for j in self.order:
            enc = self.encs[j]
            ub = (BallReal.wrap(Fraction(abs(dot(x, enc.rep)))) / enc.rep_norm
                  + 2 * nx * enc.radius)
            for low in lows:
                bad, prec = cert_le(low, ub, max_prec)
                last_prec = max(last_prec, prec)
                if bad is not False:
                    break
            else:
                return False, last_prec
        return None, last_prec


def coeff_box_lemma3(state: ConstructionState, i: int, k_bound: int = 8,
                     max_prec: int = DEFAULT_MAX_PREC) -> BoxReport:
    """Enumerate x = q y_i + p x_{i-1} + r x_i over [-K, K]^3 \\ {0}.

    The bookkeeping determinants det3(x, x_{i-1}, x_i) = q and
    det3(x, x_i, x_{i+1}) = -(q p_n - p q_n) hold by multilinearity from
    step i's det_basis/det_qn/det_pn.
    Points whose norm falls in [X_i/X1, X_{i+1}/X1) get the branch bound:
      q != 0 (outside the span lattice):  |x.u| >= 1/(X1^3 X_{i-1} ||x||^gamma)
      q == 0 (inside):   |x.u| >= dist(x, {v,w})/(X1^3 X_{i-1} ||x||^gamma)
    A point passes outright when |x.u_{i+1}| >= ceil(N t), N >= ||u_{i+1}||,
    t the engine's bound for the window's part of the dyadic shell of
    ||x||^2; the rest go to the engine's certify.
    Valid anchor range needs the step-(i+1) pair, hence 2 <= i <= n_steps-1.
    """
    s = state.n_steps
    if not 2 <= i <= s - 1:
        raise InputError(f"box index {i} outside 2..{s - 1}")
    if k_bound < 1:
        raise InputError("coefficient bound must be positive")
    xi_prev, xi = state.xs[i - 1], state.xs[i]
    yi = state.ys[i - 1]
    x1sq = Fraction(state.plan.x1_sq)
    win_lo = state.scale(i).sq / x1sq
    win_hi = state.scale(i + 1).sq / x1sq
    weight = BallReal.wrap(x1sq).pow(Fraction(3, 2)) * state.scale(i - 1).ball()
    engine = LowerBoundEngine(state, i, lambda t: weight)
    rep = engine.encs[i + 1].rep
    rep_up = sqrt_int(rep.norm_sq()).refined_to(96).hi
    thresholds: Dict[int, int] = {}  # dyadic shell exponent -> integer bound

    total = in_window = lattice = 0
    violations: List[str] = []
    undecided: List[str] = []
    rng = range(-k_bound, k_bound + 1)
    for q in rng:
        for p in rng:
            for r in rng:
                if q == 0 and p == 0 and r == 0:
                    continue
                total += 1
                x = q * yi + p * xi_prev + r * xi
                nsq = x.norm_sq()
                if not win_lo <= nsq < win_hi:
                    continue
                in_window += 1
                lattice += q == 0
                e = nsq.bit_length() - 1
                if e not in thresholds:
                    thresholds[e] = ceil(rep_up * engine.shell_bound(
                        max(Fraction(1 << e), win_lo), min(Fraction(2 << e), win_hi), i + 1))
                if abs(dot(x, rep)) >= thresholds[e]:
                    continue
                ok, prec = engine.certify(x, q == 0, max_prec)
                tag = f"(q={q},p={p},r={r})"
                if ok is False:
                    violations.append(f"bound:{tag}")
                elif ok is None:
                    undecided.append(f"bound:{tag}:prec={prec}")
    return BoxReport(index=i, k_bound=k_bound, points_total=total,
                     in_window=in_window, strong_branch=in_window - lattice,
                     lattice_branch=lattice, violations=tuple(violations),
                     undecided=tuple(undecided))


# ---------------------------------------------------------------------------
# perpendicular-frame sandwich


@dataclass(frozen=True)
class SandwichVerdict:
    lower_ok: bool
    upper_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def vperp_sandwich_check(u_rep: IVec3, v_rep: IVec3, w_rep: IVec3,
                         x: IVec3) -> SandwichVerdict:
    """Check min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x,{v,w}) <= |x.u| + min.

    Requires nonzero frame vectors, u.v = u.w = 0 exactly and perfect-square
    frame norms (the quaternion frames of the property suite).  Each side is
    then a ratio of integers: |x.v_perp| = |det3(x, u, v)| / (||u|| ||v||)
    and ||x||^2 dist(x, v)^2 = ||x ^ v||^2 / ||v||^2, and the minima and both
    comparisons are decided by cross-multiplying.
    """
    if x.is_zero():
        raise InputError("x must be nonzero")
    if u_rep.is_zero() or v_rep.is_zero() or w_rep.is_zero():
        raise InputError("frame vectors must be nonzero")
    if dot(u_rep, v_rep) != 0 or dot(u_rep, w_rep) != 0:
        raise InputError("frame must satisfy u.v = u.w = 0 exactly")
    nu, nv, nw = u_rep.norm_sq(), v_rep.norm_sq(), w_rep.norm_sq()
    su, sv, sw = isqrt(nu), isqrt(nv), isqrt(nw)
    if su * su != nu or sv * sv != nv or sw * sw != nw:
        raise InputError("frame norms must be perfect squares")
    # a_min = a / (su s) and mid_sq = mn / md; ||x ^ v||^2 by Lagrange
    a_v, a_w = abs(det3(x, u_rep, v_rep)), abs(det3(x, u_rep, w_rep))
    a, s = (a_v, sv) if a_v * sw <= a_w * sv else (a_w, sw)
    nx = x.norm_sq()
    mid_v, mid_w = nx * nv - dot(x, v_rep) ** 2, nx * nw - dot(x, w_rep) ** 2
    mn, md = (mid_v, nv) if mid_v * nw <= mid_w * nv else (mid_w, nw)
    ad = su * s
    un = abs(dot(x, u_rep)) * s + a  # the upper side is un / ad
    return SandwichVerdict(lower_ok=a * a * md <= mn * ad * ad,
                           upper_ok=mn * ad * ad <= un * un * md)


# ---------------------------------------------------------------------------
# seeded property suites


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    suites: Tuple[Tuple[str, int, Tuple[str, ...]], ...]


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """count draws of rng.randint(lo, hi), from the same stream: randint
    takes getrandbits(k), k the bit length of the width hi - lo + 1, and
    draws again while the result is >= the width."""
    width = hi - lo + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(lo + r)
    return out


def _rand_vec(rng: random.Random) -> IVec3:
    while True:
        x, y, z = _randints(rng, -9, 9, 3)
        if x or y or z:
            return IVec3(x, y, z)


def _triangle_holds_exact(a: IVec3, b: IVec3, c: IVec3) -> bool:
    """dist(a,c) <= dist(a,b) + dist(b,c), decided by squaring twice.

    Over the common denominator ||a||^2 ||b||^2 ||c||^2 the three squared
    distances are X, Y and Z (proj_dist_sq_terms' numerators times the
    missing norm), so with G = X - Y - Z the inequality holds iff G <= 0 or
    G^2 <= 4 Y Z.
    """
    na, nb, nc = a.norm_sq(), b.norm_sq(), c.norm_sq()
    x = proj_dist_sq_terms(a, c)[0] * nb
    y = proj_dist_sq_terms(a, b)[0] * nc
    z = proj_dist_sq_terms(b, c)[0] * na
    gap = x - y - z
    return gap <= 0 or gap * gap <= 4 * y * z


def _quaternion_frame(rng: random.Random) -> Tuple[IVec3, IVec3, IVec3]:
    """Integer rows of a scaled rotation matrix: pairwise orthogonal,
    each with norm^2 = (a^2+b^2+c^2+d^2)^2, a perfect square."""
    while True:
        a, b, c, d = _randints(rng, -5, 5, 4)
        s = a * a + b * b + c * c + d * d
        if s > 0:
            break
    row0 = IVec3(a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c))
    row1 = IVec3(2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b))
    row2 = IVec3(2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d)
    return row0, row1, row2


PROPERTY_CASES = 1000  # the draws of each randomized suite, by default

# (name, case count) of the six property suites, in report order: None
# stands for the draws of a randomized suite; the gap check runs n = 2..12
# and the table check rows n = 1..59
SUITES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("triangle_inequality", None), ("lagrange_identity", None),
    ("primitive_pair_equiv", None), ("vperp_sandwich", None),
    ("convergent_gap", 11), ("cf_table", 59))


def _labelled(seed: int, cases: int, found: List[List[str]]) -> PropertyReport:
    """The report with each suite's SUITES row and failures, in order."""
    return PropertyReport(seed=seed, suites=tuple(
        (name, cases if count is None else count, tuple(fails))
        for (name, count), fails in zip(SUITES, found)))


def clean_report(seed: int) -> PropertyReport:
    """What property_suites(seed) returns when no case fails: the suites are
    seeded and deterministic, so one passing run stands for its report."""
    return _labelled(seed, PROPERTY_CASES, [[]] * len(SUITES))


def property_suites(seed: int = 0, cases: int = PROPERTY_CASES) -> PropertyReport:
    """Randomized identity suites with a fixed RNG; byte-deterministic.

    The draws reproduce rng.randint's stream (_randints), so a seed keeps
    its cases, and every per-case comparison is in plain integers.
    """
    rng = random.Random(seed)
    found: List[List[str]] = [[] for _ in SUITES]  # failures, in SUITES order
    triangle, lagrange, primitive, sandwich, gap, rows = found

    for k in range(cases):
        a, b, c = _rand_vec(rng), _rand_vec(rng), _rand_vec(rng)
        if not _triangle_holds_exact(a, b, c):
            triangle.append(f"case{k}:{a.as_tuple()},{b.as_tuple()},{c.as_tuple()}")

    for k in range(cases):
        a, b = _rand_vec(rng), _rand_vec(rng)
        if cross(a, b).norm_sq() + dot(a, b) ** 2 != a.norm_sq() * b.norm_sq():
            lagrange.append(f"case{k}")

    for k in range(cases):
        a, b = _rand_vec(rng), _rand_vec(rng)
        cr = cross(a, b)
        prim = is_primitive_pair(a, b)
        if prim != (not cr.is_zero() and cr.content() == 1):
            primitive.append(f"content:case{k}")
            continue
        if prim != (smith_invariants_3x2(a, b) == (1, 1)):
            primitive.append(f"smith:case{k}")
            continue
        if prim:
            z = complete_to_basis(a, b)
            if det3(a, b, z) != 1:
                primitive.append(f"basis:case{k}")

    for k in range(cases):
        u, v, w = _quaternion_frame(rng)
        x = _rand_vec(rng)
        if not vperp_sandwich_check(u, v, w, x).all_ok:
            sandwich.append(f"case{k}")

    table = ConvergentTable(ALPHA_PRESETS["sqrt2m1"])
    for n in range(2, 2 + dict(SUITES)["convergent_gap"]):
        try:
            convergent_gap_check(table, n)
        except CertificateFailure as exc:
            gap.append(f"n={n}:{exc}")

    for n in range(1, 1 + dict(SUITES)["cf_table"]):
        pn, qn = table.pair(n)
        pn1, qn1 = table.pair(n + 1)
        if not (0 <= pn <= qn and qn < qn1 <= table.c1 * qn):
            rows.append(f"range:n={n}")
        if qn * pn1 - pn * qn1 != (-1) ** (n + 1):
            rows.append(f"cross:n={n}")
        if table.eps(n).sign() != (-1) ** (n + 1):
            rows.append(f"sign:n={n}")

    return _labelled(seed, cases, found)


# ---------------------------------------------------------------------------
# coordinate export


EXPORT_BITS = 256  # significant bits of each export_alpha_beta endpoint


def export_alpha_beta(enc: DirectionEnclosure
                      ) -> Tuple[Tuple[Rat, Rat], Tuple[Rat, Rat]]:
    """Dyadic intervals for alpha = u1/u0 and beta = u2/u0, in plain integers.

    The unit limit u lies within sqrt(2 radius_sq_ub) of one of
    +-rep/||rep|| (the chordal gap is at most sqrt(2) times the projective
    distance), so each coordinate of ||rep|| u lies within E = ceil(sqrt(2
    ||rep||^2 radius_sq_ub)) of the matching coordinate r_k of +-rep.  alpha
    then lies between the four corners (r1 +- E)/(r0 +- E), and beta
    likewise with r2; the ratios are sign-invariant, so the +- drops out.
    Each endpoint keeps about EXPORT_BITS significant bits, lo rounded down
    and hi up.  Requires |r0| > E, so that no corner's denominator is zero.
    """
    rep, rsq = enc.rep, enc.radius_sq_ub
    e = _sqrt_up(2 * rep.norm_sq() * rsq.numerator, rsq.denominator, 0)
    r0 = rep.x
    if abs(r0) <= e:
        raise InputError("first coordinate not separated from zero")

    def ratio_bounds(c: int) -> Tuple[Rat, Rat]:
        s = max(0, EXPORT_BITS + abs(r0).bit_length() - abs(c).bit_length())
        corners = [divmod((c + a) << s, r0 + b) for a in (-e, e) for b in (-e, e)]
        return (Fraction(min(q for q, _ in corners), 1 << s),
                Fraction(max(q + (r != 0) for q, r in corners), 1 << s))

    return ratio_bounds(rep.y), ratio_bounds(rep.z)
