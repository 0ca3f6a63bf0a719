"""Run-level verification suites.

Contents:
  - starred_ledger_audit: instantiate every threshold inequality that the
    case analysis behind the slab bound takes for granted, with the run's
    actual delta0, X scales and C1, and record certified verdicts.
  - check_condition_iii: on a norm grid, select the witness point by the
    interval rule 5 C1 X_{i-1} <= X < 5 C1 X_i and certify the three
    small-value bounds with constant C4 = (6 C1)^5 / delta0^2.
  - coeff_box_lemma3: enumerate x = q y_i + p x_{i-1} + r x_i over a
    coefficient box, verify the exact bookkeeping determinants and the
    branch lower bounds on |x.u|.
  - vperp_sandwich_check: min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x,{v,w})
    <= |x.u| + min{...}, exact when the frame norms are perfect squares.
  - property_suites: seeded randomized identities, byte-deterministic.
  - export_alpha_beta: rational interval enclosures of u1/u0 and u2/u0.

Everything is certified: exact rational arithmetic where possible, interval
enclosures with escalating precision elsewhere.  No verdict rests on floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .balls import BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, cert_le, sqrt_int
from .builder import (ConstructionState, DirectionEnclosure, enclose_u,
                      enclose_vw, x_dot_u_lower)
from .cf import ALPHA_PRESETS, ConvergentTable, convergent_gap_check
from .errors import CertificateFailure, InputError
from .exact import (IVec3, complete_to_basis, cross, det3, dot,
                    is_primitive_pair, proj_dist_sq, smith_invariants_3x2)
from .stepper import Verdict

Rat = Fraction


def c2_of(plan) -> Rat:
    return (8 * plan.c1) ** 3 / plan.delta0_sq


def c3_of(plan) -> Rat:
    return 25 * plan.c1 ** 3 * c2_of(plan)


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
    def failures(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.clauses if c.passed is not True)

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def clause(self, name: str) -> StarredClause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def _interval(v: Union[int, Rat, BallReal]) -> Tuple[Rat, Rat]:
    if isinstance(v, BallReal):
        v = v.refined_to(PAYLOAD_PREC)
        return (v.lo, v.hi)
    fr = Fraction(v)
    return (fr, fr)


def _clause(out: List[StarredClause], name: str, lhs, rhs, max_prec: int) -> None:
    """Record the verdict of lhs <= rhs with payload intervals."""
    ok, prec = cert_le(lhs, rhs, max_prec)
    out.append(StarredClause(name, _interval(lhs), _interval(rhs), ok, prec))


def starred_ledger_audit(state: ConstructionState,
                         max_prec: int = DEFAULT_MAX_PREC) -> StarredLedger:
    """Audit every run-size threshold the slab bound's case analysis assumes.

    Clause inventory (each is an instantiated "lhs <= rhs"):
      large_q_margin        delta0^2 <= 2 C1 X1^(2-gamma)       (large-|q| close)
      q_below_qn            C2 <= 2 X1                          (|q| < q_n step)
      mid_norm_margin       16 C1 C3 <= delta0^2 X1^(gamma+1)   (mid-|q| margin)
      mid_norm_const        2 C3 C2^(gamma-1) <= X1^3           (mid-|q| close)
      plane_p_margin_i*     200 C1^3 X_i^gamma <= delta0^2 X1 X_{i+1}^gamma
      plane_dist_transfer_i* 9 <= delta0 X1 X_{i-1} X_i X_{i+1}^gamma
      plane_const           (6 C1)^3 <= X1^(2-gamma)            (in-plane close)
      axis_rep_bound_i*     ||x_{i-1}||^2 <= X1^2 X_{i-1}^2      (exact)
      axis_gap_i*           X1^4 X_{i-1}^2 <= X_{i+1}^2          (exact)
      axis_const_i*         (6 C1)^4 <= delta0 (X_i/X1)^(gamma+1) X1^3 X_{i-1}
      scale_floor           (12 C1)^gamma <= X1
      scale_seed            25 X0^2 <= X1^2                      (exact)
      gap_budget            9 delta0^2 <= delta^2                (exact)
      contraction_seed      5 C1 X1^(1-gamma) + 4 C1/(delta0 X0 X1^(gamma+1)) <= delta0
      regime_product        theta <= delta0^2 X1   (auto rule: theta = 2 C2)

    A Fail marks the run as outside the regime where the case analysis is
    self-sufficient; toy runs stay usable, flagged by the failing names.
    """
    plan = state.plan
    c1 = plan.c1
    d0sq = plan.delta0_sq
    x0sq = Fraction(plan.x0_sq)
    x1sq = Fraction(plan.x1_sq)
    gamma = BallReal.golden()
    s = state.n_steps
    c2 = c2_of(plan)
    c3 = c3_of(plan)
    d0 = state.delta0_ball()
    x1 = state.scale(1).ball()
    out: List[StarredClause] = []

    # the large-|q| margin step is parameter-free: C2/(2(5C1)^2) >= 10 C1/delta0^2
    if (8 * c1) ** 3 / (50 * c1 * c1) < 10 * c1:
        raise CertificateFailure("large_q_margin_const", f"fails at C1={c1}")
    _clause(out, "large_q_margin", d0sq,
            BallReal.wrap(2 * c1) * BallReal.wrap(x1sq).pow((2 - gamma) / 2),
            max_prec)
    _clause(out, "q_below_qn", c2, 2 * x1, max_prec)
    _clause(out, "mid_norm_margin", 16 * c1 * c3,
            BallReal.wrap(d0sq) * BallReal.wrap(x1sq).pow((gamma + 1) / 2),
            max_prec)
    # 1/gamma = gamma - 1 turns C2^(1/gamma) into an exact-exponent power
    _clause(out, "mid_norm_const",
            BallReal.wrap(2 * c3) * BallReal.wrap(c2).pow(gamma - 1),
            BallReal.wrap(x1sq).pow(Fraction(3, 2)), max_prec)
    _clause(out, "plane_const", (6 * c1) ** 3,
            BallReal.wrap(x1sq).pow((2 - gamma) / 2), max_prec)
    _clause(out, "scale_floor", BallReal.wrap(12 * c1).pow(gamma), x1, max_prec)
    _clause(out, "scale_seed", 25 * x0sq, x1sq, max_prec)
    _clause(out, "gap_budget", 9 * d0sq, plan.delta * plan.delta, max_prec)
    seed_lhs = (BallReal.wrap(5 * c1) * BallReal.wrap(x1sq).pow((1 - gamma) / 2)
                + BallReal.wrap(4 * c1)
                / (d0 * sqrt_int(plan.x0_sq) * BallReal.wrap(x1sq).pow((gamma + 1) / 2)))
    _clause(out, "contraction_seed", seed_lhs, d0, max_prec)
    theta_eff = plan.theta if plan.theta is not None else 2 * c2
    _clause(out, "regime_product", theta_eff,
            BallReal.wrap(d0sq) * x1, max_prec)

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

    @property
    def all_pass(self) -> bool:
        return not self.failures and not self.undecided


def _floor_log2(fr: Rat) -> int:
    """Largest e with 2^e <= fr, for fr > 0."""
    if fr <= 0:
        raise InputError("positive value required")
    n, d = fr.numerator, fr.denominator
    e = n.bit_length() - d.bit_length()
    while not _pow2_le(e, n, d):
        e -= 1
    while _pow2_le(e + 1, n, d):
        e += 1
    return e


def _pow2_le(e: int, n: int, d: int) -> bool:
    return (d << e) <= n if e >= 0 else d <= (n << -e)


def witness_grid(state: ConstructionState, count: int = 32) -> List[Rat]:
    """count log-spaced sample norms as exact squares in [5C1 X0, 5C1 X_N]."""
    plan = state.plan
    base = 25 * plan.c1 * plan.c1 * Fraction(plan.x0_sq)
    e_max = _floor_log2(state.scale(state.n_steps).sq / Fraction(plan.x0_sq))
    return [base * Fraction(2) ** ((j * e_max) // (count - 1)) for j in range(count)]


def check_condition_iii(state: ConstructionState,
                        x_samples: Optional[Sequence[Rat]] = None,
                        c: Optional[Rat] = None,
                        max_prec: int = DEFAULT_MAX_PREC) -> WitnessReport:
    """Certify the small-value condition at each sampled norm X.

    The witness is x_m for the unique index with 5C1 X_m <= X < 5C1 X_{m+1}
    (located by exact square comparison).  Three certificates per sample:
      witness_norm   ||x_m||^2 <= X^2                        (exact)
      witness_xu     (2 ||x_m|| rad(U_{m+1}))^2 <= (C/X^(gamma+1))^2
      witness_vperp  (2 ||x_m|| delta_{m+1})^2  <= (C/X^(gamma+1))^2
    The second uses x_m . u_{m+1} = 0 exactly; the third uses the sandwich
    min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x, {v,w}) and the parity-tail
    bound dist(x_m, {v,w}) <= 2 delta_{m+1}.
    """
    plan = state.plan
    c1 = plan.c1
    if c is None:
        c = c4_of(plan)
    if x_samples is None:
        x_samples = witness_grid(state)
    gamma = BallReal.golden()
    lo_sq = 25 * c1 * c1 * Fraction(plan.x0_sq)
    hi_sq = 25 * c1 * c1 * state.scale(state.n_steps).sq
    samples: List[WitnessSample] = []
    failures: List[str] = []
    undecided: List[str] = []
    for x_sq in x_samples:
        x_sq = Fraction(x_sq)
        if not lo_sq <= x_sq <= hi_sq:
            raise InputError(f"sample norm^2 {x_sq} outside the witness range")
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
        enc = enclose_u(state, m + 1)
        if dot(xm, enc.rep) != 0:  # witness_xu below rests on x_m . u_{m+1} = 0
            raise CertificateFailure(f"witness_orthogonal_m{m}",
                                     f"x_{m} . u_{m + 1} = {dot(xm, enc.rep)}")
        rhs_sq = BallReal.wrap(c * c) / BallReal.wrap(x_sq).pow(gamma + 1)
        checks = (
            (f"witness_xu_m{m}", BallReal.wrap(4 * nm_sq * enc.radius_sq_ub)),
            (f"witness_vperp_m{m}",
             4 * BallReal.wrap(nm_sq) * state.delta_upper(m + 1) ** 2),
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

    @property
    def all_pass(self) -> bool:
        return not self.violations and not self.undecided


def dist_vw_upper(x: IVec3, venc: DirectionEnclosure,
                  wenc: DirectionEnclosure) -> BallReal:
    """A ball whose value upper-bounds dist(x, {v, w})."""
    best = None
    for enc in (venc, wenc):
        cand = (BallReal.wrap(proj_dist_sq(x, enc.rep)).sqrt()
                + BallReal.wrap(enc.radius_sq_ub).sqrt())
        if best is None or cand.refined_to(96).hi < best.refined_to(96).hi:
            best = cand
    return best


def _anchor_order(i: int, last: int) -> List[int]:
    """Anchor indices to try: the window's own pair first, then outward."""
    pref = [j for j in (i + 1, i, i + 2) if 1 <= j <= last]
    rest = [j for j in range(last, 0, -1) if j not in pref]
    return pref + rest


def _certify_at_least(state: ConstructionState, x: IVec3, rhs: BallReal,
                      encs: Dict[int, DirectionEnclosure], order: Sequence[int],
                      max_prec: int) -> Tuple[Optional[bool], int, int]:
    """Certify |x.u| >= rhs via anchored lower bounds, escalating anchors.

    Returns (verdict, anchor_used, prec): True when some anchor's certified
    lower bound clears rhs; False when some anchor's certified upper bound
    stays below rhs (a genuine violation); None otherwise.
    """
    last_prec = 0
    for j in order:
        if dot(x, encs[j].rep) == 0:
            continue  # vacuous anchor: the lower bound cannot be positive
        lb = x_dot_u_lower(x, encs[j])
        ok, prec = cert_le(rhs, lb, max_prec)
        last_prec = max(last_prec, prec)
        if ok is True:
            return True, j, prec
    for j in order:
        enc = encs[j]
        ub = (BallReal.wrap(Fraction(abs(dot(x, enc.rep)))) / sqrt_int(enc.rep.norm_sq())
              + 2 * sqrt_int(x.norm_sq()) * BallReal.wrap(enc.radius_sq_ub).sqrt())
        bad, prec = cert_le(ub, rhs, max_prec)
        last_prec = max(last_prec, prec)
        if bad is True:
            return False, j, prec
    return None, -1, last_prec


def coeff_box_lemma3(state: ConstructionState, i: int, k_bound: int = 8,
                     max_prec: int = DEFAULT_MAX_PREC) -> BoxReport:
    """Enumerate x = q y_i + p x_{i-1} + r x_i over [-K, K]^3 \\ {0}.

    For every point the two bookkeeping determinants are checked exactly:
    det3(x, x_{i-1}, x_i) = q and det3(x, x_i, x_{i+1}) = -(q p_n - p q_n).
    Points whose norm falls in [X_i/X1, X_{i+1}/X1) get the branch bound:
      q != 0 (outside the span lattice):  |x.u| >= 1/(X1^3 X_{i-1} ||x||^gamma)
      q == 0 (inside):   |x.u| >= dist(x, {v,w})/(X1^3 X_{i-1} ||x||^gamma)
    Valid anchor range needs the step-(i+1) pair, hence 2 <= i <= n_steps-1.
    """
    s = state.n_steps
    if not 2 <= i <= s - 1:
        raise InputError(f"box index {i} outside 2..{s - 1}")
    if k_bound < 1:
        raise InputError("coefficient bound must be positive")
    xi_prev, xi, xi_next = state.xs[i - 1], state.xs[i], state.xs[i + 1]
    yi = state.ys[i - 1]
    pn, qn = state.table.pair(state.step_outputs[i - 1].n)
    x1sq = Fraction(state.plan.x1_sq)
    win_lo = state.scale(i).sq / x1sq
    win_hi = state.scale(i + 1).sq / x1sq
    gamma = BallReal.golden()
    denom_const = (BallReal.wrap(x1sq).pow(Fraction(3, 2))
                   * state.scale(i - 1).ball())
    encs = {j: enclose_u(state, j) for j in range(1, state.last_index + 1)}
    order = _anchor_order(i, state.last_index)
    venc = enclose_vw(state, "V")
    wenc = enclose_vw(state, "W")

    total = in_window = strong = lattice = 0
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
                tag = f"(q={q},p={p},r={r})"
                if det3(x, xi_prev, xi) != q:
                    violations.append(f"det_left:{tag}")
                    continue
                if det3(x, xi, xi_next) != -(q * pn - p * qn):
                    violations.append(f"det_right:{tag}")
                    continue
                nsq = Fraction(x.norm_sq())
                if not win_lo <= nsq < win_hi:
                    continue
                in_window += 1
                denom = denom_const * BallReal.wrap(nsq).pow(gamma / 2)
                if q != 0:
                    strong += 1
                    rhs = 1 / denom
                else:
                    lattice += 1
                    rhs = dist_vw_upper(x, venc, wenc) / denom
                ok, _, prec = _certify_at_least(state, x, rhs, encs, order, max_prec)
                if ok is False:
                    violations.append(f"bound:{tag}")
                elif ok is None:
                    undecided.append(f"bound:{tag}:prec={prec}")
    return BoxReport(index=i, k_bound=k_bound, points_total=total,
                     in_window=in_window, strong_branch=strong,
                     lattice_branch=lattice, violations=tuple(violations),
                     undecided=tuple(undecided))


# ---------------------------------------------------------------------------
# perpendicular-frame sandwich


@dataclass(frozen=True)
class SandwichVerdict:
    lower_ok: bool
    upper_ok: bool
    exact: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def vperp_sandwich_check(u_rep: IVec3, v_rep: IVec3, w_rep: IVec3, x: IVec3,
                         max_prec: int = DEFAULT_MAX_PREC) -> SandwichVerdict:
    """Check min{|x.v_perp|, |x.w_perp|} <= ||x|| dist(x,{v,w}) <= |x.u| + min.

    Requires u.v = u.w = 0 exactly.  When all three frame norms are perfect
    squares the check is exact rational arithmetic on squares; otherwise the
    comparisons are certified with interval enclosures.
    """
    if x.is_zero():
        raise InputError("x must be nonzero")
    if dot(u_rep, v_rep) != 0 or dot(u_rep, w_rep) != 0:
        raise InputError("frame must satisfy u.v = u.w = 0 exactly")
    nu, nv, nw = u_rep.norm_sq(), v_rep.norm_sq(), w_rep.norm_sq()
    su, sv, sw = isqrt(nu), isqrt(nv), isqrt(nw)
    if su * su == nu and sv * sv == nv and sw * sw == nw:
        a_v = Fraction(abs(det3(x, u_rep, v_rep)), su * sv)
        a_w = Fraction(abs(det3(x, u_rep, w_rep)), su * sw)
        a_min = min(a_v, a_w)
        mid_sq = min(Fraction(cross(x, v_rep).norm_sq(), nv),
                     Fraction(cross(x, w_rep).norm_sq(), nw))
        upper = Fraction(abs(dot(x, u_rep)), su) + a_min
        return SandwichVerdict(lower_ok=a_min * a_min <= mid_sq,
                               upper_ok=mid_sq <= upper * upper,
                               exact=True)
    a_v = BallReal.wrap(Fraction(abs(det3(x, u_rep, v_rep)))) / (sqrt_int(nu) * sqrt_int(nv))
    a_w = BallReal.wrap(Fraction(abs(det3(x, u_rep, w_rep)))) / (sqrt_int(nu) * sqrt_int(nw))
    m_v = BallReal.wrap(Fraction(cross(x, v_rep).norm_sq(), nv)).sqrt()
    m_w = BallReal.wrap(Fraction(cross(x, w_rep).norm_sq(), nw)).sqrt()
    xu = BallReal.wrap(Fraction(abs(dot(x, u_rep)))) / sqrt_int(nu)
    # min(a_v, a_w) <= min(m_v, m_w): some a clears both middles
    lower_ok = any(all(cert_le(a, m, max_prec)[0] is True for m in (m_v, m_w))
                   for a in (a_v, a_w))
    # min(m_v, m_w) <= |x.u| + min(a_v, a_w): some m fits under both sums
    upper_ok = any(all(cert_le(m, xu + a, max_prec)[0] is True for a in (a_v, a_w))
                   for m in (m_v, m_w))
    return SandwichVerdict(lower_ok=bool(lower_ok), upper_ok=bool(upper_ok),
                           exact=False)


# ---------------------------------------------------------------------------
# seeded property suites


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    suites: Tuple[Tuple[str, int, Tuple[str, ...]], ...]

    @property
    def all_pass(self) -> bool:
        return all(not fails for _, _, fails in self.suites)

    def to_bytes(self) -> bytes:
        lines = [f"seed={self.seed}"]
        for name, cases, fails in self.suites:
            lines.append(f"{name}:{cases}:{';'.join(fails)}")
        return ("\n".join(lines) + "\n").encode("ascii")


def _rand_vec(rng: random.Random, bound: int = 9) -> IVec3:
    while True:
        v = IVec3(rng.randint(-bound, bound), rng.randint(-bound, bound),
                  rng.randint(-bound, bound))
        if not v.is_zero():
            return v


def _triangle_holds_exact(a: IVec3, b: IVec3, c: IVec3) -> bool:
    """dist(a,c) <= dist(a,b) + dist(b,c), decided by squaring twice."""
    dac = proj_dist_sq(a, c)
    dab = proj_dist_sq(a, b)
    dbc = proj_dist_sq(b, c)
    gap = dac - dab - dbc
    if gap <= 0:
        return True
    return gap * gap <= 4 * dab * dbc


def _quaternion_frame(rng: random.Random) -> Tuple[IVec3, IVec3, IVec3]:
    """Integer rows of a scaled rotation matrix: pairwise orthogonal,
    each with norm^2 = (a^2+b^2+c^2+d^2)^2, a perfect square."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        s = a * a + b * b + c * c + d * d
        if s > 0:
            break
    row0 = IVec3(a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c))
    row1 = IVec3(2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b))
    row2 = IVec3(2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d)
    return row0, row1, row2


def property_suites(seed: int = 0, cases: int = 1000) -> PropertyReport:
    """Randomized identity suites with a fixed RNG; byte-deterministic."""
    rng = random.Random(seed)
    suites: List[Tuple[str, int, Tuple[str, ...]]] = []

    fails: List[str] = []
    for k in range(cases):
        a, b, c = _rand_vec(rng), _rand_vec(rng), _rand_vec(rng)
        if not _triangle_holds_exact(a, b, c):
            fails.append(f"case{k}:{a.as_tuple()},{b.as_tuple()},{c.as_tuple()}")
    suites.append(("triangle_inequality", cases, tuple(fails)))

    fails = []
    for k in range(cases):
        a, b = _rand_vec(rng), _rand_vec(rng)
        if cross(a, b).norm_sq() + dot(a, b) ** 2 != a.norm_sq() * b.norm_sq():
            fails.append(f"case{k}")
    suites.append(("lagrange_identity", cases, tuple(fails)))

    fails = []
    for k in range(cases):
        a, b = _rand_vec(rng), _rand_vec(rng)
        cr = cross(a, b)
        prim = is_primitive_pair(a, b)
        if prim != (not cr.is_zero() and cr.content() == 1):
            fails.append(f"content:case{k}")
            continue
        if prim != (smith_invariants_3x2(a, b) == (1, 1)):
            fails.append(f"smith:case{k}")
            continue
        if prim:
            z = complete_to_basis(a, b)
            if det3(a, b, z) != 1:
                fails.append(f"basis:case{k}")
    suites.append(("primitive_pair_equiv", cases, tuple(fails)))

    fails = []
    for k in range(cases):
        u, v, w = _quaternion_frame(rng)
        x = _rand_vec(rng)
        verdict = vperp_sandwich_check(u, v, w, x)
        if not (verdict.exact and verdict.all_ok):
            fails.append(f"case{k}")
    suites.append(("vperp_sandwich", cases, tuple(fails)))

    table = ConvergentTable(ALPHA_PRESETS["sqrt2m1"])
    fails = []
    for n in range(2, 13):
        try:
            convergent_gap_check(table, n)
        except CertificateFailure as exc:
            fails.append(f"n={n}:{exc}")
    suites.append(("convergent_gap", 11, tuple(fails)))

    fails = []
    table.extend_to(60)
    for n in range(1, 60):
        pn, qn = table.pair(n)
        pn1, qn1 = table.pair(n + 1)
        if not (0 <= pn <= qn and qn < qn1 <= table.c1 * qn):
            fails.append(f"range:n={n}")
        if qn * pn1 - pn * qn1 != (-1) ** (n + 1):
            fails.append(f"cross:n={n}")
        if table.eps(n).sign() != (-1) ** (n + 1):
            fails.append(f"sign:n={n}")
    suites.append(("cf_table", 59, tuple(fails)))

    return PropertyReport(seed=seed, suites=tuple(suites))


# ---------------------------------------------------------------------------
# coordinate export


def export_alpha_beta(arg: Union[ConstructionState, DirectionEnclosure],
                      prec: int = PAYLOAD_PREC
                      ) -> Tuple[Tuple[Rat, Rat], Tuple[Rat, Rat]]:
    """Rational intervals for alpha = u1/u0 and beta = u2/u0.

    The chordal gap between the unit representative d = rep/||rep|| and the
    limit satisfies ||u - (+-d)|| <= sqrt(2) * dist <= sqrt(2 * radius_sq),
    so each coordinate of u lies within e of the matching coordinate of d.
    The ratios are sign-invariant, so the +- ambiguity drops out.  Requires
    the first coordinate separated from zero.
    """
    if isinstance(arg, ConstructionState):
        enc = enclose_u(arg, arg.last_index)
    else:
        enc = arg
    rep = enc.rep
    norm = sqrt_int(rep.norm_sq()).refined_to(prec)
    n_lo, n_up = norm.lo, norm.hi
    if n_lo <= 0:
        raise InputError("representative norm not separated from zero")
    e = BallReal.wrap(2 * Fraction(enc.radius_sq_ub)).sqrt().refined_to(prec).hi

    def coord_bounds(c: int) -> Tuple[Rat, Rat]:
        if c >= 0:
            return (Fraction(c) / n_up - e, Fraction(c) / n_lo + e)
        return (Fraction(c) / n_lo - e, Fraction(c) / n_up + e)

    d0_lo, d0_hi = coord_bounds(rep.x)
    if not (d0_lo > 0 or d0_hi < 0):
        raise InputError("first coordinate not separated from zero")

    def ratio_bounds(c: int) -> Tuple[Rat, Rat]:
        num_lo, num_hi = coord_bounds(c)
        corners = [num_lo / d0_lo, num_lo / d0_hi, num_hi / d0_lo, num_hi / d0_hi]
        return (min(corners), max(corners))

    return ratio_bounds(rep.y), ratio_bounds(rep.z)
