"""Parameter selection: companion vector, multiplier, and the X growth schedule.

The plan fixes a primitive start x0, a companion x0' with dist(x0, x0') <= d/2,
and x1 = n x0' + x0 + z (z a basis completion of the pair, which keeps
(x0, x1) a primitive pair), with n found by a doubling search and a bisection
on the entry conditions.  plan_clauses states the starred audit's clauses
that depend on the plan alone; the entry conditions are certified on those
same expressions, and verifier.starred_ledger_audit records all of them.
The schedule then picks each X_{i+1} as the smallest power of two satisfying
the growth requirement X_{i+1} >= X_{i-1} X_i^(gamma+2) and the psi requirement
psi(X_{i+1}/X_1) >= X_1^3 X_i, then certifies the remaining invariants.

X_0 and X_1 are norms (square roots of integers), carried by their exact
squares; X_2 onward are integers (powers of two), so all ratios X_i/X_1 stay
exactly representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, Number, cert_le, sqrt_int
from .cf import ALPHA_PRESETS
from .errors import CertificateFailure, InputError, UndecidedError
from .exact import (IVec3, complete_single, complete_to_basis, floor_log2,
                    is_primitive_point, proj_dist_sq)

Rat = Fraction


@dataclass(frozen=True)
class PsiSpec:
    """The comparison family psi(t) = c * t^e with positive rational c, e."""

    c: Rat
    e: Rat

    def __post_init__(self):
        if self.c <= 0 or self.e <= 0:
            raise InputError("psi needs positive rational c and e")

    def at(self, t: BallReal) -> BallReal:
        return BallReal.wrap(self.c) * t.pow(self.e)


@dataclass(frozen=True)
class XScale:
    """A scale X carried by its exact square; optionally an exact power of two."""

    sq: Rat
    pow2_exp: Optional[int] = None

    @staticmethod
    def of_norm_sq(n) -> "XScale":
        return XScale(sq=Fraction(n))

    @staticmethod
    def of_pow2(k: int) -> "XScale":
        return XScale(sq=Fraction(1 << (2 * k)), pow2_exp=k)

    @property
    def value_int(self) -> int:
        return 1 << self.pow2_exp

    def ball(self) -> BallReal:
        return BallReal.wrap(self.sq).sqrt()

    def pow_gamma_plus(self, c: int = 0) -> BallReal:
        """X^(gamma+c) as a certified enclosure."""
        return BallReal.wrap(self.sq) ** ((BallReal.golden() + c) / 2)


@dataclass(frozen=True)
class Plan:
    alpha: str
    c1: Rat
    x0: IVec3
    x0_companion: IVec3
    multiplier: int
    x1: IVec3
    delta: Rat
    delta0_sq: Rat
    theta: Optional[Rat]  # None selects the automatic threshold rule
    psi: PsiSpec
    n_steps: int
    toy: bool = False

    @property
    def x0_sq(self) -> int:
        return self.x0.norm_sq()

    @property
    def x1_sq(self) -> int:
        return self.x1.norm_sq()


@dataclass(frozen=True)
class Schedule:
    exponents: Tuple[int, ...]  # X_{i} = 2^exponents[i-2] for i = 2 .. n_steps+1
    witnesses: Tuple[Dict[str, object], ...]
    invariant_failures: Tuple[str, ...] = ()

    def scale(self, i: int, plan: Plan) -> XScale:
        """XScale for index 0 <= i <= n_steps + 1."""
        if i == 0:
            return XScale.of_norm_sq(plan.x0_sq)
        if i == 1:
            return XScale.of_norm_sq(plan.x1_sq)
        return XScale.of_pow2(self.exponents[i - 2])


def choose_companion(x0: IVec3, delta: Rat) -> IVec3:
    """Companion x0' = base + m x0 with dist(x0, x0') <= delta/2, minimal m >= 0."""
    if delta <= 0:
        raise InputError("delta must be positive")
    base = complete_single(x0)
    bound = delta * delta / 4
    # cross(x0, base + m x0) = cross(x0, base) = w, so by Lagrange's identity
    # the test is (|x0|^2 m + x0.base)^2 >= |w|^2 (1/bound - 1); when m = 0
    # fails, so does every m below the larger root: the scan starts just below
    m = 0
    if proj_dist_sq(x0, base) > bound:
        disc = x0.cross(base).norm_sq() * (1 / bound - 1)
        m = (math.isqrt(math.floor(disc)) - x0.dot(base)) // x0.norm_sq()
    while True:
        cand = base + m * x0
        if proj_dist_sq(x0, cand) <= bound:
            return cand  # primitive: cross(x0, cand) = cross(x0, base)
        m += 1


class _ClauseTerms:
    """The plan clauses' shared subexpressions, each built on its first read,
    so building some clauses builds only what they read, and every clause
    built from one _ClauseTerms shares the same balls."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.c1, self.d0sq = plan.c1, plan.delta0_sq
        self.x1sq = Fraction(plan.x1_sq)

    @cached_property
    def gamma(self) -> BallReal:
        return BallReal.golden()

    @cached_property
    def c2(self) -> Rat:
        return (8 * self.c1) ** 3 / self.d0sq

    @cached_property
    def c3(self) -> Rat:
        return 25 * self.c1 ** 3 * self.c2

    @cached_property
    def d0(self) -> BallReal:
        return BallReal.wrap(self.d0sq).sqrt()

    @cached_property
    def x1(self) -> BallReal:
        return XScale.of_norm_sq(self.plan.x1_sq).ball()


def _contraction_seed(t: _ClauseTerms) -> Tuple[Number, Number]:
    c1, gamma, x1sq = t.c1, t.gamma, t.x1sq
    seed_lhs = (BallReal.wrap(5 * c1) * BallReal.wrap(x1sq).pow((1 - gamma) / 2)
                + BallReal.wrap(4 * c1)
                / (t.d0 * sqrt_int(t.plan.x0_sq) * BallReal.wrap(x1sq).pow((gamma + 1) / 2)))
    return seed_lhs, t.d0


# name -> builder of (lhs, rhs), one entry per plan clause, in the starred
# audit's order; see plan_clauses
_CLAUSES: Dict[str, Callable[[_ClauseTerms], Tuple[Number, Number]]] = {
    "large_q_margin": lambda t: (
        t.d0sq, BallReal.wrap(2 * t.c1) * BallReal.wrap(t.x1sq).pow((2 - t.gamma) / 2)),
    "q_below_qn": lambda t: (t.c2, 2 * t.x1),
    "mid_norm_margin": lambda t: (
        16 * t.c1 * t.c3, BallReal.wrap(t.d0sq) * BallReal.wrap(t.x1sq).pow((t.gamma + 1) / 2)),
    # 1/gamma = gamma - 1 turns C2^(1/gamma) into an exact-exponent power
    "mid_norm_const": lambda t: (
        BallReal.wrap(2 * t.c3) * BallReal.wrap(t.c2).pow(t.gamma - 1),
        BallReal.wrap(t.x1sq).pow(Fraction(3, 2))),
    "plane_const": lambda t: ((6 * t.c1) ** 3, BallReal.wrap(t.x1sq).pow((2 - t.gamma) / 2)),
    "scale_floor": lambda t: (BallReal.wrap(12 * t.c1).pow(t.gamma), t.x1),
    "scale_seed": lambda t: (25 * Fraction(t.plan.x0_sq), t.x1sq),
    "gap_budget": lambda t: (9 * t.d0sq, t.plan.delta * t.plan.delta),
    "contraction_seed": _contraction_seed,
    "regime_product": lambda t: (
        t.plan.theta if t.plan.theta is not None else 2 * t.c2,
        BallReal.wrap(t.d0sq) * t.x1),
}


def plan_clauses(plan: Plan) -> List[Tuple[str, Number, Number]]:
    """The starred audit's clauses that depend on the plan alone, in its order.

    Each entry is (name, lhs, rhs) for an instantiated "lhs <= rhs", with
    C2 = (8 C1)^3 / delta0^2 and C3 = 25 C1^3 C2:
      large_q_margin     delta0^2 <= 2 C1 X1^(2-gamma)       (large-|q| close)
      q_below_qn         C2 <= 2 X1                          (|q| < q_n step)
      mid_norm_margin    16 C1 C3 <= delta0^2 X1^(gamma+1)   (mid-|q| margin)
      mid_norm_const     2 C3 C2^(gamma-1) <= X1^3           (mid-|q| close)
      plane_const        (6 C1)^3 <= X1^(2-gamma)            (in-plane close)
      scale_floor        (12 C1)^gamma <= X1
      scale_seed         25 X0^2 <= X1^2                      (exact)
      gap_budget         9 delta0^2 <= delta^2                (exact)
      contraction_seed   5 C1 X1^(1-gamma) + 4 C1/(delta0 X0 X1^(gamma+1)) <= delta0
      regime_product     theta <= delta0^2 X1   (auto rule: theta = 2 C2)
    Needs delta0 > 0.  make_plan certifies the entry clauses among these;
    verifier.starred_ledger_audit records all of them.
    """
    terms = _ClauseTerms(plan)
    return [(name, *build(terms)) for name, build in _CLAUSES.items()]


# the plan clauses the multiplier search certifies, cheapest first; toy runs
# enforce only the first two
_ENTRY_CLAUSES = ("gap_budget", "regime_product", "scale_seed", "scale_floor",
                  "contraction_seed")


def _enters(plan: Plan, max_prec: int) -> bool:
    """Whether the candidate plan certifiably passes its entry conditions.

    Non-toy runs: every clause of _ENTRY_CLAUSES.  Toy runs: gap_budget,
    regime_product and the first step's hypothesis 2(X0 + X1) <= X1^gamma.
    An undecided comparison counts as a failure.
    """
    if plan.delta0_sq == 0:
        return False
    terms = _ClauseTerms(plan)  # builds only the clauses probed, in order
    names = _ENTRY_CLAUSES[:2] if plan.toy else _ENTRY_CLAUSES
    if any(cert_le(*_CLAUSES[name](terms), max_prec)[0] is not True for name in names):
        return False
    if not plan.toy:
        return True
    x1_sq = plan.x1_sq
    ok, _ = cert_le(2 * (sqrt_int(plan.x0_sq) + sqrt_int(x1_sq)),
                    BallReal.wrap(Fraction(x1_sq)) ** (BallReal.golden() / 2), max_prec)
    return ok is True


def make_plan(alpha: str, x0: IVec3, delta: Rat, psi: PsiSpec, n_steps: int,
              theta: Optional[Rat] = None, c1: Optional[Rat] = None,
              toy: bool = False, max_prec: int = DEFAULT_MAX_PREC) -> Plan:
    """The plan for x0 with x1 = n x0' + x0 + z.

    z completes (x0, x0') to a basis: cross(x0, x1) = n cross(x0, x0') +
    cross(x0, z) then has content 1 for every n, keeping (x0, x1) a
    primitive pair, while the direction of x1 still approaches x0' as n
    grows.  n comes from a doubling search from n = 1, then a bisection: the
    returned n passes the entry conditions (see _enters) and n - 1 fails
    them (or n = 1).  Smaller passing n are not excluded where the passing
    set is not an upward-closed range.
    """
    if alpha not in ALPHA_PRESETS:
        raise InputError(f"unknown alpha preset {alpha!r}")
    spec = ALPHA_PRESETS[alpha]
    c1v = Fraction(c1 if c1 is not None else spec.c1_min)
    if c1v < spec.c1_min:
        raise InputError(f"C1 must be >= {spec.c1_min} for alpha {alpha}")
    if delta <= 0 or delta > 2:
        raise InputError("delta must lie in (0, 2]")
    if theta is not None and theta <= 0:
        raise InputError("theta must be positive")
    if n_steps < 1:
        raise InputError("need at least one step")
    if not is_primitive_point(x0):
        raise InputError("x0 must be primitive")
    comp = choose_companion(x0, delta)
    z = complete_to_basis(x0, comp)

    def candidate(n: int) -> Plan:
        x1 = n * comp + x0 + z
        return Plan(alpha=alpha, c1=c1v, x0=x0, x0_companion=comp, multiplier=n,
                    x1=x1, delta=delta, delta0_sq=proj_dist_sq(x0, x1) / 4,
                    theta=theta, psi=psi, n_steps=n_steps, toy=toy)

    lo, hi = 0, 1  # lo fails (or is 0); hi is the next probe
    while not _enters(candidate(hi), max_prec):
        if hi >= 1 << 62:
            raise InputError("no admissible multiplier up to 2^62")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _enters(candidate(mid), max_prec):
            hi = mid
        else:
            lo = mid
    return candidate(hi)


def _psi_condition_exact(psi: PsiSpec, k: int, x1_sq: Rat, xi_sq: Rat) -> bool:
    """Exact test of psi(2^k / X_1) >= X_1^3 X_i on squared data.

    Both sides are rational after raising to the power 2q (e = p/q), so the
    comparison is a pure integer one:
      c^(2q) 2^(2kp) >= X1sq^(3q+p) Xi_sq^q.
    """
    p, q = psi.e.numerator, psi.e.denominator
    lhs = Fraction(psi.c) ** (2 * q) * Fraction(1 << (2 * k * p))
    rhs = Fraction(x1_sq) ** (3 * q + p) * Fraction(xi_sq) ** q
    return lhs >= rhs


def schedule_X(plan: Plan, max_prec: int = DEFAULT_MAX_PREC) -> Schedule:
    """Smallest admissible power of two per index, then the remaining invariants.

    Toy runs drop the psi floor from the selection (it would push C' = X_2/X_1
    beyond any scannable range) and instead record psi failures with the other
    invariants; honest runs keep it binding.
    """
    scales: List[XScale] = [XScale.of_norm_sq(plan.x0_sq), XScale.of_norm_sq(plan.x1_sq)]
    exps: List[int] = []
    witnesses: List[Dict[str, object]] = []
    for i in range(1, plan.n_steps + 1):
        # X_{i-1} X_i^(gamma+2)
        growth = scales[i - 1].ball() * scales[i].pow_gamma_plus(2)
        # start at the least k with 2^k >= hi, that is -floor(log2(1/hi))
        k = max(1, -floor_log2(1 / growth.refined_to(96).hi))
        xi_sq = scales[i].sq

        def admissible(kk: int) -> Optional[bool]:
            if not plan.toy and not _psi_condition_exact(
                    plan.psi, kk, Fraction(plan.x1_sq), xi_sq):
                return False
            ok, _ = cert_le(growth, Fraction(1 << kk), max_prec)
            return ok

        while True:
            verdict = admissible(k)
            if verdict is True:
                break
            if verdict is None:
                raise UndecidedError(f"schedule X_{i + 1} at exponent {k}", max_prec)
            k += 1
        below = admissible(k - 1)
        while below is True and k > 1:
            k -= 1
            below = admissible(k - 1)
        if below is None:
            raise UndecidedError(f"schedule X_{i + 1} minimality at {k - 1}", max_prec)
        scales.append(XScale.of_pow2(k))
        exps.append(k)
        witnesses.append({"index": i + 1, "exponent": k, "minimal": below is False})
    failures = _verify_invariants(plan, scales, max_prec)
    if failures and not plan.toy:
        raise CertificateFailure("schedule_invariants", "; ".join(failures))
    return Schedule(exponents=tuple(exps), witnesses=tuple(witnesses),
                    invariant_failures=tuple(failures))


def _verify_invariants(plan: Plan, scales: List[XScale], max_prec: int) -> List[str]:
    """Certify the invariants schedule_X's selection leaves open; return the
    failing names (its cert_le accepted X_{i+1} >= X_{i-1} X_i^(gamma+2),
    which gives X_{i+1} >= X_i^gamma too, as X_{i-1} X_i^2 >= 1)."""
    fails: List[str] = []
    c1 = plan.c1
    last = len(scales) - 1  # == n_steps + 1
    for i in range(1, last + 1):
        xi = scales[i]
        ok, _ = cert_le(12 * c1 * xi.ball(), xi.pow_gamma_plus(0), max_prec)
        if ok is None:
            raise UndecidedError(f"growth_lower_i{i}", max_prec)
        if not ok:
            fails.append(f"growth_lower_i{i}")
        if i == last:
            break
        xi1 = scales[i + 1]
        if not _psi_condition_exact(plan.psi, xi1.pow2_exp, Fraction(plan.x1_sq), xi.sq):
            fails.append(f"psi_i{i}")
        if i + 2 <= last:
            # 2 X_{i+1}^2 <= X_i X_{i+2}, exact on squares
            if 4 * xi1.sq * xi1.sq > xi.sq * scales[i + 2].sq:
                fails.append(f"ratio_i{i}")
    return fails
