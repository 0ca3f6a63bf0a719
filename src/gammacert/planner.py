"""Parameter selection: companion vector, multiplier, and the X growth schedule.

The plan fixes a primitive start x0, a companion x0' with dist(x0, x0') <= d/2,
and x1 = n x0' + x0 + z (z a basis completion of the pair, which keeps
(x0, x1) a primitive pair) for the smallest n passing all entry conditions.
The schedule then picks each X_{i+1} as the smallest power of two satisfying
the growth requirement X_{i+1} >= X_{i-1} X_i^(gamma+2) and the psi requirement
psi(X_{i+1}/X_1) >= X_1^3 X_i, and re-verifies every schedule invariant.

X_0 and X_1 are norms (square roots of integers), carried by their exact
squares; X_2 onward are integers (powers of two), so all ratios X_i/X_1 stay
exactly representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, cert_le, sqrt_int
from .cf import ALPHA_PRESETS
from .errors import CertificateFailure, InputError, UndecidedError
from .exact import (IVec3, complete_single, complete_to_basis,
                    is_primitive_pair, is_primitive_point, proj_dist_sq)

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
        assert self.pow2_exp is not None
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

    @property
    def x_values(self) -> Tuple[int, ...]:
        return tuple(1 << k for k in self.exponents)

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
    m = 0
    while True:
        cand = base + m * x0
        if proj_dist_sq(x0, cand) <= bound:
            if not is_primitive_pair(x0, cand):
                raise CertificateFailure("companion_primitive", f"m={m}")
            return cand
        m += 1


def _auto_theta_holds(d0sq: Rat, x1_sq: int, c1: Rat) -> bool:
    # delta0^2 X_1 >= 2 (8 C1)^3 / delta0^2, squared to stay rational
    k = 2 * (8 * c1) ** 3
    return d0sq ** 4 * x1_sq >= k * k


def _conditions_hold(x0: IVec3, x0_comp: IVec3, z: IVec3, n: int, delta: Rat,
                     c1: Rat, theta: Optional[Rat], toy: bool,
                     max_prec: int) -> Tuple[bool, Optional[IVec3], Optional[Rat]]:
    x1 = n * x0_comp + x0 + z
    d0sq = proj_dist_sq(x0, x1) / 4
    if d0sq == 0:
        return False, None, None
    x1_sq = x1.norm_sq()
    if 9 * d0sq > delta * delta:
        return False, None, None
    if theta is None:
        if not _auto_theta_holds(d0sq, x1_sq, c1):
            return False, None, None
    else:
        if theta > 0 and d0sq * d0sq * x1_sq < theta * theta:
            return False, None, None
    x0_sq = x0.norm_sq()
    x1b = sqrt_int(x1_sq)
    gamma = BallReal.golden()
    if toy:
        # just enough for the first step hypothesis: 2(X0 + X1) <= X1^gamma
        ok, _ = cert_le(2 * (sqrt_int(x0_sq) + x1b),
                        BallReal.wrap(Fraction(x1_sq)) ** (gamma / 2), max_prec)
        if ok is not True:
            return False, None, None
        return True, x1, d0sq
    if x1_sq < 25 * x0_sq:
        return False, None, None
    ok, _ = cert_le(BallReal.wrap(12 * c1) ** gamma, x1b, max_prec)
    if ok is not True:
        return False, None, None
    # entry contraction: 5C1 X1^(1-gamma) + 4C1/(d0 X0 X1^(gamma+1)) <= d0
    d0 = BallReal.wrap(d0sq).sqrt()
    x1_pow_1mg = BallReal.wrap(Fraction(x1_sq)) ** ((1 - gamma) / 2)
    x1_pow_g1 = BallReal.wrap(Fraction(x1_sq)) ** ((gamma + 1) / 2)
    lhs = 5 * c1 * x1_pow_1mg + BallReal.wrap(4 * c1) / (d0 * sqrt_int(x0_sq) * x1_pow_g1)
    ok, _ = cert_le(lhs, d0, max_prec)
    if ok is not True:
        return False, None, None
    return True, x1, d0sq


def choose_multiplier(x0: IVec3, x0_comp: IVec3, delta: Rat, c1: Rat,
                      theta: Optional[Rat], toy: bool = False,
                      max_prec: int = DEFAULT_MAX_PREC) -> Tuple[int, IVec3, Rat]:
    """Smallest multiplier n >= 1 passing all entry conditions.

    x1 = n*x0_comp + x0 + z, where z completes (x0, x0_comp) to a basis:
    cross(x0, x1) = n*cross(x0, x0_comp) + cross(x0, z) then has content 1
    for every n, keeping (x0, x1) a primitive pair, while the direction of
    x1 still approaches x0_comp as n grows.  Linear scan up to a cap, then
    exponential plus binary search on the (eventually monotone) tail; the
    returned n is re-checked to satisfy the conditions while n-1 does not.
    """
    z = complete_to_basis(x0, x0_comp)

    def probe(n: int):
        return _conditions_hold(x0, x0_comp, z, n, delta, c1, theta, toy, max_prec)

    def ok(n: int) -> bool:
        return probe(n)[0]

    scan_cap = 4096
    for n in range(1, scan_cap + 1):
        good, x1, d0sq = probe(n)
        if good:
            return n, x1, d0sq
    lo, hi = scan_cap, 2 * scan_cap
    while not ok(hi):
        lo, hi = hi, 2 * hi
        if hi > 1 << 62:
            raise InputError("no admissible multiplier below 2^62")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    while hi > 1 and ok(hi - 1):  # guard against non-monotone pockets
        hi -= 1
    good, x1, d0sq = probe(hi)
    if not good:
        raise CertificateFailure("multiplier_admissible", f"multiplier {hi}")
    return hi, x1, d0sq


def make_plan(alpha: str, x0: IVec3, delta: Rat, psi: PsiSpec, n_steps: int,
              theta: Optional[Rat] = None, c1: Optional[Rat] = None,
              toy: bool = False, max_prec: int = DEFAULT_MAX_PREC) -> Plan:
    if alpha not in ALPHA_PRESETS:
        raise InputError(f"unknown alpha preset {alpha!r}")
    spec = ALPHA_PRESETS[alpha]
    c1v = Fraction(c1 if c1 is not None else spec.c1_min)
    if c1v < spec.c1_min:
        raise InputError(f"C1 must be >= {spec.c1_min} for alpha {alpha}")
    if delta <= 0 or delta > 2:
        raise InputError("delta must lie in (0, 2]")
    if n_steps < 1:
        raise InputError("need at least one step")
    if not is_primitive_point(x0):
        raise InputError("x0 must be primitive")
    comp = choose_companion(x0, delta)
    mult, x1, d0sq = choose_multiplier(x0, comp, delta, c1v, theta, toy=toy,
                                       max_prec=max_prec)
    return Plan(alpha=alpha, c1=c1v, x0=x0, x0_companion=comp, multiplier=mult,
                x1=x1, delta=delta, delta0_sq=d0sq, theta=theta, psi=psi,
                n_steps=n_steps, toy=toy)


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


def _growth_requirement(plan: Plan, scales: List[XScale], i: int) -> BallReal:
    # X_{i-1} X_i^(gamma+2)
    return scales[i - 1].ball() * scales[i].pow_gamma_plus(2)


def schedule_X(plan: Plan, max_prec: int = DEFAULT_MAX_PREC) -> Schedule:
    """Smallest admissible power of two per index, then invariant re-verification.

    Toy runs drop the psi floor from the selection (it would push C' = X_2/X_1
    beyond any scannable range) and instead record psi failures with the other
    invariants; honest runs keep it binding.
    """
    scales: List[XScale] = [XScale.of_norm_sq(plan.x0_sq), XScale.of_norm_sq(plan.x1_sq)]
    exps: List[int] = []
    witnesses: List[Dict[str, object]] = []
    for i in range(1, plan.n_steps + 1):
        growth = _growth_requirement(plan, scales, i)
        k = max(1, math.ceil(float(growth.refined_to(96).log2().refined_to(96).hi)))
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
        while k > 1 and admissible(k - 1) is True:
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
    """Certify every schedule invariant; return the failing clause names."""
    fails: List[str] = []
    c1 = plan.c1
    last = len(scales) - 1  # == n_steps + 1

    def check(name: str, ok: Optional[bool]) -> None:
        if ok is None:
            raise UndecidedError(name, max_prec)
        if not ok:
            fails.append(name)

    for i in range(1, last + 1):
        xi = scales[i]
        ok, _ = cert_le(12 * c1 * xi.ball(), xi.pow_gamma_plus(0), max_prec)
        check(f"growth_lower_i{i}", ok)
        if i == last:
            break
        xi1 = scales[i + 1]
        ok, _ = cert_le(xi.pow_gamma_plus(0), xi1.ball(), max_prec)
        check(f"growth_upper_i{i}", ok)
        ok, _ = cert_le(_growth_requirement(plan, scales, i), xi1.ball(), max_prec)
        check(f"growth_main_i{i}", ok)
        if not _psi_condition_exact(plan.psi, _log2_exact(xi1), Fraction(plan.x1_sq), xi.sq):
            fails.append(f"psi_i{i}")
        if i + 2 <= last:
            # 2 X_{i+1}^2 <= X_i X_{i+2}, exact on squares
            if 4 * xi1.sq * xi1.sq > xi.sq * scales[i + 2].sq:
                fails.append(f"ratio_i{i}")
    return fails


def _log2_exact(s: XScale) -> int:
    assert s.pow2_exp is not None
    return s.pow2_exp
