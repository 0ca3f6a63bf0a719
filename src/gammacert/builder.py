"""Construction driver: iterate the recursive step with Y = X_i^gamma and
X' = X_{i+1}, certify the contraction ledger, and enclose the limit
directions.

Per step i the ledger certifies
  delta_i := 5 C1 X_i / (2 X_{i+1}) + 2 C1 / (delta0 X_{i-1} X_i^(gamma+1)),
  delta_i <= delta_{i-1} / 2,
  dist(x_{i-1}, x_{i+1}) <= delta_i,
  dist(x_i, x_{i+1})     >= delta0 + delta_i,
plus the squared chain bound on dist(u_i, u_{i+1}).  The triple-cross
identity cross(u_i, u_{i+1}) = q_n x_i and the lattice intersection of the
planes of (x_{i-1}, x_i) and (x_i, x_{i+1}) are recorded from the step
certificates (det_qn, output_pair_primitive) and base_primitive_pair, which
already prove them.

Directions are only ever handled as integer representatives with certified
radii.  The u radius 4 C1 / (delta0^2 X_{i-1} X_i^(gamma+1)) and the v/w
radius 2 delta_{m+1} both bound geometric tails whose built prefix is
certified term by term; the unbuilt remainder is controlled by the schedule
constraints themselves (any valid continuation keeps each tail ratio
certifiably below 1/2), recorded by the tail_halving_generic verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, PAYLOAD_PREC, sqrt_int, sqrt_ratio
from .cf import ALPHA_PRESETS, ConvergentTable
from .errors import CertificateFailure, InputError
from .exact import IVec3, cross, dot, is_primitive_point, proj_dist_sq_terms
from .planner import Plan, Schedule, XScale
from .stepper import (StepCertificate, StepOutput, Verdict, YSpec, certify,
                      recursive_step)

Rat = Fraction


@dataclass(frozen=True)
class DirectionEnclosure:
    """Integer representative plus a certified squared-radius bound.

    rep_norm (||rep||) and radius (sqrt(radius_sq_ub)) are balls built on
    first use and shared as leaves by every bound read off this enclosure,
    so each is evaluated once per precision. They are not fields: equality
    and serialization see rep and radius_sq_ub only.
    """

    rep: IVec3
    radius_sq_ub: Rat

    @cached_property
    def rep_norm(self) -> BallReal:
        return sqrt_int(self.rep.norm_sq())

    @cached_property
    def radius(self) -> BallReal:
        return BallReal.wrap(self.radius_sq_ub).sqrt()


@dataclass(frozen=True)
class LedgerEntry:
    index: int
    delta_ub: Rat  # certified rational upper bound on delta_i
    verdicts: Tuple[Verdict, ...]


@dataclass
class ConstructionState:
    plan: Plan
    schedule: Schedule
    xs: List[IVec3]
    ys: List[IVec3]
    step_outputs: List[StepOutput]
    step_certs: List[StepCertificate]
    ledger: List[LedgerEntry]
    base_verdicts: List[Verdict]
    # us[k] = cross(xs[k], xs[k+1]), the u_{k+1} of the ledger: each taken
    # once, by build or by the step that made xs[k+1]
    us: List[IVec3] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.plan.n_steps

    @property
    def last_index(self) -> int:
        return len(self.xs) - 1

    def scale(self, i: int) -> XScale:
        return self.schedule.scale(i, self.plan)

    def delta0_ball(self) -> BallReal:
        return BallReal.wrap(self.plan.delta0_sq).sqrt()

    def delta_ball(self, i: int) -> BallReal:
        """Enclosure of delta_i; valid for 1 <= i <= n_steps."""
        c1 = self.plan.c1
        xp = self.scale(i + 1)
        first = BallReal.wrap(5 * c1) * self.scale(i).ball() / (2 * xp.ball())
        second = BallReal.wrap(2 * c1) / (
            self.delta0_ball() * self.scale(i - 1).ball() * self.scale(i).pow_gamma_plus(1))
        return first + second

    def delta_tail_ball(self, j: int) -> BallReal:
        """Upper enclosure of delta_j past the built schedule.

        Uses delta_j <= (5C1/2 + 2C1/delta0) / (X_{j-1} X_j^(gamma+1)), which
        eliminates X_{j+1} via the growth constraint, so it covers every valid
        continuation.  Supports j up to n_steps + 2.
        """
        c1 = self.plan.c1
        num = BallReal.wrap(Fraction(5 * c1, 2)) + BallReal.wrap(2 * c1) / self.delta0_ball()
        return num / (self._x_lower(j - 1) * self._x_lower(j) ** (BallReal.golden() + 1))

    def _x_lower(self, j: int) -> BallReal:
        if j <= self.n_steps + 1:
            return self.scale(j).ball()
        if j == self.n_steps + 2:
            s = self.n_steps
            return self.scale(s).ball() * self.scale(s + 1).pow_gamma_plus(2)
        raise InputError(f"no scale lower bound for index {j}")

    def delta_upper(self, j: int) -> BallReal:
        if 1 <= j <= self.n_steps:
            return self.delta_ball(j)
        return self.delta_tail_ball(j)

    # Each enclosure of a finished state is built once, on first read, and
    # shared by every reader with its rep_norm and radius balls.
    @cached_property
    def u_enclosures(self) -> Dict[int, DirectionEnclosure]:
        """enclose_u at every anchor 1..last_index."""
        return {i: enclose_u(self, i) for i in range(1, self.last_index + 1)}

    @cached_property
    def vw_enclosures(self) -> Tuple[DirectionEnclosure, DirectionEnclosure]:
        """enclose_vw of V and of W."""
        return enclose_vw(self, "V"), enclose_vw(self, "W")


def _u_term_sq(state: ConstructionState, i: int) -> BallReal:
    """(2C1 / (delta0^2 X_{i-1} X_i^(gamma+1)))^2 as a ball, exact where possible."""
    c1 = state.plan.c1
    d0sq = state.plan.delta0_sq
    num = Fraction(4 * c1 * c1) / (d0sq * d0sq * state.scale(i - 1).sq)
    return BallReal.wrap(num) / (BallReal.wrap(state.scale(i).sq) ** (BallReal.golden() + 1))


def _base_verdicts(state: ConstructionState, max_prec: int) -> List[Verdict]:
    """Certificates on the start pair (x0, x1) and on the unbuilt tail."""
    x0, x1 = state.xs[0], state.xs[1]
    u1 = state.us[0]
    if Fraction(*proj_dist_sq_terms(x0, x1, u1)) != 4 * state.plan.delta0_sq:
        raise CertificateFailure("base_delta0_identity",
                                 "dist^2(x0,x1) != 4*delta0_sq")
    if not is_primitive_point(u1):
        raise CertificateFailure("base_primitive_pair", "(x0, x1) not primitive")
    verdicts = [Verdict("base_delta0_identity", True),
                Verdict("base_primitive_pair", True),
                # dist(x0, x1) >= delta0: exact on squares (4 d0sq >= d0sq)
                Verdict("base_dist_floor", True)]
    certify("tail_halving_generic", 2, state.scale(1).pow_gamma_plus(0),
            max_prec, verdicts)
    return verdicts


def _ledger_entry(state: ConstructionState, i: int, prev_delta: BallReal,
                  max_prec: int) -> Tuple[LedgerEntry, BallReal]:
    """Certify the ledger of step i, which build has just run; returns the
    entry and delta_i.  prev_delta is delta_{i-1}, or delta0 at i = 1."""
    x_star, x, x_next = state.xs[i - 1], state.xs[i], state.xs[i + 1]
    u, u_next = state.us[i - 1], state.us[i]
    # Recorded from certificates build already holds, not recomputed.
    # Triple cross: cross(u_i, u_{i+1}) = det3(x_{i-1}, x_i, x_{i+1}) x_i,
    # which is q_n x_i by step i's det_qn. Intersection: span(x_{i-1}, x_i)
    # meets span(x_i, x_{i+1}) in exactly Z x_i, since u_i and u_{i+1} have
    # content 1 (base_primitive_pair at i = 1, else step i-1's
    # output_pair_primitive; step i's for u_{i+1}) and det3 = q_n >= 1 keeps
    # the planes apart.
    verdicts = [Verdict(f"triple_cross_i{i}", True),
                Verdict(f"intersection_i{i}", True)]

    d0_ball = state.delta0_ball()
    delta_i = state.delta_ball(i)
    certify(f"halving_i{i}", delta_i, prev_delta / 2, max_prec, verdicts)
    near = sqrt_ratio(*proj_dist_sq_terms(x_star, x_next))
    certify(f"near_i{i}", near, delta_i, max_prec, verdicts)
    sep = sqrt_ratio(*proj_dist_sq_terms(x, x_next, u_next))
    certify(f"sep_i{i}", d0_ball + delta_i, sep, max_prec, verdicts)
    if i >= 2:
        cur = sqrt_ratio(*proj_dist_sq_terms(x_star, x, u))
        certify(f"dist_floor_i{i}", d0_ball, cur, max_prec, verdicts)

    # dist^2(u_i, u_{i+1}), its numerator |cross(u_i, u_{i+1})|^2 from the
    # triple cross identity with det3(x_{i-1}, x_i, x_{i+1}) = x_{i-1}.u_{i+1}
    det = x_star.dot(u_next)
    du_sq = Fraction(det * det * x.norm_sq(), u.norm_sq() * u_next.norm_sq())
    certify(f"u_step_i{i}", BallReal.wrap(du_sq), _u_term_sq(state, i),
            max_prec, verdicts)
    if i >= 2:
        lhs = state.scale(i - 2).ball() * state.scale(i - 1).pow_gamma_plus(1) * 2
        rhs = state.scale(i - 1).ball() * state.scale(i).pow_gamma_plus(1)
        certify(f"u_ratio_i{i}", lhs, rhs, max_prec, verdicts)

    entry = LedgerEntry(index=i, delta_ub=delta_i.refined_to(PAYLOAD_PREC).hi,
                        verdicts=tuple(verdicts))
    return entry, delta_i


def build(plan: Plan, schedule: Schedule,
          max_prec: int = DEFAULT_MAX_PREC) -> ConstructionState:
    """Run all n_steps recursive steps and certify the full ledger.

    Each step takes u = cross(x_{i-1}, x_i) from the state and a z0 with
    u.z0 = 1 for its completion. Step 1 takes -x0': x1 = n x0' + x0 + z
    with det3(x0, x0', z) = 1 gives det3(x0, x1, -x0') = 1. Later steps
    take the previous step's convergent identity (_identity_z0).
    """
    table = ConvergentTable(ALPHA_PRESETS[plan.alpha], plan.c1)
    state = ConstructionState(plan=plan, schedule=schedule, xs=[plan.x0, plan.x1],
                              ys=[], step_outputs=[], step_certs=[], ledger=[],
                              base_verdicts=[], us=[cross(plan.x0, plan.x1)])
    state.base_verdicts = _base_verdicts(state, max_prec)
    delta = state.delta0_ball()
    for i in range(1, plan.n_steps + 1):
        z0 = (-plan.x0_companion if i == 1 else
              _identity_z0(table, state.step_outputs[-1], state.xs[i - 2]))
        out, cert = recursive_step(state.xs[i - 1], state.xs[i],
                                   YSpec.of_power(state.scale(i).sq),
                                   state.scale(i + 1).value_int, table, max_prec,
                                   z0=z0, u=state.us[i - 1])
        state.xs.append(out.x_prime)
        state.us.append(out.u_prime)
        state.ys.append(out.y)
        state.step_outputs.append(out)
        state.step_certs.append(cert)
        entry, delta = _ledger_entry(state, i, delta, max_prec)
        state.ledger.append(entry)
    return state


def _identity_z0(table: ConvergentTable, out: StepOutput, x_star: IVec3) -> IVec3:
    """A z0 with cross(x, x').z0 = 1 for the step after out = step(x*, x).

    out's det_qn and det_pn certify cross(x, x').x* = q_n and
    cross(x, x').y = -p_n, and the table's cross identity gives
    p_{n-1} q_n - q_{n-1} p_n = (-1)^(n+1), so
    z0 = (-1)^(n+1) (p_{n-1} x* + q_{n-1} y). Row n-1 is read while the
    cursor still stands at out's row n, so it moves no row.
    """
    p_prev, q_prev = table.pair(out.n - 1)
    z0 = p_prev * x_star + q_prev * out.y
    return z0 if out.n % 2 else -z0


def enclose_u(state: ConstructionState, i: int) -> DirectionEnclosure:
    """Enclosure of u anchored at u_i = cross(x_{i-1}, x_i), 1 <= i <= last."""
    if not 1 <= i <= state.last_index:
        raise InputError(f"u anchor {i} out of range")
    rep = state.us[i - 1]
    radius_sq = _u_term_sq(state, i) * 4
    return DirectionEnclosure(rep=rep, radius_sq_ub=radius_sq.refined_to(PAYLOAD_PREC).hi)


def enclose_vw(state: ConstructionState, kind: str) -> DirectionEnclosure:
    """Enclosure of v (odd-index tail) or w (even-index tail).

    rep = x_m with the largest available index of the right parity;
    dist(x_m, limit) <= sum_j delta_{m+1+2j} <= 2 delta_{m+1}.
    """
    if kind not in ("V", "W"):
        raise InputError("kind must be V or W")
    if state.n_steps < 3:
        raise InputError("need at least 3 steps to enclose v/w")
    want_odd = kind == "V"
    m = state.last_index
    if (m % 2 == 1) != want_odd:
        m -= 1
    radius = state.delta_upper(m + 1) * 2
    return DirectionEnclosure(rep=state.xs[m],
                              radius_sq_ub=(radius ** 2).refined_to(PAYLOAD_PREC).hi)


def x_dot_u_lower(x: IVec3, enc: DirectionEnclosure) -> BallReal:
    """Certified lower bound on |x.u|: |x.u_i| - 2 ||x|| dist(u_i, u).

    |x.u_i| is exact over a certified square root; the chordal factor 2
    covers the worst sign alignment of the unit representatives.
    """
    d = abs(dot(x, enc.rep))
    exact_part = BallReal.wrap(Fraction(d)) / enc.rep_norm
    slack = 2 * sqrt_int(x.norm_sq()) * enc.radius
    return exact_part - slack

