"""One application of the recursive construction step.

Given a primitive pair (x*, x) and targets (Y, X'), produce (y, x') with
certified properties: exact determinant identities, norm sandwiches
Y <= |y| <= 2Y and X' <= |x'| <= 5 C1 X', and the two projective distance
bounds. Y is carried symbolically (an exact rational, or base^gamma with a
rational base squared) and only ever compared, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, DEFAULT_PREC, cert_le, sqrt_int
from .cf import ConvergentTable, locate_n
from .errors import CertificateFailure, InputError, UndecidedError
from .exact import (
    IVec3,
    complete_to_basis,
    cross,
    det3,
    dot,
    is_primitive_pair,
    proj_dist_sq,
)

Rat = Fraction


@dataclass(frozen=True)
class YSpec:
    """Either an exact rational, or the power base_sq^(gamma/2).

    base_sq is the squared base, so bases that are square roots of integers
    are represented exactly.
    """

    exact: Optional[Rat] = None
    base_sq: Optional[Rat] = None

    @staticmethod
    def of_rational(v) -> "YSpec":
        return YSpec(exact=Fraction(v))

    @staticmethod
    def of_power(base_sq) -> "YSpec":
        b = Fraction(base_sq)
        if b <= 0:
            raise InputError("power base must be positive")
        return YSpec(base_sq=b)

    def ball(self) -> BallReal:
        if self.exact is not None:
            return BallReal.exact(self.exact)
        return BallReal.wrap(self.base_sq) ** (BallReal.golden() / 2)

    def sq_ball(self) -> BallReal:
        if self.exact is not None:
            return BallReal.exact(self.exact * self.exact)
        return BallReal.wrap(self.base_sq) ** BallReal.golden()


@dataclass(frozen=True)
class StepInput:
    x_star: IVec3
    x: IVec3
    Y_spec: YSpec
    X_prime: int
    table: ConvergentTable
    max_prec: int = DEFAULT_MAX_PREC


@dataclass(frozen=True)
class StepOutput:
    y: IVec3
    x_prime: IVec3
    n: int  # conv_index
    a: int
    m: int
    ell: int
    r: Rat
    s: Rat  # reduced coordinate, |s| <= 1/2


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    prec: int = 0  # 0 for exact checks


def certify(name: str, lhs, rhs, max_prec: int, verdicts: List[Verdict]) -> None:
    """Certify lhs <= rhs and append its verdict.

    Raises UndecidedError if cert_le stays undecided up to max_prec, and
    CertificateFailure if the inequality is refuted.
    """
    ok, prec = cert_le(lhs, rhs, max_prec)
    if ok is None:
        raise UndecidedError(name, prec)
    if not ok:
        raise CertificateFailure(name, f"refuted at {prec} bits")
    verdicts.append(Verdict(name, True, prec))


@dataclass(frozen=True)
class StepCertificate:
    det_basis: int  # det3(x*, x, y), must be 1
    det_qn: int  # det3(x*, x, x'), must equal q_n
    det_pn: int  # det3(y, x, x'), must equal -p_n
    h_sq: int  # |x* ^ x|^2
    verdicts: Tuple[Verdict, ...]
    notes: Tuple[str, ...] = ()


def decompose_in_basis(y0: IVec3, x_star: IVec3, x: IVec3) -> Tuple[Rat, Rat, int]:
    """Coordinates (r, s) of y0 over (x*, x) in the plane they span.

    Solves the 2x2 Gram system exactly; the residual y0 - r x* - s x is
    orthogonal to both inputs (checked). Returns the sign of
    det3(x*, x, y0) as the third component.
    """
    g11, g12, g22 = dot(x_star, x_star), dot(x_star, x), dot(x, x)
    b1, b2 = dot(y0, x_star), dot(y0, x)
    det = g11 * g22 - g12 * g12
    if det == 0:
        raise InputError("degenerate pair in decomposition")
    r = Fraction(b1 * g22 - b2 * g12, det)
    s = Fraction(b2 * g11 - b1 * g12, det)
    t = det3(x_star, x, y0)
    if t == 0:
        raise InputError("decomposition needs det3(x*, x, y0) = +-1")
    # exact orthogonality of the residual
    for v, name in ((x_star, "x_star"), (x, "x")):
        res = Fraction(dot(y0, v)) - r * Fraction(dot(x_star, v)) - s * Fraction(dot(x, v))
        if res != 0:
            raise CertificateFailure("residual_orthogonal", f"residual . {name} = {res}")
    return r, s, 1 if t > 0 else -1


def unit_normal_sq(a: IVec3, b: IVec3) -> Tuple[IVec3, int]:
    """Integer representative of the unit normal of span(a, b), with |rep|^2."""
    rep = cross(a, b)
    if rep.is_zero():
        raise InputError("parallel inputs have no normal direction")
    return rep, rep.norm_sq()


def _nearest_int(v: Rat) -> int:
    """Nearest integer; a half-integer tie resolves to the smaller |result|."""
    f = v.numerator // v.denominator
    frac = v - f
    if frac > Fraction(1, 2):
        return f + 1
    if frac < Fraction(1, 2):
        return f
    return f if abs(f) < abs(f + 1) else f + 1


def recursive_step(inp: StepInput) -> Tuple[StepOutput, StepCertificate]:
    x_star, x = inp.x_star, inp.x
    if not is_primitive_pair(x_star, x):
        raise InputError("recursive_step needs a primitive pair")
    table = inp.table
    c1 = table.c1
    max_prec = inp.max_prec
    verdicts: List[Verdict] = []
    notes: List[str] = []

    nx_star = sqrt_int(x_star.norm_sq())
    nx = sqrt_int(x.norm_sq())
    Y = inp.Y_spec.ball()
    Y_sq = inp.Y_spec.sq_ball()
    Xp = inp.X_prime

    # hypothesis: 2(|x*| + |x|) <= Y <= X'
    certify("hyp_norms_le_Y", 2 * (nx_star + nx), Y, max_prec, verdicts)
    certify("hyp_Y_le_Xprime", Y, Xp, max_prec, verdicts)

    # (1) basis completion, oriented so det3(x*, x, y0) = +1
    y0 = complete_to_basis(x_star, x)
    r, s, t_sign = decompose_in_basis(y0, x_star, x)
    if t_sign < 0:
        y0, r, s = -y0, -r, -s

    # (2) reduce s into (-1/2, 1/2], ties at the upper end
    ell = -math.ceil(s - Fraction(1, 2))
    s = s + ell
    if not -Fraction(1, 2) < s <= Fraction(1, 2):
        raise CertificateFailure("s_reduced", f"s={s} outside (-1/2, 1/2]")

    # (3) smallest a with (a + r) |x*| >= Y + |x|/2 + 1, by certified compare
    target = (Y + nx / 2 + 1) / nx_star - BallReal.exact(r)
    target = target.refined_to(DEFAULT_PREC)
    while target.width > Fraction(1, 4) and target.prec < max_prec:
        target = target.refined_to(2 * target.prec)
    lo_f = target.lo
    a = lo_f.numerator // lo_f.denominator  # conservative start below the target

    def satisfies(cand: int) -> Optional[bool]:
        # a fresh right side per call: cert_le refines both operands in
        # lockstep, so a shared ball would carry every earlier call's
        # precision into the next (up to the 65,536-bit cap)
        rhs = Y + nx / 2 + 1
        ok, _ = cert_le(rhs, BallReal.exact(Fraction(cand) + r) * nx_star, max_prec)
        return ok

    while satisfies(a) is False:
        a += 1
    st = satisfies(a)
    if st is None:
        notes.append(f"a_selection_undecided_at={a}")
        a += 1
        if satisfies(a) is not True:
            raise UndecidedError("a selection", max_prec)
    below = satisfies(a - 1)
    if below is None:
        notes.append(f"a_minimality_unverified_at={a - 1}")
    elif below is True:
        raise CertificateFailure("a_minimality", f"a={a} not minimal")

    # (4) convergent index from T = 2 X'/Y, then the m correction
    T = BallReal.wrap(2 * Xp) / Y
    n = locate_n(T, table, max_prec)
    pn, qn = table.pair(n)
    m = _nearest_int(-s * qn)
    if abs(s * qn + m) > Fraction(1, 2):
        raise CertificateFailure("m_bound", f"|s q_n + m| > 1/2 at m={m}")

    # (5) assemble
    y = y0 + ell * x + a * x_star
    x_prime = qn * y + pn * x_star + m * x

    # (6) certificates
    d1 = det3(x_star, x, y)
    if d1 != 1:
        raise CertificateFailure("det_basis", f"{d1} != 1")
    d2 = det3(x_star, x, x_prime)
    if d2 != qn:
        raise CertificateFailure("det_qn", f"{d2} != {qn}")
    d3 = det3(y, x, x_prime)
    if d3 != -pn:
        raise CertificateFailure("det_pn", f"{d3} != {-pn}")

    ny_sq = y.norm_sq()
    certify("y_norm_lower", Y_sq, ny_sq, max_prec, verdicts)
    certify("y_norm_upper", ny_sq, 4 * Y_sq, max_prec, verdicts)

    nxp_sq = x_prime.norm_sq()
    if not Fraction(Xp * Xp) <= nxp_sq:
        raise CertificateFailure("xprime_norm_lower", f"{nxp_sq} < {Xp}^2")
    if not Fraction(nxp_sq) <= 25 * c1 * c1 * Xp * Xp:
        raise CertificateFailure("xprime_norm_upper", f"{nxp_sq} too large")
    verdicts.append(Verdict("xprime_norm_lower", True))
    verdicts.append(Verdict("xprime_norm_upper", True))

    # part 3: dist(x*, x') <= |x|/(2X') + 2C1/(Y |x*| |x| dist(x*, x))
    u_rep, h_sq = unit_normal_sq(x_star, x)
    h = sqrt_int(h_sq)
    lhs3 = BallReal.wrap(proj_dist_sq(x_star, x_prime)).sqrt()
    rhs3 = nx / (2 * Xp) + BallReal.wrap(2 * c1) / (Y * h)
    certify("part3_dist_bound", lhs3, rhs3, max_prec, verdicts)

    # part 4: dist(u, u') H H' = q_n |x| exactly, and q_n Y <= 2 C1 |x'|
    w = cross(u_rep, cross(x, x_prime))
    if w.norm_sq() != qn * qn * x.norm_sq():
        raise CertificateFailure("part4_identity", "triple cross norm mismatch")
    certify("part4_dist_bound", qn * qn * Y_sq, 4 * c1 * c1 * nxp_sq, max_prec, verdicts)

    if not is_primitive_pair(x, x_prime):
        raise CertificateFailure("output_pair_primitive", "cross content != 1")
    verdicts.append(Verdict("output_pair_primitive", True))

    out = StepOutput(y=y, x_prime=x_prime, n=n, a=a, m=m, ell=ell, r=r, s=s)
    cert = StepCertificate(
        det_basis=d1,
        det_qn=d2,
        det_pn=d3,
        h_sq=h_sq,
        verdicts=tuple(verdicts),
        notes=tuple(notes),
    )
    return out, cert
