"""One application of the recursive construction step.

Given a primitive pair (x*, x) and targets (Y, X'), produce (y, x') with
certified properties: exact determinant identities, norm sandwiches
Y <= |y| <= 2Y and X' <= |x'| <= 5 C1 X', and the two projective distance
bounds. Y is carried symbolically (an exact rational, or base^gamma with a
rational base squared) and only ever compared, never rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .balls import BallReal, DEFAULT_MAX_PREC, cert_le, sqrt_int, sqrt_ratio
from .cf import ConvergentTable, locate_n
from .errors import CertificateFailure, InputError, UndecidedError
from .exact import (
    IVec3,
    complete_to_basis,
    cross,
    det3,
    dot,
    is_primitive_point,
    nearest_int,
    proj_dist_sq_terms,
)
from .record import record

Rat = Fraction


@record
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


@record
class StepOutput:
    y: IVec3
    x_prime: IVec3
    n: int  # conv_index
    a: int
    m: int
    ell: int
    r: Rat
    s: Rat  # reduced coordinate, |s| <= 1/2
    u_prime: IVec3  # cross(x, x'), certified primitive


@record
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


@record
class StepCertificate:
    verdicts: Tuple[Verdict, ...]


def decompose_in_basis(y0: IVec3, x_star: IVec3, x: IVec3) -> Tuple[Rat, Rat]:
    """Coordinates (r, s) of y0 over (x*, x) in the plane they span.

    Solves the 2x2 Gram system exactly by Cramer's rule, so the residual
    y0 - r x* - s x is orthogonal to both inputs.
    """
    g11, g12, g22 = dot(x_star, x_star), dot(x_star, x), dot(x, x)
    b1, b2 = dot(y0, x_star), dot(y0, x)
    det = g11 * g22 - g12 * g12
    if det == 0:
        raise InputError("degenerate pair in decomposition")
    return Fraction(b1 * g22 - b2 * g12, det), Fraction(b2 * g11 - b1 * g12, det)


def recursive_step(x_star: IVec3, x: IVec3, Y_spec: YSpec, X_prime: int,
                   table: ConvergentTable, max_prec: int = DEFAULT_MAX_PREC,
                   z0: Optional[IVec3] = None, u: Optional[IVec3] = None
                   ) -> Tuple[StepOutput, StepCertificate]:
    """One step from the primitive pair (x*, x) toward the targets Y and X'.

    table supplies q_n and p_n, and every comparison is certified up to
    max_prec bits. A caller that holds u = cross(x*, x) and a solution z0 of
    u.z0 = 1 (builder.build holds both at every step) passes them;
    complete_to_basis checks z0. Returns
    (y, x') with the step data, u' = cross(x, x') among it, and the verdicts.
    """
    u_rep = cross(x_star, x) if u is None else u  # input check, (1), part 3
    if not is_primitive_point(u_rep):
        raise InputError("recursive_step needs a primitive pair")
    c1 = table.c1
    verdicts: List[Verdict] = []

    nx_star = sqrt_int(x_star.norm_sq())
    nx = sqrt_int(x.norm_sq())
    Y = Y_spec.ball()
    Y_sq = Y_spec.sq_ball()

    # hypothesis: 2(|x*| + |x|) <= Y <= X'
    certify("hyp_norms_le_Y", 2 * (nx_star + nx), Y, max_prec, verdicts)
    certify("hyp_Y_le_Xprime", Y, X_prime, max_prec, verdicts)

    # (1) basis completion; complete_to_basis certifies det3(x*, x, y0) = 1
    y0 = complete_to_basis(x_star, x, z0, u_rep)
    r, s = decompose_in_basis(y0, x_star, x)

    # (2) reduce s into (-1/2, 1/2], ties at the upper end: s - ceil(s - 1/2)
    ell = -math.ceil(s - Fraction(1, 2))
    s = s + ell

    # (3) smallest a with (a + r) |x*| >= Y + |x|/2 + 1, i.e. a = ceil(target).
    # Once the enclosure's endpoints share a ceiling, a is certified minimal;
    # at the precision cap ceil(hi) is still certified sufficient. Separating
    # the fractional part takes about 64 bits past a's own bit length, so an
    # undecided 64-bit enclosure goes straight to that many bits and doubles
    # from there, each time capped at max_prec. Any decided enclosure gives
    # the same a, and no verdict records its precision.
    target = (Y + nx / 2 + 1) / nx_star - BallReal.exact(r)
    if math.ceil(target.lo) != math.ceil(target.hi) and target.prec < max_prec:
        need = math.ceil(target.hi).bit_length() + 64
        target.refined_to(min(need, max_prec))
        while math.ceil(target.lo) != math.ceil(target.hi) and target.prec < max_prec:
            target.refine(max_prec)
    a = math.ceil(target.hi)

    # (4) convergent index from T = 2 X'/Y, then the m correction
    T = BallReal.wrap(2 * X_prime) / Y
    n = locate_n(T, table, max_prec)
    pn, qn = table.pair(n)
    m = nearest_int(-s.numerator * qn, s.denominator)  # |s q_n + m| <= 1/2

    # (5) assemble
    y = y0 + ell * x + a * x_star
    x_prime = qn * y + pn * x_star + m * x

    # (6) certificates
    for name, got, want in (("det_basis", det3(x_star, x, y), 1),
                            ("det_qn", det3(x_star, x, x_prime), qn),
                            ("det_pn", det3(y, x, x_prime), -pn)):
        if got != want:
            raise CertificateFailure(name, f"{got} != {want}")

    ny_sq = y.norm_sq()
    certify("y_norm_lower", Y_sq, ny_sq, max_prec, verdicts)
    certify("y_norm_upper", ny_sq, 4 * Y_sq, max_prec, verdicts)

    nxp_sq = x_prime.norm_sq()
    if not Fraction(X_prime * X_prime) <= nxp_sq:
        raise CertificateFailure("xprime_norm_lower", f"{nxp_sq} < {X_prime}^2")
    if not Fraction(nxp_sq) <= 25 * c1 * c1 * X_prime * X_prime:
        raise CertificateFailure("xprime_norm_upper", f"{nxp_sq} too large")
    verdicts.append(Verdict("xprime_norm_lower", True))
    verdicts.append(Verdict("xprime_norm_upper", True))

    # part 3: dist(x*, x') <= |x|/(2X') + 2C1/(Y |x*| |x| dist(x*, x))
    h = sqrt_int(u_rep.norm_sq())
    lhs3 = sqrt_ratio(*proj_dist_sq_terms(x_star, x_prime))
    rhs3 = nx / (2 * X_prime) + BallReal.wrap(2 * c1) / (Y * h)
    certify("part3_dist_bound", lhs3, rhs3, max_prec, verdicts)

    # part 4: dist(u, u') H H' = q_n |x| exactly, since cross(u, cross(x, x'))
    # = det3(x*, x, x') x = q_n x by det_qn; and q_n Y <= 2 C1 |x'|
    certify("part4_dist_bound", qn * qn * Y_sq, 4 * c1 * c1 * nxp_sq, max_prec, verdicts)

    u_prime = cross(x, x_prime)
    if not is_primitive_point(u_prime):
        raise CertificateFailure("output_pair_primitive", "cross content != 1")
    verdicts.append(Verdict("output_pair_primitive", True))

    out = StepOutput(y=y, x_prime=x_prime, n=n, a=a, m=m, ell=ell, r=r, s=s,
                     u_prime=u_prime)
    return out, StepCertificate(verdicts=tuple(verdicts))
