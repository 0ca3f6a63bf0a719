"""Certified constructions for golden-exponent sign-constrained approximation.

Build integer point sequences whose directions converge to a limit frame
(u, v, w), enclose the limits with certified radii, and verify both sides of
the optimality statement: small-value witnesses on a norm grid and exhaustive
lower-bound scans over coefficient boxes and norm slabs.  Every reported
verdict is backed by exact integer/rational arithmetic or an interval
enclosure with escalating precision.
"""

from .balls import (BallReal, Cmp, DEFAULT_MAX_PREC, DEFAULT_PREC,
                    ball_payload, cert_le, certified_compare, sqrt_int)
from .builder import (ConstructionState, DirectionEnclosure, LedgerEntry,
                      build, enclose_u, enclose_vw, recertify, x_dot_u_lower)
from .cf import (ALPHA_PRESETS, AlphaSpec, BadApproxReport, ConvergentTable,
                 GapReport, certify_bad_approx, convergent_gap_check, locate_n)
from .errors import (CertificateFailure, GammaCertError, InputError,
                     UndecidedError)
from .exact import (IVec3, complete_to_basis, cross, det3, dot,
                    is_primitive_pair, is_primitive_point, proj_dist_sq,
                    smith_invariants_3x2)
from .planner import (Plan, PsiSpec, Schedule, XScale, choose_companion,
                      make_plan, schedule_X)
from .scan import ScanReport, slab_scan_iv
from .serialize import (document_bytes, dump_document, load_document,
                        plan_body, report_body, state_body)
from .stepper import (StepCertificate, StepOutput, Verdict, YSpec,
                      recursive_step)
from .verifier import (BoxReport, PropertyReport, SandwichVerdict,
                       StarredClause, StarredLedger, WitnessReport,
                       WitnessSample, check_condition_iii, coeff_box_lemma3,
                       export_alpha_beta, property_suites,
                       starred_ledger_audit, vperp_sandwich_check,
                       witness_grid)

__version__ = "0.1.0"
