"""Certified constructions for golden-exponent sign-constrained approximation.

Build integer point sequences whose directions converge to a limit frame
(u, v, w), enclose the limits with certified radii, and verify both sides of
the optimality statement: small-value witnesses on a norm grid and exhaustive
lower-bound scans over coefficient boxes and norm slabs.  Every reported
verdict is backed by exact integer/rational arithmetic or an interval
enclosure with escalating precision.
"""

from .balls import BallReal, sqrt_int
from .builder import DirectionEnclosure
from .cf import (ALPHA_PRESETS, BadApproxReport, ConvergentTable,
                 certify_bad_approx, convergent_gap_check, locate_n)
from .errors import CertificateFailure, InputError, UndecidedError
from .planner import (Plan, PsiSpec, Schedule, XScale, choose_companion,
                      make_plan, schedule_X)
from .scan import slab_scan_iv
from .serialize import (document_bytes, dump_document, load_document,
                        plan_body, report_body, state_body)

__version__ = "0.1.0"
