"""Canonical JSON artifacts with content hashes.

Layout of every file: {"schema": 1, "kind": <str>, "body": {...},
"sha256": <hex of the canonical body bytes>}.  Canonical bytes use sorted
keys and tight separators.  One encoder, `_enc`, decides every field value:
integers are decimal strings (they routinely exceed any interoperable
numeric range), rationals are "num/den", vectors are lists of three such
strings, interval enclosures are dyadic mid/rad payloads at 192 bits, and
any other dataclass is an object of its encoded fields, so the plan, the
verdict lists and every verifier or scan report take their layout from
their dataclass.  Loading verifies the hash and rejects unknown schema
versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from typing import Dict, Optional

from .balls import BallReal, ball_payload, sqrt_int
from .builder import ConstructionState
from .errors import InputError
from .exact import IVec3
from .planner import Plan, Schedule

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

SCHEMA = 1


def _enc(obj):
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, IVec3):
        return [str(c) for c in obj.as_tuple()]
    if dataclasses.is_dataclass(obj):
        return {f.name: _enc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, BallReal):
        return ball_payload(obj)
    if isinstance(obj, (list, tuple)):
        return [_enc(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _enc(v) for k, v in obj.items()}
    raise InputError(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def body_hash(body: dict) -> str:
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


def wrap_document(kind: str, body: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, "body": body,
            "sha256": body_hash(body)}


def document_bytes(kind: str, body: dict) -> bytes:
    return canonical_bytes(wrap_document(kind, body))


def unwrap_document(doc: dict, expected_kind: Optional[str] = None) -> dict:
    for key in ("schema", "kind", "body", "sha256"):
        if key not in doc:
            raise InputError(f"document missing field {key!r}")
    if doc["schema"] != SCHEMA:
        raise InputError(f"unsupported schema {doc['schema']!r}")
    if expected_kind is not None and doc["kind"] != expected_kind:
        raise InputError(f"expected kind {expected_kind!r}, got {doc['kind']!r}")
    if body_hash(doc["body"]) != doc["sha256"]:
        raise InputError("content hash mismatch: document corrupt or edited")
    return doc["body"]


def load_document(path: str, expected_kind: Optional[str] = None) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read document {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"document {path} is not a JSON object")
    return unwrap_document(doc, expected_kind)


def dump_document(path: str, kind: str, body: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(document_bytes(kind, body))
        fh.write(b"\n")


# ---------------------------------------------------------------------------
# plan / schedule


def plan_body(plan: Plan, schedule: Schedule) -> dict:
    return dict(_enc(plan), exponents=_enc(schedule.exponents),
                schedule_witnesses=_enc(schedule.witnesses),
                invariant_failures=_enc(schedule.invariant_failures))


# ---------------------------------------------------------------------------
# construction state


def state_body(state: ConstructionState) -> dict:
    """Full certified record of a finished construction.

    The "series" section carries, per index, the data the human-readable
    report formats: bit lengths, the certified gap bound delta_i, and the
    certified upper bound on |x_i . u| (both as dyadic enclosures), so
    report generation is pure formatting.
    """
    series = []
    for i in range(state.last_index + 1):
        entry: Dict[str, object] = {
            "i": _enc(i),
            "x_bits": _enc(max(abs(c) for c in state.xs[i].as_tuple()).bit_length()),
            "norm_sq": _enc(state.xs[i].norm_sq()),
        }
        if i >= 1:
            entry["delta_up"] = _enc(state.delta_upper(i))
        if i + 1 <= state.last_index:
            enc_u = state.u_enclosures[i + 1]
            entry["xu_up"] = _enc(2 * sqrt_int(state.xs[i].norm_sq()) * enc_u.radius)
        series.append(entry)
    return {
        "plan": plan_body(state.plan, state.schedule),
        "xs": _enc(state.xs),
        "ys": _enc(state.ys),
        "steps": [
            {"n": _enc(so.n), "a": _enc(so.a), "m": _enc(so.m),
             "ell": _enc(so.ell), "r": _enc(so.r), "s": _enc(so.s)}
            for so in state.step_outputs
        ],
        "step_verdicts": [_enc(sc.verdicts) for sc in state.step_certs],
        "base_verdicts": _enc(state.base_verdicts),
        "ledger": _enc(state.ledger),
        "series": series,
    }


# ---------------------------------------------------------------------------
# reports


def report_body(obj) -> dict:
    """Body of a verifier or scan report (any dataclass)."""
    if not dataclasses.is_dataclass(obj):
        raise InputError(f"not a report: {type(obj).__name__}")
    return _enc(obj)
