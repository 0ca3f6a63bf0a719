"""The benchmark's workloads: the gammacert commands each runs, and the
reference outcome every run is checked against.

The reference values were pinned from the code as it stood when the
benchmark was added.  A digest covers the canonical body of each artifact,
minus the fields that legitimately differ between runs: ``wall_time_s`` in
the slab report, the output directory echoed in the config, and the seed
echoed in the config and the property report.  The property suites' outcome
(0 failures) holds for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
TOY_CONFIG = os.path.join(HERE, "configs", "toy.json")
HONEST_CONFIG = os.path.join(HERE, "configs", "honest.json")

# outcome of one gammacert command: (argv, exit code or error text, stdout)
Result = Tuple[List[str], object, str]
# one checked outcome: (what, matches the reference, detail)
Outcome = Tuple[str, bool, str]

# The toy box half-width.  At the CLI default K=8, `verify --mode all` on the
# toy config takes about 64 s on a 2-core x86 machine, too long for a run of
# the benchmark to hold more than one iteration; K=3 runs the same box path on
# 336 in-window points per index in about 13 s, with the boxes still the
# largest part of the run.
TOY_BOX_K = 3

TOY_AUDIT_FAILURES = ("q_below_qn", "mid_norm_margin", "mid_norm_const",
                      "plane_const", "scale_floor", "contraction_seed",
                      "axis_const_i1")
TOY_SLAB = {"lines": 9067865, "candidates": 19841341, "fast_passed": 19841253,
            "slow_checked": 88, "violations": 0, "undecided": 0,
            "positivity_failures": 0}
TOY_BOX = {"points_total": 342, "in_window": 336, "violations": 0, "undecided": 0}
TOY_WITNESS = {"samples": 32, "failures": 0, "undecided": 0}
HONEST_CERTIFICATES = 87
HONEST_EXPONENTS = ("141", "539", "2092", "8108", "31428")

DIGESTS = {
    "toy-verify cert.json":
        "3fcc48b5dedbbbf8eb9079aadd9a867b8155e28f1748d0645fb390547e2ccb63",
    "honest-build plan":
        "0f93a10459cd31d974baf333cd48d8d3bd6f6e639913ea5d933101ec623d6245",
    "honest-build state.json":
        "ad08949f4272d902348a8b6b2861e77bbb6bd395f48d8f4636ba00682eaf0959",
}


def load_body(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)["body"]


def _drop(obj, key: str):
    """Copy of a JSON value without `key` at any depth."""
    if isinstance(obj, dict):
        return {k: _drop(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_drop(v, key) for v in obj]
    return obj


def digest(body: dict) -> str:
    """sha256 of the canonical body with per-run fields removed."""
    body = _drop(body, "wall_time_s")
    if "config" in body:
        body = dict(body, config={k: v for k, v in body["config"].items()
                                  if k not in ("seed", "out")})
    if "properties" in body.get("results", {}):
        props = {k: v for k, v in body["results"]["properties"].items() if k != "seed"}
        body = dict(body, results=dict(body["results"], properties=props))
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _eq(what: str, got, want) -> Outcome:
    return (what, got == want, f"got {got!r}, want {want!r}")


def _exit(result: Result, want: int) -> Outcome:
    return _eq(f"`{result[0][0]}` exit code", result[1], want)


def _counts(report: dict, want: dict) -> dict:
    """The fields of `want` read from a report body; lists give their length."""
    got = {}
    for key in want:
        val = report.get(key)
        if isinstance(val, list):
            val = len(val)
        elif val is not None:
            val = int(val)
        got[key] = val
    return got


def _cert_outcomes(out_dir: str, name: str) -> Tuple[dict, List[Outcome]]:
    path = os.path.join(out_dir, "cert.json")
    if not os.path.exists(path):
        return {}, [(f"{name} cert.json", False, "not written")]
    body = load_body(path)
    return body, [_eq(f"{name} cert.json digest", digest(body), DIGESTS[f"{name} cert.json"])]


def check_toy_verify(out_dir: str, runs: List[Result]) -> List[Outcome]:
    outcomes = [_exit(runs[0], 1)]
    body, digests = _cert_outcomes(out_dir, "toy-verify")
    results = body.get("results", {})
    audit = results.get("audit", {}).get("clauses", [])
    outcomes.append(_eq("audit failures",
                        tuple(c["name"] for c in audit if c["passed"] is not True),
                        TOY_AUDIT_FAILURES))
    outcomes.append(_eq("witness", _counts(results.get("witness", {}), TOY_WITNESS),
                        TOY_WITNESS))
    boxes = results.get("boxes", [])
    for i in (2, 3, 4):
        box = boxes[i - 2] if i - 2 < len(boxes) else {}
        outcomes.append(_eq(f"box i={i}", _counts(box, TOY_BOX), TOY_BOX))
    outcomes.append(_eq("slab", _counts(results.get("slab", {}), TOY_SLAB), TOY_SLAB))
    suites = results.get("properties", {}).get("suites", [])
    outcomes.append(_eq("properties (suites, failures)",
                        (len(suites), sum(len(s[2]) for s in suites)), (6, 0)))
    return outcomes + digests


def check_honest_build(out_dir: str, runs: List[Result]) -> List[Outcome]:
    build, report = runs
    certs = re.search(r"(\d+) certificates pass", build[2])
    outcomes = [_exit(build, 0),
                _eq("build certificates", int(certs.group(1)) if certs else None,
                    HONEST_CERTIFICATES),
                _exit(report, 0),
                _eq("report files", [os.path.exists(os.path.join(out_dir, f))
                                     for f in ("report.md", "series.csv")], [True, True])]
    path = os.path.join(out_dir, "state.json")
    if not os.path.exists(path):
        return outcomes + [("honest-build state.json", False, "not written")]
    body = load_body(path)
    return outcomes + [
        _eq("plan exponents", tuple(body["plan"]["exponents"]), HONEST_EXPONENTS),
        _eq("honest-build plan digest", digest(body["plan"]), DIGESTS["honest-build plan"]),
        _eq("honest-build state.json digest", digest(body),
            DIGESTS["honest-build state.json"]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: Callable[[str, int], List[List[str]]]  # (out_dir, seed) -> argvs
    check: Callable[[str, List[Result]], List[Outcome]]


def _common(config: str, out_dir: str, seed: int) -> List[str]:
    return ["--config", config, "--threads", "1", "--seed", str(seed), "--out", out_dir]


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {wl.name: wl for wl in (
    Workload("toy-verify", TOY_CONFIG,
             lambda out, seed: [["verify", "--mode", "all", "--K", str(TOY_BOX_K)]
                                + _common(TOY_CONFIG, out, seed)],
             check_toy_verify),
    Workload("honest-build", HONEST_CONFIG,
             lambda out, seed: [["build"] + _common(HONEST_CONFIG, out, seed),
                                ["report", "--state", os.path.join(out, "state.json")]
                                + _common(HONEST_CONFIG, out, seed)],
             check_honest_build),
)}
