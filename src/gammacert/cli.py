"""Command-line driver: plan / build / verify / report.

Exit codes: 0 all certificates pass (or the scan is below its threshold),
1 a certificate failed or a violation was found, 2 a comparison stayed
undecided at the precision cap, 3 invalid input (bad config, corrupt or
mismatched document, unusable parameters).

All artifacts are canonical JSON with content hashes; running the same
configuration twice produces byte-identical plan documents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional

from .balls import DEFAULT_MAX_PREC
from .builder import ConstructionState, build
from .errors import CertificateFailure, GammaCertError, InputError, UndecidedError
from .exact import IVec3
from .planner import PsiSpec, make_plan, schedule_X
from .scan import slab_scan_iv
from .serialize import (dump_document, load_document, plan_body, report_body,
                        state_body)
from .verifier import (check_condition_iii, coeff_box_lemma3, property_suites,
                       starred_ledger_audit)

Rat = Fraction

MODES = ("all", "slab", "box", "witness", "properties", "audit")


@dataclass(frozen=True)
class RunConfig:
    alpha: str = "sqrt2m1"
    c1: Optional[Rat] = None  # None takes the preset minimum
    delta: Rat = Fraction(1, 2)
    x0: IVec3 = IVec3(0, 0, 1)
    psi_c: Rat = Fraction(1)
    psi_e: Rat = Fraction(1)
    steps: int = 5
    theta: Optional[Rat] = None  # None selects the automatic threshold rule
    b: Optional[Rat] = None  # scan bound; None scans the full capped shell
    k: int = 8  # coefficient-box half-width
    k_near: int = 2  # per-line candidates each side of the direction plane
    max_prec: int = DEFAULT_MAX_PREC
    threads: int = 1
    seed: int = 0
    out: str = "."
    mode: str = "all"
    toy: bool = False

    def psi(self) -> PsiSpec:
        return PsiSpec(c=self.psi_c, e=self.psi_e)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _parse_rat(text: str) -> Rat:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


def _parse_vec(text: str) -> IVec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"x0 needs three comma-separated integers, got {text!r}")
    try:
        return IVec3(*(int(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"bad x0 {text!r}: {exc}") from None


def config_from_sources(config_path: Optional[str],
                        overrides: Dict[str, object]) -> RunConfig:
    """Merge a JSON config file with command-line overrides.

    Unknown keys in the file are rejected so typos cannot silently fall back
    to defaults.
    """
    values: Dict[str, object] = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        values.update(raw)
    values.update(overrides)

    def rat(name, default):
        v = values.get(name, default)
        if v is None:
            return None
        if isinstance(v, Fraction):
            return v
        if isinstance(v, str):
            return _parse_rat(v)
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
        raise InputError(f"config key {name} must be an integer or a rational string")

    def integer(name, default):
        v = values.get(name, default)
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"config key {name} must be an integer")
        return v

    def string(name, default):
        v = values.get(name, default)
        if not isinstance(v, str):
            raise InputError(f"config key {name} must be a string")
        return v

    x0 = values.get("x0", "0,0,1")
    if isinstance(x0, (list, tuple)):
        x0 = ",".join(str(c) for c in x0)
    mode = values.get("mode", "all")
    if mode not in MODES:
        raise InputError(f"mode must be one of {', '.join(MODES)}")
    toy = values.get("toy", False)
    if not isinstance(toy, bool):
        raise InputError("config key toy must be true or false")
    cfg = RunConfig(
        alpha=string("alpha", "sqrt2m1"),
        c1=rat("c1", None),
        delta=rat("delta", Fraction(1, 2)),
        x0=_parse_vec(str(x0)),
        psi_c=rat("psi_c", Fraction(1)),
        psi_e=rat("psi_e", Fraction(1)),
        steps=integer("steps", 5),
        theta=rat("theta", None),
        b=rat("b", None),
        k=integer("k", 8),
        k_near=integer("k_near", 2),
        max_prec=integer("max_prec", DEFAULT_MAX_PREC),
        threads=integer("threads", 1),
        seed=integer("seed", 0),
        out=string("out", "."),
        mode=str(mode),
        toy=toy,
    )
    if cfg.steps < 1:
        raise InputError("steps must be positive")
    return cfg


def _flag_overrides(args: argparse.Namespace) -> Dict[str, object]:
    out: Dict[str, object] = {}
    mapping = {
        "alpha": args.alpha, "delta": args.delta, "x0": args.x0,
        "psi_c": args.psi_c, "psi_e": args.psi_e, "steps": args.steps,
        "theta": args.theta, "b": args.b, "k": args.k, "k_near": args.k_near,
        "max_prec": args.max_prec, "threads": args.threads, "seed": args.seed,
        "out": args.out, "mode": getattr(args, "mode", None), "toy": args.toy,
    }
    for key, val in mapping.items():
        if val is not None:
            out[key] = val
    return out


def _mk_state(cfg: RunConfig) -> ConstructionState:
    plan = make_plan(cfg.alpha, cfg.x0, cfg.delta, cfg.psi(), cfg.steps,
                     theta=cfg.theta, c1=cfg.c1, toy=cfg.toy,
                     max_prec=cfg.max_prec)
    schedule = schedule_X(plan, max_prec=cfg.max_prec)
    return build(plan, schedule, max_prec=cfg.max_prec)


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(cfg: RunConfig) -> int:
    plan = make_plan(cfg.alpha, cfg.x0, cfg.delta, cfg.psi(), cfg.steps,
                     theta=cfg.theta, c1=cfg.c1, toy=cfg.toy,
                     max_prec=cfg.max_prec)
    schedule = schedule_X(plan, max_prec=cfg.max_prec)
    path = _outpath(cfg, "plan.json")
    dump_document(path, "plan", plan_body(plan, schedule))
    print(f"plan: x1 norm^2 {plan.x1_sq}, exponents {schedule.exponents}")
    print(f"wrote {path}")
    return 0


def cmd_build(cfg: RunConfig) -> int:
    state = _mk_state(cfg)
    path = _outpath(cfg, "state.json")
    dump_document(path, "state", state_body(state))
    n_verdicts = (len(state.base_verdicts)
                  + sum(len(e.verdicts) for e in state.ledger)
                  + sum(len(c.verdicts) for c in state.step_certs))
    print(f"build: {state.n_steps} steps, {n_verdicts} certificates pass")
    print(f"wrote {path}")
    return 0


def _verdict_rank(violations: int, undecided: int) -> int:
    if violations:
        return 1
    if undecided:
        return 2
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    state = _mk_state(cfg)
    results: Dict[str, object] = {}
    lines: List[str] = []
    violations = undecided = 0

    def note(line: str) -> None:
        lines.append(line)
        print(line)

    if cfg.mode in ("all", "audit"):
        ledger = starred_ledger_audit(state, max_prec=cfg.max_prec)
        results["audit"] = report_body(ledger)
        bad = ledger.failures
        violations += len(bad)
        note(f"audit: {len(ledger.clauses)} clauses, "
             + ("all pass" if not bad else f"failing: {', '.join(bad)}"))

    if cfg.mode in ("all", "witness"):
        wit = check_condition_iii(state, max_prec=cfg.max_prec)
        results["witness"] = report_body(wit)
        violations += len(wit.failures)
        undecided += len(wit.undecided)
        note(f"witness: {len(wit.samples)} samples, "
             f"{len(wit.failures)} failures, {len(wit.undecided)} undecided")

    if cfg.mode in ("all", "box"):
        boxes = []
        for i in range(2, state.n_steps):
            rep = coeff_box_lemma3(state, i, k_bound=cfg.k,
                                   max_prec=cfg.max_prec)
            boxes.append(report_body(rep))
            violations += len(rep.violations)
            undecided += len(rep.undecided)
            note(f"box i={i}: {rep.points_total} points, {rep.in_window} in "
                 f"window, {len(rep.violations)} violations, "
                 f"{len(rep.undecided)} undecided")
        results["boxes"] = boxes

    if cfg.mode in ("all", "slab"):
        b = cfg.b
        if b is None:
            cpr_sq = state.scale(2).sq / Fraction(state.plan.x1_sq)
            b = 2 * _frac_sqrt_up(cpr_sq)
        rep = slab_scan_iv(state, b, psi=cfg.psi(), k_near=cfg.k_near,
                           threads=cfg.threads, max_prec=cfg.max_prec)
        results["slab"] = report_body(rep)
        violations += len(rep.violations) + len(rep.positivity_failures)
        undecided += len(rep.undecided)
        if rep.below_threshold:
            note("slab: bound below the entry norm, nothing to scan")
        else:
            note(f"slab: {rep.lines} lines, {rep.candidates} candidates, "
                 f"{rep.fast_passed} fast, {rep.slow_checked} slow, "
                 f"{len(rep.violations)} violations, "
                 f"{len(rep.undecided)} undecided")
            if rep.skipped_clauses:
                note(f"slab: size-threshold clauses not satisfied at this "
                     f"scale: {', '.join(rep.skipped_clauses)}")

    if cfg.mode in ("all", "properties"):
        prop = property_suites(cfg.seed)
        results["properties"] = report_body(prop)
        fails = sum(len(f) for _, _, f in prop.suites)
        violations += fails
        note(f"properties: {len(prop.suites)} suites, {fails} failures")

    rank = _verdict_rank(violations, undecided)
    body = {
        "config": _config_body(cfg),
        "results": results,
        "summary": {"violations": str(violations), "undecided": str(undecided),
                    "verdict": ("pass", "violation", "undecided")[rank],
                    "lines": lines},
    }
    path = _outpath(cfg, "cert.json")
    dump_document(path, "certificate", body)
    print(f"wrote {path}")
    return rank


def _frac_sqrt_up(fr: Rat) -> Rat:
    from .balls import BallReal
    return BallReal.wrap(fr).sqrt().refined_to(96).hi


def _config_body(cfg: RunConfig) -> dict:
    body = {}
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, Fraction):
            v = f"{v.numerator}/{v.denominator}"
        elif isinstance(v, IVec3):
            v = ",".join(str(c) for c in v.as_tuple())
        body[f.name] = v
    return body


def _payload_str(p: dict) -> str:
    """Human-readable magnitude of a dyadic payload."""
    man = int(p["mid_man"])
    if man == 0:
        rad = int(p["rad_man"])
        if rad == 0:
            return "0"
        return f"<{_pow2_str(rad, int(p['rad_exp']))}"
    return _pow2_str(man, int(p["mid_exp"]))


def _pow2_str(man: int, exp: int) -> str:
    log10 = (math.log10(abs(man)) + exp * math.log10(2))
    e = math.floor(log10)
    lead = 10 ** (log10 - e)
    sign = "-" if man < 0 else ""
    return f"{sign}{lead:.3f}e{e:+d}"


def _report_text(state_doc: dict, cert: Optional[dict]):
    """Markdown lines and csv rows of a loaded state (and certificate)."""
    md: List[str] = ["# run report", ""]
    plan = state_doc["plan"]
    md.append(f"- alpha preset: {plan['alpha']}, C1 = {plan['c1']}")
    md.append(f"- delta = {plan['delta']}, delta0^2 = {plan['delta0_sq']}, "
              f"steps = {plan['n_steps']}, toy = {plan['toy']}")
    md.append(f"- x1 = ({', '.join(plan['x1'])}), multiplier = {plan['multiplier']}")
    md.append(f"- scale exponents: {', '.join(plan['exponents'])}")
    inv = plan.get("invariant_failures", [])
    if inv:
        md.append(f"- schedule invariants not met at this scale: {', '.join(inv)}")
    md.append("")
    md.append("| i | x bits | delta_i (upper) | x_i.u (upper) |")
    md.append("|---|--------|-----------------|---------------|")
    csv_rows = ["i,x_bits,delta_up,xu_up"]
    for entry in state_doc["series"]:
        delta = _payload_str(entry["delta_up"]) if "delta_up" in entry else ""
        xu = _payload_str(entry["xu_up"]) if "xu_up" in entry else ""
        md.append(f"| {entry['i']} | {entry['x_bits']} | {delta} | {xu} |")
        csv_rows.append(f"{entry['i']},{entry['x_bits']},{delta},{xu}")
    md.append("")

    if cert is not None:
        md.append("## verification summary")
        md.append("")
        for line in cert["summary"]["lines"]:
            md.append(f"- {line}")
        md.append(f"- overall: {cert['summary']['verdict']}")
        md.append("")
    return md, csv_rows


def cmd_report(cfg: RunConfig, state_path: str, cert_path: Optional[str]) -> int:
    """Format a stored state (and certificate); nothing is rebuilt or replayed."""
    state_doc = load_document(state_path, "state")
    cert = load_document(cert_path, "certificate") if cert_path is not None else None
    try:
        md, csv_rows = _report_text(state_doc, cert)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed document, missing or mistyped field: {exc!r}") from None

    md_path = _outpath(cfg, "report.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(md) + "\n")
    csv_path = _outpath(cfg, "series.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    print(f"wrote {md_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--alpha", default=None)
    sub.add_argument("--delta", default=None)
    sub.add_argument("--x0", default=None)
    sub.add_argument("--psi-c", dest="psi_c", default=None)
    sub.add_argument("--psi-e", dest="psi_e", default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--theta", default=None)
    sub.add_argument("--B", dest="b", default=None)
    sub.add_argument("--K", dest="k", type=int, default=None)
    sub.add_argument("--K-near", dest="k_near", type=int, default=None)
    sub.add_argument("--max-prec", dest="max_prec", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--toy", action="store_const", const=True, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gammacert",
        description="certified golden-ratio approximation constructions")
    subs = ap.add_subparsers(dest="command", required=True)
    for name in ("plan", "build", "verify"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "verify":
            sub.add_argument("--mode", choices=MODES, default=None)
    rep = subs.add_parser("report")
    _add_common(rep)
    rep.add_argument("--state", required=True, help="state.json path")
    rep.add_argument("--cert", default=None, help="cert.json path")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_sources(args.config, _flag_overrides(args))
        if args.command == "plan":
            return cmd_plan(cfg)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "report":
            return cmd_report(cfg, args.state, args.cert)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except GammaCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
