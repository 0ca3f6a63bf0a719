"""Command-line driver: plan / build / verify / report.

Exit codes: 0 all certificates pass (or the scan is below its threshold),
1 a certificate failed or a violation was found, 2 a comparison stayed
undecided at the precision cap, 3 invalid input (usage error, bad config,
corrupt or mismatched document, unusable parameters).

All artifacts are canonical JSON with content hashes; running the same
configuration twice produces byte-identical plan documents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .balls import DEFAULT_MAX_PREC, DEFAULT_PREC
from .builder import ConstructionState, build
from .errors import CertificateFailure, GammaCertError, InputError, UndecidedError
from .exact import IVec3
from .planner import Plan, PsiSpec, Schedule, make_plan, schedule_X
from .record import record
from .scan import slab_scan_iv
from .serialize import (dump_document, load_document, plan_body, report_body,
                        state_body)
from .verifier import (PropertyReport, check_condition_iii, clean_report,
                       coeff_box_lemma3, export_alpha_beta, property_suites,
                       starred_ledger_audit)

Rat = Fraction

MODES = ("all", "slab", "box", "witness", "properties", "audit")
LIMIT_DIGITS = 10  # significant digits of each bound build and report print
PAYLOAD_EXP_LIMIT = 1 << 22  # report's cap on |exponent| (6-step honest: 420,809)


@record
class RunConfig:
    """Each run parameter's name, type and default, stated once: the config
    keys, the flags and the overrides are derived from these fields, and
    each value is parsed by its declared type."""

    alpha: str = "sqrt2m1"
    c1: Optional[Rat] = None  # None takes the preset minimum; config file only
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
    threads: int = 1  # only 1 is accepted; kept because cert.json echoes it
    seed: int = 0
    out: str = "."
    mode: str = "all"  # a flag of `verify` only
    toy: bool = False

    def psi(self) -> PsiSpec:
        return PsiSpec(c=self.psi_c, e=self.psi_e)


def _rat(name: str, v: object) -> Rat:
    # a JSON bool is no number; Fraction would expand an exponent in full
    if type(v) not in (int, str) or (type(v) is str and "e" in v.lower()):
        raise InputError(f"config key {name} must be an integer or a string "
                         f"of the form n, n/d or a plain decimal, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {v!r} for {name}: {exc}") from None


def _exact(kind: type, what: str):
    def parse(name: str, v: object):
        if type(v) is not kind:
            raise InputError(f"config key {name} must be {what}")
        return v
    return parse


def _vec(name: str, v: object) -> IVec3:
    if isinstance(v, list):
        v = ",".join(str(c) for c in v)
    parts = v.split(",") if isinstance(v, str) else []
    try:
        return IVec3(*(int(p) for p in parts))  # TypeError: not three parts
    except (TypeError, ValueError):
        raise InputError(f"{name} needs three comma-separated integers, "
                         f"got {v!r}") from None


# one parser per declared field type (the annotations are strings here)
_PARSERS = {
    "Rat": _rat,
    "Optional[Rat]": lambda name, v: None if v is None else _rat(name, v),
    "int": _exact(int, "an integer"),
    "str": _exact(str, "a string"),
    "bool": _exact(bool, "true or false"),
    "IVec3": _vec,
}
_FIELD_PARSERS = {name: _PARSERS[kind] for name, kind in RunConfig.__annotations__.items()}

# the least value of each bounded integer parameter; b, when set, must be positive
_LEAST = {"steps": 1, "k": 1, "k_near": 1, "max_prec": DEFAULT_PREC}


def config_from_sources(config_path: Optional[str],
                        overrides: Dict[str, object]) -> RunConfig:
    """Merge a JSON config file with command-line overrides.

    Unknown keys in the file are rejected so typos cannot silently fall back
    to defaults; a key that is absent from both takes the field default.
    """
    values: Dict[str, object] = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"cannot read config {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object")
        values.update(raw)
    values.update(overrides)
    unknown = sorted(set(values) - set(_FIELD_PARSERS))
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig(**{name: _FIELD_PARSERS[name](name, v)
                       for name, v in values.items()})
    if cfg.mode not in MODES:
        raise InputError(f"mode must be one of {', '.join(MODES)}")
    for name, least in _LEAST.items():
        if getattr(cfg, name) < least:
            raise InputError(f"{name} must be at least {least}")
    if cfg.threads != 1:
        raise InputError("threads must be 1: the slab scan runs in one process")
    if cfg.b is not None and cfg.b <= 0:
        raise InputError("b must be positive")
    return cfg


def _flag_overrides(args: argparse.Namespace) -> Dict[str, object]:
    return {k: v for k, v in vars(args).items()
            if k in _FIELD_PARSERS and v is not None}


def _plan(cfg: RunConfig) -> Tuple[Plan, Schedule]:
    plan = make_plan(cfg.alpha, cfg.x0, cfg.delta, cfg.psi(), cfg.steps,
                     theta=cfg.theta, c1=cfg.c1, toy=cfg.toy,
                     max_prec=cfg.max_prec)
    return plan, schedule_X(plan, max_prec=cfg.max_prec)


def _mk_state(cfg: RunConfig) -> ConstructionState:
    return build(*_plan(cfg), max_prec=cfg.max_prec)


@contextmanager
def _output(cfg: RunConfig, name: str) -> Iterator[str]:
    """The path of `name` under --out; failing to create or write it is an input error."""
    path = os.path.join(cfg.out, name)
    try:
        os.makedirs(cfg.out, exist_ok=True)
        yield path
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot write {path}: {exc}") from None


class _SuitesChild:
    """property_suites(seed) run in a forked child while the parent builds
    and checks the state; the suites read nothing but the seed.

    The child prints nothing and leaves through os._exit, so it never
    flushes the stdio buffers it inherited: with status 0 when no suite
    lists a failure, else 1.  The suites are seeded and deterministic, so
    status 0 stands for clean_report(seed).  Where os.fork is missing or
    fails, where another thread runs (the child would inherit any lock that
    thread holds, never to be released), or where the child does not exit
    with 0, report() runs the suites in the parent, so failures and
    exceptions surface as from a direct call.  So does a process whose
    SIGCHLD is ignored, or whose SIGCHLD handler reaps the child, where
    waitpid cannot see the status: there the parent reruns the suites, about
    50 ms.  close() kills and reaps a child that report() has not reaped.
    """

    def __init__(self, seed: int) -> None:
        import threading

        self.seed = seed
        self.pid: Optional[int] = None
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: the parent runs the suites
            return
        if self.pid == 0:
            code = 1
            try:
                if not any(fails for _, _, fails in property_suites(seed).suites):
                    code = 0
            finally:
                os._exit(code)

    def report(self) -> PropertyReport:
        if self.pid is not None and self._reap() == 0:
            return clean_report(self.seed)
        return property_suites(self.seed)

    def close(self) -> None:
        """Kill and reap the child unless report() has reaped it."""
        if self.pid is not None:
            import signal

            with suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> Optional[int]:
        """The child's wait status; None where it was reaped already."""
        status = None
        with suppress(ChildProcessError):
            status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return status


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(cfg: RunConfig) -> int:
    plan, schedule = _plan(cfg)
    with _output(cfg, "plan.json") as path:
        dump_document(path, "plan", plan_body(plan, schedule))
    print(f"plan: x1 norm^2 {plan.x1_sq}, exponents {schedule.exponents}")
    print(f"wrote {path}")
    return 0


def cmd_build(cfg: RunConfig) -> int:
    state = _mk_state(cfg)
    with _output(cfg, "state.json") as path:
        dump_document(path, "state", state_body(state))
    n_verdicts = (len(state.base_verdicts)
                  + sum(len(e.verdicts) for e in state.ledger)
                  + sum(len(c.verdicts) for c in state.step_certs))
    print(f"build: {state.n_steps} steps, {n_verdicts} certificates pass")
    print(f"wrote {path}")
    (a_lo, a_hi), (b_lo, b_hi) = export_alpha_beta(state.u_enclosures[state.last_index])
    print(f"limit: alpha in [{_decimal(a_lo, math.floor)}, {_decimal(a_hi, math.ceil)}], "
          f"beta in [{_decimal(b_lo, math.floor)}, {_decimal(b_hi, math.ceil)}]")
    return 0


def _decimal(x: Rat, rounding: Callable[[Rat], int]) -> str:
    """x to LIMIT_DIGITS significant digits, rounded by math.floor or
    math.ceil; in scientific notation below 10^-4 and from 10^LIMIT_DIGITS,
    as %g writes it.  The work is in plain integers, so a dyadic of
    hundreds of thousands of bits takes milliseconds."""
    if x == 0:
        return "0"

    def scaled(k: int) -> Tuple[int, int]:  # x 10^k, over a positive denominator
        if k >= 0:
            return x.numerator * 10 ** k, x.denominator
        return x.numerator, x.denominator * 10 ** -k

    # e = floor(log10 |x|), within one of its estimate from the bit lengths
    e = (abs(x.numerator).bit_length() - x.denominator.bit_length()) * 30103 // 100000
    n, d = scaled(-e)
    while not d <= abs(n) < 10 * d:
        e += 1 if abs(n) >= d else -1
        n, d = scaled(-e)
    q, r = divmod(*scaled(LIMIT_DIGITS - 1 - e))
    q = rounding(Fraction(2 * q + (r != 0), 2))  # q or q + 1/2: the same floor and ceiling
    if abs(q) == 10 ** LIMIT_DIGITS:  # rounded out to the next power of ten
        q, e = q // 10, e + 1
    sign, digits = "-" if q < 0 else "", str(abs(q))
    if e < -4 or e >= LIMIT_DIGITS:
        return f"{sign}{digits[0]}.{digits[1:]}e{e}"
    places = LIMIT_DIGITS - 1 - e
    whole, frac = divmod(abs(q), 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def cmd_verify(cfg: RunConfig) -> int:
    # box indexes run over 2..steps-1 and the v/w enclosures need three steps
    if cfg.mode in ("all", "box", "slab") and cfg.steps < 3:
        raise InputError(f"verify --mode {cfg.mode} needs at least 3 steps")
    suites = _SuitesChild(cfg.seed) if cfg.mode in ("all", "properties") else None
    try:
        return _verify(cfg, suites)
    finally:
        if suites is not None:
            suites.close()


def _verify(cfg: RunConfig, suites: Optional[_SuitesChild]) -> int:
    state = _mk_state(cfg)
    results: Dict[str, object] = {}
    lines: List[str] = []
    violations = undecided = 0

    def note(line: str) -> None:
        lines.append(line)
        print(line)

    if cfg.mode in ("all", "audit", "slab"):  # the slab discloses its failures
        ledger = starred_ledger_audit(state, max_prec=cfg.max_prec)
    if cfg.mode in ("all", "audit"):
        results["audit"] = report_body(ledger)
        violations += len(ledger.refuted)
        undecided += len(ledger.undecided)
        parts = [f"{label}: {', '.join(names)}" for label, names
                 in (("failing", ledger.refuted), ("undecided", ledger.undecided))
                 if names]
        note(f"audit: {len(ledger.clauses)} clauses, "
             + ("; ".join(parts) or "all pass"))

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
        rep = slab_scan_iv(state, cfg.b, skipped_clauses=ledger.refuted,
                           k_near=cfg.k_near, max_prec=cfg.max_prec)
        results["slab"] = report_body(rep)
        violations += len(rep.violations) + len(rep.positivity_failures)
        undecided += len(rep.undecided)
        if rep.below_threshold:
            note("slab: bound below the entry norm, nothing to scan")
        else:
            if not rep.candidates and rep.undecided:  # the shell was not scanned
                note(f"slab: not scanned, undecided: {', '.join(rep.undecided)}")
            else:
                note(f"slab: {rep.lines} lines, {rep.candidates} candidates, "
                     f"{rep.fast_passed} fast, {rep.slow_checked} slow, "
                     f"{len(rep.violations)} violations, "
                     f"{len(rep.undecided)} undecided")
            if rep.skipped_clauses:
                note(f"slab: size-threshold clauses not satisfied at this "
                     f"scale: {', '.join(rep.skipped_clauses)}")

    if suites is not None:
        prop = suites.report()
        results["properties"] = report_body(prop)
        fails = sum(len(f) for _, _, f in prop.suites)
        violations += fails
        note(f"properties: {len(prop.suites)} suites, {fails} failures")

    rank = 1 if violations else 2 if undecided else 0
    body = {
        "config": _config_body(cfg),
        "results": results,
        "summary": {"violations": str(violations), "undecided": str(undecided),
                    "verdict": ("pass", "violation", "undecided")[rank],
                    "lines": lines},
    }
    with _output(cfg, "cert.json") as path:
        dump_document(path, "certificate", body)
    print(f"wrote {path}")
    return rank


def _config_body(cfg: RunConfig) -> dict:
    body = {}
    for name in RunConfig._fields:
        v = getattr(cfg, name)
        if isinstance(v, Fraction):
            v = f"{v.numerator}/{v.denominator}"
        elif isinstance(v, IVec3):
            v = ",".join(str(c) for c in v.as_tuple())
        body[name] = v
    return body


def _payload_upper(p: dict) -> str:
    """mid + rad of a dyadic payload, the top of its interval, rounded up."""
    ends = [(int(p[f"{part}_man"]), int(p[f"{part}_exp"])) for part in ("mid", "rad")]
    if any(abs(exp) > PAYLOAD_EXP_LIMIT for _, exp in ends):
        raise OverflowError("payload exponent too large")
    return _decimal(sum(man * Fraction(2) ** exp for man, exp in ends), math.ceil)


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
        delta = _payload_upper(entry["delta_up"]) if "delta_up" in entry else ""
        xu = _payload_upper(entry["xu_up"]) if "xu_up" in entry else ""
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
        # a JSON string may hold a lone surrogate, which UTF-8 cannot encode
        md, csv_rows = (("\n".join(rows) + "\n").encode("utf-8")
                        for rows in _report_text(state_doc, cert))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed document, missing or mistyped field: {exc}") from None

    with _output(cfg, "report.md") as md_path, open(md_path, "wb") as fh:
        fh.write(md)
    with _output(cfg, "series.csv") as csv_path, open(csv_path, "wb") as fh:
        fh.write(csv_rows)
    print(f"wrote {md_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (invalid input); argparse's own 2 means undecided here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# flags not spelled `--` + the field name with `_` as `-`
_FLAG_SPELLING = {"b": "--B", "k": "--K", "k_near": "--K-near"}

# (flag, field name, add_argument keywords) of each field's flag; c1 is set
# by the config file only and mode by `verify --mode`
_FLAGS = [(_FLAG_SPELLING.get(name, "--" + name.replace("_", "-")), name,
           dict(action="store_const", const=True) if kind == "bool"
           else dict(type=int if kind == "int" else None))
          for name, kind in RunConfig.__annotations__.items()
          if name not in ("c1", "mode")]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON config file")
    for flag, name, how in _FLAGS:
        sub.add_argument(flag, dest=name, **how)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
        if args.command == "report":
            return cmd_report(cfg, args.state, args.cert)
        return {"plan": cmd_plan, "build": cmd_build,
                "verify": cmd_verify}[args.command](cfg)
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except GammaCertError as exc:  # InputError and any other package error
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
