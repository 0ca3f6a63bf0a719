"""Command-line driver: exit codes, artifacts, config plumbing."""

import ast
import copy
import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacert import cli, verifier
from gammacert.balls import sqrt_int
from gammacert.cli import (MODES, RunConfig, _config_body, _flag_overrides,
                           build_parser, config_from_sources, main)
from gammacert.errors import CertificateFailure, InputError, UndecidedError
from gammacert.exact import IVec3
from gammacert.serialize import body_hash, dump_document, load_document

TOY_FLAGS = ["--alpha", "sqrt2m1", "--x0", "0,0,1", "--delta", "4/5",
             "--theta", "3/10", "--steps", "5", "--toy"]


def run(args, out):
    return main(args + ["--out", str(out)])


def test_plan_bytes_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["plan"] + TOY_FLAGS, d1) == 0
    assert run(["plan"] + TOY_FLAGS, d2) == 0
    assert (d1 / "plan.json").read_bytes() == (d2 / "plan.json").read_bytes()
    doc = load_document(str(d1 / "plan.json"), "plan")
    assert doc["multiplier"] == "4"
    assert doc["exponents"] == ["14", "55", "213", "826", "3202"]


def test_build_writes_state(tmp_path, capsys, toy_state):
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    doc = load_document(str(tmp_path / "state.json"), "state")
    assert len(doc["xs"]) == 7
    assert doc["xs"][1] == ["-1", "4", "13"]
    # the limit line's outward decimals hold the certified (alpha, beta)
    limit = re.fullmatch(r"limit: alpha in \[(\S+), (\S+)\], beta in \[(\S+), (\S+)\]",
                         capsys.readouterr().out.splitlines()[2])
    a_lo, a_hi, b_lo, b_hi = map(Fraction, limit.groups())
    (ea_lo, ea_hi), (eb_lo, eb_hi) = verifier.export_alpha_beta(
        toy_state.u_enclosures[toy_state.last_index])
    assert a_lo <= ea_lo <= ea_hi <= a_hi and b_lo <= eb_lo <= eb_hi <= b_hi
    assert a_lo <= Fraction("0.239538296125") <= a_hi
    assert b_lo <= Fraction("0.003218985807") <= b_hi


def test_verify_audit_flags_toy_scale(tmp_path):
    rc = run(["verify", "--mode", "audit"] + TOY_FLAGS, tmp_path)
    assert rc == 1
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert cert["summary"]["verdict"] == "violation"
    assert cert["summary"]["undecided"] == "0"
    assert any(c["name"] == "q_below_qn"
               for c in cert["results"]["audit"]["clauses"])


TOY_AUDIT_FAILURES = ["q_below_qn", "mid_norm_margin", "mid_norm_const",
                      "plane_const", "scale_floor", "contraction_seed",
                      "axis_const_i1"]


# sha256 of the canonical toy `verify --mode all --K 3` cert.json body
# without its per-run fields (the echoed seed and output directory, the
# property suites' seed)
TOY_CERT_DIGEST = "3fcc48b5dedbbbf8eb9079aadd9a867b8155e28f1748d0645fb390547e2ccb63"


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _run_python(argv, timeout):
    """`python <argv>` in a subprocess, with this checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                          text=True, timeout=timeout)


def _run_module(argv, timeout, python_flags=()):
    """`python -m gammacert` in a subprocess, with this checkout's src first."""
    return _run_python([*python_flags, "-m", "gammacert"] + argv, timeout)


# runs toy commands in process and prints, after the import and after each
# command, its exit code and whether numpy and concurrent.futures are loaded
NUMPY_PROBE = """
import json, os, sys
from gammacert import cli
out, flags = sys.argv[1], sys.argv[2:]
loaded = lambda: ["numpy" in sys.modules, "concurrent.futures" in sys.modules]
seen = [["import", None, loaded()]]
for name, argv in (("plan", ["plan"]), ("build", ["build"]),
                   ("report", ["report", "--state",
                               os.path.join(out, "state.json")]),
                   ("audit", ["verify", "--mode", "audit"]),
                   ("slab", ["verify", "--mode", "slab", "--threads", "1"])):
    rc = cli.main(argv + flags + ["--out", out])
    seen.append([name, rc, loaded()])
print(json.dumps(seen))
"""


def test_no_command_loads_numpy(tmp_path):
    # the package uses neither numpy (the slab kernel is pure integer
    # arithmetic) nor concurrent.futures, so no command, the slab scan
    # included, pays for either import
    got = _run_python(["-c", NUMPY_PROBE, str(tmp_path)] + TOY_FLAGS, 600)
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout.splitlines()[-1]) == [
        ["import", None, [False, False]], ["plan", 0, [False, False]],
        ["build", 0, [False, False]], ["report", 0, [False, False]],
        ["audit", 1, [False, False]], ["slab", 0, [False, False]]]


def test_third_party_imports_are_the_runtime_dependencies():
    # every top-level import under src/gammacert outside the standard
    # library and the package itself is a runtime dependency, and every
    # runtime dependency is imported
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[\w.-]+", dep).group() for dep in deps}
    src = os.path.join(ROOT, "src", "gammacert")
    imported = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gammacert"}
    assert third_party == names == {"mpmath"}


def test_verify_all_under_optimize(tmp_path):
    # no certificate rests on an assert: `python -O` strips them, and the
    # full toy verification must still reach the same verdicts
    got = _run_module(["verify", "--mode", "all", "--K", "3", "--threads", "1",
                       "--out", str(tmp_path)] + TOY_FLAGS, 600, ["-O"])
    assert got.returncode == 1, got.stderr
    results = load_document(str(tmp_path / "cert.json"), "certificate")["results"]
    assert [c["name"] for c in results["audit"]["clauses"]
            if c["passed"] is not True] == TOY_AUDIT_FAILURES
    assert results["witness"]["failures"] == []
    assert [b["violations"] for b in results["boxes"]] == [[], [], []]
    assert results["slab"]["violations"] == []
    assert results["slab"]["slow_checked"] == "88"
    body = load_document(str(tmp_path / "cert.json"), "certificate")
    assert "wall_time_s" not in _all_keys(body)
    del body["config"]["seed"], body["config"]["out"]
    del body["results"]["properties"]["seed"]
    assert body_hash(body) == TOY_CERT_DIGEST


def test_src_has_no_assert():
    # `python -O` strips asserts, so no check in the package may be one
    src = os.path.join(ROOT, "src", "gammacert")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# defaulted parameters that no call in src/ or perfbench/ sets, each kept on
# purpose
UNSET_DEFAULTS_ALLOWED = {
    # certified_compare goes with the benchmark re-pin, which also moves its
    # tracer span in perfbench/spans.py to cert_le
    "certified_compare.max_prec",
    # the tests draw other case counts: the work guard compares 200 with 0
    "property_suites.cases",
}


def _parsed(*dirs):
    for d in dirs:
        for dirpath, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield ast.parse(fh.read(), path)


def _sets(call, index, name):
    """Whether `call` passes parameter `name` (position `index`, None for keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a **mapping
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def test_src_defaults_are_set_by_some_caller():
    # a default that no caller overrides is a constant spelled as a parameter
    calls = [(getattr(node.func, "id", None) or getattr(node.func, "attr", None), node)
             for tree in _parsed("src", "perfbench")
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = set()
    for tree in _parsed(os.path.join("src", "gammacert")):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            params = list(enumerate(p.arg for p in pos))[len(pos) - len(a.defaults):]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            unset |= {f"{fn.name}.{name}" for index, name in params
                      if not any(callee == fn.name and _sets(call, index, name)
                                 for callee, call in calls)}
    assert unset == UNSET_DEFAULTS_ALLOWED


# functions and methods of the package that no code in src/ or perfbench/
# references, each kept on purpose
UNREFERENCED_ALLOWED = {
    # perfbench/spans.py wraps it by name until the benchmark re-pin moves
    # that span to cert_le
    "certified_compare",
    # the bound |q alpha - p| >= 1/(C1 q) that `properties` is to certify on
    # the run's own table (ROADMAP direction 9)
    "certify_bad_approx",
    # exact rational Y for the step's hand fixtures
    "YSpec.of_rational",
    # argparse calls it: the override makes a usage error exit 3
    "_Parser.error",
}


def _functions(node, prefix=""):
    """(qualified name, node) of every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _functions(child, f"{prefix}{child.name}.")


def _names(node):
    """Every identifier read as a name or an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_src_functions_are_referenced():
    # a function that only tests call is API kept for the tests alone; an
    # import (the package top's re-export included) is not a reference
    refs = Counter()
    for tree in _parsed("src", "perfbench"):
        refs.update(_names(tree))
    unreferenced = {
        qualname for tree in _parsed(os.path.join("src", "gammacert"))
        for qualname, fn in _functions(tree)
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and refs[fn.name] <= _names(fn)[fn.name]}
    assert unreferenced == UNREFERENCED_ALLOWED


# certificate clauses that src/ raises by a literal name and that no test
# file names, each with the reason no test provokes it; every clause is
# provoked by some test now
UNNAMED_CLAUSES_ALLOWED: dict = {}


def _strings(node):
    """Every string constant under node, except the allow-list above."""
    if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "UNNAMED_CLAUSES_ALLOWED" for t in node.targets):
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _strings(child)


def test_certificate_clauses_are_named_by_tests():
    # a clause that no test names can lose its raise, or its name, unseen
    # (ROADMAP direction 11); a test names a clause in a string constant
    raised = {node.args[0].value for tree in _parsed(os.path.join("src", "gammacert"))
              for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "CertificateFailure"
              and node.args and isinstance(node.args[0], ast.Constant)}
    named = " ".join(text for tree in _parsed("tests") for text in _strings(tree))
    unnamed = {c for c in raised if not re.search(rf"\b{c}\b", named)}
    assert len(raised) > len(unnamed)
    assert unnamed == set(UNNAMED_CLAUSES_ALLOWED)


# sha256 of the canonical honest `verify --mode audit` cert.json body, the
# same rule as TOY_CERT_DIGEST; it pins every plan-only and per-step audit
# interval of the default honest config
HONEST_AUDIT_DIGEST = "a13c78a3a5ebc2e533321d71d956dc1232e208e7329152d619f6fbea4a3c448e"

HONEST_FLAGS = ["--alpha", "sqrt2m1", "--x0", "0,0,1", "--delta", "1/2",
                "--steps", "5"]


def test_build_limit_line_shows_the_honest_pair(tmp_path, capsys, honest_state):
    # the honest pair lies near 1.4e-8 and 2.6e-22; each endpoint keeps
    # cli.LIMIT_DIGITS significant digits, rounded outward, so both show
    assert run(["build"] + HONEST_FLAGS, tmp_path) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line == ("limit: alpha in [1.360588200e-8, 1.360588201e-8], "
                    "beta in [2.572609104e-22, 2.572609105e-22]")
    a_lo, a_hi, b_lo, b_hi = map(Fraction, re.fullmatch(
        r"limit: alpha in \[(\S+), (\S+)\], beta in \[(\S+), (\S+)\]", line).groups())
    (ea_lo, ea_hi), (eb_lo, eb_hi) = verifier.export_alpha_beta(
        honest_state.u_enclosures[honest_state.last_index])
    assert a_lo <= ea_lo <= ea_hi <= a_hi and b_lo <= eb_lo <= eb_hi <= b_hi


@pytest.mark.parametrize("x, lo, hi", [
    (Fraction(-1, 3), "-0.3333333334", "-0.3333333333"),
    (Fraction(99999999999, 10 ** 10), "9.999999999", "10.00000000"),
    (Fraction(-99999999999, 10 ** 15), "-0.0001000000000", "-9.999999999e-5"),
    (Fraction(12345678901234), "1.234567890e13", "1.234567891e13"),
    (Fraction(7), "7.000000000", "7.000000000"),
    (Fraction(0), "0", "0"),
])
def test_limit_decimals_round_outward_to_significant_digits(x, lo, hi):
    assert cli._decimal(x, math.floor) == lo and cli._decimal(x, math.ceil) == hi
    assert Fraction(lo) <= x <= Fraction(hi)


def test_honest_audit_bytes_pinned(tmp_path):
    rc = run(["verify", "--mode", "audit", "--threads", "1"] + HONEST_FLAGS, tmp_path)
    assert rc == 1
    body = load_document(str(tmp_path / "cert.json"), "certificate")
    assert [c["name"] for c in body["results"]["audit"]["clauses"]
            if c["passed"] is not True] == ["plane_const"]
    del body["config"]["seed"], body["config"]["out"]
    assert body_hash(body) == HONEST_AUDIT_DIGEST


@pytest.fixture
def tie_clause(monkeypatch):
    # an audit clause that stays undecided at --max-prec 256; at theta = 2^31
    # every real clause passes
    clauses = verifier.plan_clauses
    monkeypatch.setattr(verifier, "plan_clauses", lambda plan: clauses(plan) + [
        ("tie", sqrt_int(2) * sqrt_int(2), 2)])
    return ["--theta", "2147483648", "--max-prec", "256"] + HONEST_FLAGS


def test_undecided_audit_clause_exits_2(tmp_path, tie_clause):
    # a clause still undecided at --max-prec is no certified violation, so
    # the run is undecided
    rc = run(["verify", "--mode", "audit"] + tie_clause, tmp_path)
    assert rc == 2
    summary = load_document(str(tmp_path / "cert.json"), "certificate")["summary"]
    assert (summary["violations"], summary["undecided"]) == ("0", "1")
    assert summary["verdict"] == "undecided"
    # the summary line names the clause as undecided, not as failing
    (line,) = [ln for ln in summary["lines"] if ln.startswith("audit:")]
    assert line.endswith("clauses, undecided: tie")
    assert "failing: tie" not in line


def test_undecided_audit_clause_is_not_skipped_by_the_slab(tmp_path, tie_clause, capsys):
    # the slab names only refuted clauses as not satisfied at this scale
    rc = run(["verify", "--mode", "slab"] + tie_clause, tmp_path)
    assert rc == 2
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert "tie" not in cert["results"]["slab"]["skipped_clauses"]
    lines = cert["summary"]["lines"] + capsys.readouterr().out.splitlines()
    assert not [ln for ln in lines if "not satisfied" in ln and "tie" in ln]


@pytest.mark.parametrize("theta", ["0", "-5"])
def test_nonpositive_theta_exits_3(tmp_path, theta):
    assert run(["plan"] + TOY_FLAGS + ["--theta", theta], tmp_path) == 3
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("max_prec, rc", [("0", 3), ("-5", 3), ("63", 3), ("64", 0)])
def test_max_prec_below_default_prec_exits_3(tmp_path, max_prec, rc):
    # every enclosure starts at 64 bits, so a lower cap could never bind
    assert run(["plan"] + TOY_FLAGS + ["--max-prec", max_prec], tmp_path) == rc
    assert (tmp_path / "plan.json").exists() == (rc == 0)


@pytest.mark.parametrize("flag, value", [
    ("--steps", "0"), ("--K", "0"), ("--K", "-4"), ("--K-near", "0"),
    ("--threads", "0"), ("--B", "0"), ("--B", "-1")])
def test_out_of_range_parameter_exits_3(tmp_path, capsys, flag, value):
    assert run(["plan"] + TOY_FLAGS + [flag, value], tmp_path) == 3
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("mode, rc", [("all", 3), ("box", 3), ("slab", 3),
                                      ("witness", 0)])
def test_verify_box_and_slab_need_three_steps(tmp_path, capsys, mode, rc):
    # box indexes run over 2..steps-1 and the v/w enclosures need three
    # steps, so a shorter run is refused before anything is checked
    assert run(["verify", "--mode", mode] + TOY_FLAGS + ["--steps", "2"], tmp_path) == rc
    assert (tmp_path / "cert.json").exists() == (rc == 0)
    assert ("witness:" in capsys.readouterr().out) == (mode == "witness")


@pytest.mark.parametrize("blocker", ["out_is_a_file", "artifact_is_a_directory"])
def test_unwritable_output_exits_3(tmp_path, capsys, blocker):
    out = tmp_path / "out"
    if blocker == "out_is_a_file":
        out.write_text("")
        named = out
    else:
        named = out / "plan.json"
        named.mkdir(parents=True)
    assert run(["plan"] + TOY_FLAGS, out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(named) in err


@pytest.mark.parametrize("command", ["plan", "report"])
def test_nul_byte_in_out_exits_3(tmp_path, toy_documents, command):
    # os.makedirs and open raise ValueError, not OSError, on such a path
    work = tmp_path / "work"
    work.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"out": str(work / "a\u0000b")}))
    argv = [command, "--config", str(cfgp)]
    if command == "plan":
        argv += ["--steps", "1"]
    else:
        dump_document(str(tmp_path / "state.json"), "state", toy_documents["state"])
        argv += ["--state", str(tmp_path / "state.json")]
    got = _run_module(argv, 120)
    assert got.returncode == 3, got.stderr
    assert got.stderr.startswith("error: cannot write") and "Traceback" not in got.stderr
    assert list(work.iterdir()) == []


# plan.json and state.json bodies hold no per-run field, so the benchmark's
# digest rule is their plain body hash; the honest pair are the benchmark's pins
BODY_DIGESTS = {
    ("toy", "plan"): "09236e5932f1f6d8c0a4d06615cb78688e7f715a0fcd23d5be87d2d94781725c",
    ("toy", "state"): "c43c0317fcd0bbd18773f0b3e4bbdab79ad580b77b27112b6029ab01919f035c",
    ("honest", "plan"): "0f93a10459cd31d974baf333cd48d8d3bd6f6e639913ea5d933101ec623d6245",
    ("honest", "state"): "ad08949f4272d902348a8b6b2861e77bbb6bd395f48d8f4636ba00682eaf0959",
}


@pytest.mark.parametrize("config, kind", sorted(BODY_DIGESTS))
def test_plan_and_state_bytes_pinned(tmp_path, config, kind):
    flags = TOY_FLAGS if config == "toy" else HONEST_FLAGS
    assert run(["plan" if kind == "plan" else "build"] + flags, tmp_path) == 0
    body = load_document(str(tmp_path / f"{kind}.json"), kind)
    assert body_hash(body) == BODY_DIGESTS[config, kind]


# the 6-step honest build at theta = 2^31 reaches convergent row 73,610, and
# its last a-selection jumps once, to 56,438 bits (a's bit length plus 64),
# just below the 2^16-bit precision cap
SIX_STEP_STATE_DIGEST = "e98df8fa68a76418857da79ddf4c0269fe9c56ac739ae059548322e0676e3258"


def test_six_step_honest_state_pinned(tmp_path):
    flags = HONEST_FLAGS[:-1] + ["6", "--theta", "2147483648"]
    assert run(["build"] + flags, tmp_path) == 0
    body = load_document(str(tmp_path / "state.json"), "state")
    assert body_hash(body) == SIX_STEP_STATE_DIGEST


def _all_keys(obj):
    if isinstance(obj, dict):
        return set(obj).union(*map(_all_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_all_keys, obj))
    return set()


def test_verify_all_runs_the_audit_once(tmp_path, monkeypatch):
    # the slab takes the audit's failures from cmd_verify: 35 clauses, once
    calls = []
    clause = verifier._clause

    def counted(out, name, *args):
        calls.append(name)
        clause(out, name, *args)

    monkeypatch.setattr(verifier, "_clause", counted)
    assert run(["verify", "--mode", "all", "--K", "3"] + TOY_FLAGS, tmp_path) == 1
    assert len(calls) == len(set(calls)) == 35
    slab = load_document(str(tmp_path / "cert.json"), "certificate")["results"]["slab"]
    assert slab["skipped_clauses"] == TOY_AUDIT_FAILURES


@pytest.mark.parametrize("argv, rc, counts", [
    (["verify", "--mode", "all", "--K", "3"] + TOY_FLAGS, 1, (178, 0)),
    (["verify", "--mode", "box", "--K", "3", "--theta", "2147483648"]
     + HONEST_FLAGS, 0, (126, 0)),
], ids=["toy-all", "honest-theta-2^31-box"])
def test_survivors_stay_off_the_interval_path(tmp_path, monkeypatch, argv, rc,
                                              counts):
    # the points that fail the boxes' and the slab's integer thresholds
    # reach the engine's certify, and its exact pre-test passes every one,
    # so none is left to the mpmath interval path
    engine = verifier.LowerBoundEngine
    sent, interval = [], []
    certify, intervals = engine.certify, engine._certify_intervals

    def counted_certify(self, x, lattice, max_prec):
        sent.append(x)
        return certify(self, x, lattice, max_prec)

    def counted_intervals(self, x, lattice, max_prec):
        interval.append(x)
        return intervals(self, x, lattice, max_prec)

    monkeypatch.setattr(engine, "certify", counted_certify)
    monkeypatch.setattr(engine, "_certify_intervals", counted_intervals)
    assert run(argv, tmp_path) == rc
    assert (len(sent), len(interval)) == counts


def test_verify_slab_writes_identical_bytes(tmp_path):
    # no wall clock or other per-run value enters cert.json
    assert run(["verify", "--mode", "slab"] + TOY_FLAGS, tmp_path) == 0
    first = (tmp_path / "cert.json").read_bytes()
    assert run(["verify", "--mode", "slab"] + TOY_FLAGS, tmp_path) == 0
    assert (tmp_path / "cert.json").read_bytes() == first


def test_honest_slab_out_of_reach_is_undecided(tmp_path):
    # the honest shell is past the int64 path: the run is written, exit 2
    rc = run(["verify", "--mode", "slab"] + HONEST_FLAGS, tmp_path)
    assert rc == 2
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    slab = cert["results"]["slab"]
    assert slab["undecided"] == ["slab_int64_reach:s_max_bits=128"]
    assert slab["lines"] == "0" and slab["below_threshold"] is False
    assert slab["skipped_clauses"] == ["plane_const"]
    assert cert["summary"]["verdict"] == "undecided"
    assert "slab: not scanned, undecided: slab_int64_reach" in "\n".join(
        cert["summary"]["lines"])


# the property suites run in a forked child while the parent builds and
# checks the state; the parent reads the child's exit status where the
# properties line is printed, and no child outlives cli.main


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child cli forks while the test runs."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("mode, rc", [("all", 1), ("properties", 0)])
def test_forked_suites_write_what_the_parent_would(tmp_path, monkeypatch,
                                                   capsys, forks, mode, rc):
    argv = ["verify", "--mode", mode, "--K", "3"] + TOY_FLAGS
    assert run(argv, tmp_path) == rc
    forked = capsys.readouterr(), (tmp_path / "cert.json").read_bytes()
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert run(argv, tmp_path) == rc
    assert (capsys.readouterr(), (tmp_path / "cert.json").read_bytes()) == forked
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("call, err", [("fork", errno.EAGAIN)], ids=["fork"])
def test_suites_stay_in_the_parent_where_pipe_or_fork_fails(
        tmp_path, monkeypatch, capsys, forks, call, err):
    # no process to spare: verify runs the suites itself and writes what a
    # platform without fork writes
    argv = ["verify", "--mode", "properties"] + TOY_FLAGS
    with monkeypatch.context() as patch:
        patch.setattr(os, call, _raise(OSError(err, os.strerror(err))))
        assert run(argv, tmp_path) == 0
    failed = capsys.readouterr(), (tmp_path / "cert.json").read_bytes()
    monkeypatch.delattr(os, "fork")
    assert run(argv, tmp_path) == 0
    assert (capsys.readouterr(), (tmp_path / "cert.json").read_bytes()) == failed
    assert forks == []
    _assert_no_child()


def test_modes_without_the_suites_fork_nothing(tmp_path, forks):
    assert run(["verify", "--mode", "witness"] + TOY_FLAGS, tmp_path) == 0
    assert forks == []


def test_suites_stay_in_the_parent_beside_another_thread(tmp_path, capsys, forks):
    argv = ["verify", "--mode", "properties"] + TOY_FLAGS
    assert run(argv, tmp_path) == 0
    forked = capsys.readouterr(), (tmp_path / "cert.json").read_bytes()
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert run(argv, tmp_path) == 0
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert (capsys.readouterr(), (tmp_path / "cert.json").read_bytes()) == forked
    assert len(forks) == 1


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


def _suites_acting_in_the_child(act):
    """property_suites that first runs act() when a forked child calls it."""
    parent, real = os.getpid(), verifier.property_suites

    def suites(seed):
        if os.getpid() != parent:
            act()
        return real(seed)
    return suites


@pytest.mark.parametrize("target, exc, rc", [
    (None, None, 1),
    ("_mk_state", InputError("no state"), 3),
    ("slab_scan_iv", InputError("no slab"), 3),
    ("slab_scan_iv", KeyboardInterrupt(), None),
], ids=["normal", "build-raises", "slab-raises", "interrupted"])
def test_no_child_outlives_verify(tmp_path, monkeypatch, forks, target, exc, rc):
    # where the parent fails first, the child is still in its suites and
    # is killed, not waited for
    if target is not None:
        monkeypatch.setattr(cli, target, _raise(exc))
        monkeypatch.setattr(cli, "property_suites",
                            _suites_acting_in_the_child(lambda: time.sleep(60)))
    argv = ["verify", "--mode", "all", "--K", "3"] + TOY_FLAGS
    start = time.perf_counter()
    if rc is None:
        with pytest.raises(KeyboardInterrupt):
            run(argv, tmp_path)
    else:
        assert run(argv, tmp_path) == rc
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("exc, rc, err", [
    (CertificateFailure("suite", "broke"), 1, "certificate failure: suite: broke\n"),
    (UndecidedError("suite", 64), 2, "undecided: undecided at 64 bits: suite\n"),
    (InputError("bad suite"), 3, "error: bad suite\n"),
])
def test_failing_suites_exit_as_from_a_direct_call(tmp_path, monkeypatch, capsys,
                                                   forks, exc, rc, err):
    # the child exits 1 and the parent runs the suites itself, so the
    # error surfaces once, from the parent, as it did when the parent alone
    # ran them
    monkeypatch.setattr(cli, "property_suites", _raise(exc))
    assert run(["verify", "--mode", "properties"] + TOY_FLAGS, tmp_path) == rc
    got = capsys.readouterr()
    assert got.err == err
    assert got.out.splitlines() == []
    assert len(forks) == 1
    _assert_no_child()


def test_child_without_a_report_leaves_the_suites_to_the_parent(
        tmp_path, monkeypatch, forks):
    argv = ["verify", "--mode", "properties"] + TOY_FLAGS
    assert run(argv, tmp_path) == 0
    want = (tmp_path / "cert.json").read_bytes()
    monkeypatch.setattr(cli, "property_suites", _suites_acting_in_the_child(
        lambda: os.kill(os.getpid(), signal.SIGKILL)))
    assert run(argv, tmp_path) == 0
    assert (tmp_path / "cert.json").read_bytes() == want
    assert len(forks) == 2
    _assert_no_child()


def _counted(suites, calls):
    """suites that first records the pid of the process calling it."""
    def counted(seed):
        calls.append(os.getpid())
        return suites(seed)
    return counted


def test_child_exit_status_stands_for_its_report(tmp_path, monkeypatch, forks):
    # the parent takes clean_report(seed) for a child that exits 0, so the
    # two must agree; it runs the suites itself only when the child does not
    # exit 0, here when the child is killed
    for seed in range(4):
        assert verifier.clean_report(seed) == verifier.property_suites(seed)
    argv = ["verify", "--mode", "properties"] + TOY_FLAGS
    kill = _suites_acting_in_the_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    for suites, parent_calls in ((verifier.property_suites, 0), (kill, 1)):
        calls = []
        monkeypatch.setattr(cli, "property_suites", _counted(suites, calls))
        assert run(argv, tmp_path) == 0
        assert calls == [os.getpid()] * parent_calls
    assert len(forks) == 2
    _assert_no_child()


@pytest.mark.parametrize("mode, rc", [("all", 1), ("properties", 1)])
def test_failing_suite_reported_as_without_fork(tmp_path, monkeypatch, capsys,
                                               forks, mode, rc):
    # a suite that lists a failure has the child exit 1; the parent reruns
    # the suites and writes what a platform without fork writes
    real = verifier.property_suites

    def failing(seed):
        prop = real(seed)
        return replace(prop, suites=((*prop.suites[0][:2], ("case0",)),) + prop.suites[1:])

    monkeypatch.setattr(cli, "property_suites", failing)
    argv = ["verify", "--mode", mode, "--K", "3"] + TOY_FLAGS
    assert run(argv, tmp_path) == rc
    forked = capsys.readouterr(), (tmp_path / "cert.json").read_bytes()
    assert "properties: 6 suites, 1 failures" in forked[0].out
    monkeypatch.delattr(os, "fork")
    assert run(argv, tmp_path) == rc
    assert (capsys.readouterr(), (tmp_path / "cert.json").read_bytes()) == forked
    assert len(forks) == 1
    _assert_no_child()


PRINT_THEN_VERIFY = """
import sys
from gammacert.cli import main
print("before verify")
sys.exit(main(sys.argv[1:]))
"""


def test_verify_through_a_pipe_prints_each_line_once(tmp_path, monkeypatch):
    # a pipe makes stdout block-buffered: a child that flushed the buffer
    # it inherited, or ran on past its report, would print lines twice,
    # which no in-process capture sees
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    config = os.path.join(ROOT, "perfbench", "configs", "toy.json")
    piped, inproc = tmp_path / "piped", tmp_path / "inproc"
    argv = ["verify", "--mode", "all", "--K", "3", "--config", config]
    got = _run_module(argv + ["--out", str(piped)], 600)
    assert got.returncode == 1, got.stderr
    assert got.stderr == ""
    body = load_document(str(piped / "cert.json"), "certificate")
    assert len(body["summary"]["lines"]) == 8
    assert got.stdout.splitlines() == (body["summary"]["lines"]
                                       + [f"wrote {piped / 'cert.json'}"])
    assert run(argv, inproc) == 1
    want = load_document(str(inproc / "cert.json"), "certificate")
    del body["config"]["out"], want["config"]["out"]
    assert body == want
    # a line still in the buffer when verify forks is printed once
    got = _run_python(["-c", PRINT_THEN_VERIFY, "verify", "--mode", "properties",
                       "--config", config, "--out", str(piped)], 600)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == ["before verify",
                                       "properties: 6 suites, 0 failures",
                                       f"wrote {piped / 'cert.json'}"]


def test_verify_witness_passes(tmp_path):
    rc = run(["verify", "--mode", "witness"] + TOY_FLAGS, tmp_path)
    assert rc == 0
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert cert["summary"]["verdict"] == "pass"
    assert cert["results"]["witness"]["failures"] == []


def test_verify_box_passes(tmp_path):
    rc = run(["verify", "--mode", "box"] + TOY_FLAGS, tmp_path)
    assert rc == 0
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert [b["index"] for b in cert["results"]["boxes"]] == ["2", "3", "4"]
    assert all(b["violations"] == [] for b in cert["results"]["boxes"])


def test_verify_slab_below_threshold(tmp_path):
    rc = run(["verify", "--mode", "slab", "--B", "1000"] + TOY_FLAGS, tmp_path)
    assert rc == 0
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert cert["results"]["slab"]["below_threshold"] is True
    assert any("nothing to scan" in ln for ln in cert["summary"]["lines"])


def test_report_artifacts(tmp_path):
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    rc = run(["report", "--state", str(tmp_path / "state.json")], tmp_path)
    assert rc == 0
    md = (tmp_path / "report.md").read_text()
    assert md.startswith("# run report")
    assert "| 6 | 3205 |" in md
    csv = (tmp_path / "series.csv").read_text().splitlines()
    assert csv[0] == "i,x_bits,delta_up,xu_up"
    assert len(csv) == 8
    assert csv[2].startswith("1,4,")
    assert "e-8" in csv[2]  # |x_1.u| upper bound ~ 1.3e-8


def _top(p):
    """mid + rad of a stored dyadic payload."""
    return sum(int(p[f"{part}_man"]) * Fraction(2) ** int(p[f"{part}_exp"])
               for part in ("mid", "rad"))


def test_report_prints_each_interval_top_rounded_up(tmp_path):
    # the "(upper)" columns hold mid + rad of the stored interval, rounded up
    # to cli.LIMIT_DIGITS significant digits, not its midpoint
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    assert run(["report", "--state", str(tmp_path / "state.json")], tmp_path) == 0
    series = load_document(str(tmp_path / "state.json"), "state")["series"]
    rows = [row.split(",") for row in
            (tmp_path / "series.csv").read_text().splitlines()[1:]]
    assert rows[1] == ["1", "4", "0.06492467850", "1.296520383e-8"]
    printed = 0
    for entry, (_, _, delta, xu) in zip(series, rows):
        for key, text in (("delta_up", delta), ("xu_up", xu)):
            if key in entry:
                top = _top(entry[key])
                assert top <= Fraction(text) < top * (1 + Fraction(1, 10 ** 9))
                printed += 1
    assert printed == 12
    # the radius counts where the midpoint alone rounds up to fewer digits
    payload = {"mid_man": "1", "mid_exp": "0", "rad_man": "1", "rad_exp": "-40"}
    assert cli._payload_upper(payload) == "1.000000001"


def test_report_with_cert_section(tmp_path):
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    assert run(["verify", "--mode", "witness"] + TOY_FLAGS, tmp_path) == 0
    rc = run(["report", "--state", str(tmp_path / "state.json"),
              "--cert", str(tmp_path / "cert.json")], tmp_path)
    assert rc == 0
    md = (tmp_path / "report.md").read_text()
    assert "## verification summary" in md
    assert "- overall: pass" in md


def test_corrupt_state_exits_3(tmp_path):
    path = tmp_path / "state.json"
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    doc = json.loads(path.read_text())
    doc["body"]["xs"][0] = ["1", "1", "1"]
    path.write_text(json.dumps(doc))
    assert run(["report", "--state", str(path)], tmp_path) == 3


def test_unknown_config_key_exits_3(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "4/5", "bogus": 1}))
    assert main(["plan", "--config", str(cfgp), "--out", str(tmp_path)]) == 3


def test_config_file_with_flag_override(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"alpha": "sqrt2m1", "delta": "4/5",
                                "theta": "3/10", "steps": 2, "toy": True}))
    rc = main(["plan", "--config", str(cfgp), "--steps", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = load_document(str(tmp_path / "plan.json"), "plan")
    assert doc["n_steps"] == "1"
    assert doc["delta"] == "4/5"


def test_bad_mode_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mode", "everything", "--out", str(tmp_path)])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["plan", "--steps", "abc"],
    ["verify", "--mode", "everything"],
    ["plan", "--bogus", "1"],
    ["plan", "--c1", "3"],  # c1 is a config-file key only
    ["report"],  # --state is required
    [],  # no subcommand
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_exit_3(tmp_path, capsys, argv):
    # argparse's own exit 2 would read as "undecided"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)] if argv else argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--K-near" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["delta", "psi_c", "psi_e"])
def test_required_rational_rejects_null(tmp_path, capsys, key):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "4/5", "theta": "3/10", "toy": True,
                                key: None}))
    assert main(["plan", "--config", str(cfgp), "--out", str(tmp_path)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("toy", ["false", 1, None])
def test_toy_must_be_json_boolean(tmp_path, toy):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "4/5", "theta": "3/10", "toy": toy}))
    assert main(["plan", "--config", str(cfgp), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("out", [None, 5])
def test_out_must_be_json_string(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "4/5", "theta": "3/10", "toy": True,
                                "out": out}))
    assert main(["plan", "--config", str(cfgp)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_alpha_must_be_json_string(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "4/5", "theta": "3/10", "toy": True,
                                "alpha": 5}))
    assert main(["plan", "--config", str(cfgp), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "plan.json").exists()


DEEP_JSON = "[" * 100000 + "]" * 100000


def test_deeply_nested_config_exits_3(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(DEEP_JSON)
    assert main(["plan", "--config", str(cfgp), "--out", str(tmp_path)]) == 3
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("flag", ["--state", "--cert"])
def test_deeply_nested_document_exits_3(tmp_path, capsys, flag):
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    state = str(tmp_path / "state.json")
    argv = {"--state": ["report", "--state", str(deep)],
            "--cert": ["report", "--state", state, "--cert", str(deep)]}[flag]
    capsys.readouterr()
    assert run(argv, tmp_path) == 3
    assert "cannot read document" in capsys.readouterr().err
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("text, value", [
    ("12", Fraction(12)), ("-4/5", Fraction(-4, 5)), ("0.8", Fraction(4, 5)),
    ("1e1000000", None), ("2.5E-3", None),
])
def test_rationals_reject_exponent_notation(text, value):
    if value is None:
        with pytest.raises(InputError, match="n/d"):
            config_from_sources(None, {"delta": text})
    else:
        assert config_from_sources(None, {"delta": text}).delta == value


def test_huge_exponent_config_exits_3_at_once(tmp_path):
    # Fraction would expand the exponent in full and run for hours
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"delta": "1e-999999999"}))
    got = _run_module(["plan", "--config", str(cfgp), "--out", str(tmp_path)], 60)
    assert got.returncode == 3, got.stderr
    assert not (tmp_path / "plan.json").exists()


def _set_huge_exponent(body):
    body["series"][1]["delta_up"]["mid_exp"] = "1" + "0" * 400


@pytest.mark.parametrize("spoil, named", [
    (lambda body: body.pop("series"), "series"),
    (lambda body: body["plan"].pop("exponents"), "exponents"),
    (lambda body: body.pop("plan"), "plan"),
    (_set_huge_exponent, "too large"),
])
def test_report_malformed_state_exits_3(tmp_path, capsys, spoil, named):
    path = tmp_path / "state.json"
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    body = json.loads(path.read_text())["body"]
    spoil(body)
    dump_document(str(path), "state", body)  # correctly hashed, malformed
    capsys.readouterr()
    assert run(["report", "--state", str(path)], tmp_path) == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "report.md").exists()


# one non-default value per run parameter: (config-file value, verify flags);
# threads has no legal non-default value
FLAG_SAMPLES = {
    "alpha": ("sqrt5m2", ["--alpha", "sqrt5m2"]),
    "delta": ("3/4", ["--delta", "3/4"]),
    "x0": ([1, 2, 3], ["--x0", "1,2,3"]),
    "psi_c": (2, ["--psi-c", "2"]),
    "psi_e": ("1/2", ["--psi-e", "1/2"]),
    "steps": (3, ["--steps", "3"]),
    "theta": ("1/3", ["--theta", "1/3"]),
    "b": ("100", ["--B", "100"]),
    "k": (4, ["--K", "4"]),
    "k_near": (3, ["--K-near", "3"]),
    "max_prec": (1024, ["--max-prec", "1024"]),
    "seed": (7, ["--seed", "7"]),
    "out": ("runs/x", ["--out", "runs/x"]),
    "mode": ("box", ["--mode", "box"]),
    "toy": (True, ["--toy"]),
}
FIELD_NAMES = [f.name for f in fields(RunConfig)]


def test_every_parameter_but_c1_has_a_flag():
    assert sorted(FLAG_SAMPLES) == sorted(n for n in FIELD_NAMES
                                          if n not in ("c1", "threads"))
    assert build_parser().parse_args(["verify", "--threads", "1"]).threads == 1
    assert list(_config_body(RunConfig())) == FIELD_NAMES


@pytest.mark.parametrize("name", sorted(FLAG_SAMPLES))
def test_flag_and_config_key_agree(tmp_path, name):
    value, argv = FLAG_SAMPLES[name]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({name: value}))
    from_file = config_from_sources(str(cfgp), {})
    from_flag = config_from_sources(
        None, _flag_overrides(build_parser().parse_args(["verify"] + argv)))
    assert from_file == from_flag != RunConfig()


def test_threads_other_than_one_exit_3(tmp_path, capsys):
    # the slab scan runs in one process; 1 is the only accepted value
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"threads": 2}))
    assert run(["plan", "--config", str(cfgp)] + TOY_FLAGS, tmp_path) == 3
    assert run(["plan", "--threads", "2"] + TOY_FLAGS, tmp_path) == 3
    err = capsys.readouterr().err
    assert err.count("threads must be 1: the slab scan runs in one process") == 2
    assert not (tmp_path / "plan.json").exists()
    assert run(["plan", "--threads", "1"] + TOY_FLAGS, tmp_path) == 0
    cfgp.write_text(json.dumps({"threads": 1}))
    assert config_from_sources(str(cfgp), {}) == RunConfig()


def test_c1_from_config_file(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"c1": "5/2"}))
    assert config_from_sources(str(cfgp), {}) == RunConfig(c1=Fraction(5, 2))


_FIELD_TYPES = {"Rat": (Fraction,), "Optional[Rat]": (Fraction, type(None)),
                "int": (int,), "str": (str,), "bool": (bool,), "IVec3": (IVec3,)}
_json_leaf = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8)
              | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)
              | st.from_regex(r"-?[0-9],-?[0-9],-?[0-9]", fullmatch=True)
              | st.sampled_from(MODES + ("sqrt2m1", "sqrt5m2")))
_json = st.recursive(_json_leaf, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                     max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(raw=st.dictionaries(st.sampled_from(FIELD_NAMES), _json, max_size=6))
def test_config_values_parse_or_exit_3(tmp_path_factory, raw):
    # any JSON value under a known key is either a typed config or an
    # InputError (exit 3), never another exception
    cfgp = tmp_path_factory.getbasetemp() / "fuzz_cfg.json"
    cfgp.write_text(json.dumps(raw))
    try:
        cfg = config_from_sources(str(cfgp), {})
        cfg.psi()
    except InputError:
        return
    for f in fields(RunConfig):
        assert type(getattr(cfg, f.name)) in _FIELD_TYPES[f.type], f.name


@pytest.fixture(scope="module")
def toy_documents(tmp_path_factory):
    """Bodies of a toy state.json and a witness cert.json, by document kind."""
    out = tmp_path_factory.mktemp("toy_docs")
    assert run(["build"] + TOY_FLAGS, out) == 0
    assert run(["verify", "--mode", "witness"] + TOY_FLAGS, out) == 0
    return {"state": load_document(str(out / "state.json"), "state"),
            "certificate": load_document(str(out / "cert.json"), "certificate")}


def _replace_subtree(data, node, value):
    """A copy of node with the subtree at a drawn path replaced by value."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        node = copy.copy(node)
        node[key] = _replace_subtree(data, node[key], value)
        return node
    return value


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["state", "certificate"]),
       value=_json | st.sampled_from(["\ud800", "x\udfffy"]))  # lone surrogates
def test_report_any_subtree_exits_0_or_3(tmp_path_factory, toy_documents,
                                          data, kind, value):
    # a correctly hashed document with any subtree replaced formats or
    # exits 3; no exception escapes
    out = tmp_path_factory.getbasetemp() / "fuzz_report"
    out.mkdir(exist_ok=True)
    paths = {}
    for doc_kind, body in toy_documents.items():
        if doc_kind == kind:
            body = _replace_subtree(data, body, value)
        paths[doc_kind] = str(out / f"{doc_kind}.json")
        dump_document(paths[doc_kind], doc_kind, body)
    assert main(["report", "--state", paths["state"], "--cert",
                 paths["certificate"], "--out", str(out)]) in (0, 3)
