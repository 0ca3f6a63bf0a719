"""Command-line driver: exit codes, artifacts, config plumbing."""

import json

import pytest

from gammacert.cli import main
from gammacert.serialize import dump_document, load_document

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


def test_build_writes_state(tmp_path):
    assert run(["build"] + TOY_FLAGS, tmp_path) == 0
    doc = load_document(str(tmp_path / "state.json"), "state")
    assert len(doc["xs"]) == 7
    assert doc["xs"][1] == ["-1", "4", "13"]


def test_verify_audit_flags_toy_scale(tmp_path):
    rc = run(["verify", "--mode", "audit"] + TOY_FLAGS, tmp_path)
    assert rc == 1
    cert = load_document(str(tmp_path / "cert.json"), "certificate")
    assert cert["summary"]["verdict"] == "violation"
    assert cert["summary"]["undecided"] == "0"
    assert any(c["name"] == "q_below_qn"
               for c in cert["results"]["audit"]["clauses"])


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
    with pytest.raises(SystemExit):
        main(["verify", "--mode", "everything", "--out", str(tmp_path)])


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
