"""Canonical documents: hashing, round trips, report bodies."""

import json

import pytest

from gammacert import (
    InputError,
    document_bytes,
    dump_document,
    load_document,
    plan_body,
    report_body,
    state_body,
)
from gammacert.serialize import (_enc, body_hash, canonical_bytes, unwrap_document,
                                 wrap_document)
from gammacert.verifier import coeff_box_lemma3


def test_canonical_bytes_stable():
    a = canonical_bytes({"b": "2", "a": ["1", "-3"]})
    b = canonical_bytes({"a": ["1", "-3"], "b": "2"})
    assert a == b == b'{"a":["1","-3"],"b":"2"}'


def test_wrap_and_unwrap():
    doc = wrap_document("demo", {"k": "1"})
    assert doc["schema"] == 1 and doc["kind"] == "demo"
    assert doc["sha256"] == body_hash({"k": "1"})
    assert unwrap_document(doc, "demo") == {"k": "1"}
    with pytest.raises(InputError):
        unwrap_document(doc, "other")


def test_tamper_detection():
    doc = wrap_document("demo", {"k": "1"})
    doc["body"]["k"] = "2"
    with pytest.raises(InputError, match="content hash"):
        unwrap_document(doc)


def test_plan_round_trip(toy_state):
    body = plan_body(toy_state.plan, toy_state.schedule)
    # every leaf is a string, list, or dict: no raw ints in the document
    def leaves(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from leaves(v)
        elif isinstance(node, list):
            for v in node:
                yield from leaves(v)
        else:
            yield node
    assert all(isinstance(leaf, (str, bool)) for leaf in leaves(body))


def test_document_bytes_deterministic(toy_state):
    body = plan_body(toy_state.plan, toy_state.schedule)
    assert document_bytes("plan", body) == document_bytes("plan", body)


def test_file_round_trip(tmp_path, toy_state):
    path = str(tmp_path / "plan.json")
    body = plan_body(toy_state.plan, toy_state.schedule)
    dump_document(path, "plan", body)
    loaded = load_document(path, "plan")
    assert loaded == json.loads(json.dumps(body))
    raw = json.load(open(path))
    raw["body"]["delta"] = "1/3"
    with open(path, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(InputError, match="content hash"):
        load_document(path, "plan")


def test_state_round_trip(toy_state):
    body = state_body(toy_state)
    assert len(body["series"]) == 7
    assert [s["i"] for s in body["series"]] == [str(i) for i in range(7)]
    assert "delta_up" not in body["series"][0]
    assert "xu_up" not in body["series"][6]
    assert body["series"][1]["delta_up"]["mid_man"]


def test_report_body_generic(toy_state):
    rep = coeff_box_lemma3(toy_state, 2)
    body = report_body(rep)
    assert body["points_total"] == "4912"
    assert body["violations"] == []
    with pytest.raises(InputError):
        report_body({"not": "a record"})


def test_floats_are_not_serialized():
    # report bodies hold decimal strings only; a float would be a second,
    # lossy number format inside hashed bodies
    with pytest.raises(InputError, match="float"):
        _enc(0.5)
    with pytest.raises(InputError, match="float"):
        _enc({"wall_time_s": [1.25]})
