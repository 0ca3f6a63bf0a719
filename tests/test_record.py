"""The package's records against real dataclasses.

Each of the 24 record classes is rebuilt as a `@dataclass` twin from the
same class body (annotations, defaults, methods and __post_init__), and the
two must agree on everything a caller can see: the fields and defaults,
construction, ==, hash, repr, assignment and deletion, replace, pickling
and cached properties.
"""

import dataclasses
import pickle
from fractions import Fraction as F
from functools import cached_property
from unittest import mock

import pytest

from gammacert import builder, cf, cli, planner, scan, stepper, verifier
from gammacert.cf import ALPHA_PRESETS, ConvergentTable
from gammacert.errors import FrozenInstanceError, InputError
from gammacert.exact import IVec3
from gammacert.record import mutable_record, record, replace

RECORD_MODULES = (builder, cf, cli, planner, scan, stepper, verifier)

MUTABLE = {"BadApproxReport", "ConstructionState", "GapReport"}
FROZEN = {
    "AlphaSpec", "BoxReport", "DirectionEnclosure", "LedgerEntry", "Plan",
    "PropertyReport", "PsiSpec", "QF", "RunConfig", "SandwichVerdict",
    "ScanReport", "Schedule", "StarredClause", "StarredLedger",
    "StepCertificate", "StepOutput", "Verdict", "WitnessReport",
    "WitnessSample", "XScale", "YSpec"}

# what the record decorators put on a class; the rest of its body is the
# class body a dataclass would see
INSTALLED = {"_fields", "__init__", "__eq__", "__repr__", "__hash__",
             "__setattr__", "__delattr__", "__dict__", "__weakref__"}

RECORDS = {name: cls for mod in RECORD_MODULES for name, cls in vars(mod).items()
           if isinstance(cls, type) and cls.__module__ == mod.__name__
           and "_fields" in vars(cls)}


def _twin(cls):
    """cls rebuilt as a dataclass from its own class body."""
    body = {k: v for k, v in vars(cls).items() if k not in INSTALLED}
    return dataclasses.dataclass(frozen=cls.__name__ not in MUTABLE)(
        type(cls.__name__, (), body))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return "returns", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc), str(exc)


def _raised(fn):
    """The type of the exception fn() raises, or None."""
    got = _outcome(fn)
    return got[1] if got[0] == "raises" else None


def _other(cls, value):
    """A value unequal to value; for PsiSpec a larger one, which its
    __post_init__ accepts."""
    return value + 1 if hasattr(cls, "__post_init__") else object()


@pytest.fixture(scope="module")
def samples(toy_state):
    """One instance of each record class, taken from a toy run where one is
    at hand; the property suites' report is the clean one of seed 0."""
    table = ConvergentTable(ALPHA_PRESETS["sqrt2m1"], F(4))
    audit = verifier.starred_ledger_audit(toy_state)
    witness = verifier.check_condition_iii(toy_state)
    enc = toy_state.u_enclosures[2]
    return {
        "AlphaSpec": ALPHA_PRESETS["sqrt5m2"],
        "BadApproxReport": cf.certify_bad_approx(table, 1000),
        "BoxReport": verifier.coeff_box_lemma3(toy_state, 2, 1),
        "ConstructionState": toy_state,
        "DirectionEnclosure": builder.DirectionEnclosure(enc.rep, enc.radius_sq_ub),
        "GapReport": cf.convergent_gap_check(table, 4),
        "LedgerEntry": toy_state.ledger[0],
        "Plan": toy_state.plan,
        "PropertyReport": verifier.clean_report(0),
        "PsiSpec": toy_state.plan.psi,
        "QF": ALPHA_PRESETS["sqrt2m1"].qf(),
        "RunConfig": cli.RunConfig(c1=F(5, 2), toy=True),
        "SandwichVerdict": verifier.vperp_sandwich_check(
            IVec3(0, 0, 1), IVec3(1, 0, 0), IVec3(0, 1, 0), IVec3(1, 2, 3)),
        "ScanReport": scan.slab_scan_iv(toy_state, 1, skipped_clauses=("a",)),
        "Schedule": toy_state.schedule,
        "StarredClause": audit.clauses[0],
        "StarredLedger": audit,
        "StepCertificate": toy_state.step_certs[0],
        "StepOutput": toy_state.step_outputs[0],
        "Verdict": toy_state.base_verdicts[0],
        "WitnessReport": witness,
        "WitnessSample": witness.samples[0],
        "XScale": toy_state.scale(3),
        "YSpec": stepper.YSpec.of_power(F(5)),
    }


def test_the_records_are_the_24_classes():
    assert set(RECORDS) == MUTABLE | FROZEN and len(RECORDS) == 24


@pytest.fixture(params=sorted(MUTABLE | FROZEN))
def pair(request, samples):
    """(record class, twin, the sample's field values)."""
    cls = RECORDS[request.param]
    sample = samples[request.param]
    assert type(sample) is cls
    return cls, _twin(cls), [getattr(sample, name) for name in cls._fields]


def test_fields_and_defaults(pair):
    cls, twin, values = pair
    tfields = dataclasses.fields(twin)
    assert cls._fields == tuple(f.name for f in tfields)
    # a call naming only the fields without a default fills the rest alike
    required = {f.name: v for f, v in zip(tfields, values)
                if f.default is dataclasses.MISSING}
    got, want = cls(**required), twin(**required)
    assert [getattr(got, n) for n in cls._fields] == [getattr(want, n) for n in cls._fields]
    got = cls(*values[:len(required)])
    assert [getattr(got, n) for n in cls._fields] == [getattr(want, n) for n in cls._fields]


def test_construction_errors(pair):
    cls, twin, values = pair
    first = cls._fields[0]
    for args, kwargs in (((), {}), ((*values, 0), {}), (values, {"no_such_field": 0}),
                         ((values[0],), {first: values[0]})):
        got = _raised(lambda: cls(*args, **kwargs))
        assert got == _raised(lambda: twin(*args, **kwargs))
        assert got is TypeError or not (args or kwargs)
    named = cls(**dict(zip(cls._fields, values)))
    assert [getattr(named, n) for n in cls._fields] == values


def test_equality(pair):
    cls, twin, values = pair
    rec, tw = cls(*values), twin(*values)
    other = record(type("Other", (), {"__annotations__": dict(cls.__annotations__)}))
    tother = dataclasses.dataclass(frozen=True)(
        type("Other", (), {"__annotations__": dict(cls.__annotations__)}))
    # mock.ANY equals anything it is asked about, so it answers only when
    # the record's __eq__ returns NotImplemented
    cases = [(rec, tw), (cls(*values), twin(*values)), (other(*values), tother(*values)),
             (tuple(values), tuple(values)), (tw, rec), (mock.ANY, mock.ANY)]
    for i in range(len(values)):
        changed = list(values)
        changed[i] = _other(cls, values[i])
        cases.append((cls(*changed), twin(*changed)))
    for a, b in cases:
        assert (rec == a) is (tw == b) and (rec != a) is (tw != b)
        assert (a == rec) is (b == tw) and (a != rec) is (b != tw)
    assert rec == cls(*values) and rec != tuple(values) and rec != tw
    assert rec == mock.ANY and not rec != mock.ANY


def test_hash(pair):
    cls, twin, values = pair
    rec, tw = cls(*values), twin(*values)
    assert _outcome(hash, rec)[:2] == _outcome(hash, tw)[:2]
    if cls.__name__ in MUTABLE:
        assert _raised(lambda: hash(rec)) is TypeError
    else:
        # a frozen record hashes its field tuple; Schedule's holds dicts
        assert _outcome(hash, rec)[:2] == _outcome(hash, tuple(values))[:2]


def test_repr(pair):
    cls, twin, values = pair
    assert repr(cls(*values)) == repr(twin(*values))


def test_pickle_round_trip(pair):
    cls, _, values = pair
    rec = cls(*values)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec
    assert [getattr(back, n) for n in cls._fields] == values


def test_assignment_and_deletion(pair):
    cls, twin, values = pair
    rec, tw = cls(*values), twin(*values)
    assert issubclass(FrozenInstanceError, AttributeError)
    for name in (*cls._fields, "not_a_field"):
        new = object()
        for change in (setattr, delattr):
            args = (name, new) if change is setattr else (name,)
            got, want = _outcome(change, rec, *args), _outcome(change, tw, *args)
            if cls.__name__ in MUTABLE:
                assert got == want == ("returns", None)
                continue
            # the same message, from the package's error in place of
            # dataclasses'
            assert got[::2] == want[::2] and got[0] == "raises"
            assert (got[1], want[1]) == (FrozenInstanceError,
                                         dataclasses.FrozenInstanceError)
        if cls.__name__ in MUTABLE:
            assert name not in vars(rec) and name not in vars(tw)
    if cls.__name__ not in MUTABLE:
        assert [getattr(rec, n) for n in cls._fields] == values


def test_replace(pair):
    cls, twin, values = pair
    rec, tw = cls(*values), twin(*values)
    for name, value in zip(cls._fields, values):
        new = _other(cls, value)
        got, want = replace(rec, **{name: new}), dataclasses.replace(tw, **{name: new})
        assert type(got) is cls
        assert [getattr(got, n) for n in cls._fields] == [getattr(want, n) for n in cls._fields]
        assert getattr(rec, name) is not new  # the original is untouched
    assert replace(rec) == rec and replace(rec) is not rec
    assert (_raised(lambda: replace(rec, no_such_field=0))
            is _raised(lambda: dataclasses.replace(tw, no_such_field=0)) is TypeError)


def test_replace_runs_post_init(samples):
    psi = samples["PsiSpec"]
    for bad in ({"c": 0}, {"e": -1}):
        with pytest.raises(InputError, match="positive rational"):
            replace(psi, **bad)
        with pytest.raises(InputError, match="positive rational"):
            dataclasses.replace(_twin(planner.PsiSpec)(psi.c, psi.e), **bad)
    with pytest.raises(InputError):
        planner.PsiSpec(F(1), F(0))
    assert replace(psi, c=F(2)) == planner.PsiSpec(F(2), psi.e)


def test_cached_property_on_records(samples, toy_state):
    # a frozen record computes a cached property once and keeps it out of
    # ==, hash, repr and replace, as a frozen dataclass does
    enc = samples["DirectionEnclosure"]
    fresh = builder.DirectionEnclosure(enc.rep, enc.radius_sq_ub)
    twin = _twin(builder.DirectionEnclosure)(enc.rep, enc.radius_sq_ub)
    before = (hash(fresh), repr(fresh))
    for obj in (fresh, twin):
        norm, radius = obj.rep_norm, obj.radius
        assert obj.rep_norm is norm and obj.radius is radius
        assert norm.refined_to(64).lo ** 2 <= enc.rep.norm_sq() <= norm.refined_to(64).hi ** 2
    assert (hash(fresh), repr(fresh)) == before == (hash(twin), repr(twin))
    assert fresh == builder.DirectionEnclosure(enc.rep, enc.radius_sq_ub)
    assert "rep_norm" not in vars(replace(fresh))
    # and on a mutable record
    copy = replace(toy_state)
    assert copy.u_enclosures is copy.u_enclosures
    assert copy.u_enclosures[2] == toy_state.u_enclosures[2]

    @record
    class Scaled:
        x: int

        @cached_property
        def double(self):
            return [2 * self.x]

    s = Scaled(3)
    assert s.double is s.double and s.double == [6] and s == Scaled(3)
    assert hash(s) == hash((3,))
    assert repr(s) == "test_cached_property_on_records.<locals>.Scaled(x=3)"


def test_single_field_and_mutable_helpers():
    # one field: the key is still a 1-tuple, as a dataclass compares and
    # hashes it; a mutable record is not hashable
    @record
    class One:
        v: float

    @mutable_record
    class Box:
        v: float
        w: int = 1

    nan = float("nan")
    assert One(nan) == One(nan) and hash(One(nan)) == hash((nan,))
    assert One(1.0) != One(2.0) and One(1.0) != (1.0,)
    box = Box(1.0)
    box.w = 5
    del box.w
    assert box.w == 1 and box == Box(1.0) and Box.__hash__ is None
