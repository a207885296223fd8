"""The package's value classes, written on ``perms.Record`` and
``perms.FrozenRecord``, against the dataclasses they replace: construction,
equality, hashing, printing, immutability and pickling. Also the import
guard that keeps ``dataclasses``, ``inspect`` and ``typing`` out of a
command line's start-up."""

import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import pytest

from odd_diagrams import classes
from odd_diagrams.classes import class_of
from odd_diagrams.intervals import BruhatInterval, interval_elements
from odd_diagrams.partition import decompose, factorize
from odd_diagrams.perms import parse_perm
from odd_diagrams.polynomials import IntPolynomial
from odd_diagrams.verify import CheckResult, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"


# The dataclasses as they were before the value classes were written out,
# less the fields now read from the others. ``_reference_CheckResult`` also
# has the ``wall_time`` field that ``CheckResult`` gained with its rewrite.

@dataclass(frozen=True)
class _reference_BruhatInterval:
    elements: tuple
    lengths: tuple


@dataclass
class _reference_CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    findings: list = field(default_factory=list)
    wall_time: float = 0.0


@dataclass
class _reference_VerificationReport:
    n: int
    checks: list
    wall_time: float


def _points(*texts):
    """The one-member intervals of these permutations."""
    return tuple(interval_elements(w, w) for w in map(parse_perm, texts))


# the blocks of the class [213, 312], and of [1324, 1423]
BLOCKS, OTHER_BLOCKS = _points("213", "312"), _points("1324", "1423")

# each class, its reference, its field names and two sets of field values
CASES = [
    (BruhatInterval, _reference_BruhatInterval, ("elements", "lengths"),
     (((2, 1, 3), (3, 1, 2)), (1, 2)), (((1, 3, 2, 4), (1, 4, 2, 3)), (1, 2))),
    (CheckResult, _reference_CheckResult,
     ("name", "passed", "failed", "findings", "wall_time"),
     ("parity", 3, 1, [{"min": "123"}], 0.5),
     ("parity", 3, 0, [], 0.5)),
    (VerificationReport, _reference_VerificationReport, ("n", "checks", "wall_time"),
     (3, [CheckResult("parity")], 1.5), (4, [], 1.5)),
]
MUTABLE = (CheckResult, VerificationReport)
FROZEN = [case for case in CASES if case[0] not in MUTABLE]
ids = [case[0].__name__ for case in CASES]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, ref, names, values, other", CASES, ids=ids)
def test_construction_matches_the_dataclass(cls, ref, names, values, other):
    keywords = dict(zip(names, values))
    for make in (cls, ref):
        assert _fields(make(*values), names) == values
        assert _fields(make(**keywords), names) == values
        assert make(*values[:1], **dict(list(keywords.items())[1:])) == make(*values)
        with pytest.raises(TypeError):
            make(*values, None)
        with pytest.raises(TypeError):
            make(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            make(*values, nonsense=1)


@pytest.mark.parametrize("cls, ref, names, values, other", CASES, ids=ids)
def test_equality_hash_and_repr_match_the_dataclass(cls, ref, names, values, other):
    pairs = [(values, values), (values, other), (other, values)]
    for a, b in pairs:
        assert (cls(*a) == cls(*b)) == (ref(*a) == ref(*b))
        assert (cls(*a) != cls(*b)) == (ref(*a) != ref(*b))
    # a different class with equal fields is not equal, either way round
    assert not cls(*values) == ref(*values) and cls(*values) != ref(*values)
    assert not ref(*values) == cls(*values) and ref(*values) != cls(*values)
    assert cls(*values) != values
    assert repr(cls(*values)) == repr(ref(*values)).replace(ref.__qualname__, cls.__qualname__)
    if cls not in MUTABLE:
        assert hash(cls(*values)) == hash(ref(*values))
        assert len({cls(*values), cls(*values), cls(*other)}) == 2
    else:
        for make in (cls, ref):
            with pytest.raises(TypeError):
                hash(make(*values))


@pytest.mark.parametrize("cls, ref, names, values, other", FROZEN,
                         ids=[case[0].__name__ for case in FROZEN])
def test_frozen_classes_refuse_assignment_and_deletion(cls, ref, names, values, other):
    for make in (cls, ref):
        obj = make(*values)
        for name in (names[0], names[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert _fields(obj, names) == values


def test_the_sample_values_are_those_the_library_builds():
    # the values and the other values of the first row, in turn, and the
    # step (k, anchors) and the blocks of that class
    for column, pair, step, blocks in ((3, ("213", "312"), (2, (1, 3)), BLOCKS),
                                       (4, ("1324", "1423"), (3, (2, 4)), OTHER_BLOCKS)):
        u, v = map(parse_perm, pair)
        assert BruhatInterval(*CASES[0][column]) == interval_elements(u, v)
        assert decompose(u, v) == (step, blocks)
    assert factorize(parse_perm("213"), parse_perm("312")) == (2,)
    assert factorize(parse_perm("5431627"), parse_perm("7461523")) == (3, 3, 2)


def test_derived_properties_read_the_fields_and_are_not_fields():
    interval = BruhatInterval(*CASES[0][3])
    assert (interval.bottom, interval.top, interval.n, interval.rank) == (
        (2, 1, 3), (3, 1, 2), 3, 1)
    # a derived value is no constructor argument, and none can be set
    with pytest.raises(TypeError):
        BruhatInterval((2, 1, 3), (3, 1, 2), *CASES[0][3])
    for name in ("bottom", "top"):
        with pytest.raises(AttributeError):
            setattr(interval, name, None)


@pytest.mark.parametrize("check, report", [
    (CheckResult, VerificationReport),
    (_reference_CheckResult, _reference_VerificationReport),
])
def test_check_results_stay_mutable_with_their_defaults(check, report):
    a, b = check("parity"), check("parity")
    assert _fields(a, ("passed", "failed", "findings", "wall_time")) == (0, 0, [], 0.0)
    assert a.findings is not b.findings
    a.passed, a.wall_time = 2, 0.25
    assert _fields(a, ("passed", "wall_time")) == (2, 0.25) and a != b
    whole = report(3, [a], 1.0)
    whole.wall_time = 2.0
    assert whole.wall_time == 2.0


def test_interval_properties_are_computed_once_and_cached(monkeypatch):
    names = ("swaps", "cover_graph")
    cached = [name for name, prop in vars(BruhatInterval).items()
              if isinstance(prop, cached_property)]
    assert sorted(cached) == sorted(names)
    calls = []
    for name in names:
        prop = vars(BruhatInterval)[name]
        monkeypatch.setattr(prop, "func", lambda self, real=prop.func, name=name:
                            calls.append(name) or real(self))
    interval = interval_elements(parse_perm("1234"), parse_perm("3412"))
    first = _fields(interval, names)
    for _ in range(2):
        assert all(a is b for a, b in zip(_fields(interval, names), first))
    assert sorted(calls) == sorted(names)
    # the cache leaves equality and hashing alone
    fresh = interval_elements(parse_perm("1234"), parse_perm("3412"))
    assert interval == fresh and hash(interval) == hash(fresh)


@pytest.mark.parametrize("cls, ref, names, values, other", CASES, ids=ids)
def test_every_value_class_survives_a_pickle_round_trip(cls, ref, names, values, other):
    obj = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj
        assert _fields(back, names) == values


@pytest.mark.parametrize("coeffs", [(), (1,), (1, 2, 1), (-1, 0, 3)])
def test_a_polynomial_survives_a_pickle_round_trip_at_every_protocol(coeffs):
    poly = IntPolynomial(coeffs)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(poly, protocol))
        assert type(back) is IntPolynomial and back.coeffs == coeffs


def test_a_pickled_interval_recomputes_its_cached_properties():
    interval = interval_elements(parse_perm("1234"), parse_perm("3412"))
    swaps, cover_graph = interval.swaps, interval.cover_graph
    back = pickle.loads(pickle.dumps(interval))
    assert "cover_graph" not in vars(back)
    assert back.swaps == swaps and back.cover_graph == cover_graph


def test_census_output_of_an_s9_block_survives_a_pickle_round_trip():
    # the parity block of S_9 with 4, 6, 7, 8, 9 at the even positions holds
    # 6 of its 8 non-self-dual classes; census --jobs N ships such results,
    # the count and the kept classes' ends, back from its workers
    result = classes._run_census(9, [(4, 6, 7, 8, 9)])
    count, kept = result
    assert count == 84 and len(kept) == 6
    assert pickle.loads(pickle.dumps(result)) == result
    for lo, hi in kept:
        cls = class_of(lo)
        assert (cls.bottom, cls.top) == (lo, hi)


def test_the_cli_imports_neither_dataclasses_nor_inspect_nor_typing():
    # -S skips the site hook, whose .pth files may import typing themselves
    # and so hide a module of the package that does
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import odd_diagrams.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
