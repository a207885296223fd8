import gc
import hashlib
import io
import json
import math
import random
import re

import pytest

from odd_diagrams import classes, diagrams, duality, intervals, partition, polynomials, verify
from odd_diagrams.classes import (
    class_of,
    class_shape,
    classes_of_sn,
)
from odd_diagrams.cli import check_sweep_degree, run
from odd_diagrams.diagrams import is_legal, odd_diagram, odd_diagram_key, rothe_diagram
from odd_diagrams.duality import is_self_dual
from odd_diagrams.intervals import BruhatInterval, interval_elements, rank_vector
from odd_diagrams.partition import _factor_lengths, class_interval
from odd_diagrams.perms import all_perms, bruhat_leq, format_perm, inverse, length, parse_perm
from odd_diagrams.polynomials import carrell_holds, kl_polynomial, one


def test_s2_classes():
    classes = classes_of_sn(2)
    assert [c.elements for c in classes] == [((1, 2),), ((2, 1),)]


def test_s3_classes():
    classes = classes_of_sn(3)
    assert len(classes) == 5
    multi = [c for c in classes if len(c.elements) > 1]
    assert len(multi) == 1
    assert multi[0].elements == (parse_perm("213"), parse_perm("312"))


def test_figure2_class_membership():
    cls = class_of(parse_perm("5431627"))
    assert len(cls.elements) == 18
    assert (cls.bottom, cls.top) == (parse_perm("5431627"), parse_perm("7461523"))
    assert interval_elements(cls.bottom, cls.top) == cls


def test_s9_class_extremes():
    cls = class_of(parse_perm("654172839"))
    assert cls.bottom == parse_perm("654172839")
    assert cls.top == parse_perm("958172634")


def test_singleton_extremes():
    cls = class_of(parse_perm("1234"))
    assert (cls.bottom, cls.top) == (parse_perm("1234"), parse_perm("1234"))
    assert interval_elements(cls.bottom, cls.top) == cls


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_sum_to_factorial(n):
    classes = classes_of_sn(n)
    assert sum(len(c.elements) for c in classes) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_members_share_the_diagram(n):
    for cls in classes_of_sn(n):
        diagram = diagrams.diagram_of_key(odd_diagram_key(cls.bottom), n)
        for w in cls.elements:
            assert odd_diagram(w) == diagram


@pytest.mark.parametrize("n", range(1, 7))
def test_classes_are_keyed_once_per_permutation_and_never_decoded(n, monkeypatch):
    # the sweep builds each permutation's key once, incrementally, so
    # odd_diagram_key itself is never called
    calls = []

    def counting(w):
        calls.append(w)
        return odd_diagram_key(w)

    def no_decode(key, n):
        raise AssertionError("a class diagram was decoded while building classes")

    monkeypatch.setattr(classes, "odd_diagram_key", counting)
    monkeypatch.setattr(diagrams, "diagram_of_key", no_decode)
    table = classes_of_sn(n)
    assert calls == []
    assert sum(map(len, table)) == math.factorial(n)
    for cls in table:
        key = odd_diagram_key(cls.bottom)
        assert all(odd_diagram_key(w) == key for w in cls.elements)
        assert class_of(cls.top) == cls


@pytest.mark.parametrize("n", range(1, 7))
def test_theorem_b_interval_property(n):
    for cls in classes_of_sn(n):
        assert interval_elements(cls.bottom, cls.top) == cls


def _theorem_b_on(monkeypatch, cls):
    """``verify theorem_b`` on a stream of the one class ``cls``."""
    monkeypatch.setattr(classes, "class_stream", lambda n: iter([cls]))
    return verify.run_checks(7, ["theorem_b"]).checks[0]


def test_theorem_b_check_fails_on_a_wrong_carried_length(monkeypatch):
    # the members are those of the interval, so a check of members alone passes
    cls = class_of(parse_perm("5431627"))
    lengths = (cls.lengths[0], cls.lengths[1] + 1) + cls.lengths[2:]
    check = _theorem_b_on(monkeypatch, BruhatInterval(cls.elements, lengths))
    assert (check.passed, check.failed) == (0, 1)
    assert check.findings == [{"min": "5431627"}]


def test_theorem_b_check_fails_on_a_dropped_member(monkeypatch):
    cls = class_of(parse_perm("5431627"))
    elements, lengths = cls.elements[:1] + cls.elements[2:], cls.lengths[:1] + cls.lengths[2:]
    check = _theorem_b_on(monkeypatch, BruhatInterval(elements, lengths))
    assert (check.passed, check.failed) == (0, 1)
    assert check.findings == [{"min": "5431627"}]


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_within_class(n):
    for cls in classes_of_sn(n):
        base = inverse(cls.bottom)
        for w in cls.elements:
            pos = inverse(w)
            assert all((pos[k] - base[k]) % 2 == 0 for k in range(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_minimum_has_no_length_decreasing_legal_move(n):
    for cls in classes_of_sn(n):
        for w in cls.elements:
            has_down_move = any(
                is_legal(w, (i, j)) and w[i - 1] > w[j - 1]
                for i in range(1, n)
                for j in range(i + 1, n + 1)
            )
            if w == cls.bottom:
                assert not has_down_move
            elif length(w) > length(cls.bottom):
                # anything strictly above the minimum admits one
                assert has_down_move


def test_classes_sorted_and_deterministic():
    first = classes_of_sn(5)
    second = classes_of_sn(5)
    assert [c.bottom for c in first] == [c.bottom for c in second]
    assert [c.bottom for c in first] == sorted(c.bottom for c in first)


def test_guard_rejects_large_n():
    # the sweep rejects only n < 1; that n >= 10 needs --long is the CLI's rule
    with pytest.raises(ValueError, match="n must be positive"):
        classes_of_sn(0)
    assert len(classes.parity_sets(11)) == 462
    with pytest.raises(ValueError, match="classes supports n <= 10"):
        check_sweep_degree("classes", 11, long=False)


@pytest.fixture
def collector_state():
    """Puts the cyclic garbage collector back as it was after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _record_collector_during(monkeypatch, name):
    """Wrap classes.<name> so each call records whether the collector is on."""
    inner, seen = getattr(classes, name), []

    def recording(*args):
        seen.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(classes, name, recording)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_the_sweeps_pause_the_collector_and_restore_its_state(monkeypatch, collector_state,
                                                               enabled):
    (gc.enable if enabled else gc.disable)()
    in_table = _record_collector_during(monkeypatch, "parity_block")
    in_census = _record_collector_during(monkeypatch, "parity_block_ends")
    assert len(classes_of_sn(5)) == 70
    assert gc.isenabled() is enabled
    assert classes.census(5) == (70, [])
    assert gc.isenabled() is enabled
    assert in_table and in_census and not any(in_table + in_census)


def test_a_sweep_left_by_an_exception_restores_the_collector(monkeypatch, collector_state):
    gc.enable()

    def broken(*args):
        assert not gc.isenabled()
        raise RuntimeError("block failed")

    monkeypatch.setattr(classes, "parity_block", broken)
    monkeypatch.setattr(classes, "parity_block_ends", broken)
    with pytest.raises(RuntimeError, match="block failed"):
        classes_of_sn(4)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="block failed"):
        classes.census(4)
    assert gc.isenabled()


def _reference_class_report(cls):
    """Reference: the class report that built every class's interval, counted
    the rank vector from ``length`` of each member and read the boxes from
    ``odd_diagram`` of the class's minimum."""
    levels = [length(w) - length(cls.bottom) for w in cls.elements]
    ranks = [levels.count(r) for r in range(max(levels) + 1)]
    return {
        "diagram": [list(box) for box in odd_diagram(cls.bottom)],
        "size": len(cls.elements),
        "min": format_perm(cls.bottom),
        "max": format_perm(cls.top),
        "rank_vector": list(ranks),
        "poincare_coeffs": list(ranks),
        "factor_lengths": list(_factor_lengths(cls.bottom, cls.top)),
        "kl_is_one": cls.rank <= 2 or carrell_holds(cls),
        "self_dual": is_self_dual(cls),
    }


def _report_as_one_dict(n):
    """Reference: the whole report built in memory before it is encoded."""
    return {"schema": 1, "n": n,
            "classes": [_reference_class_report(c) for c in classes_of_sn(n)]}


def _report_text(n):
    out = io.StringIO()
    classes.write_report(n, out)
    return out.getvalue()


def _reference_report_text(table):
    """Reference: the report text, its records from ``_reference_class_report``."""
    records = ",\n".join(json.dumps(_reference_class_report(c)) for c in table)
    return f'{{"schema": 1, "n": {table[0].n}, "classes": [\n{records}\n]}}\n'


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.long)])
def test_write_report_text_matches_the_interval_report(n):
    # the report from the class ends against the one from every class's members
    assert _report_text(n) == _reference_report_text(classes_of_sn(n))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_record_text_matches_the_reference_past_nine(n):
    # rows, columns and sizes of two digits, comma-separated ends; one memo
    # serves the whole sample, as it serves a whole report
    rng = random.Random(n)
    memo = classes._ReportMemo(n)
    for _ in range(20):
        cls = class_of(tuple(rng.sample(range(1, n + 1), n)))
        text = classes._record_text(odd_diagram_key(cls.bottom), cls.bottom, cls.top, cls.rank,
                                    memo)
        assert text == json.dumps(_reference_class_report(cls))
    assert "," in format_perm(cls.bottom)
    # S_10 has no box past row 9 or column 9
    assert any(re.search(r"\d\d", text) for text in memo.rows.values()) == (n > 10)


def test_write_report_encodes_no_record_on_its_own(monkeypatch):
    # no box is decoded, and ``json.dumps`` runs once per rank <= 2 and once
    # per shape of rank >= 3, not once per record
    expected = _reference_report_text(classes_of_sn(6))
    records = json.loads(expected)["classes"]
    dumps, calls = json.dumps, []

    def counting(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    def no_decode(key, n):
        raise AssertionError("a diagram was decoded while writing the report")

    monkeypatch.setattr(diagrams, "diagram_of_key", no_decode)
    monkeypatch.setattr(json, "dumps", counting)
    assert _report_text(6) == expected
    assert len(calls) <= 3 + RANK_3_SHAPES[6] < len(records) == 351


def _reference_format_perm(w):
    """Reference: the ``format_perm`` that joined ``str`` of each entry."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def _reference_odd_diagram(w):
    """Reference: the Rothe boxes (i, j) of w with i and w^-1(j) of
    opposite parity, by the definition."""
    inv = inverse(w)
    return tuple(sorted((i, j) for i, j in rothe_diagram(w) if (i - inv[j - 1]) % 2))


@pytest.mark.parametrize("n", range(1, 8))
def test_report_fields_match_their_reference_on_every_class(n):
    # ``_factor_lengths`` has its reference in test_partition
    for cls in classes_of_sn(n):
        diagram = diagrams.diagram_of_key(odd_diagram_key(cls.bottom), n)
        for w in (cls.bottom, cls.top):
            assert format_perm(w) == _reference_format_perm(w)
            assert diagram == _reference_odd_diagram(w)


def test_format_perm_matches_its_reference_at_every_degree_to_20():
    rng = random.Random(20)
    for n in range(21):
        w = tuple(rng.sample(range(1, n + 1), n))
        assert format_perm(w) == _reference_format_perm(w)


# classes of rank >= 3 in S_n and their shapes
RANK_3_SHAPES = {6: 1, 7: 13}


@pytest.mark.parametrize("n, ranked, count", [(6, 20, 351), (7, 171, 2041)])
def test_report_builds_an_interval_only_from_rank_3(n, ranked, count, monkeypatch):
    # the report builds one interval per shape of the classes of rank >= 3,
    # from its anchor chain, and no class of rank <= 2 reaches
    # ``cover_graph`` or ``rank_vector``
    built = []
    cover_graph = BruhatInterval.cover_graph.func

    def counting(lo, hi):
        iv = class_interval(lo, hi)
        assert iv.rank >= 3
        built.append(iv)
        return iv

    def checked_cover_graph(iv):
        assert iv.rank >= 3
        return cover_graph(iv)

    def checked_rank_vector(iv):
        assert iv.rank >= 3
        return rank_vector(iv)

    monkeypatch.setattr(classes, "class_interval", counting)
    monkeypatch.setattr(intervals, "_lifting_step", None)
    monkeypatch.setattr(BruhatInterval, "cover_graph", property(checked_cover_graph))
    monkeypatch.setattr(intervals, "rank_vector", checked_rank_vector)
    monkeypatch.setattr(duality, "rank_vector", checked_rank_vector)
    monkeypatch.setattr(classes, "rank_vector", checked_rank_vector)
    records = json.loads(_report_text(n))["classes"]
    table = classes_of_sn(n)
    assert len(records) == len(table) == count
    assert sum(cls.rank >= 3 for cls in table) == ranked
    shapes = [class_shape(iv.elements) for iv in built]
    assert len(built) == len(set(shapes)) == RANK_3_SHAPES[n]
    assert set(shapes) == {class_shape(cls.elements) for cls in table if cls.rank >= 3}


# sha256 of ``classes --n k --out``, fixed points of the report
REPORT_SHA256 = {
    7: "0f5e6eee6204aeee0d47dbacfcc7ced9728b13dffca1074f25d2ce7a0b91365b",
    8: "97e5d62bc3c0aa01d18948e06d25b35f87886255456cb893aff36db7c422173f",
    9: "5aa699eeba0f59c1210ebcb3fb719a579c0f5210825048b71ac38a941b89cebb",
    # 882,213 classes, 268 MB; the report holds every class's key, ends and rank, about 349 MB
    10: "ba38a79e07ddc2c119ac3419af79b01898f3b1f8d308a848b2cc20113def44c4",
}


@pytest.mark.parametrize("n", [7, *(pytest.param(n, marks=pytest.mark.long) for n in (8, 9, 10))])
def test_report_digest(n, tmp_path, capsys):
    path = tmp_path / "report.json"
    long = ["--long"] if n >= 10 else []
    assert run(["classes", "--n", str(n), *long, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_factor_lengths_of_a_class_of_rank_at_most_2_are_all_2(n):
    # what the report writes for such a class without the recursion
    ranked = [cls for cls in classes_of_sn(n) if cls.rank <= 2]
    # the first class of rank 1 is in S_3, the first of rank 2 in S_5
    assert {cls.rank for cls in ranked} == {2: {0}, 3: {0, 1}, 4: {0, 1}}.get(n, {0, 1, 2})
    for cls in ranked:
        assert _factor_lengths(cls.bottom, cls.top) == (2,) * cls.rank


@pytest.mark.parametrize("n", [*range(5, 9), pytest.param(9, marks=pytest.mark.long)])
def test_classes_of_one_ends_shape_share_their_factor_lengths(n):
    # the report keeps the factor lengths of a class of rank >= 3 by its ends shape
    by_shape = {}
    for cls in classes_of_sn(n):
        if cls.rank >= 3:
            factors = _factor_lengths(cls.bottom, cls.top)
            shape = classes.ends_shape(cls.bottom, cls.top)
            assert by_shape.setdefault(shape, factors) == factors
    assert len(by_shape) == RANK_3_SHAPES.get(n, len(by_shape)) > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_report_is_the_same_json_on_stdout_and_in_a_file(n, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["classes", "--n", str(n), "--out", str(path)]) == 0
    count = len(classes_of_sn(n))
    assert capsys.readouterr().out == f"wrote {path} ({count} classes)\n"
    assert run(["classes", "--n", str(n)]) == 0
    text = capsys.readouterr().out
    assert path.read_text() == text
    assert json.loads(text) == _report_as_one_dict(n)
    # the header, then one record a line
    assert len(text.splitlines()) == count + 2


def test_class_report_fields():
    records = json.loads(_report_text(7))["classes"]
    record = next(r for r in records if r["min"] == "5431627")
    assert record["size"] == 18
    assert record["min"] == "5431627"
    assert record["max"] == "7461523"
    assert record["rank_vector"] == [1, 3, 5, 5, 3, 1]
    assert record["poincare_coeffs"] == [1, 3, 5, 5, 3, 1]
    assert sorted(record["factor_lengths"]) == [2, 3, 3]
    assert record["kl_is_one"] is True
    assert record["self_dual"] is True
    assert all(len(box) == 2 for box in record["diagram"])


@pytest.mark.parametrize("n, counted", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 2), (6, 20), (7, 171)])
def test_report_matches_the_kl_engine(n, counted):
    # the reference is P_{min,max} = 1 by the KL engine; the ``counted``
    # classes, of rank >= 3, go through the reflection count, the rest
    # through the degree bound
    records = json.loads(_report_text(n))["classes"]
    for cls, record in zip(classes_of_sn(n), records, strict=True):
        old = dict(record, kl_is_one=kl_polynomial(cls.bottom, cls.top) == one())
        assert record == old
    assert sum(len(r["rank_vector"]) > 3 for r in records) == counted


def test_report_never_calls_the_kl_engine(monkeypatch):
    def fail(*args):
        raise AssertionError("kl_polynomial called")

    monkeypatch.setattr(polynomials, "kl_polynomial", fail)
    out = io.StringIO()
    assert classes.write_report(6, out) == 351
    records = json.loads(out.getvalue())["classes"]
    assert len(records) == 351 and all(r["kl_is_one"] for r in records)


def _rechecking_classes_of_sn(n):
    """Reference builder: the all_perms + odd_diagram_key grouping that the
    sweep replaced, with lengths from ``length``, re-checking Theorem B on
    every member."""
    groups = {}
    for w in all_perms(n):
        groups.setdefault(odd_diagram_key(w), []).append(w)
    classes = []
    for key, members in groups.items():
        members.sort()
        lo = min(members, key=length)
        hi = max(members, key=length)
        assert all(bruhat_leq(lo, w) and bruhat_leq(w, hi) for w in members)
        cls = BruhatInterval(tuple(members), tuple(map(length, members)))
        assert (cls.bottom, cls.top, diagrams.diagram_of_key(key, n)) == (lo, hi, odd_diagram(lo))
        classes.append(cls)
    classes.sort(key=lambda c: c.bottom)
    return classes


@pytest.mark.parametrize("n", range(1, 9))
def test_classes_of_sn_matches_rechecking_builder(n):
    assert classes_of_sn(n) == _rechecking_classes_of_sn(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_stream_gives_each_class_once_block_by_block(n):
    stream = list(classes.class_stream(n))
    assert sorted(stream, key=lambda cls: cls.bottom) == classes_of_sn(n)
    assert len({odd_diagram_key(cls.bottom) for cls in stream}) == len(stream)
    # the blocks in the order of parity_sets, each block's classes by minimum
    block_of = {evens: i for i, evens in enumerate(classes.parity_sets(n))}
    order = [(block_of[tuple(sorted(cls.bottom[::2]))], cls.bottom) for cls in stream]
    assert order == sorted(order)


def test_class_stream_hands_out_its_classes_with_the_collector_on(collector_state):
    # the consumer's checks run between the yields; only the block sweep is paused
    gc.enable()
    assert all(gc.isenabled() for _ in classes.class_stream(5))


@pytest.mark.parametrize("n", range(1, 8))
def test_class_of_matches_scan_of_sn(n):
    # the full scan of S_n that class_of used to run is the oracle
    scan = {}
    for w in all_perms(n):
        scan.setdefault(odd_diagram_key(w), []).append(w)
    for key, members in scan.items():
        lo = min(members, key=length)
        hi = max(members, key=length)
        members.sort()
        expected = BruhatInterval(tuple(members), tuple(map(length, members)))
        assert (expected.bottom, expected.top, diagrams.diagram_of_key(key, n)) == (
            lo, hi, odd_diagram(lo))
        for w in members:
            assert class_of(w) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_matches_all_perms_key_and_length(n):
    # the parity blocks hold every w of S_n once, with its key and length;
    # a group's members come sorted and share the values at even positions,
    # those of its block, and no key is found in two groups
    swept, keys = [], []
    for evens in classes.parity_sets(n):
        for key, members, lengths in classes.parity_block(n, evens, {}):
            assert list(members) == sorted(members)
            assert {tuple(sorted(w[::2])) for w in members} == {evens}
            swept += zip(members, [key] * len(members), lengths)
            keys.append(key)
    assert len(set(keys)) == len(keys)
    assert sorted(swept) == [(w, odd_diagram_key(w), length(w)) for w in all_perms(n)]


def _reference_parity_block(n, evens):
    """Reference: the sweep that ``parity_block`` replaced. It fills every
    position from the left; row i of ``same`` and ``other`` holds the values
    below w(i) for the placed positions of each parity, and placing y adds
    column y of the other parity's rows to the key."""
    odds = tuple(x for x in range(1, n + 1) if x not in evens)
    if n <= 2:  # one permutation, 1, 12 or 21; for 21 key and length are 1
        w = evens + odds
        return [(int(w == (2, 1)), (w,), (int(w == (2, 1)),))]
    column = sum(1 << (i * n) for i in range(n))  # the bit of value 1 in every row
    groups = {}  # key -> [member, length, member, length, ...]

    def fill(p, prefix, mine, theirs, key, inv, placed, same, other):
        for j, y in enumerate(mine):
            bit = 1 << (y - 1)
            key_y = key | other & column << (y - 1)
            inv_y = inv + (placed >> y).bit_count()
            # the rows of the parity of p, now with row p: the values below y
            row = same | (bit - 1) << (p * n)
            rest = mine[:j] + mine[j + 1:]
            if p < n - 3:
                fill(p + 1, prefix + (y,), theirs, rest, key_y, inv_y, placed | bit, other, row)
            else:
                # x at n - 2 sees the rows in ``row``, z at n - 1 those in
                # ``other`` and row n - 2; the n - z values above z precede it
                x, z = theirs[0], rest[0]
                key_x = key_y | row & column << (x - 1)
                row_x = other | ((1 << (x - 1)) - 1) << ((n - 2) * n)
                groups.setdefault(key_x | row_x & column << (z - 1), []).extend(
                    (prefix + (y, x, z), inv_y + ((placed | bit) >> x).bit_count() + n - z))

    fill(0, (), evens, odds, 0, 0, 0, 0, 0)
    return [(key, tuple(flat[::2]), tuple(flat[1::2])) for key, flat in groups.items()]


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.long)])
def test_parity_block_returns_what_the_position_sweep_returned(n):
    # keys, member order, lengths and class order, with the suffix tables
    # shared across the blocks of S_n
    tables = {}
    for evens in classes.parity_sets(n):
        assert classes.parity_block(n, evens, tables) == _reference_parity_block(n, evens)


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.long)])
def test_parity_block_ends_are_the_first_and_last_members(n):
    # the ends sweep against the member sweep, block by block: keys, class
    # order, first and last member, with the suffix tables shared across the
    # blocks of S_n; the rank is the difference of the ends' lengths, each
    # computed by ``length``, not carried
    tables = {}
    for evens in classes.parity_sets(n):
        ends = classes.parity_block_ends(n, evens, tables)
        assert [end[:3] for end in ends] == [
            (key, members[0], members[-1])
            for key, members, _ in classes.parity_block(n, evens, {})]
        assert all(rank == length(hi) - length(lo) for _, lo, hi, rank in ends)


def _reference_block_leaves(n, evens, tables):
    """Reference: the leaves of a block by ``parity_block``'s former
    recursion, which made one more call per leaf to reach its table."""
    odds = tuple(x for x in range(1, n + 1) if x not in evens)
    depth = max(n - classes.SUFFIX, 0)
    leaves = []

    def fill(p, prefix, mine, theirs, mine_bits, their_bits, key, inv):
        if p == depth:
            leaves.append((prefix, key, inv,
                           classes._suffix_table(n, mine_bits, their_bits, tables)))
            return
        left = mine_bits | their_bits
        for j, y in enumerate(mine):
            bit = 1 << (y - 1)
            fill(p + 1, prefix + (y,), theirs, mine[:j] + mine[j + 1:], their_bits,
                 mine_bits ^ bit, key | (their_bits & (bit - 1)) << (p * n),
                 inv + (left & (bit - 1)).bit_count())

    fill(0, (), evens, odds, classes._bits(evens), classes._bits(odds), 0, 0)
    return leaves


@pytest.mark.parametrize("n", range(1, 9))
def test_block_leaves_match_the_one_call_per_leaf_recursion(n):
    tables, reference = {}, {}
    for evens in classes.parity_sets(n):
        assert (classes._block_leaves(n, evens, tables)
                == _reference_block_leaves(n, evens, reference))
    assert tables == reference


def _reference_suffix_table(n, mine, theirs, tables):
    """Reference: the suffix table builder that took the two value sets as
    tuples and summed each row's key bits and inversions value by value."""
    name = classes._bits(mine) << n | classes._bits(theirs)
    table = tables.get(name)
    if table is None:
        p = n - len(mine) - len(theirs)
        table = [] if mine else [((), 0, 0)]
        for j, y in enumerate(mine):
            rest = mine[:j] + mine[j + 1:]
            row = sum(1 << (p * n + x - 1) for x in theirs if x < y)
            below = sum(x < y for x in rest + theirs)
            table += [((y,) + tail, row | bits, below + inv)
                      for tail, bits, inv in _reference_suffix_table(n, theirs, rest, tables)]
        tables[name] = table
    return table


def _values(bits, n):
    return tuple(y for y in range(1, n + 1) if bits >> (y - 1) & 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_suffix_tables_match_the_tuple_builder(n, monkeypatch):
    # the same store, table for table, and the same blocks when
    # ``parity_block`` takes its tables from the reference builder
    tables = {}
    blocks = [classes.parity_block(n, evens, tables) for evens in classes.parity_sets(n)]
    mask = (1 << n) - 1
    reference = {}
    for name in tables:
        _reference_suffix_table(n, _values(name >> n, n), _values(name & mask, n), reference)
    assert reference == tables

    monkeypatch.setattr(classes, "_suffix_table", lambda n, mine_bits, their_bits, tables:
                        _reference_suffix_table(n, _values(mine_bits, n),
                                                _values(their_bits, n), tables))
    assert [classes.parity_block(n, evens, {}) for evens in classes.parity_sets(n)] == blocks


def test_suffix_tables_stay_within_their_bound():
    # at most C(n, 2) C(n - 2, 2) tables of four rows, plus the shorter ones
    tables = {}
    for evens in classes.parity_sets(8):
        classes.parity_block(8, evens, tables)
    full = [rows for rows in tables.values() if len(rows[0][0]) == 4]
    assert len(full) == math.comb(8, 2) * math.comb(6, 2)
    assert {len(rows) for rows in full} == {4}


def _grouped_by_key_bits(rows):
    """Reference: a per-row suffix table grouped by key bits, each group as
    its bits and its first and last row's tail and inversions, the groups in
    the order of their first rows."""
    groups = {}
    for tail, bits, inv in rows:
        groups.setdefault(bits, []).append((tail, inv))
    return [(bits, *ends[0], *ends[-1]) for bits, ends in groups.items()]


def _grouped_tables(n, tables):
    """The grouped tables of a store, by name: those named with bit 2n."""
    return {name: table for name, table in tables.items() if name >> 2 * n}


@pytest.mark.parametrize("n", range(1, 9))
def test_grouped_tables_are_the_per_row_tables_grouped_by_key_bits(n):
    # every table the ends sweep of S_n reaches, against the per-row table
    # of ``_reference_suffix_table`` on the same two value sets
    tables = {}
    for evens in classes.parity_sets(n):
        classes.parity_block_ends(n, evens, tables)
    grouped = _grouped_tables(n, tables)
    mask = (1 << n) - 1
    for name, table in grouped.items():
        rows = _reference_suffix_table(n, _values(name >> n & mask, n), _values(name & mask, n), {})
        assert table == _grouped_by_key_bits(rows)
        # a group of one row gives both ends one tuple
        assert [lo is hi for _, lo, _, hi, _ in table] == [
            sum(bits == group[0] for _, bits, _ in rows) == 1 for group in table]
    # grouped tables are the longest, and the per-row tables under them are
    # those of ``_reference_suffix_table``: no table is held both ways
    suffix = min(n, classes._ends_suffix(n))
    assert {len(lo) for table in grouped.values() for _, lo, _, _, _ in table} == {suffix}
    reference = {}
    for name in tables.keys() - grouped.keys():
        _reference_suffix_table(n, _values(name >> n, n), _values(name & mask, n), reference)
        assert len(tables[name][0][0]) < suffix
    assert {name: tables[name] for name in reference} == reference


def test_a_store_shared_by_both_sweeps_keeps_their_tables_apart():
    # grouped and per-row tables of one value set have different names
    tables = {}
    for evens in classes.parity_sets(7):
        ends = classes.parity_block_ends(7, evens, tables)
        block = classes.parity_block(7, evens, tables)
        assert [end[:3] for end in ends] == [(key, members[0], members[-1])
                                             for key, members, _ in block]
        assert block == classes.parity_block(7, evens, {})


def test_grouped_tables_stay_within_their_bound():
    # the ends sweep of S_8 groups 4 positions: one table for each 2 values
    # of one parity and 2 of the other, C(8, 2) C(6, 2), each with at most
    # its 4 rows as groups: 1,190 groups for 1,680 rows
    tables = {}
    for evens in classes.parity_sets(8):
        classes.parity_block_ends(8, evens, tables)
    grouped = _grouped_tables(8, tables)
    assert classes._ends_suffix(8) == 4
    assert len(grouped) == math.comb(8, 2) * math.comb(6, 2)
    assert {len(table) for table in grouped.values()} == {2, 3, 4}
    assert sum(map(len, grouped.values())) == 1190
    # below them only per-row tables of 3 positions or fewer
    assert all(len(tables[name][0][0]) <= 3 for name in tables.keys() - grouped.keys())


def test_class_of_in_s12_has_720_members():
    cls = class_of(parse_perm("1,7,2,8,3,9,4,10,5,11,6,12"))
    assert len(cls) == 720
    assert len({odd_diagram(w) for w in cls.elements}) == 1


def _bfs_class_of(w):
    """Reference: the breadth-first search over every member, along the
    same-parity transpositions that keep the odd diagram, that class_of
    replaced by its walk to the two ends."""
    target = odd_diagram_key(w)
    n = len(w)
    seen = {w}
    queue = [w]
    for u in queue:
        for i in range(n - 2):
            for j in range(i + 2, n, 2):
                x = u[:i] + (u[j],) + u[i + 1:j] + (u[i],) + u[j + 1:]
                if x not in seen and odd_diagram_key(x) == target:
                    seen.add(x)
                    queue.append(x)
    queue.sort()
    return BruhatInterval(tuple(queue), tuple(map(length, queue)))


@pytest.mark.parametrize("n", range(8, 13))
def test_class_of_matches_bfs_on_seeded_permutations(n):
    rng = random.Random(n)
    for _ in range(40):
        w = tuple(rng.sample(range(1, n + 1), n))
        assert class_of(w) == _bfs_class_of(w)


def test_class_of_matches_bfs_on_the_720_member_class():
    w = parse_perm("1,7,2,8,3,9,4,10,5,11,6,12")
    assert class_of(w) == _bfs_class_of(w)


def test_class_of_keys_few_permutations(monkeypatch):
    # the walks to the two ends key about rank * n^2/4 permutations, not
    # every member's neighbours as the search over the class did (768 here)
    calls = []

    def counting(w):
        calls.append(w)
        return odd_diagram_key(w)

    monkeypatch.setattr(classes, "odd_diagram_key", counting)
    monkeypatch.setattr(diagrams, "odd_diagram_key", counting)
    assert len(class_of(parse_perm("654172839"))) == 96
    assert 0 < len(calls) <= 40


@pytest.mark.parametrize("n", range(1, 8))
def test_class_size_is_the_product_of_the_factor_lengths(n):
    for cls in classes_of_sn(n):
        found = class_of(cls.top)
        lo, hi, size = found.bottom, found.top, len(found.elements)
        assert math.prod(_factor_lengths(lo, hi)) == size == len(cls)
        assert class_interval(lo, hi, size) == found
        with pytest.raises(ValueError, match=f"has {size} members, more than {size - 1};"):
            class_interval(lo, hi, size - 1)


def test_class_of_checks_the_budget_before_building_members(monkeypatch):
    def fail(*args):
        raise AssertionError("members were built")

    monkeypatch.setattr(partition, "_chain_members", fail)
    with pytest.raises(ValueError, match="has 18 members, more than 17;"):
        class_of(parse_perm("6451723"), max_members=17)


def test_class_command_answers_above_guarded_n(capsys):
    assert run(["class", "--perm", "1,7,2,8,3,9,4,10,5,11,6"]) == 0
    assert "size: 120\n" in capsys.readouterr().out


def test_class_shape_deletes_the_positions_all_members_share():
    # 213 and 312 share the 1 at position 2; 2, 3 standardize to 1, 2
    assert class_shape((parse_perm("213"), parse_perm("312"))) == ((1, 2), (2, 1))
    assert class_shape((parse_perm("3412"),)) == ((),)
    cls = class_of(parse_perm("5431627"))
    shape = class_shape(cls.elements)
    assert len(shape) == len(cls) == 18
    assert sorted(shape) == list(shape) and len(shape[0]) == 4


def _reference_class_shape(members):
    """Reference: the shape member by member, each member's entries at the
    positions where some two members differ, standardized."""
    moving = [p for p in range(len(members[0])) if len({w[p] for w in members}) > 1]
    values = sorted(members[0][p] for p in moving)
    return tuple(tuple(values.index(w[p]) + 1 for p in moving) for w in members)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_shape_matches_the_member_by_member_reference(n):
    for cls in classes_of_sn(n):
        assert class_shape(cls.elements) == _reference_class_shape(cls.elements)


@pytest.mark.parametrize("n, count, shapes", [
    (1, 1, 1), (2, 2, 1), (3, 5, 2), (4, 17, 2), (5, 70, 5), (6, 351, 8), (7, 2041, 24),
    pytest.param(8, 13732, 58, marks=pytest.mark.long),
])
def test_class_shapes_check_passes_on_every_class(n, count, shapes):
    report = verify.run_checks(n, ["class_shapes"], allow_large=True)
    assert report.ok
    assert report.checks[0].passed == count
    assert len({class_shape(c.elements) for c in classes_of_sn(n)}) == shapes


def _shape_keeping_a_constant_column(members):
    """A wrong shape key: the positions of ``class_shape`` less its first,
    plus the first position where every member agrees."""
    columns = list(zip(*members))
    moving = [p for p, column in enumerate(columns) if len(set(column)) > 1]
    constant = [p for p, column in enumerate(columns) if len(set(column)) == 1]
    kept = sorted(moving[1:] + constant[:1])
    values = sorted({w[p] for w in members for p in kept})
    return tuple(tuple(values.index(w[p]) + 1 for p in kept) for w in members)


def test_class_shapes_check_fails_on_a_wrong_shape_key(monkeypatch):
    monkeypatch.setattr(classes, "class_shape", _shape_keeping_a_constant_column)
    check = verify.run_checks(5, ["class_shapes"]).checks[0]
    assert (check.passed, check.failed) == (32, 38)
    # the class of 213 and 312 inside S_5 is one the wrong key breaks; its
    # block is not among those whose findings fill the first 20
    monkeypatch.setattr(classes, "class_stream", lambda n: iter([class_of(parse_perm("21345"))]))
    check = verify.run_checks(5, ["class_shapes"]).checks[0]
    assert check.findings == [{"min": "21345", "max": "31245"}]


def _ends_shape_keeping_a_pinned_position(u, v):
    """A wrong ends key: ``ends_shape`` with the first pinned position kept."""
    pinned = classes.pinned_values(u, v)
    pinned &= pinned - 1 if pinned else 0  # unpin the lowest pinned value
    kept = [p for p, x in enumerate(u) if not pinned >> x & 1]
    values = sorted(u[p] for p in kept)
    return (tuple(values.index(u[p]) + 1 for p in kept),
            tuple(values.index(v[p]) + 1 for p in kept))


def test_class_shapes_check_fails_on_a_wrong_ends_key(monkeypatch):
    monkeypatch.setattr(classes, "ends_shape", _ends_shape_keeping_a_pinned_position)
    report = verify.run_checks(5, ["class_shapes"])
    assert not report.ok
    # the class of 213 and 312 inside S_5 has the member shape of the class
    # of 12435 and 12534, which comes first; the wrong key keeps the pinned
    # 1 of both, before the moving entries in one and between them in the
    # other, so the two keys differ
    assert {"min": "21345", "max": "31245"} in report.checks[0].findings


def test_class_shapes_check_fails_on_a_wrong_pinned_rule(monkeypatch):
    # a rule that pins every position where the two ends agree
    monkeypatch.setattr(classes, "pinned_values", lambda u, v: sum(
        1 << x for x, y in zip(u, v) if x == y))
    report = verify.run_checks(5, ["class_shapes"])
    assert not report.ok


def test_class_shapes_check_fails_on_a_rank_vector_that_depends_on_more_than_the_shape(
        monkeypatch):
    # a rank vector with an extra empty rank where the bottom's length is odd:
    # classes of one shape whose bottoms differ in the parity of their length
    # then get two rank vectors
    real = intervals.rank_vector
    monkeypatch.setattr(intervals, "rank_vector",
                        lambda interval: real(interval) + (0,) * (interval.lengths[0] % 2))
    check = verify.run_checks(5, ["class_shapes"]).checks[0]
    assert (check.passed, check.failed) == (37, 33)
    assert check.findings[0] == {"min": "14352", "max": "15342"}


def test_class_shapes_check_fails_on_a_criterion_verdict_that_depends_on_more_than_the_shape(
        monkeypatch):
    # the criterion's verdict flipped on the intervals of rank >= 2 whose
    # bottom has odd length
    real = duality.bipartite_criterion
    monkeypatch.setattr(duality, "bipartite_criterion", lambda interval: real(interval) != (
        interval.rank >= 2 and interval.lengths[0] % 2 == 1))
    check = verify.run_checks(5, ["class_shapes"]).checks[0]
    assert (check.passed, check.failed) == (69, 1)
    assert check.findings == [{"min": "32415", "max": "52413"}]
