import random
from itertools import chain, combinations

import pytest

from odd_diagrams import intervals, verify
from odd_diagrams.classes import OddDiagramClass, class_of, classes_of_sn
from odd_diagrams.intervals import (
    BruhatInterval,
    hasse_edges,
    interval_elements,
    rank_vector,
    to_dot,
)
from odd_diagrams.perms import (
    all_perms,
    bruhat_leq,
    covers,
    format_perm,
    identity,
    length,
    parse_perm,
    upward_covers,
)


def test_singleton_interval():
    w = parse_perm("24513")
    interval = interval_elements(w, w)
    assert interval.elements == (w,)
    assert rank_vector(interval) == (1,)
    assert hasse_edges(interval) == []


def test_full_s3():
    interval = interval_elements(identity(3), parse_perm("321"))
    assert len(interval) == 6
    assert rank_vector(interval) == (1, 2, 2, 1)
    assert len(hasse_edges(interval)) == 8


def test_figure2_interval():
    u, v = parse_perm("5431627"), parse_perm("7461523")
    interval = interval_elements(u, v)
    assert len(interval) == 18
    assert rank_vector(interval) == (1, 3, 5, 5, 3, 1)
    assert (parse_perm("5431627"), parse_perm("6431527")) in hasse_edges(interval)


def test_rejects_incomparable():
    with pytest.raises(ValueError):
        interval_elements(parse_perm("21"), parse_perm("12"))


@pytest.mark.parametrize("n", range(2, 7))
def test_bfs_equals_brute_force_filter(n):
    rng = random.Random(n)
    elems = list(all_perms(n))
    tried = 0
    while tried < 80:
        u, v = rng.choice(elems), rng.choice(elems)
        if not bruhat_leq(u, v):
            continue
        tried += 1
        bfs = interval_elements(u, v).elements
        brute = tuple(
            sorted(w for w in elems if bruhat_leq(u, w) and bruhat_leq(w, v))
        )
        assert bfs == brute


@pytest.mark.parametrize("n", range(2, 6))
def test_intervals_are_graded(n):
    rng = random.Random(n + 100)
    elems = list(all_perms(n))
    tried = 0
    while tried < 25:
        u, v = rng.choice(elems), rng.choice(elems)
        if not bruhat_leq(u, v):
            continue
        tried += 1
        interval = interval_elements(u, v)
        members = set(interval.elements)
        for w in interval.elements:
            if w == v:
                continue
            ups = [z for z in members if covers(w, z)]
            assert ups, "non-maximal element without an upward cover"
        # every rank between bottom and top is occupied
        ranks = rank_vector(interval)
        assert all(c > 0 for c in ranks)
        assert len(ranks) - 1 == length(v) - length(u)


def test_dot_export():
    interval = interval_elements(identity(3), parse_perm("321"))
    dot = to_dot(interval)
    assert dot.startswith("graph")
    assert '"123" -- "132";' in dot
    assert "rank=same" in dot
    assert dot.count("--") == 8


def _cover_filter_hasse_edges(interval):
    """Reference: every upward cover in S_n, kept when it is a member."""
    members = set(interval.elements)
    edges = []
    for x in interval.elements:
        for y in upward_covers(x):
            if y in members:
                edges.append((x, y))
    edges.sort()
    return edges


def _length_grouped_to_dot(interval):
    """Reference: DOT export grouping members by length itself."""
    base = length(interval.bottom)
    levels = {}
    for w in interval.elements:
        levels.setdefault(length(w) - base, []).append(w)
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for r in sorted(levels):
        names = " ".join(f'"{format_perm(w)}"' for w in sorted(levels[r]))
        lines.append(f"  {{ rank=same; {names} }}")
    for x, y in _cover_filter_hasse_edges(interval):
        lines.append(f'  "{format_perm(x)}" -- "{format_perm(y)}";')
    lines.append("}")
    return "\n".join(lines)


def test_hasse_edges_match_cover_filter_on_every_interval_up_to_s5():
    count = 0
    for n in range(1, 6):
        elems = list(all_perms(n))
        for u in elems:
            for v in elems:
                if bruhat_leq(u, v):
                    interval = interval_elements(u, v)
                    assert hasse_edges(interval) == _cover_filter_hasse_edges(interval)
                    count += 1
    assert count == 4017


def test_hasse_edges_match_cover_filter_on_every_class_of_s7():
    for cls in classes_of_sn(7):
        interval = cls.interval
        assert hasse_edges(interval) == _cover_filter_hasse_edges(interval)


def test_hasse_edges_match_cover_filter_on_golden_s9_class():
    interval = class_of(parse_perm("654172839")).interval
    edges = hasse_edges(interval)
    assert edges == _cover_filter_hasse_edges(interval)
    assert edges


@pytest.mark.parametrize("n, count", [
    (1, 1), (2, 2), (3, 5), (4, 17), (5, 70), (6, 351), (7, 2041),
    pytest.param(8, 13732, marks=pytest.mark.long),
])
def test_class_covers_check_passes_on_every_class(n, count):
    report = verify.run_checks(n, ["class_covers"], allow_large=True)
    assert report.ok
    assert report.checks[0].passed == count


def test_class_covers_check_fails_when_swaps_drop_a_needed_pair(monkeypatch):
    cls = class_of(parse_perm("5431627"))
    x, y = hasse_edges(cls.interval)[0]
    needed = tuple(i for i in range(7) if x[i] != y[i])
    derive = BruhatInterval.swaps.func
    monkeypatch.setattr(BruhatInterval, "swaps",
                        property(lambda self: [p for p in derive(self) if p != needed]))
    check = verify.check_class_covers(7, None, lambda: [cls])
    assert (check.passed, check.failed) == (0, 1)
    assert check.findings == [{"min": "5431627", "max": "7461523"}]


@pytest.mark.parametrize("n", [5, 6])
def test_swaps_hold_every_reflection_between_members_of_any_set(n):
    # the member sets are not intervals, and BruhatInterval does not ask
    rng = random.Random(n)
    every = list(all_perms(n))
    reflections = 0
    for size in (2, 3, 8, 30, 60):
        members = tuple(sorted(rng.sample(every, size)))
        interval = BruhatInterval(members[0], members[-1], members, tuple(map(length, members)))
        swaps = set(interval.swaps)
        present = set(members)
        for w in members:
            for i, j in combinations(range(n), 2):
                t = list(w)
                t[i], t[j] = t[j], t[i]
                if tuple(t) in present:
                    reflections += 1
                    assert (i, j) in swaps
    assert reflections > 20


@pytest.mark.parametrize("n", range(1, 9))
def test_class_swaps_are_same_parity_pairs_of_moving_positions(n):
    for cls in classes_of_sn(n):
        moving = {i for i, column in enumerate(zip(*cls.members)) if len(set(column)) > 1}
        for i, j in cls.interval.swaps:
            assert (j - i) % 2 == 0 and i in moving and j in moving


def _assert_levels_group_by_length(interval):
    levels = interval.levels
    base = length(interval.bottom)
    assert sorted(chain.from_iterable(levels)) == list(interval.elements)
    assert levels[0] == (interval.bottom,) and levels[-1] == (interval.top,)
    for r, level in enumerate(levels):
        assert list(level) == sorted(level)
        assert all(length(x) == base + r for x in level)
    assert interval.rank == length(interval.top) - base


@pytest.mark.parametrize("n", range(1, 6))
def test_levels_group_members_by_length(n):
    for w in all_perms(n):
        _assert_levels_group_by_length(interval_elements(identity(n), w))
    for cls in classes_of_sn(n):
        _assert_levels_group_by_length(cls.interval)


def test_to_dot_matches_length_grouped_export():
    intervals = [interval_elements(identity(4), w) for w in all_perms(4)]
    intervals.append(class_of(parse_perm("5431627")).interval)
    for interval in intervals:
        assert to_dot(interval) == _length_grouped_to_dot(interval)


def _bfs_interval(u, v):
    """Reference: the former engine, a BFS upward from u through covers,
    keeping each cover that is still below v."""
    seen = {u}
    frontier = [u]
    while frontier:
        new_frontier = []
        for w in frontier:
            for z in upward_covers(w):
                if z not in seen and bruhat_leq(z, v):
                    seen.add(z)
                    new_frontier.append(z)
        frontier = new_frontier
    return tuple(sorted(seen))


def test_lifting_engine_matches_bfs_on_every_interval_up_to_s5():
    count = 0
    for n in range(1, 6):
        elems = list(all_perms(n))
        for u in elems:
            for v in elems:
                if bruhat_leq(u, v):
                    assert interval_elements(u, v).elements == _bfs_interval(u, v)
                    count += 1
    assert count == 4017


@pytest.mark.parametrize("n", [6, 7])
def test_lifting_engine_matches_bfs_on_seeded_pairs(n):
    rng = random.Random(600 + n)
    elems = list(all_perms(n))
    tried = 0
    while tried < 300:
        u, v = rng.sample(elems, 2)
        if not bruhat_leq(u, v):
            u, v = v, u
            if not bruhat_leq(u, v):
                continue
        tried += 1
        assert interval_elements(u, v).elements == _bfs_interval(u, v)


def test_lifting_engine_matches_bfs_on_every_class_of_s7():
    for cls in classes_of_sn(7):
        assert interval_elements(cls.min_elem, cls.max_elem).elements == cls.members
        assert cls.members == _bfs_interval(cls.min_elem, cls.max_elem)


def test_lifting_engine_matches_bfs_on_golden_s9_class():
    cls = class_of(parse_perm("654172839"))
    members = interval_elements(cls.min_elem, cls.max_elem).elements
    assert members == _bfs_interval(cls.min_elem, cls.max_elem) == cls.members
    assert len(members) == 96


def test_lifting_engine_matches_bfs_on_all_of_s7():
    e, w0 = identity(7), tuple(range(7, 0, -1))
    members = interval_elements(e, w0).elements
    assert len(members) == 5040
    assert members == _bfs_interval(e, w0) == tuple(sorted(all_perms(7)))


def test_lifting_engine_compares_only_its_input(monkeypatch):
    calls = []

    def counting_leq(u, v):
        calls.append((u, v))
        return bruhat_leq(u, v)

    monkeypatch.setattr(intervals, "bruhat_leq", counting_leq)
    u, v = parse_perm("5431627"), parse_perm("7461523")
    assert len(interval_elements(u, v)) == 18
    assert calls == [(u, v)]


def test_lifting_engine_lengths_match_length_on_every_interval_up_to_s4():
    for n in range(1, 5):
        elems = list(all_perms(n))
        for u in elems:
            for v in elems:
                if bruhat_leq(u, v):
                    interval = interval_elements(u, v)
                    assert interval.lengths == tuple(map(length, interval.elements))


def test_lifting_engine_lengths_match_length_on_seeded_pairs_of_s6():
    rng = random.Random(606)
    elems = list(all_perms(6))
    tried = 0
    while tried < 300:
        u, v = sorted(rng.sample(elems, 2))
        if not bruhat_leq(u, v):
            continue
        tried += 1
        interval = interval_elements(u, v)
        assert interval.lengths == tuple(map(length, interval.elements))
        assert interval.rank == length(v) - length(u)


def _reference_descent_step(x, y):
    """The former engine's only step kind: the first right descent of y that
    x lacks (case A), else the first right descent of y (case B)."""
    descents = [i for i in range(len(y) - 1) if y[i] > y[i + 1]]
    return next(((i, True) for i in descents if x[i] < x[i + 1]), (descents[0], False))


def _reference_above(x, i, members):
    prefix = sorted(x[:i + 1])
    return [u for u in members if all(a <= b for a, b in zip(prefix, sorted(u[:i + 1])))]


def _reference_interval_elements(u, v):
    """Reference: the former right-only lifting engine, verbatim."""
    _swap = intervals._swap
    if not bruhat_leq(u, v):
        raise ValueError(f"{format_perm(u)} is not below {format_perm(v)}")
    steps = []
    x, y = u, v
    while x != y:
        i, lifts = _reference_descent_step(x, y)
        steps.append((x, i, lifts))
        x, y = (x, _swap(y, i)) if lifts else (_swap(x, i), y)
    members = {x: length(x)}
    for x, i, lifts in reversed(steps):
        if lifts:
            members.update([(_swap(w, i), lw + 1)
                            for w, lw in members.items() if w[i] < w[i + 1]])
        else:
            members = {w: members[w] for w in _reference_above(x, i, members)}
    elements = tuple(sorted(members))
    return intervals.BruhatInterval(u, v, elements, tuple(map(members.__getitem__, elements)))


def test_two_sided_engine_matches_right_only_engine_on_every_pair_of_s5():
    elems = list(all_perms(5))
    pairs = [(u, v) for u in elems for v in elems if bruhat_leq(u, v)]
    for u, v in pairs:
        assert interval_elements(u, v) == _reference_interval_elements(u, v)
    assert len(pairs) == 3781


def test_two_sided_engine_matches_right_only_engine_on_seeded_pairs_of_s7():
    rng = random.Random(707)
    elems = list(all_perms(7))
    tried = 0
    while tried < 2000:
        u, v = rng.sample(elems, 2)
        if not bruhat_leq(u, v):
            u, v = v, u
            if not bruhat_leq(u, v):
                continue
        tried += 1
        assert interval_elements(u, v) == _reference_interval_elements(u, v)


def test_two_sided_engine_matches_right_only_engine_on_every_class_of_s8():
    table = classes_of_sn(8)
    for cls in table:
        built = interval_elements(cls.min_elem, cls.max_elem)
        assert built == _reference_interval_elements(cls.min_elem, cls.max_elem)
        assert built.elements == cls.members
    assert len(table) == 13732


def test_two_sided_engine_matches_right_only_engine_on_the_5040_member_class():
    cls = class_of(tuple(c for i in range(1, 8) for c in (i, i + 7)))
    built = interval_elements(cls.min_elem, cls.max_elem)
    assert built == _reference_interval_elements(cls.min_elem, cls.max_elem)
    assert len(built) == 5040


def test_lifting_step_takes_a_right_then_a_left_lift_then_the_filter():
    assert intervals._lifting_step(parse_perm("123"), parse_perm("231")) == ("right", 1)
    # 132 has the only right descent of 231, but not its left descent s_1
    # (2 before 1): [132, 231] is K and s_1 K for K = [132, 132]
    assert intervals._lifting_step(parse_perm("132"), parse_perm("231")) == ("left", 1)
    assert intervals._swap_values(parse_perm("231"), 1) == parse_perm("132")
    # 1324 has both right descents and the one left descent (3 before 2) of 3412
    assert intervals._lifting_step(parse_perm("1324"), parse_perm("3412")) == ("filter", 1)


def test_the_5040_member_class_is_built_by_left_lifts_alone(monkeypatch):
    # the right-only engine took 42 right lifts and 21 filters here
    cls = class_of(tuple(c for i in range(1, 8) for c in (i, i + 7)))
    step, sides = intervals._lifting_step, []

    def recording_step(x, y):
        sides.append(step(x, y)[0])
        return step(x, y)

    monkeypatch.setattr(intervals, "_lifting_step", recording_step)
    assert len(interval_elements(cls.min_elem, cls.max_elem)) == 5040
    assert sides == ["left"] * 21


def test_interval_bfs_vs_filter_checks_the_carried_lengths(monkeypatch):
    report = verify.run_checks(5, ["interval_bfs_vs_filter"], allow_large=True)
    assert report.ok and report.checks[0].passed == 500

    def off_by_one(u, v):
        interval = interval_elements(u, v)
        return intervals.BruhatInterval(u, v, interval.elements,
                                        tuple(lw + 1 for lw in interval.lengths))

    monkeypatch.setattr(verify.intervals, "interval_elements", off_by_one)
    check = verify.check_interval_bfs_vs_filter(4, random.Random(0), None, samples=20)
    assert (check.passed, check.failed) == (0, 20)


def test_member_budget_stops_the_lifting():
    e, w0 = identity(4), parse_perm("4321")
    assert len(interval_elements(e, w0, max_members=24)) == 24
    with pytest.raises(ValueError, match="building \\[1234, 4321\\] takes more than 23 members"):
        interval_elements(e, w0, max_members=23)


@pytest.mark.parametrize("n", range(1, 5))
def test_member_budget_leaves_every_interval_within_it_unchanged(n):
    # no set the lifting holds in S_n has more than n! members
    elems = list(all_perms(n))
    for u in elems:
        for v in elems:
            if bruhat_leq(u, v):
                built = interval_elements(u, v)
                assert interval_elements(u, v, max_members=len(elems)) == built
