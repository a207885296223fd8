import random
from itertools import chain, combinations

import pytest

from odd_diagrams import classes, intervals, verify
from odd_diagrams.classes import class_of, classes_of_sn
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


@pytest.mark.parametrize("n", range(1, 6))
def test_rank_counts_count_the_member_lengths(n):
    # ``rank_vector`` reads the carried lengths; the reference counts
    # ``length`` of each member
    for u in all_perms(n):
        for v in all_perms(n):
            if not bruhat_leq(u, v):
                continue
            interval = interval_elements(u, v)
            levels = [length(w) - length(u) for w in interval.elements]
            expected = tuple(levels.count(r) for r in range(length(v) - length(u) + 1))
            assert rank_vector(interval) == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_the_first_and_last_carried_lengths_are_the_bottoms_and_the_tops(n):
    # members are sorted and Bruhat order refines lexicographic order, so
    # rank, the levels of cover_graph and carrell_holds read these two ends
    for u in all_perms(n):
        for v in all_perms(n):
            if not bruhat_leq(u, v):
                continue
            interval = interval_elements(u, v)
            lengths = interval.lengths
            assert (interval.elements[0], interval.elements[-1]) == (u, v)
            ends = (length(u), length(v))
            assert (lengths[0], lengths[-1]) == (min(lengths), max(lengths)) == ends
            assert interval.rank == length(v) - length(u)
            levels = interval.cover_graph[0]
            assert (levels[0], levels[-1]) == ([0], [len(interval) - 1])


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
        assert hasse_edges(cls) == _cover_filter_hasse_edges(cls)


def test_hasse_edges_match_cover_filter_on_golden_s9_class():
    interval = class_of(parse_perm("654172839"))
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
    # the edge comes from a copy, so ``cls`` caches no cover graph before the check
    x, y = hasse_edges(class_of(cls.bottom))[0]
    needed = tuple(i for i in range(7) if x[i] != y[i])
    derive = BruhatInterval.swaps.func
    monkeypatch.setattr(BruhatInterval, "swaps",
                        property(lambda self: [p for p in derive(self) if p != needed]))
    monkeypatch.setattr(classes, "class_stream", lambda n: iter([cls]))
    check = verify.run_checks(7, ["class_covers"]).checks[0]
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
        interval = BruhatInterval(members, tuple(map(length, members)))
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
        moving = {i for i, column in enumerate(zip(*cls.elements)) if len(set(column)) > 1}
        for i, j in cls.swaps:
            assert (j - i) % 2 == 0 and i in moving and j in moving


def _assert_levels_group_by_length(interval):
    levels, _, _ = interval.cover_graph
    elements = interval.elements
    base = length(interval.bottom)
    assert sorted(chain.from_iterable(levels)) == list(range(len(elements)))
    assert [elements[k] for k in levels[0]] == [interval.bottom]
    assert [elements[k] for k in levels[-1]] == [interval.top]
    for r, level in enumerate(levels):
        assert list(level) == sorted(level)
        assert all(length(elements[k]) == base + r for k in level)
    assert interval.rank == length(interval.top) - base


@pytest.mark.parametrize("n", range(1, 6))
def test_levels_group_members_by_length(n):
    for w in all_perms(n):
        _assert_levels_group_by_length(interval_elements(identity(n), w))
    for cls in classes_of_sn(n):
        _assert_levels_group_by_length(cls)


def test_to_dot_matches_length_grouped_export():
    intervals = [interval_elements(identity(4), w) for w in all_perms(4)]
    intervals.append(class_of(parse_perm("5431627")))
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
        assert interval_elements(cls.bottom, cls.top).elements == cls.elements
        assert cls.elements == _bfs_interval(cls.bottom, cls.top)


def test_lifting_engine_matches_bfs_on_golden_s9_class():
    cls = class_of(parse_perm("654172839"))
    members = interval_elements(cls.bottom, cls.top).elements
    assert members == _bfs_interval(cls.bottom, cls.top) == cls.elements
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


def _reference_swap(w, i):
    """w s_{i+1}, by slicing: the former per-member swap of both engines."""
    return w[:i] + (w[i + 1], w[i]) + w[i + 2:]


def _reference_interval_elements(u, v):
    """Reference: the former right-only lifting engine, verbatim."""
    _swap = _reference_swap
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
    return intervals.BruhatInterval(elements, tuple(map(members.__getitem__, elements)))


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
        built = interval_elements(cls.bottom, cls.top)
        assert built == _reference_interval_elements(cls.bottom, cls.top)
        assert built.elements == cls.elements
    assert len(table) == 13732


def test_two_sided_engine_matches_right_only_engine_on_the_5040_member_class():
    cls = class_of(tuple(c for i in range(1, 8) for c in (i, i + 7)))
    built = interval_elements(cls.bottom, cls.top)
    assert built == _reference_interval_elements(cls.bottom, cls.top)
    assert len(built) == 5040


def _reference_swap_values(w, k):
    """s_k w by slicing: the former swap of the values k and k + 1."""
    a, b = sorted((w.index(k), w.index(k + 1)))
    return w[:a] + (w[b],) + w[a + 1:b] + (w[a],) + w[b + 1:]


def _reference_two_sided_interval_elements(u, v, sides):
    """Reference: the former two-sided engine, which rebuilt each member by
    slicing; it appends the kind of each lifting step it takes to ``sides``."""
    _swap = _reference_swap
    if not bruhat_leq(u, v):
        raise ValueError(f"{format_perm(u)} is not below {format_perm(v)}")
    steps = []
    x, y = u, v
    while x != y:
        side, i = intervals._lifting_step(x, y)
        sides.append(side)
        steps.append((x, side, i))
        if side == "right":
            y = _swap(y, i)
        elif side == "left":
            y = _reference_swap_values(y, i)
        else:
            x = _swap(x, i)
    members = {x: length(x)}
    for x, side, i in reversed(steps):
        if side == "right":
            members.update([(_swap(w, i), lw + 1)
                            for w, lw in members.items() if w[i] < w[i + 1]])
        elif side == "left":
            lifted = []
            for w, lw in members.items():
                a, b = w.index(i), w.index(i + 1)
                if a < b:
                    lifted.append((w[:a] + (i + 1,) + w[a + 1:b] + (i,) + w[b + 1:], lw + 1))
            members.update(lifted)
        else:
            members = {w: members[w] for w in _reference_above(x, i, members)}
    elements = tuple(sorted(members))
    return intervals.BruhatInterval(elements, tuple(map(members.__getitem__, elements)))


def _former_rebuild_steps(pairs):
    """Asserts that interval_elements on each pair equals the former
    two-sided engine's result, members and lengths; returns the kinds of
    lifting step taken."""
    sides = []
    for u, v in pairs:
        built = interval_elements(u, v)
        former = _reference_two_sided_interval_elements(u, v, sides)
        assert (built.elements, built.lengths) == (former.elements, former.lengths), (u, v)
    return set(sides)


STEP_KINDS = ("right", "left", "filter")


# S_2 has right lifts only; a left lift that is not a right one needs n >= 3,
# and a filter step x below y with every descent of y on both sides, as in
# 1324 < 3412, needs n >= 4
@pytest.mark.parametrize("n, kinds", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 3)])
def test_rebuild_matches_the_former_rebuild_on_every_pair(n, kinds):
    elems = list(all_perms(n))
    pairs = [(u, v) for u in elems for v in elems if bruhat_leq(u, v)]
    assert _former_rebuild_steps(pairs) == set(STEP_KINDS[:kinds])


@pytest.mark.parametrize("n, count", [(8, 60), (9, 25)])
def test_rebuild_matches_the_former_rebuild_on_seeded_class_intervals(n, count):
    rng = random.Random(n)
    values = list(range(1, n + 1))
    ends = []
    for _ in range(count):
        cls = class_of(tuple(rng.sample(values, n)))
        ends.append((cls.bottom, cls.top))
    assert _former_rebuild_steps(ends) == set(STEP_KINDS)


def test_lifting_step_takes_a_right_then_a_left_lift_then_the_filter():
    assert intervals._lifting_step(parse_perm("123"), parse_perm("231")) == ("right", 1)
    # 132 has the only right descent of 231, but not its left descent s_1
    # (2 before 1): [132, 231] is K and s_1 K for K = [132, 132]
    assert intervals._lifting_step(parse_perm("132"), parse_perm("231")) == ("left", 1)
    assert tuple(map(intervals._value_swap(3, 1), parse_perm("231"))) == parse_perm("132")
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
    assert len(interval_elements(cls.bottom, cls.top)) == 5040
    assert sides == ["left"] * 21


@pytest.mark.parametrize("n, pairs", [(1, 1), (2, 3), (3, 19), (4, 213), (5, 3781)])
def test_interval_lifting_vs_filter_tries_every_comparable_pair_once(n, pairs):
    check = verify.run_checks(n, ["interval_lifting_vs_filter"]).checks[0]
    assert (check.passed, check.failed, check.findings) == (pairs, 0, [])


def test_interval_lifting_vs_filter_checks_the_carried_lengths(monkeypatch):
    report = verify.run_checks(5, ["interval_lifting_vs_filter"])
    assert report.ok and report.checks[0].passed == 3781

    def off_by_one(u, v):
        interval = interval_elements(u, v)
        return intervals.BruhatInterval(interval.elements,
                                        tuple(lw + 1 for lw in interval.lengths))

    monkeypatch.setattr(verify.intervals, "interval_elements", off_by_one)
    check = verify.run_checks(4, ["interval_lifting_vs_filter"]).checks[0]
    assert (check.passed, check.failed) == (0, 213)


def _drop_a_middle_member(interval):
    """[u, v] without its middle member, when it has one that is neither end."""
    if len(interval) < 3:
        return interval
    i = len(interval) // 2
    return BruhatInterval(interval.elements[:i] + interval.elements[i + 1:],
                          interval.lengths[:i] + interval.lengths[i + 1:])


def _add_an_outsider(interval):
    """[u, v] with the first permutation outside it added in order, with its
    length, when S_n has one."""
    members = set(interval.elements)
    outside = [w for w in all_perms(len(interval.bottom)) if w not in members]
    if not outside:
        return interval
    elements = tuple(sorted(members | {outside[0]}))
    return BruhatInterval(elements, tuple(map(length, elements)))


@pytest.mark.parametrize("broken, passed", [
    # only the 82 pairs of rank 0 or 1 have no member that is neither end
    (_drop_a_middle_member, 82),
    # only [1234, 4321] has no permutation of S_4 outside it
    (_add_an_outsider, 1),
])
def test_interval_lifting_vs_filter_catches_a_wrong_member_set(monkeypatch, broken, passed):
    monkeypatch.setattr(verify.intervals, "interval_elements",
                        lambda u, v: broken(interval_elements(u, v)))
    check = verify.run_checks(4, ["interval_lifting_vs_filter"]).checks[0]
    assert (check.passed, check.failed) == (passed, 213 - passed)
    assert len(check.findings) == 20


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
