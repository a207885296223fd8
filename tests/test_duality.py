import pytest

from odd_diagrams import duality, intervals, verify
from odd_diagrams.classes import class_of, classes_of_sn
from odd_diagrams.duality import (
    bipartite_criterion,
    boundary_bipartite_graphs,
    is_self_dual,
    non_self_dual_census,
    non_self_dual_classes,
    top_heavy_check,
)
from odd_diagrams.intervals import BruhatInterval, hasse_edges, interval_elements
from odd_diagrams.perms import all_perms, identity, length, parse_perm


@pytest.fixture(scope="module")
def golden_s9():
    """The first non-self-dual class, found in S_9."""
    return class_of(parse_perm("654172839"))


def test_top_heavy_golden():
    assert top_heavy_check(identity(4))
    assert top_heavy_check(parse_perm("312"))


@pytest.mark.parametrize("n", range(1, 6))
def test_top_heavy_exhaustive(n):
    for w in all_perms(n):
        assert top_heavy_check(w)


def test_singleton_self_dual():
    w = parse_perm("24513")
    assert is_self_dual(BruhatInterval(w, w, (w,), (length(w),)))


def test_s3_full_interval_self_dual():
    assert is_self_dual(interval_elements(identity(3), parse_perm("321")))


def test_full_s7_interval_self_dual():
    # 5040 elements: deeper than Python's recursion limit
    w0 = tuple(range(7, 0, -1))
    members = tuple(all_perms(7))
    assert is_self_dual(BruhatInterval(identity(7), w0, members, tuple(map(length, members))))


def _recursive_is_self_dual(interval):
    """Reference: the recursive backtracking search the iterative one replaced."""
    elems = interval.elements
    if len(elems) == 1:
        return True
    base = length(interval.bottom)
    levels = [[] for _ in range(interval.rank + 1)]
    for i, w in enumerate(elems):
        levels[length(w) - base].append(i)
    sizes = [len(level) for level in levels]
    if sizes != sizes[::-1]:
        return False
    index = {w: i for i, w in enumerate(elems)}
    up = [set() for _ in elems]
    down = [set() for _ in elems]
    for x, y in hasse_edges(interval):
        up[index[x]].add(index[y])
        down[index[y]].add(index[x])
    top = len(levels) - 1
    order = [i for level in levels for i in level]
    rank_of = {i: r for r, level in enumerate(levels) for i in level}
    mapping, used = {}, set()

    def extend(pos):
        if pos == len(order):
            return True
        x = order[pos]
        for target in levels[top - rank_of[x]]:
            if target in used:
                continue
            if len(up[x]) != len(down[target]) or len(down[x]) != len(up[target]):
                continue
            if any(target not in down[mapping[y]] for y in down[x]):
                continue
            mapping[x] = target
            used.add(target)
            if extend(pos + 1):
                return True
            del mapping[x]
            used.remove(target)
        return False

    return extend(0)


def test_iterative_search_matches_recursive(golden_s9):
    intervals = [interval_elements(identity(5), w) for w in all_perms(5)]
    intervals.append(golden_s9.interval)
    verdicts = [is_self_dual(i) for i in intervals]
    assert verdicts == [_recursive_is_self_dual(i) for i in intervals]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_shortcut_matches_recursive_search_on_every_class(n):
    for cls in classes_of_sn(n):
        interval = cls.interval
        assert is_self_dual(interval) == _recursive_is_self_dual(interval)


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 13), (4, 163), (5, 2096)])
def test_every_interval_of_rank_at_most_3_is_self_dual(n, count):
    report = verify.run_checks(n, ["short_intervals_self_dual"])
    assert report.ok
    assert report.checks[0].passed == count


def test_known_non_self_dual_class(golden_s9):
    interval = golden_s9.interval
    assert not is_self_dual(interval)
    assert not bipartite_criterion(interval)
    figure2 = class_of(parse_perm("5431627"))
    assert non_self_dual_classes([golden_s9, figure2]) == [golden_s9]


def test_boundary_graph_shapes():
    interval = class_of(parse_perm("5431627")).interval
    bottom, top = boundary_bipartite_graphs(interval)
    assert (len(bottom.left), len(bottom.right)) == (3, 5)
    assert (len(top.left), len(top.right)) == (3, 5)

    s3 = interval_elements(identity(3), parse_perm("321"))
    bottom, top = boundary_bipartite_graphs(s3)
    # middle layer of the S_3 Hasse diagram: 132, 213 each cover into both
    # of 231, 312
    assert (len(bottom.left), len(bottom.right)) == (2, 2)
    assert len(bottom.edges) == 4
    assert len(top.edges) == 4

    with pytest.raises(ValueError):
        boundary_bipartite_graphs(interval_elements(identity(2), parse_perm("21")))


def test_bipartite_criterion_low_rank_vacuous():
    w = parse_perm("213")
    cls = class_of(w)
    interval = cls.interval
    assert interval.rank == 1
    assert bipartite_criterion(interval)


@pytest.mark.parametrize("n", range(1, 7))
def test_small_censuses_are_zero(n):
    assert non_self_dual_census(n) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_self_duality_agrees_with_bipartite_criterion(n):
    disagreements = []
    for cls in classes_of_sn(n):
        interval = cls.interval
        if is_self_dual(interval) != bipartite_criterion(interval):
            disagreements.append(cls.min_elem)
    assert disagreements == []


@pytest.mark.parametrize("n", range(1, 6))
def test_self_dual_classes_have_palindromic_ranks(n):
    from odd_diagrams.intervals import rank_vector

    for cls in classes_of_sn(n):
        interval = cls.interval
        if is_self_dual(interval):
            ranks = rank_vector(interval)
            assert ranks == tuple(reversed(ranks))


def test_self_duality_label_independent():
    # relabeling members by conjugation-like reversal gives the dual interval,
    # which must produce the same verdict
    cls = class_of(parse_perm("5431627"))
    interval = cls.interval
    verdict = is_self_dual(interval)
    assert verdict == is_self_dual(interval)  # deterministic

    from odd_diagrams.perms import length

    w0 = tuple(range(7, 0, -1))
    flipped = tuple(sorted(tuple(w0[x - 1] for x in w) for w in cls.members))
    dual = BruhatInterval(
        min(flipped, key=length), max(flipped, key=length), flipped, tuple(map(length, flipped))
    )
    assert is_self_dual(dual) == verdict


def test_census_guard():
    with pytest.raises(ValueError):
        non_self_dual_census(0)
    with pytest.raises(ValueError):
        non_self_dual_census(11)


def test_self_dual_bipartite_check_builds_each_hasse_diagram_once(monkeypatch):
    calls = []

    def counting_hasse_edges(interval):
        calls.append(interval.bottom)
        return hasse_edges(interval)

    monkeypatch.setattr(intervals, "hasse_edges", counting_hasse_edges)
    report = verify.run_checks(6, ["self_dual_bipartite_agreement"])
    assert report.ok
    # is_self_dual settles rank <= 3 without a Hasse diagram, and
    # bipartite_criterion needs one from rank 2 up
    table = classes_of_sn(6)
    ranked = [c.min_elem for c in table if c.interval.rank >= 2]
    assert len([c for c in table if len(c.members) > 1]) == 227
    assert 0 < len(ranked) < 227
    assert sorted(calls) == ranked


def test_census_searches_only_classes_above_rank_3(monkeypatch):
    searched = []

    def counting_is_self_dual(interval):
        searched.append(interval.bottom)
        return is_self_dual(interval)

    monkeypatch.setattr(duality, "is_self_dual", counting_is_self_dual)
    table = classes_of_sn(7)
    assert non_self_dual_classes(table) == []
    assert searched == [c.min_elem for c in table if c.interval.rank >= 4]
    assert len(searched) == 24


def test_class_interval_is_a_fresh_object():
    # a class table keeps no cover graph: each access builds a new interval
    cls = class_of(parse_perm("5431627"))
    interval = cls.interval
    assert interval.cover_graph is interval.cover_graph
    assert cls.interval is not interval
    assert "cover_graph" not in vars(cls.interval)
