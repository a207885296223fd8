import functools
import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odd_diagrams import classes, duality, verify
from odd_diagrams.classes import (
    census,
    class_of,
    class_shape,
    classes_of_sn,
)
from odd_diagrams.cli import check_sweep_degree, run
from odd_diagrams.duality import (
    bipartite_criterion,
    is_self_dual,
    self_dual_by_rank,
    top_heavy_check,
)
from odd_diagrams.intervals import BruhatInterval, hasse_edges, interval_elements
from odd_diagrams.partition import class_interval
from odd_diagrams.perms import (
    all_perms,
    bruhat_leq,
    covers,
    format_perm,
    identity,
    length,
    parse_perm,
)


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
    assert is_self_dual(BruhatInterval((w,), (length(w),)))


def test_s3_full_interval_self_dual():
    assert is_self_dual(interval_elements(identity(3), parse_perm("321")))


def test_full_s7_interval_self_dual():
    # 5040 elements: deeper than Python's recursion limit
    w0 = tuple(range(7, 0, -1))
    members = tuple(all_perms(7))
    assert is_self_dual(BruhatInterval(members, tuple(map(length, members))))


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
    intervals.append(golden_s9)
    verdicts = [is_self_dual(i) for i in intervals]
    assert verdicts == [_recursive_is_self_dual(i) for i in intervals]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_shortcut_matches_recursive_search_on_every_class(n):
    for cls in classes_of_sn(n):
        assert is_self_dual(cls) == _recursive_is_self_dual(cls)


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 13), (4, 163), (5, 2096)])
def test_every_interval_of_rank_at_most_3_is_self_dual(n, count):
    report = verify.run_checks(n, ["short_intervals_self_dual"])
    assert report.ok
    assert report.checks[0].passed == count


def non_self_dual_classes(classes):
    """Reference for the census: the classes that are not self-dual, in
    input order, by ``is_self_dual`` on each, without the census's memo by
    shape."""
    return [c for c in classes if not is_self_dual(c)]


def test_known_non_self_dual_class(golden_s9):
    assert not is_self_dual(golden_s9)
    assert not bipartite_criterion(golden_s9)
    figure2 = class_of(parse_perm("5431627"))
    assert non_self_dual_classes([golden_s9, figure2]) == [golden_s9]


def _boundary_graphs(interval):
    """The two graphs ``bipartite_criterion`` compares, cut from the cover graph."""
    levels, up, down = interval.cover_graph
    return (duality._boundary_graph(levels, up, down, 1, 2),
            duality._boundary_graph(levels, down, up, -2, -3))


def _part_sizes_and_edges(graph):
    (lower, upper), up, down = graph
    assert sum(map(len, up)) == sum(map(len, down))
    assert all(up[k] <= set(upper) for k in lower)
    return len(lower), len(upper), sum(map(len, up))


def test_boundary_graph_shapes():
    interval = class_of(parse_perm("5431627"))
    bottom, top = _boundary_graphs(interval)
    assert _part_sizes_and_edges(bottom)[:2] == (3, 5)
    assert _part_sizes_and_edges(top)[:2] == (3, 5)

    s3 = interval_elements(identity(3), parse_perm("321"))
    bottom, top = _boundary_graphs(s3)
    # middle layer of the S_3 Hasse diagram: 132, 213 each cover into both
    # of 231, 312
    assert _part_sizes_and_edges(bottom) == (2, 2, 4)
    assert _part_sizes_and_edges(top) == (2, 2, 4)


def test_bipartite_criterion_fails_on_every_non_self_dual_class_of_s9(golden_s9):
    # the 8 classes of the published S_9 census, not only the golden one
    count, ends = census(9)
    bad = [interval_elements(lo, hi) for lo, hi in ends]
    assert count == 103873 and len(bad) == 8 and golden_s9 in bad
    assert [bipartite_criterion(cls) for cls in bad] == [False] * 8


def test_bipartite_criterion_low_rank_vacuous():
    w = parse_perm("213")
    cls = class_of(w)
    assert cls.rank == 1
    assert bipartite_criterion(cls)


def _reference_bipartite_isomorphic(g1, g2):
    """Reference: the bipartite search the shared graded search replaced, on
    graphs given as (left part size, right part size, edges), each edge an
    index pair into the two parts. For a fixed left bijection, a right
    bijection exists iff the multisets of right-vertex neighborhoods (as
    subsets of the left part) agree."""
    (k, m, edges1), (k2, m2, edges2) = g1, g2
    if (k, m, len(edges1)) != (k2, m2, len(edges2)):
        return False
    deg1 = [0] * k
    deg2 = [0] * k
    nbhd1 = [set() for _ in range(m)]
    nbhd2 = [set() for _ in range(m)]
    for a, b in edges1:
        deg1[a] += 1
        nbhd1[b].add(a)
    for a, b in edges2:
        deg2[a] += 1
        nbhd2[b].add(a)
    if sorted(deg1) != sorted(deg2):
        return False
    if Counter(len(s) for s in nbhd1) != Counter(len(s) for s in nbhd2):
        return False
    target_nbhds = Counter(frozenset(s) for s in nbhd2)
    sigma = [-1] * k
    used = [False] * k

    def extend(a):
        if a == k:
            mapped = Counter(frozenset(sigma[x] for x in s) for s in nbhd1)
            return mapped == target_nbhds
        for t in range(k):
            if used[t] or deg1[a] != deg2[t]:
                continue
            sigma[a] = t
            used[t] = True
            if extend(a + 1):
                return True
            used[t] = False
        sigma[a] = -1
        return False

    return extend(0)


def _reference_boundary_graphs(interval):
    """Reference: the covers between the members one and two above the
    bottom, and between those one and two below the top, found among the
    members by ``covers`` and ``length`` alone."""
    bottom, top = length(interval.bottom), length(interval.top)

    def graph(left_length, right_length):
        left, right = ([w for w in interval.elements if length(w) == r]
                       for r in (left_length, right_length))
        edges = {(a, b) for a, x in enumerate(left) for b, y in enumerate(right)
                 if covers(x, y) or covers(y, x)}
        return len(left), len(right), edges

    return graph(bottom + 1, bottom + 2), graph(top - 1, top - 2)


def _reference_criterion(interval):
    if interval.rank < 2:
        return True
    return _reference_bipartite_isomorphic(*_reference_boundary_graphs(interval))


def _assert_criterion_matches_reference(intervals):
    verdicts = [bipartite_criterion(i) for i in intervals]
    assert verdicts == [_reference_criterion(i) for i in intervals]
    return verdicts


@pytest.mark.parametrize("n", range(1, 6))
def test_bipartite_criterion_matches_reference_on_every_comparable_pair(n):
    elems = list(all_perms(n))
    pairs = [interval_elements(u, v) for u in elems for v in elems if bruhat_leq(u, v)]
    verdicts = _assert_criterion_matches_reference(pairs)
    if n >= 4:
        assert False in verdicts


@pytest.mark.parametrize("n", range(1, 8))
def test_bipartite_criterion_matches_reference_on_every_class(n):
    _assert_criterion_matches_reference(classes_of_sn(n))


def test_bipartite_criterion_matches_reference_on_lower_intervals_of_s6(golden_s9):
    lower = [interval_elements(identity(6), w) for w in all_perms(6)]
    verdicts = _assert_criterion_matches_reference(lower + [golden_s9])
    assert verdicts[-1] is False
    assert True in verdicts and False in verdicts


def _graph(left, right, edges):
    return left, right, frozenset(edges)


def _two_levels(graph):
    """The graph as a cover graph of two levels, the left part below the right."""
    k, m, edges = graph
    up = [set() for _ in range(k + m)]
    down = [set() for _ in up]
    for a, b in edges:
        up[a].add(k + b)
        down[k + b].add(a)
    return [list(range(k)), list(range(k, k + m))], up, down


def _criterion_search(g1, g2):
    """The search ``bipartite_criterion`` runs on its two boundary graphs."""
    return duality._graded_isomorphic(_two_levels(g1), _two_levels(g2))


@st.composite
def bipartite_pairs(draw):
    """A small bipartite graph and a relabeled copy, then some edges of the
    copy toggled, or else a second graph drawn on its own. No part is empty,
    as in the boundary graphs of an interval."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [(a, b) for a in range(k) for b in range(m)]
    edges = draw(st.sets(st.sampled_from(cells)))
    if draw(st.booleans()):
        k2, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cells2 = [(a, b) for a in range(k2) for b in range(m2)]
        return _graph(k, m, edges), _graph(k2, m2, draw(st.sets(st.sampled_from(cells2))))
    lperm = draw(st.permutations(range(k)))
    rperm = draw(st.permutations(range(m)))
    copy = {(lperm[a], rperm[b]) for a, b in edges}
    toggles = draw(st.sets(st.sampled_from(cells), max_size=2))
    return _graph(k, m, edges), _graph(k, m, copy ^ toggles)


@given(bipartite_pairs())
def test_criterion_search_matches_reference_on_small_graphs(pair):
    g1, g2 = pair
    assert _criterion_search(g1, g2) == _reference_bipartite_isomorphic(g1, g2)


def test_criterion_search_tells_apart_graphs_with_equal_degrees():
    # an 8-cycle and two 4-cycles: every vertex has degree 2
    cycle = _graph(4, 4, [(a, a) for a in range(4)] + [(a, (a + 1) % 4) for a in range(4)])
    squares = _graph(4, 4, [(a, b) for a in range(4) for b in range(4) if a // 2 == b // 2])
    assert not _criterion_search(cycle, squares)
    relabeled = _graph(4, 4, [((a + 1) % 4, (b + 2) % 4) for a, b in cycle[2]])
    assert _criterion_search(cycle, relabeled)
    assert not _criterion_search(_graph(2, 3, [(0, 0)]), _graph(3, 2, [(0, 0)]))
    assert not _criterion_search(_graph(2, 2, [(0, 0)]), _graph(2, 2, [(0, 0), (1, 1)]))


@pytest.mark.parametrize("n", range(1, 7))
def test_small_censuses_are_zero(n):
    assert len(census(n)[1]) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_self_duality_agrees_with_bipartite_criterion(n):
    disagreements = []
    for cls in classes_of_sn(n):
        if is_self_dual(cls) != bipartite_criterion(cls):
            disagreements.append(cls.bottom)
    assert disagreements == []


@pytest.mark.parametrize("n", range(1, 6))
def test_self_dual_classes_have_palindromic_ranks(n):
    from odd_diagrams.intervals import rank_vector

    for cls in classes_of_sn(n):
        if is_self_dual(cls):
            ranks = rank_vector(cls)
            assert ranks == tuple(reversed(ranks))


def test_self_duality_label_independent():
    # relabeling members by conjugation-like reversal gives the dual interval,
    # which must produce the same verdict
    cls = class_of(parse_perm("5431627"))
    verdict = is_self_dual(cls)
    assert verdict == is_self_dual(cls)  # deterministic

    from odd_diagrams.perms import length

    w0 = tuple(range(7, 0, -1))
    flipped = tuple(sorted(tuple(w0[x - 1] for x in w) for w in cls.elements))
    dual = BruhatInterval(flipped, tuple(map(length, flipped)))
    assert is_self_dual(dual) == verdict


def test_census_guard():
    # the census rejects only n < 1; its cap at n = 11 is the CLI's rule
    with pytest.raises(ValueError, match="n must be positive"):
        census(0)
    with pytest.raises(ValueError, match="census supports n <= 11"):
        check_sweep_degree("census", 12, long=True)


def test_self_dual_bipartite_check_builds_each_hasse_diagram_once(monkeypatch):
    # the Hasse diagram of an interval is its cover graph, built once per
    # interval object and cached there
    calls = []
    build = BruhatInterval.cover_graph.func

    def counting_cover_graph(interval):
        calls.append(interval.bottom)
        return build(interval)

    counted = functools.cached_property(counting_cover_graph)
    counted.__set_name__(BruhatInterval, "cover_graph")
    monkeypatch.setattr(BruhatInterval, "cover_graph", counted)
    report = verify.run_checks(6, ["self_dual_bipartite_agreement"])
    assert report.ok
    # is_self_dual settles rank <= 3 without a Hasse diagram, and
    # bipartite_criterion needs one from rank 2 up
    table = classes_of_sn(6)
    ranked = [c.bottom for c in table if c.rank >= 2]
    assert len([c for c in table if len(c.elements) > 1]) == 227
    assert 0 < len(ranked) < 227
    assert sorted(calls) == ranked


def test_census_searches_only_classes_above_rank_3(monkeypatch):
    # ``is_self_dual`` settles rank <= 3 by ``self_dual_by_rank``; only the
    # classes above reach the search
    searched = []
    search = duality.has_anti_automorphism

    def counting_search(interval):
        searched.append(interval.bottom)
        return search(interval)

    monkeypatch.setattr(duality, "has_anti_automorphism", counting_search)
    table = classes_of_sn(7)
    assert non_self_dual_classes(table) == []
    assert searched == [c.bottom for c in table if c.rank >= 4]
    assert len(searched) == 24


def _watch_census_builds(monkeypatch):
    """Record, in the census, each interval built from its anchor chain and
    the minimum of each interval searched; the lifting engine is not run."""
    built, searched = [], []

    def counting_interval(u, v):
        built.append(class_interval(u, v))
        return built[-1]

    def counting_search(interval):
        searched.append(interval.bottom)
        return duality.has_anti_automorphism(interval)

    monkeypatch.setattr(classes, "class_interval", counting_interval)
    monkeypatch.setattr("odd_diagrams.intervals._lifting_step", None)
    monkeypatch.setattr(classes, "has_anti_automorphism", counting_search)
    monkeypatch.setattr(classes, "is_self_dual", None)
    return built, searched


def test_census_builds_and_searches_only_classes_above_rank_3(monkeypatch):
    # the rank rule drops a class by the lengths of its ends, before any
    # interval is built, and of the 24 classes of rank >= 4 one class per
    # shape is built and searched: 7 searches, and no class is kept
    table = classes_of_sn(7)
    built, searched = _watch_census_builds(monkeypatch)
    assert census(7) == (2041, [])
    open_classes = {c.bottom: c for c in table if c.rank >= 4}
    assert len(open_classes) == 24
    assert [i.bottom for i in built] == searched and set(searched) <= set(open_classes)
    shapes = [class_shape(open_classes[w].elements) for w in searched]
    assert len(searched) == len(set(shapes)) == 7
    assert set(shapes) == {class_shape(c.elements) for c in open_classes.values()}


def test_census_runs_return_ends_and_the_census_builds_each_kept_class(monkeypatch):
    # the parity block of S_9 with 4, 6, 7, 8, 9 at the even positions holds 6
    # of the 8 non-self-dual classes: a run builds one interval per shape it
    # searches and returns each kept class as its plain (min, max) ends, which
    # the census hands on: it builds no interval past the shapes it searches
    built, searched = _watch_census_builds(monkeypatch)
    count, kept = classes._run_census(9, [(4, 6, 7, 8, 9)])
    assert count == 84 and len(kept) == 6
    assert all(type(lo) is type(hi) is tuple for lo, hi in kept)
    assert [i.bottom for i in built] == searched
    assert len(searched) == len({class_shape(i.elements) for i in built})
    assert {lo for lo, _ in kept} & set(searched)
    built.clear()
    searched.clear()
    count, ends = census(9, 1)
    assert count == 103873 and len(ends) == 8
    # the census's searches, one per shape of the classes of rank >= 4, and no other interval
    assert [i.bottom for i in built] == searched
    assert len(built) == 95
    assert all(type(lo) is type(hi) is tuple for lo, hi in ends)


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.long)])
def test_census_matches_the_search_on_every_open_class(n):
    # the census's memo by shape against ``non_self_dual_classes``, which
    # searches every class the rank rule leaves open
    table = classes_of_sn(n)
    open_classes = [c for c in table if not self_dual_by_rank(c.rank)]
    bad = non_self_dual_classes(open_classes)
    assert census(n) == (len(table), [(c.bottom, c.top) for c in bad])


def _reference_block_census(n, evens, tables, verdicts):
    """Reference: the census of one parity block that the ends sweep
    replaced. It swept the block with its members, read each class's rank
    from the lengths of its first and last members, and kept the verdicts
    by ``class_shape``."""
    block = classes.parity_block(n, evens, tables)
    bad = []
    for _, members, lengths in block:
        if self_dual_by_rank(lengths[-1] - lengths[0]):
            continue
        shape = class_shape(members)
        cls = BruhatInterval(members, lengths)
        if shape not in verdicts:
            verdicts[shape] = duality.has_anti_automorphism(cls)
        if not verdicts[shape]:
            bad.append(cls)
    return len(block), bad


def _reference_census_output(n):
    """What ``census --n n --list`` printed with ``_reference_block_census``."""
    tables, verdicts = {}, {}
    results = [_reference_block_census(n, evens, tables, verdicts)
               for evens in classes.parity_sets(n)]
    bad = sorted((cls for _, block_bad in results for cls in block_bad),
                 key=lambda cls: cls.bottom)
    lines = [f"classes: {sum(count for count, _ in results)}, non-self-dual: {len(bad)}"]
    lines += [f"  [{format_perm(cls.bottom)}, {format_perm(cls.top)}]" for cls in bad]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.long)])
def test_census_list_prints_what_the_member_census_printed(n, capsys):
    assert run(["census", "--n", str(n), "--list", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == _reference_census_output(n)


def test_s9_block_census_keeps_the_classes_of_the_member_census():
    # the block of S_9 that holds 6 of the 8 non-self-dual classes, whole
    evens = (4, 6, 7, 8, 9)
    count, bad = _reference_block_census(9, evens, {}, {})
    assert classes._run_census(9, [evens]) == (count, [(cls.bottom, cls.top) for cls in bad])
    assert len(bad) == 6


@pytest.mark.parametrize("n, shapes",
                         [(7, 7), (8, 14), pytest.param(9, 95, marks=pytest.mark.long)])
def test_classes_of_rank_4_and_up_have_the_known_number_of_ends_shapes(n, shapes):
    tables = {}
    found = {classes.ends_shape(lo, hi)
             for evens in classes.parity_sets(n)
             for _, lo, hi, rank in classes.parity_block_ends(n, evens, tables)
             if rank >= 4}
    assert len(found) == shapes


def test_each_census_keeps_its_own_verdicts(monkeypatch):
    # the memo by shape ends with its run: a second census searches again
    searched = []

    def counting_search(interval):
        searched.append(interval.bottom)
        return duality.has_anti_automorphism(interval)

    monkeypatch.setattr(classes, "has_anti_automorphism", counting_search)
    assert census(7) == census(7) == (2041, [])
    assert len(searched) == 14 and searched[:7] == searched[7:]


def test_each_census_builds_its_own_suffix_tables(monkeypatch):
    stores, sizes = [], []
    sweep = classes.parity_block_ends

    def watching_parity_block_ends(n, evens, tables):
        if not stores or stores[-1] is not tables:
            stores.append(tables)
            sizes.append(len(tables))
        return sweep(n, evens, tables)

    monkeypatch.setattr(classes, "parity_block_ends", watching_parity_block_ends)
    assert census(7) == census(7) == (2041, [])
    # one store a call, empty when the call starts, with the same tables at the end
    assert len(stores) == 2 and stores[0] is not stores[1]
    assert sizes == [0, 0] and stores[0] == stores[1] != {}
    # once the calls have returned, only this test holds the stores, and
    # only its store holds a table
    gc.collect()
    assert [gc.get_referrers(stores[i]) for i in range(2)] == [[stores], [stores]]
    tables = [table for store in stores for table in store.values()]
    holders = gc.get_referrers(*tables)
    assert {id(holder) for holder in holders} <= {id(tables), id(stores[0]), id(stores[1])}


def test_class_stream_keeps_no_class_its_reader_drops(monkeypatch):
    # each class is made only as the stream yields it, so a class its reader
    # drops goes with the cover graph cached on it, while the stream is still
    # in the block; the subclass only adds the slot a weak reference needs
    class Tracked(BruhatInterval):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(classes, "BruhatInterval", Tracked)
    stream = classes.class_stream(6)
    cls = next(stream)
    assert type(cls) is Tracked and cls.cover_graph is cls.cover_graph
    evens, ref = sorted(cls.bottom[::2]), weakref.ref(cls)
    del cls
    assert ref() is None
    assert sorted(next(stream).bottom[::2]) == evens
