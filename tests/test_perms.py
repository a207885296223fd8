import random
from itertools import combinations

import pytest
from hypothesis import given

from odd_diagrams.perms import (
    all_perms,
    avoids,
    bruhat_leq,
    covers,
    descent_set,
    format_perm,
    identity,
    inverse,
    length,
    make_permutation,
    parse_perm,
    right_transpose,
    upward_covers,
)

from conftest import perm_strategy


def left_transpose(w, t):
    """Reference: (i j) w, the values i and j swapped. The library swaps
    positions only (``right_transpose``)."""
    i, j = t
    return tuple(j if x == i else i if x == j else x for x in w)


def test_make_permutation():
    assert make_permutation([2, 4, 5, 1, 3]) == (2, 4, 5, 1, 3)
    assert make_permutation([1, 2, 3]) == (1, 2, 3)


@pytest.mark.parametrize("bad", [[1, 1, 2], [1, 3], [0, 1], [2, 3, 4]])
def test_make_permutation_rejects(bad):
    with pytest.raises(ValueError):
        make_permutation(bad)


def test_parse_and_format():
    assert parse_perm("24513") == (2, 4, 5, 1, 3)
    assert parse_perm("10,3,1,2,4,5,6,7,8,9") == (10, 3, 1, 2, 4, 5, 6, 7, 8, 9)
    assert format_perm((2, 4, 5, 1, 3)) == "24513"
    assert format_perm(tuple([10] + list(range(1, 10)))) == "10,1,2,3,4,5,6,7,8,9"
    with pytest.raises(ValueError):
        parse_perm("")
    with pytest.raises(ValueError):
        parse_perm("1,x,2")


def test_inverse_golden():
    assert inverse(parse_perm("24513")) == parse_perm("41523")
    assert inverse(identity(4)) == identity(4)
    assert inverse(parse_perm("1432")) == parse_perm("1432")


@given(perm_strategy())
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w


def test_transpose_golden():
    w = parse_perm("24513")
    assert right_transpose(w, (3, 4)) == parse_perm("24153")
    assert left_transpose(w, (3, 4)) == parse_perm("23514")
    # (i j) w = w (w^-1(i) w^-1(j)): the value swap is the swap of their positions
    w_inv = inverse(w)
    assert left_transpose(w, (3, 4)) == right_transpose(w, (w_inv[3], w_inv[2]))
    assert right_transpose(identity(5), (2, 4)) == (1, 4, 3, 2, 5)


def test_transpose_rejects_bad_pair():
    with pytest.raises(ValueError):
        right_transpose(identity(3), (2, 5))


def test_length_golden():
    assert length(identity(6)) == 0
    assert length(parse_perm("1432")) == 3
    assert length(parse_perm("24513")) == 5


def test_bruhat_leq_golden():
    for w in all_perms(4):
        assert bruhat_leq(identity(4), w)
    assert bruhat_leq(parse_perm("5431627"), parse_perm("7461523"))
    assert not bruhat_leq(parse_perm("1324"), parse_perm("2134"))
    assert not bruhat_leq(parse_perm("2134"), parse_perm("1324"))
    with pytest.raises(ValueError):
        bruhat_leq(identity(3), identity(4))


def test_covers_golden():
    assert covers(parse_perm("1234"), parse_perm("1243"))
    assert covers(parse_perm("5431627"), parse_perm("6431527"))
    assert not covers(parse_perm("1234"), parse_perm("4231"))


def test_descent_set():
    assert descent_set(identity(5)) == set()
    assert descent_set(parse_perm("21")) == {1}
    assert descent_set(parse_perm("1432")) == {2, 3}


def test_avoids():
    assert avoids(parse_perm("1234"), parse_perm("4231"))
    assert not avoids(parse_perm("4231"), parse_perm("4231"))
    assert not avoids(parse_perm("53412"), parse_perm("3412"))


def brute_force_leq(u, v, order):
    return v in order[u]


def reachability(n):
    elems = sorted(all_perms(n), key=length, reverse=True)
    reach = {w: {w} for w in elems}
    for w in elems:
        for z in upward_covers(w):
            reach[w] |= reach[z]
    return reach


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_leq_equals_covers_closure(n):
    reach = reachability(n)
    for u in all_perms(n):
        for v in all_perms(n):
            assert bruhat_leq(u, v) == (v in reach[u])


@pytest.mark.parametrize("n", range(2, 6))
def test_covers_are_graded_by_unique_transposition(n):
    for u in all_perms(n):
        for v in upward_covers(u):
            assert covers(u, v)
            assert length(v) == length(u) + 1
            witnesses = [
                t for t in combinations(range(1, n + 1), 2)
                if right_transpose(u, t) == v
            ]
            assert len(witnesses) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_length_equals_chain_height(n):
    # graded poset: length = number of cover steps from the identity
    depth = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        new = []
        for w in frontier:
            for z in upward_covers(w):
                if z not in depth:
                    depth[z] = depth[w] + 1
                    new.append(z)
        frontier = new
    for w in all_perms(n):
        assert depth[w] == length(w)


@given(perm_strategy(max_n=7))
def test_bruhat_reflexive(w):
    assert bruhat_leq(w, w)


@given(perm_strategy(max_n=7), perm_strategy(max_n=7))
def test_bruhat_antisymmetric(u, v):
    if len(u) != len(v):
        return
    if bruhat_leq(u, v) and bruhat_leq(v, u):
        assert u == v


@given(perm_strategy(max_n=7), perm_strategy(max_n=7), perm_strategy(max_n=7))
def test_bruhat_transitive(u, v, w):
    if not len(u) == len(v) == len(w):
        return
    if bruhat_leq(u, v) and bruhat_leq(v, w):
        assert bruhat_leq(u, w)


# --- the rewritten kernels against the code they replace -----------------


def _reference_length(w):
    """The former inversion count, over every pair of positions."""
    return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])


def _reference_bruhat_leq(u, v):
    """The former comparison by entrywise dominance of sorted prefix sets."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    n = len(u)
    for i in range(1, n):
        su = sorted(u[:i])
        sv = sorted(v[:i])
        if any(a > b for a, b in zip(su, sv)):
            return False
    return True


def _reference_avoids(w, pattern):
    """The former scan: the relative order of each index subset's entries."""
    k = len(pattern)
    if k > len(w):
        return True
    rank = {x: r for r, x in enumerate(sorted(pattern))}
    target = tuple(rank[x] for x in pattern)
    for idx in combinations(range(len(w)), k):
        sub = [w[p] for p in idx]
        srank = {x: r for r, x in enumerate(sorted(sub))}
        if tuple(srank[x] for x in sub) == target:
            return False
    return True


PATTERNS = [p for k in range(5) for p in all_perms(k)]


@pytest.mark.parametrize("n", [*range(8), pytest.param(8, marks=pytest.mark.long)])
def test_avoids_matches_the_former_scan_on_every_pattern_up_to_s4(n):
    # the empty pattern (every w contains it), one entry, and k > n included
    assert len(PATTERNS) == 34
    for w in all_perms(n):
        assert [avoids(w, p) for p in PATTERNS] == [_reference_avoids(w, p) for p in PATTERNS], w


def test_avoids_edge_cases():
    assert not avoids((), ())
    assert not avoids((2, 1), ())
    assert not avoids((2, 1), (1,))
    assert avoids((), (1,))
    assert avoids((1, 2), (2, 1, 3))
    assert not avoids(parse_perm("35142"), parse_perm("3412"))
    assert avoids(parse_perm("35142"), parse_perm("4231"))


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_leq_matches_the_former_comparison_on_every_pair(n):
    elems = list(all_perms(n))
    for u in elems:
        assert [bruhat_leq(u, v) for v in elems] == [_reference_bruhat_leq(u, v) for v in elems]


def test_bruhat_leq_matches_the_former_comparison_on_seeded_pairs_of_s9():
    rng = random.Random(9)
    values = list(range(1, 10))
    pairs = [(tuple(rng.sample(values, 9)), tuple(rng.sample(values, 9))) for _ in range(2000)]
    # each pair again with the shorter first, so that comparable pairs occur too
    pairs += [(min(u, v, key=length), max(u, v, key=length)) for u, v in pairs]
    found = [bruhat_leq(u, v) for u, v in pairs]
    assert found == [_reference_bruhat_leq(u, v) for u, v in pairs]
    assert 0 < sum(found) < len(found)


def test_bruhat_leq_rejects_a_degree_mismatch():
    for u, v in [((1,), (1, 2)), ((2, 1, 3), (1, 2)), ((), (1,))]:
        with pytest.raises(ValueError, match="degree mismatch"):
            bruhat_leq(u, v)
        with pytest.raises(ValueError, match="degree mismatch"):
            _reference_bruhat_leq(u, v)


@pytest.mark.parametrize("n", range(1, 9))
def test_length_matches_the_former_count_on_every_permutation(n):
    elems = list(all_perms(n))
    assert list(map(length, elems)) == list(map(_reference_length, elems))
