import random
from itertools import combinations

import pytest
from hypothesis import given

from odd_diagrams.diagrams import (
    first_difference,
    is_legal,
    legal_swap,
    odd_diagram,
    odd_diagram_key,
    odd_length,
    render_diagrams,
    rothe_diagram,
    satisfies_legality_criterion,
)
from odd_diagrams.perms import all_perms, identity, length, parse_perm, right_transpose

from conftest import perm_strategy


def test_rothe_golden():
    assert rothe_diagram(parse_perm("1432")) == ((2, 2), (2, 3), (3, 2))
    assert rothe_diagram(identity(5)) == ()
    assert len(rothe_diagram(parse_perm("24513"))) == 5


def test_odd_diagram_golden():
    assert odd_diagram(parse_perm("1432")) == ((2, 3), (3, 2))
    assert odd_diagram(identity(5)) == ()
    assert odd_diagram(parse_perm("3412")) == ((1, 2), (2, 1))


def test_odd_length_golden():
    assert odd_length(identity(4)) == 0
    assert odd_length(parse_perm("1432")) == 2


def test_odd_length_equals_odd_diagram_size_sampled():
    rng = random.Random(7)
    perms8 = [tuple(rng.sample(range(1, 9), 8)) for _ in range(200)]
    for w in perms8:
        assert odd_length(w) == len(odd_diagram(w))


@given(perm_strategy(max_n=7))
def test_diagram_sizes_and_containment(w):
    rothe = rothe_diagram(w)
    odd = odd_diagram(w)
    assert set(odd) <= set(rothe)
    assert len(rothe) == length(w)
    assert len(odd) == odd_length(w)


def _looped_odd_diagram(w):
    """Reference: the odd diagram from its definition, box by box."""
    inv = [0] * len(w)
    for p, x in enumerate(w, start=1):
        inv[x - 1] = p
    boxes = []
    for i in range(1, len(w) + 1):
        for j in range(1, w[i - 1]):
            if i < inv[j - 1] and (i - inv[j - 1]) % 2 != 0:
                boxes.append((i, j))
    return tuple(sorted(boxes))


@given(perm_strategy(max_n=7))
def test_odd_diagram_key_matches_diagram(w):
    n = len(w)
    expected = 0
    for (i, j) in _looped_odd_diagram(w):
        expected |= 1 << ((i - 1) * n + (j - 1))
    assert odd_diagram_key(w) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_odd_diagram_matches_looped_definition(n):
    for w in all_perms(n):
        assert odd_diagram(w) == _looped_odd_diagram(w)


@given(perm_strategy(max_n=10))
def test_odd_diagram_matches_looped_definition_up_to_s10(w):
    assert odd_diagram(w) == _looped_odd_diagram(w)


def test_is_legal_golden():
    u = parse_perm("654172839")
    assert is_legal(u, (3, 9))
    assert is_legal(u, (3, 5))
    assert not is_legal(parse_perm("1432"), (1, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_is_legal_matches_the_decoded_diagram_definition(n):
    for u in all_perms(n):
        expected = _looped_odd_diagram(u)
        for t in combinations(range(1, n + 1), 2):
            moved = right_transpose(u, t)
            assert is_legal(u, t) == (_looped_odd_diagram(moved) == expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_legal_swap_is_the_first_legal_same_parity_swap(n):
    for u in all_perms(n):
        key = odd_diagram_key(u)
        for down in (True, False):
            expected = next((right_transpose(u, (i, j))
                             for i, j in combinations(range(1, n + 1), 2)
                             if (j - i) % 2 == 0 and (u[i - 1] > u[j - 1]) == down
                             and is_legal(u, (i, j))), None)
            assert legal_swap(u, key, down) == expected


def test_legality_criterion_golden():
    assert satisfies_legality_criterion(parse_perm("654172839"), (3, 9))
    assert not satisfies_legality_criterion(parse_perm("1432"), (1, 3))
    # opposite parity always fails condition (1)
    assert not satisfies_legality_criterion(parse_perm("4321"), (1, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_legality_criterion_is_sufficient(n):
    for u in all_perms(n):
        for t in combinations(range(1, n + 1), 2):
            if satisfies_legality_criterion(u, t):
                assert is_legal(u, t)


def test_first_difference_golden():
    assert first_difference(parse_perm("654172839"), parse_perm("958172634")) == 4
    assert first_difference(parse_perm("5431627"), parse_perm("7461523")) == 3
    with pytest.raises(ValueError):
        first_difference(parse_perm("123"), parse_perm("123"))


def test_render_diagrams():
    art = render_diagrams(parse_perm("1432"))
    assert art.splitlines() == [
        ". . . .",
        ". # * .",
        ". * . .",
        ". . . .",
    ]
