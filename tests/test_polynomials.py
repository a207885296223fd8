import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odd_diagrams import polynomials, verify
from odd_diagrams.classes import classes_of_sn
from odd_diagrams.intervals import BruhatInterval, interval_elements
from odd_diagrams.perms import (
    all_perms,
    bruhat_leq,
    descent_set,
    identity,
    inverse,
    length,
    parse_perm,
    right_transpose,
)
from odd_diagrams.polynomials import (
    IntPolynomial,
    carrell_condition,
    carrell_holds,
    expand_factors,
    is_palindromic,
    kl_polynomial,
    one,
    poincare,
    r_polynomial,
    r_polynomial_choosing,
    zero,
)

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def test_polynomial_normalization():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert not zero()
    assert one() == 1
    assert zero().degree == -1


@given(coeff_lists, coeff_lists)
def test_polynomial_ring_ops(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert (p + q).coeffs == (q + p).coeffs
    assert (p * q).coeffs == (q * p).coeffs
    assert (p - p).coeffs == ()
    assert (p * one()).coeffs == p.coeffs
    assert (p * zero()).coeffs == ()


@given(coeff_lists, coeff_lists, coeff_lists)
def test_polynomial_distributivity(a, b, c):
    p, q, r = IntPolynomial(a), IntPolynomial(b), IntPolynomial(c)
    assert (p * (q + r)).coeffs == (p * q + p * r).coeffs


def test_reversed_to():
    p = IntPolynomial([1, 2])
    assert p.reversed_to(3).coeffs == (0, 0, 2, 1)
    with pytest.raises(ValueError):
        p.reversed_to(0)


def test_pretty():
    assert IntPolynomial([1, 3, 5, 5, 3, 1]).pretty("t") == "1+3t+5t^2+5t^3+3t^4+t^5"
    assert IntPolynomial([-1, 1]).pretty("q") == "-1+q"
    assert zero().pretty() == "0"


def test_poincare_golden():
    w = parse_perm("24513")
    assert poincare(w, w) == 1
    assert poincare(parse_perm("5431627"), parse_perm("7461523")).coeffs == (
        1, 3, 5, 5, 3, 1,
    )
    assert poincare(parse_perm("213"), parse_perm("312")).coeffs == (1, 1)
    with pytest.raises(ValueError):
        poincare(parse_perm("21"), parse_perm("12"))


def test_is_palindromic():
    assert is_palindromic(one())
    assert not is_palindromic(IntPolynomial([1, 2]))
    assert is_palindromic(IntPolynomial([1, 3, 5, 5, 3, 1]))
    with pytest.raises(ValueError):
        is_palindromic(zero())


def test_expand_factors():
    assert expand_factors([]) == 1
    assert expand_factors([2]).coeffs == (1, 1)
    assert expand_factors([3, 3, 2]).coeffs == (1, 3, 5, 5, 3, 1)
    with pytest.raises(ValueError):
        expand_factors([0])


def test_r_polynomial_golden():
    w = parse_perm("24513")
    assert r_polynomial(w, w) == 1
    assert r_polynomial(parse_perm("21"), parse_perm("12")) == zero()
    assert r_polynomial(parse_perm("12"), parse_perm("21")).coeffs == (-1, 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_r_polynomial_degree(n):
    for y in all_perms(n):
        for x in all_perms(n):
            if bruhat_leq(x, y):
                assert r_polynomial(x, y).degree == length(y) - length(x)


@pytest.mark.parametrize("n", range(2, 6))
def test_r_polynomial_descent_independence(n):
    def pick(preferred):
        def chooser(w):
            ds = descent_set(w)
            return preferred if preferred in ds else min(ds)

        return chooser

    for y in all_perms(n):
        ds = sorted(descent_set(y))
        if len(ds) < 2:
            continue
        for x in all_perms(n):
            values = {r_polynomial_choosing(x, y, pick(d)).coeffs for d in ds}
            assert len(values) == 1
            assert values == {r_polynomial(x, y).coeffs}


def _r_rechecking(x, y, choose_descent, memo):
    """Reference: the R recursion as it was, testing x <= y at every node."""
    if x == y:
        return one()
    if not bruhat_leq(x, y):
        return zero()
    if (x, y) in memo:
        return memo[x, y]
    i = choose_descent(y) - 1
    ys = y[:i] + (y[i + 1], y[i]) + y[i + 2:]
    xs = x[:i] + (x[i + 1], x[i]) + x[i + 2:]
    if x[i] > x[i + 1]:
        result = _r_rechecking(xs, ys, choose_descent, memo)
    else:
        result = (IntPolynomial([0, 1]) * _r_rechecking(xs, ys, choose_descent, memo)
                  + IntPolynomial([-1, 1]) * _r_rechecking(x, ys, choose_descent, memo))
    memo[x, y] = result
    return result


_CHOOSERS = {
    "smallest": lambda w: min(descent_set(w)),
    "largest": lambda w: max(descent_set(w)),
    "middle": lambda w: sorted(descent_set(w))[len(descent_set(w)) // 2],
}


@pytest.mark.parametrize("choice", sorted(_CHOOSERS))
@pytest.mark.parametrize("n", range(1, 6))
def test_r_recursion_matches_the_rechecking_recursion_on_every_pair(n, choice):
    choose = _CHOOSERS[choice]
    memo = {}
    for x in all_perms(n):
        for y in all_perms(n):
            expected = _r_rechecking(x, y, choose, memo)
            assert r_polynomial_choosing(x, y, choose) == expected
            if choice == "smallest":
                assert r_polynomial(x, y) == expected


def test_r_recursion_tests_bruhat_order_only_at_the_top(monkeypatch):
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return bruhat_leq(u, v)

    monkeypatch.setattr(polynomials, "bruhat_leq", counting)
    monkeypatch.setattr(polynomials, "_R_MEMO", {})
    x, y = identity(5), parse_perm("54321")
    assert r_polynomial(x, y).degree == 10
    assert calls == [(x, y)]
    assert len(polynomials._R_MEMO) > 10  # many nodes, one comparison
    assert r_polynomial(x, y).degree == 10
    assert calls == [(x, y)]  # a memo hit needs no comparison
    calls.clear()
    x = parse_perm("21345")
    assert r_polynomial_choosing(x, y, _CHOOSERS["largest"]) == r_polynomial(x, y)
    assert r_polynomial(y, x) == zero()
    assert len(calls) == 3


def test_kl_golden():
    w = parse_perm("24513")
    assert kl_polynomial(w, w) == 1
    assert kl_polynomial(parse_perm("21"), parse_perm("12")) == zero()
    assert kl_polynomial(parse_perm("1234"), parse_perm("3412")).coeffs == (1, 1)


def test_kl_against_defining_conditions_for_3412():
    # independent oracle: verify the defining conditions directly for the
    # full family {P_{x, y}} with y = 3412
    y = parse_perm("3412")
    interval = interval_elements(identity(4), y)
    for x in interval.elements:
        p = kl_polynomial(x, y)
        d = length(y) - length(x)
        if x != y:
            assert 2 * p.degree <= d - 1
        total = zero()
        for z in interval_elements(x, y).elements:
            total = total + r_polynomial(x, z) * kl_polynomial(z, y)
        assert total == p.reversed_to(d)


@pytest.mark.parametrize("n", range(2, 6))
def test_kl_top_element_is_one(n):
    w0 = tuple(range(n, 0, -1))
    for w in all_perms(n):
        assert kl_polynomial(w, w0) == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_kl_nonnegative_with_unit_constant_term(n):
    rng = random.Random(n)
    elems = list(all_perms(n))
    tried = 0
    while tried < 150:
        x, y = rng.choice(elems), rng.choice(elems)
        if not bruhat_leq(x, y):
            continue
        tried += 1
        p = kl_polynomial(x, y)
        assert p.coeff(0) == 1
        assert all(c >= 0 for c in p.coeffs)


def test_carrell_golden():
    w = parse_perm("24513")
    assert carrell_condition(w, w)
    assert carrell_condition(identity(3), parse_perm("321"))
    assert not carrell_condition(identity(4), parse_perm("3412"))
    with pytest.raises(ValueError):
        carrell_condition(parse_perm("21"), parse_perm("12"))


@pytest.mark.parametrize("n", range(2, 5))
def test_carrell_equivalent_to_kl_one(n):
    rng = random.Random(n + 17)
    elems = list(all_perms(n))
    tried = 0
    while tried < 60:
        x, y = rng.choice(elems), rng.choice(elems)
        if not bruhat_leq(x, y):
            continue
        tried += 1
        expected = all(
            kl_polynomial(w, y) == 1 for w in interval_elements(x, y).elements
        )
        assert carrell_condition(x, y) == expected


# --- differential tests against the code the descent engines replaced ---


def _kl_by_inversion(x, y, memo):
    """The former KL engine: for fixed y, descending induction on length(x)
    through sum_{x < z <= y} R_{x,z} P_{z,y} = q^d P_{x,y}(1/q) - P_{x,y},
    whose upper half pins P_{x,y} down by the degree bound."""
    if x == y:
        return one()
    if not bruhat_leq(x, y):
        return zero()
    key = (x, y)
    if key not in memo:
        d = length(y) - length(x)
        total = zero()
        for z in interval_elements(x, y).elements:
            if z != x:
                total = total + r_polynomial(x, z) * _kl_by_inversion(z, y, memo)
        p = IntPolynomial(total.coeff(d - k) for k in range((d - 1) // 2 + 1))
        assert p.reversed_to(d) - p == total
        memo[key] = p
    return memo[key]


@pytest.mark.parametrize("n", range(1, 6))
def test_kl_matches_inversion_engine_on_every_pair(n):
    memo = {}
    for y in all_perms(n):
        for x in all_perms(n):
            assert kl_polynomial(x, y) == _kl_by_inversion(x, y, memo)


@pytest.mark.parametrize("n", range(1, 6))
def test_kl_column_covers_exactly_its_interval(n):
    # the column shares its case analysis with interval_elements, so the
    # reference is the brute-force filter of S_n by bruhat_leq
    elems = list(all_perms(n))
    above = {x: {u for u in elems if bruhat_leq(x, u)} for x in elems}
    below = {y: {u for u in elems if bruhat_leq(u, y)} for y in elems}
    for y in elems:
        for x in below[y]:
            column = polynomials._kl_column(x, y)
            assert set(column) == above[x] & below[y]
            assert all(lu == length(u) for u, (lu, _) in column.items())


def test_kl_matches_inversion_engine_on_sampled_lower_intervals_of_s6():
    rng = random.Random(6)
    e = identity(6)
    memo = {}
    for w in rng.sample(sorted(all_perms(6)), 40):
        for u in interval_elements(e, w).elements:
            assert kl_polynomial(u, w) == _kl_by_inversion(u, w, memo)


def test_kl_engine_rejects_an_entry_that_breaks_the_degree_bound(monkeypatch):
    monkeypatch.setattr(polynomials, "_KL_MEMO", {})
    e, v, y = identity(3), parse_perm("231"), parse_perm("321")
    kl_polynomial(e, v)
    # the column of (e, 321) is built from that of (e, 321 s_1) = (e, 231)
    polynomials._KL_MEMO[(e, v)][e] = (0, (1, 5))
    with pytest.raises(AssertionError):
        kl_polynomial(e, y)


def _carrell_by_bruhat(x, y):
    """The former reflection count, comparing t w <= y in the Bruhat order:
    t = (i j) swaps the values i and j, which stand at w^-1(i) < w^-1(j)."""
    n = len(x)
    for w in interval_elements(x, y).elements:
        win = inverse(w)
        count = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                t = (win[i - 1], win[j - 1])
                if t[0] < t[1] and bruhat_leq(right_transpose(w, t), y):
                    count += 1
        if count != length(y) - length(w):
            return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_carrell_matches_bruhat_count_on_lower_intervals(n):
    e = identity(n)
    for w in all_perms(n):
        assert carrell_condition(e, w) == _carrell_by_bruhat(e, w)


def test_carrell_matches_bruhat_count_on_sampled_lower_intervals_of_s6():
    rng = random.Random(6)
    e = identity(6)
    for w in rng.sample(sorted(all_perms(6)), 60):
        assert carrell_condition(e, w) == _carrell_by_bruhat(e, w)


def test_carrell_matches_bruhat_count_on_sampled_pairs_of_s5():
    rng = random.Random(5)
    elems = list(all_perms(5))
    tried = 0
    while tried < 300:
        x, y = rng.choice(elems), rng.choice(elems)
        if bruhat_leq(x, y):
            tried += 1
            assert carrell_condition(x, y) == _carrell_by_bruhat(x, y)


def test_carrell_holds_iff_kl_is_one_on_every_pair_of_s5():
    # Carrell-Peterson plus monotonicity: the count on [x, y] holds iff
    # P_{x,y} = 1. 394 of the 3,781 pairs have P_{x,y} != 1
    e = identity(5)
    pairs = not_one = 0
    for y in all_perms(5):
        for x in interval_elements(e, y).elements:
            kl_one = kl_polynomial(x, y) == 1
            assert carrell_holds(interval_elements(x, y)) == kl_one
            pairs += 1
            not_one += not kl_one
    assert (pairs, not_one) == (3781, 394)


class _EveryPair(BruhatInterval):
    """A Bruhat interval whose reflections are tried on every position pair."""

    @property
    def swaps(self):
        return list(combinations(range(self.n), 2))


@pytest.mark.parametrize("n", range(1, 8))
def test_class_reflection_counts_from_same_parity_swaps_match_all_pairs(n):
    # P = 1 on every class, so each count holds exactly when it reads
    # length(max) - length(w) for every member w: two passing counts agree
    # member by member. The derived swaps are same-parity pairs at most
    for cls in classes_of_sn(n):
        every_pair = _EveryPair(cls.elements, cls.lengths)
        assert all((j - i) % 2 == 0 for i, j in cls.swaps)
        assert carrell_holds(cls) and carrell_holds(every_pair)


def test_carrell_reads_lengths_from_the_interval(monkeypatch):
    calls = []

    def counting_length(w):
        calls.append(w)
        return length(w)

    monkeypatch.setattr(polynomials, "length", counting_length)
    assert carrell_condition(identity(5), parse_perm("54321"))
    assert not carrell_condition(identity(4), parse_perm("3412"))
    assert carrell_condition(parse_perm("21435"), parse_perm("43251")) == _carrell_by_bruhat(
        parse_perm("21435"), parse_perm("43251")
    )
    assert calls == []


# --- memo bounds ---


@pytest.fixture
def fresh_memos(monkeypatch):
    monkeypatch.setattr(polynomials, "_KL_MEMO", {})
    monkeypatch.setattr(polynomials, "_kl_memo_values", 0)
    monkeypatch.setattr(polynomials, "_R_MEMO", {})


def test_kl_memo_holds_a_lower_interval_sweep_of_s6_under_its_cap(fresh_memos, monkeypatch):
    e = identity(6)
    first = {w: kl_polynomial(e, w) for w in all_perms(6)}
    memo = polynomials._KL_MEMO
    assert all((e, w) in memo for w in first)  # nothing was cleared
    assert polynomials._kl_memo_values == sum(len(c) for c in memo.values())
    assert polynomials._kl_memo_values <= polynomials._KL_MEMO_CAP
    # a cap the sweep overruns clears the memo between calls; results hold
    full = polynomials._kl_memo_values
    monkeypatch.setattr(polynomials, "_KL_MEMO_CAP", 5000)
    peak = 0
    for w, p in first.items():
        assert kl_polynomial(e, w) == p
        peak = max(peak, polynomials._kl_memo_values)
    assert peak < full


def test_r_memo_holds_a_lower_interval_sweep_of_s6_under_its_cap(fresh_memos, monkeypatch):
    e = identity(6)
    first = {w: r_polynomial(e, w) for w in all_perms(6)}
    assert 0 < len(polynomials._R_MEMO) <= polynomials._R_MEMO_CAP
    monkeypatch.setattr(polynomials, "_R_MEMO_CAP", 100)
    peak = 0
    for w, p in first.items():
        assert r_polynomial(e, w) == p
        peak = max(peak, len(polynomials._R_MEMO))
    assert peak < len(first)


# --- the interval cache ---


def test_carrell_after_poincare_on_one_pair_reuses_the_interval():
    cache = polynomials._cached_interval
    cache.cache_clear()
    e, w = identity(5), parse_perm("35142")
    poincare(e, w)
    carrell_condition(e, w)
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_verify_factorization_leaves_the_interval_cache_within_its_size():
    cache = polynomials._cached_interval
    cache.cache_clear()
    assert verify.run_checks(6, ["factorization"]).ok
    info = cache.cache_info()
    # the check reads the rank vector of each class the stream hands it
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
