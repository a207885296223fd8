"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`.  The n = 8 factorization
sweep and the n = 10 census are behind `--long`.
"""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from odd_diagrams.classes import census, class_of, classes_of_sn
from odd_diagrams.diagrams import is_legal, satisfies_legality_criterion
from odd_diagrams.intervals import interval_elements, rank_vector
from odd_diagrams.partition import decompose, factorize, phi
from odd_diagrams.perms import (
    all_perms,
    avoids,
    bruhat_leq,
    covers,
    descent_set,
    identity,
    inverse,
    parse_perm,
)
from odd_diagrams.polynomials import (
    carrell_condition,
    expand_factors,
    is_palindromic,
    kl_polynomial,
    poincare,
    r_polynomial,
    r_polynomial_choosing,
)


def report(criterion: str, ok: bool) -> None:
    # write to the original stream so the line survives pytest's capture
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, criterion


def test_criterion_1_theorem_b():
    ok = True
    for n in range(1, 8):
        for cls in classes_of_sn(n):
            if interval_elements(cls.bottom, cls.top) != cls:
                ok = False
    report("1 theorem-b intervals n<=7", ok)


def _factorization_sweep(n_max):
    for n in range(1, n_max + 1):
        for cls in classes_of_sn(n):
            direct = poincare(cls.bottom, cls.top)
            product = expand_factors(factorize(cls.bottom, cls.top))
            if product != direct or not is_palindromic(direct):
                return False
    return True


def test_criterion_2_factorization():
    report("2 factorization + palindromicity n<=7", _factorization_sweep(7))


@pytest.mark.long
def test_criterion_2_factorization_n8():
    ok = True
    for cls in classes_of_sn(8):
        direct = poincare(cls.bottom, cls.top)
        product = expand_factors(factorize(cls.bottom, cls.top))
        if product != direct or not is_palindromic(direct):
            ok = False
    report("2L factorization + palindromicity n=8", ok)


def test_criterion_3_figure2_golden():
    u, v = parse_perm("5431627"), parse_perm("7461523")
    cls = class_of(u)
    interval = interval_elements(u, v)
    (k, anchors), blocks = decompose(u, v)
    factors = factorize(u, v)
    ok = (
        (cls.bottom, cls.top) == (u, v)
        and len(cls.elements) == 18
        and rank_vector(interval) == (1, 3, 5, 5, 3, 1)
        and k == 3
        and anchors == (3, 5, 7)
        and len(blocks) == 3
        and all(len(b) == 6 for b in blocks)
        and Counter(factors) == Counter({3: 2, 2: 1})
    )
    report("3 figure-2 golden class", ok)


def test_criterion_4_s9_golden():
    u = parse_perm("654172839")
    cls = class_of(u)
    (k, anchors), blocks = decompose(cls.bottom, cls.top)
    ok = (
        cls.bottom == u
        and cls.top == parse_perm("958172634")
        and k == 4
        and anchors == (3, 5, 7, 9)
        and tuple(b.bottom for b in blocks)
        == (
            parse_perm("654172839"),
            parse_perm("657142839"),
            parse_perm("657182439"),
            parse_perm("657182934"),
        )
    )
    report("4 s9 golden class", ok)


def test_criterion_5_uniform_partition_and_covers():
    ok = True
    for n in range(2, 8):
        for cls in classes_of_sn(n):
            if len(cls.elements) == 1:
                continue
            step, blocks = decompose(cls.bottom, cls.top)
            if len({len(b) for b in blocks}) != 1:
                ok = False
            for i, block in enumerate(blocks[:-1], start=1):
                for w in block.elements:
                    if not covers(w, phi(w, step, i)):
                        ok = False
    report("5 uniform partition + phi covers n<=7", ok)


def test_criterion_6_legality_and_parity():
    ok = True
    for n in range(2, 7):
        for u in all_perms(n):
            for t in combinations(range(1, n + 1), 2):
                if satisfies_legality_criterion(u, t) and not is_legal(u, t):
                    ok = False
        for cls in classes_of_sn(n):
            base = inverse(cls.bottom)
            for w in cls.elements:
                pos = inverse(w)
                if any((pos[k] - base[k]) % 2 != 0 for k in range(n)):
                    ok = False
    report("6 legality sufficiency + parity n<=6", ok)


def test_criterion_7_census_small():
    ok = all(len(census(n)[1]) == 0 for n in range(1, 9))
    report("7a census: 0 non-self-dual for n<=8", ok)


def test_criterion_7_census_n9():
    report("7b census: 8 non-self-dual in S_9", len(census(9)[1]) == 8)


@pytest.mark.long
def test_criterion_7_census_n10():
    report("7L census: 118 non-self-dual in S_10", len(census(10)[1]) == 118)


def test_criterion_8_kl_probe():
    ok = True
    for n in range(1, 7):
        for cls in classes_of_sn(n):
            if kl_polynomial(cls.bottom, cls.top) != 1:
                ok = False
    rng = random.Random(2024)
    multi = [c for c in classes_of_sn(7) if len(c.elements) > 1]
    for cls in rng.sample(multi, 50):
        if kl_polynomial(cls.bottom, cls.top) != 1:
            ok = False
    report("8 KL = 1 probe (n<=6 exhaustive, 50 sampled at n=7)", ok)


def test_criterion_9_remark_equivalences():
    ok = True
    p4231 = parse_perm("4231")
    p3412 = parse_perm("3412")
    for n in range(1, 7):
        e = identity(n)
        for w in all_perms(n):
            smooth = avoids(w, p4231) and avoids(w, p3412)
            pal = is_palindromic(poincare(e, w))
            kl1 = kl_polynomial(e, w) == 1
            car = carrell_condition(e, w)
            if not (smooth == pal == kl1 == car):
                ok = False
    report("9 smoothness equivalences n<=6", ok)


def test_criterion_10_property_suites():
    ok = True

    # R-polynomial descent-choice independence, n <= 5 exhaustive
    def pick(preferred):
        def chooser(w):
            ds = descent_set(w)
            return preferred if preferred in ds else min(ds)

        return chooser

    for n in range(2, 6):
        for y in all_perms(n):
            ds = sorted(descent_set(y))
            if len(ds) < 2:
                continue
            for x in all_perms(n):
                values = {r_polynomial_choosing(x, y, pick(d)).coeffs for d in ds}
                if values != {r_polynomial(x, y).coeffs}:
                    ok = False

    # interval BFS vs brute-force filter, 500 random pairs at n <= 6
    rng = random.Random(11)
    for n in range(2, 7):
        elems = list(all_perms(n))
        tried = 0
        while tried < 100:
            u, v = rng.choice(elems), rng.choice(elems)
            if not bruhat_leq(u, v):
                continue
            tried += 1
            brute = tuple(
                sorted(w for w in elems if bruhat_leq(u, w) and bruhat_leq(w, v))
            )
            if interval_elements(u, v).elements != brute:
                ok = False

    # top-heaviness of lower intervals, n <= 5
    from odd_diagrams.duality import top_heavy_check

    for n in range(1, 6):
        for w in all_perms(n):
            if not top_heavy_check(w):
                ok = False

    report("10 property suites (R independence, BFS filter, top-heavy)", ok)
