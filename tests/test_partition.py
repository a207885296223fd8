import pytest

from odd_diagrams import intervals, partition, verify
from odd_diagrams.classes import (
    class_of,
    class_stream,
    classes_of_sn,
    parity_block_ends,
    parity_sets,
)
from odd_diagrams.diagrams import odd_diagram_key
from odd_diagrams.intervals import BruhatInterval, interval_elements, rank_vector
from odd_diagrams.partition import (
    block_index,
    class_interval,
    decompose,
    factorize,
    phi,
)
from odd_diagrams.perms import covers, parse_perm, right_transpose
from odd_diagrams.polynomials import IntPolynomial, expand_factors, poincare


def fig2_pair():
    return parse_perm("5431627"), parse_perm("7461523")


def s9_pair():
    return parse_perm("654172839"), parse_perm("958172634")


def test_anchors_figure2():
    assert decompose(*fig2_pair())[0] == (3, (3, 5, 7))


def test_anchors_s9():
    assert decompose(*s9_pair())[0] == (4, (3, 5, 7, 9))


def test_anchors_s3():
    # the two-element class {213, 312}: first differing value is 2, at
    # positions a = 1 and b = 3
    assert decompose(parse_perm("213"), parse_perm("312"))[0] == (2, (1, 3))


def test_anchors_rejects():
    with pytest.raises(ValueError, match="213 is not the maximum"):
        decompose(parse_perm("213"), parse_perm("213"))
    with pytest.raises(ValueError):
        decompose(parse_perm("1432"), parse_perm("3412"))


def test_factorize_compares_odd_diagrams_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return odd_diagram_key(w)

    monkeypatch.setattr(partition, "odd_diagram_key", counting)
    u, v = s9_pair()
    assert len(factorize(u, v)) > 1
    assert calls == [u, v]


def test_block_index_extremes():
    u, v = fig2_pair()
    step, _ = decompose(u, v)
    assert block_index(u, step) == 1
    assert block_index(v, step) == len(step[1])


def test_decompose_s9_chains():
    _, blocks = decompose(*s9_pair())
    assert tuple(block.bottom for block in blocks) == (
        parse_perm("654172839"),
        parse_perm("657142839"),
        parse_perm("657182439"),
        parse_perm("657182934"),
    )
    assert blocks[-1].top == parse_perm("958172634")
    sizes = {len(block) for block in blocks}
    assert len(sizes) == 1


def test_decompose_figure2():
    _, blocks = decompose(*fig2_pair())
    assert len(blocks) == 3
    assert all(len(block) == 6 for block in blocks)
    assert tuple(block.bottom for block in blocks) == (
        parse_perm("5431627"),
        parse_perm("5461327"),
        parse_perm("5461723"),
    )


def test_phi_maps_block_to_next():
    u, v = fig2_pair()
    step, blocks = decompose(u, v)
    for i, block in enumerate(blocks[:-1], start=1):
        images = {phi(w, step, i) for w in block.elements}
        assert images == set(blocks[i].elements)
        for w in block.elements:
            assert covers(w, phi(w, step, i))


def test_phi_rejects_wrong_block():
    u, v = fig2_pair()
    step, _ = decompose(u, v)
    with pytest.raises(ValueError):
        phi(v, step, 1)
    with pytest.raises(ValueError):
        phi(u, step, 3)


def test_factorize_golden():
    w = parse_perm("12345")  # a one-member class
    assert factorize(w, w) == ()
    assert expand_factors(factorize(w, w)) == 1
    with pytest.raises(ValueError, match="24513 is not the minimum"):  # {24315, 24513}
        factorize(parse_perm("24513"), parse_perm("24513"))

    factors = factorize(*fig2_pair())
    assert factors == (3, 3, 2)
    assert expand_factors(factors).coeffs == (1, 3, 5, 5, 3, 1)

    small = factorize(parse_perm("213"), parse_perm("312"))
    assert small == (2,)
    assert expand_factors(small).coeffs == (1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_factorize_equals_poincare(n):
    for cls in classes_of_sn(n):
        factors = factorize(cls.bottom, cls.top)
        assert expand_factors(factors) == poincare(cls.bottom, cls.top)
        size = len(interval_elements(cls.bottom, cls.top))
        product_of_lengths = 1
        for m in factors:
            product_of_lengths *= m
        assert product_of_lengths == size


@pytest.mark.parametrize("n", range(2, 7))
def test_uniformity_and_coverage(n):
    for cls in classes_of_sn(n):
        if len(cls.elements) == 1:
            continue
        step, blocks = decompose(cls.bottom, cls.top)
        _, anchors = step
        assert len({len(b) for b in blocks}) == 1
        # every member's k-position is an anchor, and the anchored values
        # of the minimum increase
        for w in cls.elements:
            assert 1 <= block_index(w, step) <= len(anchors)
        values = [cls.bottom[i - 1] for i in anchors]
        assert values == sorted(values)
        # successive block ends differ by the anchor transposition
        for i in range(len(anchors) - 1):
            pair = (anchors[i], anchors[i + 1])
            assert blocks[i + 1].bottom == right_transpose(blocks[i].bottom, pair)
            assert blocks[i].top == right_transpose(blocks[i + 1].top, pair)


@pytest.mark.parametrize("n", range(1, 6))
def test_library_accepts_only_the_class_extremes(n):
    for cls in classes_of_sn(n):
        for u in cls.elements:
            for v in cls.elements:
                if (u, v) == (cls.bottom, cls.top):
                    continue
                for call in (factorize, decompose):
                    with pytest.raises(ValueError):
                        call(u, v)


def test_factorize_rejects_a_pair_inside_a_class():
    # 31425 and 41523 share a class whose maximum lies above 41523; the
    # interval [31425, 41523] has Poincare polynomial 1+2t+t^2, not (3,)
    u, v = parse_perm("31425"), parse_perm("41523")
    assert odd_diagram_key(u) == odd_diagram_key(v)
    assert poincare(u, v).coeffs == (1, 2, 1)
    with pytest.raises(ValueError, match="41523 is not the maximum"):
        factorize(u, v)


def _reference_factor_lengths(u, v):
    """Reference: the former ``_factor_lengths``, one transposition copy per
    anchor pair."""
    factors = []
    current = u
    last_k = 0
    while current != v:
        k, anchors = partition._anchor_positions(current, v)
        if k <= last_k:
            raise AssertionError("first difference failed to increase")
        last_k = k
        factors.append(len(anchors))
        for i in range(len(anchors) - 1):
            current = right_transpose(current, (anchors[i], anchors[i + 1]))
    return tuple(factors)


@pytest.mark.parametrize("n", range(1, 8))
def test_factor_lengths_match_the_transposition_walk_on_every_class(n):
    for cls in classes_of_sn(n):
        u, v = cls.bottom, cls.top
        assert partition._factor_lengths(u, v) == _reference_factor_lengths(u, v)


def _reference_chains(u, v, anchors):
    """Reference: the chains ``decompose`` built before it read them from its
    blocks, the class's ends carried through the anchor transpositions, u
    upward from the first block and v downward from the last."""
    pairs = list(zip(anchors, anchors[1:]))
    u_chain = [u]
    for pair in pairs:
        u_chain.append(right_transpose(u_chain[-1], pair))
    v_chain = [v]
    for pair in reversed(pairs):
        v_chain.append(right_transpose(v_chain[-1], pair))
    return tuple(u_chain), tuple(reversed(v_chain))


@pytest.mark.parametrize("n", range(1, 8))
def test_derived_fields_match_the_values_they_replace_on_every_class(n):
    # bottom and top, a and b, the chains and the product were stored fields;
    # each is now read from the others, and here checked against its source:
    # the chains are the blocks' ends, the product the expanded factors
    tables = {}
    ends = {key: (lo, hi) for evens in parity_sets(n)
            for key, lo, hi, _ in parity_block_ends(n, evens, tables)}
    stream = list(class_stream(n))
    assert len(stream) == len(ends)
    for cls in stream:
        u, v = cls.bottom, cls.top
        assert ends[odd_diagram_key(u)] == (u, v)
        assert expand_factors(factorize(u, v)) == IntPolynomial(rank_vector(cls))
        if u == v:
            continue
        (k, anchors), blocks = decompose(u, v)
        assert (anchors[0], anchors[-1]) == (u.index(k) + 1, v.index(k) + 1)
        chains = (tuple(b.bottom for b in blocks), tuple(b.top for b in blocks))
        assert chains == _reference_chains(u, v, anchors)


def test_block_index_and_phi_reject_a_non_anchor_position():
    step, _ = decompose(*fig2_pair())
    w = parse_perm("3124567")
    for call in (lambda: block_index(w, step), lambda: phi(w, step, 1)):
        with pytest.raises(ValueError, match="3124567 holds 3 at non-anchor position 1"):
            call()


def _reference_blocks(u, v):
    """Reference: the blocks ``decompose`` built before it cut them from
    [u, v], one ``interval_elements`` between the ends of each group of
    members that hold k at one anchor."""
    step = partition._anchor_positions(u, v)
    groups = [[] for _ in step[1]]
    for w in interval_elements(u, v).elements:
        groups[block_index(w, step) - 1].append(w)
    return tuple(interval_elements(group[0], group[-1]) for group in groups)


@pytest.mark.parametrize("n", [*range(2, 8), pytest.param(8, marks=pytest.mark.long)])
def test_cut_blocks_match_the_rebuilt_blocks_on_every_class(n):
    for cls in class_stream(n):
        if len(cls) > 1:
            assert decompose(cls.bottom, cls.top)[1] == _reference_blocks(cls.bottom, cls.top)


@pytest.mark.parametrize("pair", [fig2_pair(), s9_pair()])
def test_decompose_builds_one_interval(monkeypatch, pair):
    # one check of the extremes, one walk of the anchor chain with one step
    # computed per split, and one build of the last block, whose translates
    # are the others; the lifting engine is not run
    first, splits = partition._anchor_positions(*pair), len(factorize(*pair))
    calls = {name: [] for name in ("_require_class_extremes", "_anchor_chain",
                                   "_anchor_positions", "_chain_members")}
    for name, seen in calls.items():
        monkeypatch.setattr(partition, name, lambda *args, real=getattr(partition, name),
                            seen=seen: seen.append(args) or real(*args))
    monkeypatch.setattr(intervals, "_lifting_step", None)
    step, _ = decompose(*pair)
    assert calls["_require_class_extremes"] == calls["_anchor_chain"] == [pair]
    assert len(calls["_anchor_positions"]) == splits and calls["_anchor_positions"][0] == pair
    assert [v for v, _ in calls["_chain_members"]] == [pair[1]]
    assert step == first


# --- class_interval, the class from its anchor chain ---


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.long)])
def test_class_interval_matches_the_lifting_engine_on_every_class(n):
    for cls in class_stream(n):
        built = class_interval(cls.bottom, cls.top)
        assert built == interval_elements(cls.bottom, cls.top)
        assert type(built.elements) is type(built.lengths) is tuple


def _interleaved(n):
    """1, n/2 + 1, 2, n/2 + 2, ...: the minimum of a class of (n/2)! members."""
    half = n // 2
    return tuple(c for i in range(1, half + 1) for c in (i, i + half))


def _reversed_halves(n):
    """1, n, 2, n - 1, ...: the maximum of the class of ``_interleaved(n)``."""
    return tuple(c for i in range(1, n // 2 + 1) for c in (i, n + 1 - i))


# the classes of perfbench ``queries`` at seed 1, and the 40,320-member class of S_16
@pytest.mark.parametrize("w", [*map(parse_perm, ["329145876", "281467395", "5431627",
                                                 "654172839"]), _interleaved(16)])
def test_class_interval_matches_the_lifting_engine_on_the_query_classes(w):
    cls = class_of(w)
    assert w in cls.elements
    assert cls == interval_elements(cls.bottom, cls.top)


def test_class_interval_checks_the_budget_before_building_members(monkeypatch):
    # the S_20 class has 10! = 3,628,800 members: its size is the product of
    # the factor lengths, read from the one walk of the anchor chain
    def fail(*args):
        raise AssertionError("members were built")

    u, v = _interleaved(20), _reversed_halves(20)
    monkeypatch.setattr(partition, "_chain_members", fail)
    for call in (class_interval, decompose):
        with pytest.raises(ValueError, match="has 3628800 members, more than 50000;"):
            call(u, v, partition.MEMBER_BUDGET)
    assert partition._factor_lengths(u, v) == tuple(range(10, 1, -1))


# --- verify uniform_partition on a broken partition ---


def _drop_middle(block):
    return BruhatInterval(block.elements[:2] + block.elements[3:],
                          block.lengths[:2] + block.lengths[3:])


def _point(w, lw):
    return BruhatInterval((w,), (lw,))


BROKEN = {
    # a block missing a member that is neither its first nor its last
    "one block short": lambda blocks: (blocks[0], _drop_middle(blocks[1]), *blocks[2:]),
    "every block short": lambda blocks: tuple(map(_drop_middle, blocks)),
    "lengths shifted": lambda blocks: (
        blocks[0], BruhatInterval(blocks[1].elements, tuple(lw + 1 for lw in blocks[1].lengths)),
        *blocks[2:]),
    # one-member blocks: phi maps the first block's member to the second
    # block's bottom, not to its top; every other condition holds
    "chain end missed": lambda blocks: (
        _point(blocks[0].bottom, blocks[0].lengths[0]),
        *[_point(block.top, block.lengths[-1]) for block in blocks[1:]]),
    # phi is asked to map members of block 2 as if they were in block 1
    "blocks swapped": lambda blocks: (blocks[1], blocks[0], *blocks[2:]),
}


def _check_figure2_class(monkeypatch, broken):
    u, v = fig2_pair()
    step, blocks = decompose(u, v)
    monkeypatch.setattr(verify.classes_mod, "class_stream",
                        lambda n: iter([interval_elements(u, v)]))
    monkeypatch.setattr(partition, "decompose", lambda u, v: (step, broken(blocks)))
    result = verify.CheckResult("uniform_partition")
    verify.check_uniform_partition(7, result)
    return result


def test_uniform_partition_check_passes_the_real_partition(monkeypatch):
    result = _check_figure2_class(monkeypatch, lambda blocks: blocks)
    assert (result.passed, result.failed) == (1, 0)


@pytest.mark.parametrize("name", BROKEN)
def test_uniform_partition_check_fails_a_broken_partition(monkeypatch, name):
    result = _check_figure2_class(monkeypatch, BROKEN[name])
    assert (result.passed, result.failed) == (0, 1)
    assert result.findings[0]["min"] == "5431627"
    if name == "blocks swapped":
        assert result.findings[0]["error"] == "5461327 is not in block 1"


# --- verify theorem_b and uniform_partition on a broken class builder ---


def _drop_a_translate(translates):
    def broken(elements, lengths, positions):
        return translates(elements, lengths, positions)[1:]
    return broken


def _shift_a_block(translates):
    def broken(elements, lengths, positions):
        blocks = translates(elements, lengths, positions)
        first_elements, first_lengths = blocks[0]
        blocks[0] = (first_elements, [lw + 1 for lw in first_lengths])
        return blocks
    return broken


@pytest.mark.parametrize("check", [verify.check_theorem_b, verify.check_uniform_partition])
@pytest.mark.parametrize("breaking", [None, _drop_a_translate, _shift_a_block])
def test_class_checks_fail_a_broken_class_builder(monkeypatch, check, breaking):
    # both rows re-prove what ``class_interval`` and ``decompose`` assume, so
    # a builder that drops a translate or shifts a block's lengths fails them
    u, v = fig2_pair()
    monkeypatch.setattr(verify.classes_mod, "class_stream",
                        lambda n: iter([interval_elements(u, v)]))
    if breaking is not None:
        monkeypatch.setattr(partition, "_translates", breaking(partition._translates))
    result = verify.CheckResult(check.__name__)
    check(7, result)
    assert (result.passed, result.failed) == ((1, 0) if breaking is None else (0, 1))
