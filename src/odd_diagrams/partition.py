"""Uniform partition of an odd diagram class and the Poincare factorization.

Given the extremes u < v of an odd diagram class, the positions between
a = u^-1(k) and b = v^-1(k) (k the first differing value) carrying values
in [u(a), u(b)] split the interval into equal-sized blocks indexed by the
position of k.  Iterating the split on the last block's minimum factors
the Poincare polynomial into terms 1 + t + ... + t^(m-1).  Read back from
its end, the same walk builds the class: each step's blocks are the
translates of its last block by the anchor-pair swaps.
"""

import math
from operator import itemgetter

from .diagrams import first_difference, legal_swap, odd_diagram_key
from .intervals import BruhatInterval
from .perms import Perm, format_perm, length, right_transpose

__all__ = [
    "block_index",
    "class_interval",
    "decompose",
    "phi",
    "factorize",
    "MEMBER_BUDGET",
]

# The most members ``class --perm`` and ``partition --interval`` build without
# --long: the 40,320-member class of 1,9,2,10,...,8,16 in S_16 is within it.
MEMBER_BUDGET = 50_000


# one step of the split of a class: its first difference k, and the anchor
# positions a = u^-1(k) through b = v^-1(k), the first and last of them
Step = tuple[int, tuple[int, ...]]


def _require_class_extremes(u: Perm, v: Perm) -> None:
    """ValueError unless u and v are the minimum and maximum of one odd diagram
    class. By Theorem B and the parity theorem a member above the minimum has
    a lower cover in the class, which ``legal_swap`` finds, and dually."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    key = odd_diagram_key(u)
    if odd_diagram_key(v) != key:
        raise ValueError(f"{format_perm(u)} and {format_perm(v)} have different odd diagrams")
    for w, down, extreme in ((u, True, "minimum"), (v, False, "maximum")):
        if legal_swap(w, key, down):
            raise ValueError(f"{format_perm(w)} is not the {extreme} of its odd diagram class")


def _anchor_positions(u: Perm, v: Perm) -> Step:
    """The step of u and v: their first difference k, and the anchor
    positions a = u^-1(k) through b = v^-1(k) that hold values in
    [u(a), u(b)]; a and b are the first and last anchors. ValueError if
    u = v. For u and v the minimum and maximum of one odd diagram class,
    the anchor values u(a_1) < ... < u(a_m) increase and all anchors share
    one parity; both facts are asserted."""
    k = first_difference(u, v)
    a = u.index(k) + 1
    b = v.index(k) + 1
    if not (a < b and u[a - 1] < u[b - 1]):
        raise AssertionError(
            f"extremes out of order for [{format_perm(u)}, {format_perm(v)}]: "
            f"a={a}, b={b}; is u really the class minimum?"
        )
    lo, hi = u[a - 1], u[b - 1]
    positions = tuple(i for i in range(a, b + 1) if lo <= u[i - 1] <= hi)
    values = [u[i - 1] for i in positions]
    if values != sorted(values):
        raise AssertionError(f"anchored subsequence not increasing at {format_perm(u)}")
    if any((i - a) % 2 != 0 for i in positions):
        raise AssertionError(f"anchors of mixed parity at {format_perm(u)}")
    return k, positions


def block_index(w: Perm, step: Step) -> int:
    """1-based block number of an interval member: which anchor holds k.
    ValueError if w holds k at no anchor."""
    k, anchors = step
    c = w.index(k) + 1
    try:
        return anchors.index(c) + 1
    except ValueError:
        raise ValueError(f"{format_perm(w)} holds {k} at non-anchor position {c}") from None


def phi(w: Perm, step: Step, i: int) -> Perm:
    """The bijection block i -> block i+1: swap the anchor pair positions."""
    _, anchors = step
    if not 1 <= i < len(anchors):
        raise ValueError(f"block index {i} out of range 1..{len(anchors) - 1}")
    if block_index(w, step) != i:
        raise ValueError(f"{format_perm(w)} is not in block {i}")
    return right_transpose(w, (anchors[i - 1], anchors[i]))


def decompose(u: Perm, v: Perm, max_members: int | None = None
              ) -> tuple[Step, tuple[BruhatInterval, ...]]:
    """The first step (k, anchors) of the class [u, v] and its blocks in
    anchor order, each with its members sorted and their lengths: the last
    block is the class of the next anchor step, built from the one walk of
    the anchor chain as ``class_interval`` builds a class, and the others
    are its translates by the anchor-pair swaps, each one length lower; no
    member is placed by the position of k. The blocks' bottoms are the
    u-chain and their tops the v-chain. That these are the blocks of
    [u, v], equal in size and each the Bruhat interval between its ends, is
    the uniform partition theorem, re-proved by ``verify uniform_partition``
    and not here. ValueError unless u < v are the minimum and maximum of one
    odd diagram class, and with ``max_members`` as ``_check_chain_size``,
    before any member is built."""
    _require_class_extremes(u, v)
    chain = _anchor_chain(u, v)
    if not chain:
        raise ValueError("permutations are equal; no differing value")
    if max_members is not None:
        _check_chain_size(u, v, chain, max_members)
    step = chain[0]
    blocks = _translates(*_chain_members(v, chain[1:]), step[1])
    return step, tuple(_sorted_interval(*block) for block in blocks)


def factorize(u: Perm, v: Perm) -> tuple[int, ...]:
    """The factor lengths m_i of the class [u, v] in recursion order: its
    Poincare polynomial is the product of the [m_i]_t, ``expand_factors``
    of them. Raises ValueError unless u and v are the minimum and maximum
    of one odd diagram class."""
    _require_class_extremes(u, v)
    return _factor_lengths(u, v)


def _check_chain_size(u: Perm, v: Perm, chain: list[Step], max_members: int) -> None:
    """ValueError if the class with extremes u and v, split by ``chain``
    (its ``_anchor_chain``), has more than ``max_members`` members. By the
    factorization theorem its size is the product of its factor lengths,
    the Poincare polynomial at t = 1, so no member is built; u and v are
    not checked to be the extremes."""
    size = math.prod(len(positions) for _, positions in chain)
    if size > max_members:
        raise ValueError(f"the class [{format_perm(u)}, {format_perm(v)}] has {size} members, "
                         f"more than {max_members}; pass --long to run anyway")


def _factor_lengths(u: Perm, v: Perm) -> tuple[int, ...]:
    """Unchecked ``factorize``: the block count m of each step of the
    ``_anchor_chain`` of u and v."""
    return tuple(len(positions) for _, positions in _anchor_chain(u, v))


def _anchor_chain(u: Perm, v: Perm) -> list[Step]:
    """The step (k, anchors), ``_anchor_positions``, of each split of the
    class [u, v]: split [current, v] at its anchors and go on with its
    last block, until the pair collapses to a point; empty when u = v. The
    last block's minimum is current (a_1 a_2)(a_2 a_3)...(a_{m-1} a_m): the
    anchor values rotated one place toward a_1."""
    chain = []
    current = u
    last_k = 0
    while current != v:
        k, positions = _anchor_positions(current, v)
        if k <= last_k:
            raise AssertionError("first difference failed to increase")
        last_k = k
        chain.append((k, positions))
        row = list(current)
        for p, q in zip(positions, positions[1:] + positions[:1]):
            row[p - 1] = current[q - 1]
        current = tuple(row)
    return chain


def class_interval(u: Perm, v: Perm, max_members: int | None = None) -> BruhatInterval:
    """The class with extremes u and v, members and lengths, from one walk
    of its ``_anchor_chain``, unchecked: u and v are not checked to be the
    extremes, and the theorems it rests on are re-proved by ``verify
    theorem_b`` and ``uniform_partition``, not here. By the uniform partition
    theorem each step's class is the m translates of its last block, which
    is the next step's class, so the members grow outward from {v}; a class
    of N members costs O(N) swaps and one sort, where ``interval_elements``
    halves and doubles its member set along a filter walk. With
    ``max_members``, ValueError as ``_check_chain_size`` before any member
    is built."""
    chain = _anchor_chain(u, v)
    if max_members is not None:
        _check_chain_size(u, v, chain, max_members)
    return _sorted_interval(*_chain_members(v, chain))


# members and their lengths, in two aligned lists
Block = tuple[list[Perm], list[int]]


def _chain_members(v: Perm, chain: list[Step]) -> Block:
    """The members of the class that ``chain`` splits down to v, with their
    lengths, in no particular order: from {v}, each step from the last adds
    the translates of what is built so far."""
    elements, lengths = [v], [length(v)]
    for _, positions in reversed(chain):
        # the last block is the one built so far
        for block_elements, block_lengths in _translates(elements, lengths, positions)[:-1]:
            elements += block_elements
            lengths += block_lengths
    return elements, lengths


def _translates(elements: list[Perm], lengths: list[int],
                positions: tuple[int, ...]) -> list[Block]:
    """The m blocks of one anchor step in anchor order, given its last
    block: block i is block i + 1 with the entries at anchors a_i and
    a_{i+1} swapped, phi^-1, and each member one length lower."""
    order = list(range(len(elements[0])))
    blocks = [(elements, lengths)]
    for i in range(len(positions) - 1, 0, -1):
        p, q = positions[i - 1] - 1, positions[i] - 1
        order[p], order[q] = q, p
        elements = list(map(itemgetter(*order), elements))
        order[p], order[q] = p, q
        lengths = [lw - 1 for lw in lengths]
        blocks.append((elements, lengths))
    blocks.reverse()
    return blocks


def _sorted_interval(elements: list[Perm], lengths: list[int]) -> BruhatInterval:
    """The interval of these members and their lengths, sorted by member."""
    by_member = dict(zip(elements, lengths))
    ordered = tuple(sorted(by_member))
    return BruhatInterval(ordered, tuple(map(by_member.__getitem__, ordered)))
