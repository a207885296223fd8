"""Uniform partition of an odd diagram class and the Poincare factorization.

Given the extremes u < v of an odd diagram class, the positions between
a = u^-1(k) and b = v^-1(k) (k the first differing value) carrying values
in [u(a), u(b)] split the interval into equal-sized blocks indexed by the
position of k.  Iterating the split on the last block's minimum factors
the Poincare polynomial into terms 1 + t + ... + t^(m-1).
"""

import math

from .diagrams import first_difference, legal_swap, odd_diagram_key
from .intervals import BruhatInterval, interval_elements
from .perms import FrozenRecord, Perm, format_perm, right_transpose
from .polynomials import IntPolynomial, expand_factors

__all__ = [
    "PartitionStep",
    "BlockDecomposition",
    "FactorizationResult",
    "anchors",
    "block_index",
    "decompose",
    "phi",
    "factorize",
    "MEMBER_BUDGET",
    "check_class_size",
]

# The most members ``class --perm`` and ``partition --interval`` build without
# --long: the 40,320-member class of 1,9,2,10,...,8,16 in S_16 is within it.
MEMBER_BUDGET = 50_000


class PartitionStep(FrozenRecord):
    """The split data for one extreme pair (u, v)."""

    __slots__ = _fields = ("k", "a", "b", "anchors")
    k: int
    a: int
    b: int
    anchors: tuple[int, ...]

    def __init__(self, k: int, a: int, b: int, anchors: tuple[int, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "anchors", anchors)

    @property
    def m(self) -> int:
        return len(self.anchors)


class BlockDecomposition(FrozenRecord):
    __slots__ = _fields = ("step", "blocks", "u_chain", "v_chain")
    step: PartitionStep
    blocks: tuple[BruhatInterval, ...]
    u_chain: tuple[Perm, ...]
    v_chain: tuple[Perm, ...]

    def __init__(self, step: PartitionStep, blocks: tuple[BruhatInterval, ...],
                 u_chain: tuple[Perm, ...], v_chain: tuple[Perm, ...]):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "u_chain", u_chain)
        object.__setattr__(self, "v_chain", v_chain)


class FactorizationResult(FrozenRecord):
    """Factor term counts in recursion order and their expanded product."""

    __slots__ = _fields = ("factor_lengths", "product")
    factor_lengths: tuple[int, ...]
    product: IntPolynomial

    def __init__(self, factor_lengths: tuple[int, ...], product: IntPolynomial):
        object.__setattr__(self, "factor_lengths", factor_lengths)
        object.__setattr__(self, "product", product)


def _require_class_extremes(u: Perm, v: Perm) -> None:
    """ValueError unless u and v are the minimum and maximum of one odd diagram
    class. By Theorem B and the parity theorem a member above the minimum has
    a lower cover in the class, which ``legal_swap`` finds, and dually."""
    key = odd_diagram_key(u)
    if len(u) != len(v) or odd_diagram_key(v) != key:
        raise ValueError(f"{format_perm(u)} and {format_perm(v)} have different odd diagrams")
    for w, down, extreme in ((u, True, "minimum"), (v, False, "maximum")):
        if legal_swap(w, key, down):
            raise ValueError(f"{format_perm(w)} is not the {extreme} of its odd diagram class")


def anchors(u: Perm, v: Perm) -> PartitionStep:
    """Anchor positions between u^-1(k) and v^-1(k).

    Requires u != v, the minimum and maximum of one odd diagram class
    (ValueError otherwise).  The anchor values u(a_1) < ... < u(a_m) are
    increasing and all anchors share one parity; both facts are asserted.
    """
    _require_class_extremes(u, v)
    return _anchor_step(u, v)


def _anchor_step(u: Perm, v: Perm) -> PartitionStep:
    """``anchors`` for a pair already known to be the extremes of a class."""
    k, positions = _anchor_positions(u, v)
    return PartitionStep(k, positions[0], positions[-1], positions)


def _anchor_positions(u: Perm, v: Perm) -> tuple[int, tuple[int, ...]]:
    """The first difference k of u and v, and the anchor positions a = u^-1(k)
    through b = v^-1(k) that hold values in [u(a), u(b)]; a and b are the
    first and last anchors. Asserts what ``anchors`` says of them."""
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


def block_index(w: Perm, step: PartitionStep) -> int:
    """1-based block number of an interval member: which anchor holds k."""
    c = w.index(step.k) + 1
    try:
        return step.anchors.index(c) + 1
    except ValueError:
        raise AssertionError(
            f"{format_perm(w)} holds {step.k} at non-anchor position {c}"
        ) from None


def phi(w: Perm, step: PartitionStep, i: int) -> Perm:
    """The bijection block i -> block i+1: swap the anchor pair positions."""
    if not 1 <= i < step.m:
        raise ValueError(f"block index {i} out of range 1..{step.m - 1}")
    if block_index(w, step) != i:
        raise ValueError(f"{format_perm(w)} is not in block {i}")
    return right_transpose(w, (step.anchors[i - 1], step.anchors[i]))


def _chains(u: Perm, v: Perm, step: PartitionStep) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    u_chain = [u]
    for i in range(step.m - 1):
        pair = (step.anchors[i], step.anchors[i + 1])
        u_chain.append(right_transpose(u_chain[-1], pair))
    v_chain = [v]
    for i in range(step.m - 2, -1, -1):
        pair = (step.anchors[i], step.anchors[i + 1])
        v_chain.append(right_transpose(v_chain[-1], pair))
    v_chain.reverse()
    return tuple(u_chain), tuple(v_chain)


def decompose(u: Perm, v: Perm, max_members: int | None = None) -> BlockDecomposition:
    """Split [u, v] into its anchor-indexed blocks and verify each block is
    the Bruhat interval between its chain elements. With ``max_members``,
    ``check_class_size`` runs before any member is built."""
    step = anchors(u, v)
    if max_members is not None:
        check_class_size(u, v, max_members)
    parent = interval_elements(u, v)
    groups: list[list[Perm]] = [[] for _ in range(step.m)]
    for w in parent.elements:
        groups[block_index(w, step) - 1].append(w)
    u_chain, v_chain = _chains(u, v, step)
    blocks = []
    for i in range(step.m):
        block = interval_elements(u_chain[i], v_chain[i])
        if block.elements != tuple(groups[i]):
            raise AssertionError(
                f"block {i + 1} of [{format_perm(u)}, {format_perm(v)}] is not "
                f"the interval [{format_perm(u_chain[i])}, {format_perm(v_chain[i])}]"
            )
        blocks.append(block)
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise AssertionError(
            f"non-uniform partition of [{format_perm(u)}, {format_perm(v)}]: "
            f"{[len(b) for b in blocks]}"
        )
    return BlockDecomposition(step, tuple(blocks), u_chain, v_chain)


def factorize(u: Perm, v: Perm) -> FactorizationResult:
    """Factor the Poincare polynomial of the class [u, v]. Raises ValueError
    unless u and v are the minimum and maximum of one odd diagram class."""
    _require_class_extremes(u, v)
    factors = _factor_lengths(u, v)
    return FactorizationResult(factors, expand_factors(factors))


def check_class_size(u: Perm, v: Perm, max_members: int) -> None:
    """ValueError if the class with extremes u and v has more than
    ``max_members`` members. By the factorization theorem its size is the
    product of its factor lengths, the Poincare polynomial at t = 1, so no
    member is built; u and v are not checked to be the extremes."""
    size = math.prod(_factor_lengths(u, v))
    if size > max_members:
        raise ValueError(f"the class [{format_perm(u)}, {format_perm(v)}] has {size} members, "
                         f"more than {max_members}; pass --long to run anyway")


def _factor_lengths(u: Perm, v: Perm) -> tuple[int, ...]:
    """Unchecked ``factorize``: split [current, v] at its anchors, recording
    each step's block count m, until the pair collapses to a point. The
    last block's minimum is current (a_1 a_2)(a_2 a_3)...(a_{m-1} a_m): the
    anchor values rotated one place toward a_1."""
    factors = []
    current = u
    last_k = 0
    while current != v:
        k, positions = _anchor_positions(current, v)
        if k <= last_k:
            raise AssertionError("first difference failed to increase")
        last_k = k
        factors.append(len(positions))
        row = list(current)
        for p, q in zip(positions, positions[1:] + positions[:1]):
            row[p - 1] = current[q - 1]
        current = tuple(row)
    return tuple(factors)
