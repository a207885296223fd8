"""Bruhat intervals [u, v]: elements, rank levels, Hasse diagrams, DOT export."""

from collections.abc import Callable, Iterable
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter, le

from .perms import FrozenRecord, Perm, bruhat_leq, format_perm, inverse, length

__all__ = [
    "BruhatInterval",
    "interval_elements",
    "rank_vector",
    "hasse_edges",
    "to_dot",
]


class BruhatInterval(FrozenRecord):
    """An interval by its sorted member list and the members' lengths,
    aligned with it. Bruhat order refines lexicographic order, so the first
    member is the bottom and the last the top, and the first and last
    lengths are theirs."""

    _fields = ("elements", "lengths")
    # the cached properties below are kept in __dict__
    __slots__ = _fields + ("__dict__",)
    elements: tuple[Perm, ...]
    lengths: tuple[int, ...]

    def __init__(self, elements: tuple[Perm, ...], lengths: tuple[int, ...]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "lengths", lengths)

    @property
    def bottom(self) -> Perm:
        return self.elements[0]

    @property
    def top(self) -> Perm:
        return self.elements[-1]

    @property
    def n(self) -> int:
        return len(self.elements[0])

    @cached_property
    def swaps(self) -> list[tuple[int, int]]:
        """The 0-based position pairs i < j a reflection between two members
        can swap: w and w (i j) differ only at i and j, and w(j) stands at j
        in one and at i in the other, so some value is seen at both i and j."""
        seen = list(map(set, zip(*self.elements)))
        moving = [i for i, values in enumerate(seen) if len(values) > 1]
        return [(i, j) for i, j in combinations(moving, 2) if not seen[i].isdisjoint(seen[j])]

    @cached_property
    def cover_graph(self) -> tuple[list[list[int]], list[set[int]], list[set[int]]]:
        """levels[r] = the indices of the members at length(bottom) + r, in
        member order, and for each member index the indices covering it (up)
        and covered by it (down). Each ascending swap of a member is tried
        once; the result is a cover when it is a member one length above,
        read from the carried lengths."""
        index = {w: k for k, w in enumerate(self.elements)}
        lengths = self.lengths
        base = lengths[0]
        swaps = self.swaps
        levels: list[list[int]] = [[] for _ in range(self.rank + 1)]
        up: list[set[int]] = [set() for _ in self.elements]
        down: list[set[int]] = [set() for _ in self.elements]
        for k, (x, lx) in enumerate(zip(self.elements, lengths)):
            levels[lx - base].append(k)
            row = list(x)
            for i, j in swaps:
                xi, xj = x[i], x[j]
                if xi < xj:
                    row[i], row[j] = xj, xi
                    m = index.get(tuple(row))
                    row[i], row[j] = xi, xj
                    if m is not None and lengths[m] == lx + 1:
                        up[k].add(m)
                        down[m].add(k)
        return levels, up, down

    @property
    def rank(self) -> int:
        """length(top) - length(bottom): the last carried length less the first."""
        return self.lengths[-1] - self.lengths[0]

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=1024)
def _position_swap(n: int, i: int) -> Callable[[Perm], Perm]:
    """w -> w s_{i+1} on S_n, n >= 2: swaps the entries in 0-based positions
    i and i + 1. Cached, since a step that lifts one or two members, as most
    steps of a small class do, would spend more on building a getter than
    the getter saves."""
    order = list(range(n))
    order[i], order[i + 1] = i + 1, i
    return itemgetter(*order)


@lru_cache(maxsize=1024)
def _value_swap(n: int, k: int) -> Callable[[int], int]:
    """The relabelling of s_k on the values 1..n: k <-> k + 1, any other
    value kept. s_k w = tuple(map(_value_swap(n, k), w))."""
    table = list(range(n + 1))
    table[k], table[k + 1] = k + 1, k
    return tuple(table).__getitem__


def _descent_step(x: Perm, y: Perm) -> tuple[int, bool]:
    """For x < y: the first descent i of y (y[i] > y[i+1]) that x lacks and
    True (case A), else the first descent of y and False (case B)."""
    descents = [i for i in range(len(y) - 1) if y[i] > y[i + 1]]
    return next(((i, True) for i in descents if x[i] < x[i + 1]), (descents[0], False))


def _lifting_step(x: Perm, y: Perm) -> tuple[str, int]:
    """For x < y, the step ``interval_elements`` takes: ("right", i) for case
    A of ``_descent_step``; else ("left", k) for the first left descent s_k
    of y that x lacks, k + 1 standing before k in y but not in x; else
    ("filter", i) for case B of ``_descent_step``.

    The left step is the lifting property on the left. w -> w^-1 is an
    automorphism of Bruhat order and (w s)^-1 = s w^-1, so it turns right
    descents into left ones. With s = s_k, s y < y and s x > x, lifting
    [x^-1, y^-1] on the right and inverting back gives [x, y] = K and s K
    for K = [x, s y]; s w for w in K with k before k + 1 is one longer."""
    i, lifts = _descent_step(x, y)
    if lifts:
        return "right", i
    # inverse(w)[k - 1] is the position of the value k in w
    x_inv, y_inv = inverse(x), inverse(y)
    for k in range(1, len(y)):
        if y_inv[k] < y_inv[k - 1] and x_inv[k - 1] < x_inv[k]:
            return "left", k
    return "filter", i


def _above(x: Perm, i: int, members: Iterable[Perm]) -> list[Perm]:
    """The members above x, given that all are above x s_{i+1} < x. The two
    differ in one prefix, so the tableau criterion reduces to that prefix."""
    prefix = sorted(x[:i + 1])
    return [u for u in members if all(map(le, prefix, sorted(u[:i + 1])))]


def interval_elements(u: Perm, v: Perm, max_members: int | None = None) -> BruhatInterval:
    """Materialize [u, v] by the lifting property (Bjorner-Brenti, Prop.
    2.2.7), on either side: with the step of ``_lifting_step``, [x, y] is K
    and K s for K = [x, ys] (right), K and s K for K = [x, s y] (left), or
    the part of [xs, y] above x (filter, only when x has every left and
    every right descent of y). Walk down from (u, v) until the ends meet,
    then rebuild upward; cost follows size, not n!. Lengths come with the
    members: only the meeting point's is computed, and a lifted member is
    one longer than the member it comes from. With ``max_members``, the
    rebuild raises ValueError once it holds more members than that; a
    filter step can hold more than [u, v] has."""
    if not bruhat_leq(u, v):
        raise ValueError(f"{format_perm(u)} is not below {format_perm(v)}")
    n = len(u)
    steps = []
    x, y = u, v
    while x != y:
        side, i = _lifting_step(x, y)
        steps.append((x, side, i))
        if side == "right":
            y = _position_swap(n, i)(y)
        elif side == "left":
            y = tuple(map(_value_swap(n, i), y))
        else:
            x = _position_swap(n, i)(x)
    members = {x: length(x)}
    for x, side, i in reversed(steps):
        if side == "right":
            swap = _position_swap(n, i)
            members.update([(swap(w), lw + 1)
                            for w, lw in members.items() if w[i] < w[i + 1]])
        elif side == "left":
            relabel = _value_swap(n, i)
            members.update([(tuple(map(relabel, w)), lw + 1)
                            for w, lw in members.items() if w.index(i) < w.index(i + 1)])
        else:
            members = {w: members[w] for w in _above(x, i, members)}
        if max_members is not None and len(members) > max_members:
            raise ValueError(f"building [{format_perm(u)}, {format_perm(v)}] takes more than "
                             f"{max_members} members; pass --long to run anyway")
    elements = tuple(sorted(members))
    return BruhatInterval(elements, tuple(map(members.__getitem__, elements)))


# The intervals of ``polynomials.poincare`` and ``carrell_condition``. Its hits
# come from a sweep that asks both of one pair in turn, as the smoothness
# criteria on lower intervals do; no caller asks for an interval again later,
# and only the pair sweep of verify's ``kl_carrell`` misses on every call, so
# a few slots keep the hits and a large cache would only hold intervals no
# one reads.
@lru_cache(maxsize=16)
def _cached_interval(u: Perm, v: Perm) -> BruhatInterval:
    return interval_elements(u, v)


def rank_vector(interval: BruhatInterval) -> tuple[int, ...]:
    """counts[r] = number of members at length(bottom) + r, read from the
    carried lengths, which start at the bottom's and end at the top's."""
    lengths = interval.lengths
    base = lengths[0]
    counts = [0] * (lengths[-1] - base + 1)
    for lw in lengths:
        counts[lw - base] += 1
    return tuple(counts)


def hasse_edges(interval: BruhatInterval) -> list[tuple[Perm, Perm]]:
    """All covering pairs (x, y) inside the interval, sorted: the edges of
    ``cover_graph``, read in member order."""
    _, up, _ = interval.cover_graph
    elements = interval.elements
    return [(elements[k], elements[m]) for k, above in enumerate(up) for m in sorted(above)]


def to_dot(interval: BruhatInterval) -> str:
    """Hasse diagram in DOT, one rank group per length level."""
    levels, _, _ = interval.cover_graph
    elements = interval.elements
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for level in levels:
        names = " ".join(f'"{format_perm(elements[k])}"' for k in level)
        lines.append(f"  {{ rank=same; {names} }}")
    for x, y in hasse_edges(interval):
        lines.append(f'  "{format_perm(x)}" -- "{format_perm(y)}";')
    lines.append("}")
    return "\n".join(lines)
