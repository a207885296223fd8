"""Bruhat intervals [u, v]: elements, rank levels, Hasse diagrams, DOT export."""

from collections.abc import Iterable
from functools import cached_property, lru_cache
from itertools import combinations
from operator import le

from .perms import FrozenRecord, Perm, bruhat_leq, format_perm, length, slot_setters

__all__ = [
    "BruhatInterval",
    "interval_elements",
    "rank_vector",
    "hasse_edges",
    "to_dot",
]


class BruhatInterval(FrozenRecord):
    """An interval [bottom, top] with its sorted member list and the
    members' lengths, aligned with it."""

    _fields = ("bottom", "top", "elements", "lengths")
    # the cached properties below are kept in __dict__
    __slots__ = _fields + ("__dict__",)
    bottom: Perm
    top: Perm
    elements: tuple[Perm, ...]
    lengths: tuple[int, ...]

    def __init__(self, bottom: Perm, top: Perm, elements: tuple[Perm, ...],
                 lengths: tuple[int, ...]):
        _set_bottom(self, bottom)
        _set_top(self, top)
        _set_elements(self, elements)
        _set_lengths(self, lengths)

    @property
    def n(self) -> int:
        return len(self.bottom)

    @cached_property
    def levels(self) -> tuple[tuple[Perm, ...], ...]:
        """levels[r] = the members at length(bottom) + r, in sorted order."""
        base = min(self.lengths)
        grouped: list[list[Perm]] = [[] for _ in range(self.rank + 1)]
        for w, lw in zip(self.elements, self.lengths):
            grouped[lw - base].append(w)
        return tuple(map(tuple, grouped))

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
        """Member indices grouped as in ``levels``, and for each member index
        the indices covering it (up) and covered by it (down). Each ascending
        swap of a member is tried once; the result is a cover when it is a
        member one length above, read from the carried lengths."""
        index = {w: k for k, w in enumerate(self.elements)}
        lengths = self.lengths
        base = min(lengths)
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
        """length(top) - length(bottom), read from the carried lengths."""
        return max(self.lengths) - min(self.lengths)

    def __len__(self) -> int:
        return len(self.elements)


_set_bottom, _set_top, _set_elements, _set_lengths = slot_setters(BruhatInterval)


def _swap(w: Perm, i: int) -> Perm:
    """w s_{i+1}: swap the entries in 0-based positions i and i + 1."""
    return w[:i] + (w[i + 1], w[i]) + w[i + 2:]


def _swap_values(w: Perm, k: int) -> Perm:
    """s_k w: swap the values k and k + 1."""
    a, b = sorted((w.index(k), w.index(k + 1)))
    return w[:a] + (w[b],) + w[a + 1:b] + (w[a],) + w[b + 1:]


def _descent_step(x: Perm, y: Perm) -> tuple[int, bool]:
    """For x < y: the first descent i of y (y[i] > y[i+1]) that x lacks and
    True (case A), else the first descent of y and False (case B)."""
    descents = [i for i in range(len(y) - 1) if y[i] > y[i + 1]]
    return next(((i, True) for i in descents if x[i] < x[i + 1]), (descents[0], False))


def _positions(w: Perm) -> list[int]:
    """where[k] = the 0-based position of the value k in w (where[0] unused)."""
    where = [0] * (len(w) + 1)
    for p, c in enumerate(w):
        where[c] = p
    return where


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
    where_x, where_y = _positions(x), _positions(y)
    for k in range(1, len(y)):
        if where_y[k + 1] < where_y[k] and where_x[k] < where_x[k + 1]:
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
    steps = []
    x, y = u, v
    while x != y:
        side, i = _lifting_step(x, y)
        steps.append((x, side, i))
        if side == "right":
            y = _swap(y, i)
        elif side == "left":
            y = _swap_values(y, i)
        else:
            x = _swap(x, i)
    members = {x: length(x)}
    for x, side, i in reversed(steps):
        if side == "right":
            members.update([(_swap(w, i), lw + 1)
                            for w, lw in members.items() if w[i] < w[i + 1]])
        elif side == "left":
            lifted = []
            for w, lw in members.items():
                a, b = w.index(i), w.index(i + 1)
                if a < b:
                    lifted.append((w[:a] + (i + 1,) + w[a + 1:b] + (i,) + w[b + 1:], lw + 1))
            members.update(lifted)
        else:
            members = {w: members[w] for w in _above(x, i, members)}
        if max_members is not None and len(members) > max_members:
            raise ValueError(f"building [{format_perm(u)}, {format_perm(v)}] takes more than "
                             f"{max_members} members; pass --long to run anyway")
    elements = tuple(sorted(members))
    return BruhatInterval(u, v, elements, tuple(map(members.__getitem__, elements)))


@lru_cache(maxsize=65536)
def _cached_interval(u: Perm, v: Perm) -> BruhatInterval:
    return interval_elements(u, v)


def rank_vector(interval: BruhatInterval) -> tuple[int, ...]:
    """counts[r] = number of members at length(bottom) + r."""
    return tuple(map(len, interval.levels))


def hasse_edges(interval: BruhatInterval) -> list[tuple[Perm, Perm]]:
    """All covering pairs (x, y) inside the interval, sorted: the edges of
    ``cover_graph``, read in member order."""
    _, up, _ = interval.cover_graph
    elements = interval.elements
    return [(elements[k], elements[m]) for k, above in enumerate(up) for m in sorted(above)]


def to_dot(interval: BruhatInterval) -> str:
    """Hasse diagram in DOT, one rank group per length level."""
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for level in interval.levels:
        names = " ".join(f'"{format_perm(w)}"' for w in level)
        lines.append(f"  {{ rank=same; {names} }}")
    for x, y in hasse_edges(interval):
        lines.append(f'  "{format_perm(x)}" -- "{format_perm(y)}";')
    lines.append("}")
    return "\n".join(lines)
