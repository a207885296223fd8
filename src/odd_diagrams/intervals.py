"""Bruhat intervals [u, v]: elements, rank levels, Hasse diagrams, DOT export."""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .perms import Perm, bruhat_leq, format_perm, length, upward_covers

__all__ = ["BruhatInterval", "interval_elements", "rank_vector", "hasse_edges", "to_dot"]


@dataclass(frozen=True)
class BruhatInterval:
    """An interval [bottom, top] with its sorted member list."""

    bottom: Perm
    top: Perm
    elements: tuple[Perm, ...]

    @property
    def n(self) -> int:
        return len(self.bottom)

    @cached_property
    def levels(self) -> tuple[tuple[Perm, ...], ...]:
        """levels[r] = the members at length(bottom) + r, in sorted order."""
        lengths = [length(w) for w in self.elements]
        base = min(lengths)
        grouped: list[list[Perm]] = [[] for _ in range(max(lengths) - base + 1)]
        for w, lw in zip(self.elements, lengths):
            grouped[lw - base].append(w)
        return tuple(map(tuple, grouped))

    @property
    def rank(self) -> int:
        return len(self.levels) - 1

    def __len__(self) -> int:
        return len(self.elements)


def interval_elements(u: Perm, v: Perm) -> BruhatInterval:
    """Materialize [u, v] by BFS upward from u through covering relations.

    Every z in [u, v] is reachable from u by a saturated chain inside the
    interval, so cost is proportional to interval size, not to n!.
    """
    if not bruhat_leq(u, v):
        raise ValueError(f"{format_perm(u)} is not below {format_perm(v)}")
    seen = {u}
    frontier = [u]
    while frontier:
        new_frontier = []
        for w in frontier:
            for z in upward_covers(w):
                if z not in seen and bruhat_leq(z, v):
                    seen.add(z)
                    new_frontier.append(z)
        frontier = new_frontier
    return BruhatInterval(u, v, tuple(sorted(seen)))


@lru_cache(maxsize=65536)
def _cached_interval(u: Perm, v: Perm) -> BruhatInterval:
    return interval_elements(u, v)


def rank_vector(interval: BruhatInterval) -> tuple[int, ...]:
    """counts[r] = number of members at length(bottom) + r."""
    return tuple(map(len, interval.levels))


def hasse_edges(interval: BruhatInterval) -> list[tuple[Perm, Perm]]:
    """All covering pairs (x, y) inside the interval, sorted: y is x with an
    ascending pair of entries swapped, one level above x."""
    edges = []
    for lower, upper in zip(interval.levels, interval.levels[1:]):
        above = set(upper)
        for x in lower:
            row = list(x)
            for i, j in combinations(range(interval.n), 2):
                xi, xj = x[i], x[j]
                if xi < xj:
                    row[i], row[j] = xj, xi
                    y = tuple(row)
                    row[i], row[j] = xi, xj
                    if y in above:
                        edges.append((x, y))
    edges.sort()
    return edges


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
