"""Odd diagram classes of S_n: enumeration, extremes, JSON reports."""

import json
from dataclasses import dataclass
from typing import Iterator

from .diagrams import Diagram, diagram_of_key, odd_diagram_key
from .intervals import BruhatInterval, interval_elements, rank_vector
from .perms import Perm, format_perm, length

__all__ = [
    "OddDiagramClass",
    "classes_of_sn",
    "class_extremes",
    "class_of",
    "class_report",
]

# n = 10 already means 3.6M permutations; anything larger needs an
# explicit opt-in.
GUARDED_MAX_N = 10


@dataclass(frozen=True)
class OddDiagramClass:
    """All permutations sharing one odd diagram: its ``odd_diagram_key``, its
    sorted members and their lengths, from which the rest is derived. Bruhat
    order refines lexicographic order, so by Theorem B (checked by verify
    theorem_b) the first and last members are the Bruhat extremes."""

    key: int
    members: tuple[Perm, ...]
    lengths: tuple[int, ...]

    @property
    def min_elem(self) -> Perm:
        return self.members[0]

    @property
    def max_elem(self) -> Perm:
        return self.members[-1]

    @property
    def diagram(self) -> Diagram:
        return diagram_of_key(self.key, self.n)

    @property
    def n(self) -> int:
        return len(self.members[0])

    @property
    def interval(self) -> BruhatInterval:
        """The class as the Bruhat interval [min_elem, max_elem] (Theorem B)."""
        return BruhatInterval(self.min_elem, self.max_elem, self.members, self.lengths)

    def __len__(self) -> int:
        return len(self.members)


def _sweep(n: int) -> Iterator[tuple[Perm, int, int]]:
    """Every w in S_n in lexicographic order, with its ``odd_diagram_key`` and
    its length, built up position by position from the left.

    Row i of ``same`` and ``other`` holds the values below w(i), for the
    placed positions i of the parity of position p and of the other parity.
    The boxes that placing y at p adds to the key are then column y of
    ``other`` (the rows at an odd offset to the left holding a value above
    y), one mask operation, and the inversions it adds are the placed values
    above y. The last two positions are placed together, as the last value
    has no choice.
    """
    if n == 1:
        yield (1,), 0, 0
        return
    column = sum(1 << (i * n) for i in range(n))  # the bit of value 1 in every row

    def fill(p: int, prefix: Perm, rest: Perm, key: int, inv: int,
             placed: int, same: int, other: int):
        for j, y in enumerate(rest):
            bit = 1 << (y - 1)
            col_key = key | other & column << (y - 1)
            col_inv = inv + (placed >> y).bit_count()
            # the rows of the parity of p, now with row p: the values below y
            row = same | (bit - 1) << (p * n)
            if p < n - 2:
                yield from fill(p + 1, prefix + (y,), rest[:j] + rest[j + 1:],
                                col_key, col_inv, placed | bit, other, row)
            else:
                z = rest[1 - j]
                yield (prefix + (y, z), col_key | row & column << (z - 1),
                       col_inv + ((placed | bit) >> z).bit_count())

    yield from fill(0, (), tuple(range(1, n + 1)), 0, 0, 0, 0, 0)


def classes_of_sn(n: int, allow_large: bool = False) -> list[OddDiagramClass]:
    """Partition S_n into odd diagram classes, sorted by minimum element.

    One pass of ``_sweep`` gives every key and every member's length. It
    runs in lexicographic order, so each class's members arrive sorted, and
    classes first appear in the order of their minima."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > GUARDED_MAX_N and not allow_large:
        raise ValueError(f"n = {n} > {GUARDED_MAX_N}; pass allow_large=True to override")
    groups: dict[int, list] = {}  # key -> [member, length, member, length, ...]
    for w, key, lw in _sweep(n):
        groups.setdefault(key, []).extend((w, lw))
    # classes share length vectors (376 distinct among the 103,873 of S_9): keep one copy each
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    classes = []
    while groups:  # popping frees each group's list as its class is built
        key, flat = groups.popitem()
        lengths = tuple(flat[1::2])
        classes.append(OddDiagramClass(key, tuple(flat[::2]), shared.setdefault(lengths, lengths)))
    classes.reverse()  # popitem takes the last class first
    return classes


def class_of(w: Perm) -> OddDiagramClass:
    """The odd diagram class containing w, found by breadth-first search
    over the same-parity transpositions that keep the odd diagram.

    Classes are connected under such legal moves (``legal_move_toward``),
    so this costs about (class size) * n^2/4 key evaluations, not n!.
    """
    target = odd_diagram_key(w)
    n = len(w)
    seen = {w}
    queue = [w]
    for u in queue:
        for i in range(n - 2):
            for j in range(i + 2, n, 2):
                x = u[:i] + (u[j],) + u[i + 1:j] + (u[i],) + u[j + 1:]
                if x not in seen and odd_diagram_key(x) == target:
                    seen.add(x)
                    queue.append(x)
    queue.sort()
    return OddDiagramClass(target, tuple(queue), tuple(map(length, queue)))


def class_extremes(cls: OddDiagramClass) -> tuple[Perm, Perm]:
    """Bruhat minimum and maximum; re-verifies the interval property."""
    interval = interval_elements(cls.min_elem, cls.max_elem)
    if interval.elements != cls.members:
        raise AssertionError(
            f"members of class {format_perm(cls.min_elem)} do not form "
            f"the interval [{format_perm(cls.min_elem)}, {format_perm(cls.max_elem)}]"
        )
    return cls.min_elem, cls.max_elem


def class_report(cls: OddDiagramClass) -> dict:
    """Per-class JSON record of the report, schema version 1."""
    from .duality import is_self_dual
    from .partition import factorize
    from .polynomials import kl_polynomial, one

    interval = cls.interval
    ranks = rank_vector(interval)
    result = factorize(cls.min_elem, cls.max_elem)
    return {
        "diagram": [list(box) for box in cls.diagram],
        "size": len(cls.members),
        "min": format_perm(cls.min_elem),
        "max": format_perm(cls.max_elem),
        "rank_vector": list(ranks),
        "poincare_coeffs": list(ranks),
        "factor_lengths": list(result.factor_lengths),
        "kl_is_one": kl_polynomial(cls.min_elem, cls.max_elem) == one(),
        "self_dual": is_self_dual(interval),
    }


def report_for_n(n: int, allow_large: bool = False) -> dict:
    """Full JSON report for S_n, schema version 1."""
    classes = classes_of_sn(n, allow_large=allow_large)
    return {"schema": 1, "n": n, "classes": [class_report(cls) for cls in classes]}


def dump_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
