"""Odd diagram classes of S_n: enumeration, extremes, JSON reports."""

import json
from dataclasses import dataclass
from itertools import combinations
from typing import TextIO

from .diagrams import Diagram, diagram_of_key, legal_swap, odd_diagram_key
from .intervals import BruhatInterval, interval_elements, rank_vector
from .perms import Perm, format_perm

__all__ = [
    "OddDiagramClass",
    "classes_of_sn",
    "parity_block",
    "parity_sets",
    "class_extremes",
    "class_of",
    "class_report",
    "write_report",
]

# n = 10 already means 3.6M permutations; anything larger needs an
# explicit opt-in.
GUARDED_MAX_N = 10

# the fields of an OddDiagramClass: key, sorted members, their lengths
ClassFields = tuple[int, tuple[Perm, ...], tuple[int, ...]]


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


def parity_sets(n: int, allow_large: bool = False) -> list[tuple[int, ...]]:
    """The sets of values at the 0-based even positions of S_n, one per
    parity block, in the order of ``combinations``. A class keeps each
    value's position parity (checked by verify parity), so every class lies
    in one block. The degree guard of ``classes_of_sn`` is checked first."""
    _check_degree(n, allow_large)
    return list(combinations(range(1, n + 1), (n + 1) // 2))


def parity_block(n: int, evens: tuple[int, ...]) -> list[ClassFields]:
    """The odd diagram classes of the w in S_n with the values ``evens`` at
    the 0-based even positions, each as its ``(key, members, lengths)``, the
    fields of ``OddDiagramClass``. The block is swept in lexicographic
    order, so each class's members are sorted and the classes come in the
    order of their minima.

    Keys and lengths are built up position by position from the left. Row
    i of ``same`` and ``other`` holds the values below w(i), for the placed
    positions i of the parity of position p and of the other parity. The
    boxes that placing y at p adds to the key are then column y of
    ``other`` (the rows at an odd offset to the left holding a value above
    y), one mask operation, and the inversions it adds are the placed values
    above y. Position p draws its value from ``mine``, what is left of its
    parity's values. The last two positions have one value left each and are
    placed with the position before them.
    """
    odds = tuple(x for x in range(1, n + 1) if x not in evens)
    if n <= 2:  # one permutation, 1, 12 or 21; for 21 key and length are 1
        w = evens + odds
        return [(int(w == (2, 1)), (w,), (int(w == (2, 1)),))]
    column = sum(1 << (i * n) for i in range(n))  # the bit of value 1 in every row
    groups: dict[int, list] = {}  # key -> [member, length, member, length, ...]

    def fill(p: int, prefix: Perm, mine: Perm, theirs: Perm, key: int, inv: int,
             placed: int, same: int, other: int) -> None:
        for j, y in enumerate(mine):
            bit = 1 << (y - 1)
            key_y = key | other & column << (y - 1)
            inv_y = inv + (placed >> y).bit_count()
            # the rows of the parity of p, now with row p: the values below y
            row = same | (bit - 1) << (p * n)
            rest = mine[:j] + mine[j + 1:]
            if p < n - 3:
                fill(p + 1, prefix + (y,), theirs, rest, key_y, inv_y, placed | bit, other, row)
            else:
                # x at n - 2 sees the rows in ``row``, z at n - 1 those in
                # ``other`` and row n - 2; the n - z values above z precede it
                x, z = theirs[0], rest[0]
                key_x = key_y | row & column << (x - 1)
                row_x = other | ((1 << (x - 1)) - 1) << ((n - 2) * n)
                groups.setdefault(key_x | row_x & column << (z - 1), []).extend(
                    (prefix + (y, x, z), inv_y + ((placed | bit) >> x).bit_count() + n - z))

    fill(0, (), evens, odds, 0, 0, 0, 0, 0)
    return [(key, tuple(flat[::2]), tuple(flat[1::2])) for key, flat in groups.items()]


def _check_degree(n: int, allow_large: bool) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > GUARDED_MAX_N and not allow_large:
        raise ValueError(f"n = {n} > {GUARDED_MAX_N}; pass allow_large=True to override")


def classes_of_sn(n: int, allow_large: bool = False) -> list[OddDiagramClass]:
    """Partition S_n into odd diagram classes, sorted by minimum element.

    The classes come from ``parity_block``, one parity block at a time, with
    their keys, sorted members and lengths; one sort puts the blocks'
    classes in the order of their minima."""
    # classes share length vectors (376 distinct among the 103,873 of S_9): keep one copy each
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    classes = [OddDiagramClass(key, members, shared.setdefault(lengths, lengths))
               for evens in parity_sets(n, allow_large)
               for key, members, lengths in parity_block(n, evens)]
    classes.sort(key=lambda cls: cls.min_elem)
    return classes


def class_of(w: Perm) -> OddDiagramClass:
    """The odd diagram class of w, the interval between its ends. By Theorem
    B and the parity theorem only the minimum has no lowering ``legal_swap``
    move and only the maximum no raising one, so each walk ends at its
    extreme within rank steps; members and lengths come from
    ``interval_elements``, at a cost that follows class size, not n!."""
    key = odd_diagram_key(w)
    lo = hi = w
    while x := legal_swap(lo, key, True):
        lo = x
    while x := legal_swap(hi, key, False):
        hi = x
    interval = interval_elements(lo, hi)
    return OddDiagramClass(key, interval.elements, interval.lengths)


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
    """Per-class JSON record of the report, schema version 1.

    ``kl_is_one`` is P_{min,max} = 1, decided without the KL engine: at rank
    <= 2 by the degree bound deg P <= (rank - 1)/2 < 1 and P(0) = 1,
    otherwise by ``carrell_holds`` on the class's own interval. ``verify
    kl_carrell`` and ``kl_class_probe`` re-check it against KL."""
    from .duality import is_self_dual
    from .partition import _factor_lengths
    from .polynomials import carrell_holds

    interval = cls.interval
    ranks = rank_vector(interval)
    return {
        "diagram": [list(box) for box in cls.diagram],
        "size": len(cls.members),
        "min": format_perm(cls.min_elem),
        "max": format_perm(cls.max_elem),
        "rank_vector": list(ranks),
        "poincare_coeffs": list(ranks),
        "factor_lengths": list(_factor_lengths(cls.min_elem, cls.max_elem)),
        "kl_is_one": interval.rank <= 2 or carrell_holds(interval),
        "self_dual": is_self_dual(interval),
    }


def write_report(classes: list[OddDiagramClass], out: TextIO) -> None:
    """Write the JSON report of the class table of S_n, schema version 1, to
    ``out``: the header, then one class record a line. Each record is
    encoded and written on its own, so no more than one is held."""
    out.write(f'{{"schema": 1, "n": {classes[0].n}, "classes": [')
    for i, cls in enumerate(classes):
        out.write(",\n" if i else "\n")
        out.write(json.dumps(class_report(cls)))
    out.write("\n]}\n")
