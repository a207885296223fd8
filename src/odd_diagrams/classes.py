"""Odd diagram classes of S_n, any n >= 1 (``cli.check_sweep_degree`` limits the
commands): the parity-block sweep, the self-duality census, extremes, JSON reports."""

import functools
import json
import os
from io import TextIOBase
from itertools import combinations

from .diagrams import Diagram, boxes_of_key, diagram_of_key, legal_swap, odd_diagram_key
from .duality import has_anti_automorphism, is_self_dual, self_dual_by_rank
from .intervals import BruhatInterval, interval_elements
from .partition import _factor_lengths, check_class_size
from .perms import FrozenRecord, Perm, format_perm, slot_setters
from .polynomials import carrell_holds

__all__ = [
    "OddDiagramClass",
    "class_shape",
    "classes_of_sn",
    "parity_block",
    "parity_sets",
    "class_extremes",
    "class_of",
    "class_report",
    "write_report",
    "resolve_jobs",
    "non_self_dual_classes",
    "census",
    "non_self_dual_census",
]

# the positions at the end of a permutation that ``parity_block`` takes from
# precomputed tables: C(n, 2) C(n - 2, 2) tables of 4 rows at most
SUFFIX = 4

# the fields of an OddDiagramClass: key, sorted members, their lengths
ClassFields = tuple[int, tuple[Perm, ...], tuple[int, ...]]


class OddDiagramClass(FrozenRecord):
    """All permutations sharing one odd diagram: its ``odd_diagram_key``, its
    sorted members and their lengths, from which the rest is derived. Bruhat
    order refines lexicographic order, so by Theorem B (checked by verify
    theorem_b) the first and last members are the Bruhat extremes."""

    __slots__ = _fields = ("key", "members", "lengths")
    key: int
    members: tuple[Perm, ...]
    lengths: tuple[int, ...]

    def __init__(self, key: int, members: tuple[Perm, ...], lengths: tuple[int, ...]):
        _set_key(self, key)
        _set_members(self, members)
        _set_lengths(self, lengths)

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
    def rank(self) -> int:
        """length(max_elem) - length(min_elem), from the carried lengths."""
        return self.lengths[-1] - self.lengths[0]

    @property
    def interval(self) -> BruhatInterval:
        """The class as the Bruhat interval [min_elem, max_elem] (Theorem B)."""
        return BruhatInterval(self.min_elem, self.max_elem, self.members, self.lengths)

    def __len__(self) -> int:
        return len(self.members)


# construction is hot: the class table of S_9 builds 103,873 classes
_set_key, _set_members, _set_lengths = slot_setters(OddDiagramClass)


# the flattened members of a class, as ``class_shape`` gives them
Shape = tuple[Perm, ...]


def class_shape(members: tuple[Perm, ...]) -> Shape:
    """The shape of the class with these sorted members: each member with
    every position where all members agree deleted, the values left replaced
    by their ranks among them.

    Classes of one shape have isomorphic Bruhat orders and the same
    reflections between members, so the same self-duality and
    Carrell-Peterson verdicts. If every member has the value c at position
    p, that entry adds the same 0 or 1 to both sides of each comparison of
    the rank-matrix criterion for Bruhat order (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.1.5), so deleting it keeps the
    order among the members. A transposition that joins two members never
    moves the shared entry, so deleting it keeps the reflections too.
    ``verify class_shapes`` re-checks the order and the verdicts on every
    class."""
    moving = [column for column in zip(*members) if len(set(column)) > 1]
    rank = {x: r for r, x in enumerate(sorted(column[0] for column in moving), 1)}
    # a class with no moving position has one member, which flattens to ()
    return tuple(zip(*[tuple(map(rank.__getitem__, column)) for column in moving])) or ((),)


def parity_sets(n: int) -> list[tuple[int, ...]]:
    """The sets of values at the 0-based even positions of S_n, one per
    parity block, in the order of ``combinations``. A class keeps each
    value's position parity (checked by verify parity), so every class lies
    in one block. ValueError for n < 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return list(combinations(range(1, n + 1), (n + 1) // 2))


def parity_block(n: int, evens: tuple[int, ...], tables: dict | None = None) -> list[ClassFields]:
    """The odd diagram classes of the w in S_n with the values ``evens`` at
    the 0-based even positions, each as its ``(key, members, lengths)``, the
    fields of ``OddDiagramClass``. The block is swept in lexicographic
    order, so each class's members are sorted and the classes come in the
    order of their minima.

    In a block the positions of each parity hold exactly that parity's
    values, so row i of the key is the set of values of the other parity
    left to place after position i that lie below w(i), and its inversions
    after i are the values left that lie below w(i). Both are known when
    w(i) is placed. The first n - SUFFIX positions are placed one by one,
    position p drawing from ``mine``, what is left of its parity's values;
    the rows and inversions of the last SUFFIX positions depend only on how
    the values left are arranged, and come from ``_suffix_table``.
    ``tables`` holds those tables for every block of one sweep; without it
    the block builds its own.
    """
    tables = {} if tables is None else tables
    odds = tuple(x for x in range(1, n + 1) if x not in evens)
    depth = max(n - SUFFIX, 0)
    groups: dict[int, list] = {}  # key -> [member, length, member, length, ...]

    def fill(p: int, prefix: Perm, mine: Perm, theirs: Perm, mine_bits: int,
             their_bits: int, key: int, inv: int) -> None:
        if p == depth:
            # a table is never empty, so ``or`` builds only a missing one
            table = (tables.get(mine_bits << n | their_bits)
                     or _suffix_table(n, mine_bits, their_bits, tables))
            for tail, bits, tail_inv in table:
                groups.setdefault(key | bits, []).extend((prefix + tail, inv + tail_inv))
            return
        left = mine_bits | their_bits
        for j, y in enumerate(mine):
            bit = 1 << (y - 1)
            fill(p + 1, prefix + (y,), theirs, mine[:j] + mine[j + 1:], their_bits,
                 mine_bits ^ bit, key | (their_bits & (bit - 1)) << (p * n),
                 inv + (left & (bit - 1)).bit_count())

    fill(0, (), evens, odds, _bits(evens), _bits(odds), 0, 0)
    # ``fill`` refers to itself; dropping the name frees the block's groups
    # on return instead of at the next full garbage collection
    del fill
    return [(key, tuple(flat[::2]), tuple(flat[1::2])) for key, flat in groups.items()]


def _bits(values: tuple[int, ...]) -> int:
    """The set ``values`` as a bitmask, value y at bit y - 1."""
    return sum(1 << (y - 1) for y in values)


def _suffix_table(n: int, mine_bits: int, their_bits: int,
                  tables: dict) -> list[tuple[Perm, int, int]]:
    """Every arrangement of the last k positions of S_n, k the number of
    values in the bitmasks ``mine_bits`` and ``their_bits``, with the values
    of ``mine_bits`` at the positions of the parity of n - k and the others
    at the rest, in lexicographic order, each with the key bits of its k rows
    and its inversions among themselves. Row and inversions of the first of
    the k positions come from one AND each, as in ``parity_block``. Built
    from the tables one position shorter and kept in ``tables`` under
    ``mine_bits << n | their_bits``."""
    name = mine_bits << n | their_bits
    table = tables.get(name)
    if table is None:
        left = mine_bits | their_bits
        shift = (n - left.bit_count()) * n
        table = [] if mine_bits else [((), 0, 0)]
        for y in range(1, n + 1):
            bit = 1 << (y - 1)
            if mine_bits & bit:
                row = (their_bits & (bit - 1)) << shift
                below = (left & (bit - 1)).bit_count()
                shorter = _suffix_table(n, their_bits, mine_bits ^ bit, tables)
                table += [((y,) + tail, row | bits, below + inv) for tail, bits, inv in shorter]
        tables[name] = table
    return table


def classes_of_sn(n: int) -> list[OddDiagramClass]:
    """Partition S_n into odd diagram classes, sorted by minimum element.

    The classes come from ``parity_block``, one parity block at a time, with
    their keys, sorted members and lengths, the blocks sharing one store of
    suffix tables; one sort puts the blocks' classes in the order of their
    minima."""
    # classes share length vectors (376 distinct among the 103,873 of S_9): keep one copy each
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    tables: dict = {}
    classes = [OddDiagramClass(key, members, shared.setdefault(lengths, lengths))
               for evens in parity_sets(n)
               for key, members, lengths in parity_block(n, evens, tables)]
    classes.sort(key=lambda cls: cls.min_elem)
    return classes


def resolve_jobs(jobs: int) -> int:
    """Worker count for ``jobs`` in 0..os.cpu_count() (0 = all cores);
    anything else raises ``ValueError``."""
    cores = os.cpu_count() or 1
    if not 0 <= jobs <= cores:
        raise ValueError(f"jobs must be in 0..{cores}, got {jobs}")
    return jobs or cores


def non_self_dual_classes(classes: list[OddDiagramClass]) -> list[OddDiagramClass]:
    """The classes whose Bruhat interval is not self-dual, in input order:
    ``is_self_dual`` on each, without the census's memo by shape."""
    return [c for c in classes if not is_self_dual(c.interval)]


def _block_census(n: int, evens: tuple[int, ...], tables: dict,
                  verdicts: dict) -> tuple[int, list[OddDiagramClass]]:
    """The number of classes in one parity block of S_n, and those that are
    not self-dual. The classes that ``self_dual_by_rank`` settles are
    dropped by their lengths; of the rest one class per shape is searched,
    and ``verdicts`` keeps the answer by ``class_shape``. ``tables`` is the
    store of suffix tables of ``parity_block``."""
    block = parity_block(n, evens, tables)
    bad = []
    for key, members, lengths in block:
        if self_dual_by_rank(lengths[-1] - lengths[0]):
            continue
        shape = class_shape(members)
        cls = None if verdicts.get(shape) else OddDiagramClass(key, members, lengths)
        if shape not in verdicts:
            verdicts[shape] = has_anti_automorphism(cls.interval)
        if not verdicts[shape]:
            bad.append(cls)
    return len(block), bad


def _run_census(n: int, run: list[tuple[int, ...]]) -> list[tuple[int, list[OddDiagramClass]]]:
    """``_block_census`` of each parity block in ``run``, the blocks sharing
    one store of suffix tables and one memo of verdicts by shape, both of
    which end with the run."""
    tables: dict = {}
    verdicts: dict[Shape, bool] = {}
    return [_block_census(n, evens, tables, verdicts) for evens in run]


def census(n: int, jobs: int = 1) -> tuple[int, list[OddDiagramClass]]:
    """The number of odd diagram classes of S_n, and those that are not
    self-dual, sorted by minimum. No table of S_n is held: each parity block
    is swept and decided whole. The blocks are dealt out in turn to ``jobs``
    workers (as in ``resolve_jobs``), and each worker sweeps its run of
    blocks with one store of suffix tables and one memo of verdicts by
    ``class_shape``: the 66,795 classes of S_10 that the rank leaves open
    have 389 shapes."""
    jobs = resolve_jobs(jobs)
    blocks = parity_sets(n)
    task = functools.partial(_run_census, n)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            runs = pool.map(task, [blocks[i::jobs] for i in range(jobs)], chunksize=1)
        results = [result for run in runs for result in run]
    else:
        results = task(blocks)
    bad = sorted((cls for _, block_bad in results for cls in block_bad),
                 key=lambda cls: cls.min_elem)
    return sum(count for count, _ in results), bad


def non_self_dual_census(n: int, jobs: int = 1) -> int:
    """Number of odd diagram classes of S_n that are not self-dual."""
    return len(census(n, jobs)[1])


def class_of(w: Perm, max_members: int | None = None) -> OddDiagramClass:
    """The odd diagram class of w, the interval between its ends. By Theorem
    B and the parity theorem only the minimum has no lowering ``legal_swap``
    move and only the maximum no raising one, so each walk ends at its
    extreme within rank steps; members and lengths come from
    ``interval_elements``, at a cost that follows class size, not n!. With
    ``max_members``, ``check_class_size`` runs on the ends first."""
    key = odd_diagram_key(w)
    lo = hi = w
    while x := legal_swap(lo, key, True):
        lo = x
    while x := legal_swap(hi, key, False):
        hi = x
    if max_members is not None:
        check_class_size(lo, hi, max_members)
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
    """Per-class JSON record of the report, schema version 1, read from the
    class's fields: the rank vector counts the carried lengths, and the boxes
    are its key decoded.

    ``kl_is_one`` is P_{min,max} = 1, decided without the KL engine: at rank
    <= 2 by the degree bound deg P <= (rank - 1)/2 < 1 and P(0) = 1, where
    ``self_dual_by_rank`` settles ``self_dual``; only a class of higher rank
    builds its interval, for ``carrell_holds`` and ``is_self_dual``. ``verify
    kl_carrell`` and ``kl_class_probe`` re-check ``kl_is_one`` against KL."""
    return _class_record(cls, {})


def _class_record(cls: OddDiagramClass, verdicts: dict) -> dict:
    """``class_report``, with ``verdicts`` keeping ``kl_is_one`` and
    ``self_dual`` of the classes of rank >= 3 by ``class_shape``: both
    depend on the shape alone."""
    members, lengths = cls.members, cls.lengths
    lo, hi = members[0], members[-1]
    base = lengths[0]
    rank = lengths[-1] - base
    ranks = [0] * (rank + 1)
    for lw in lengths:
        ranks[lw - base] += 1
    if rank <= 2:
        kl_is_one, self_dual = True, self_dual_by_rank(rank)
    else:
        shape = class_shape(members)
        if shape not in verdicts:
            interval = cls.interval
            verdicts[shape] = carrell_holds(interval), is_self_dual(interval)
        kl_is_one, self_dual = verdicts[shape]
    return {
        "diagram": boxes_of_key(cls.key, len(lo)),
        "size": len(members),
        "min": format_perm(lo),
        "max": format_perm(hi),
        "rank_vector": ranks,
        "poincare_coeffs": ranks[:],
        "factor_lengths": list(_factor_lengths(lo, hi)),
        "kl_is_one": kl_is_one,
        "self_dual": self_dual,
    }


def write_report(classes: list[OddDiagramClass], out: TextIOBase) -> None:
    """Write the JSON report of the class table of S_n, schema version 1, to
    ``out``: the header, then one class record a line. Each record is
    encoded and written on its own, so no more than one is held; the
    verdicts of the classes of rank >= 3 are kept by shape (13 shapes for
    the 171 such classes of S_7) until the report is written."""
    verdicts: dict[Shape, tuple[bool, bool]] = {}
    out.write(f'{{"schema": 1, "n": {classes[0].n}, "classes": [')
    for i, cls in enumerate(classes):
        out.write(",\n" if i else "\n")
        out.write(json.dumps(_class_record(cls, verdicts)))
    out.write("\n]}\n")
