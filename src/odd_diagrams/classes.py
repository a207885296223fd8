"""Odd diagram classes of S_n, any n >= 1 (``cli.check_sweep_degree`` limits the
commands): the parity-block sweep, the self-duality census, class lookup, JSON reports.
A class is the ``BruhatInterval`` between its extremes (Theorem B); a census gives only its ends.
The sweep places the first positions of a permutation one at a time and reads the
arrangements of the last few from suffix tables: per-row tables where members are
kept (``parity_block``), tables grouped by key bits where only the ends are
(``parity_block_ends``, for the census and the report)."""

import contextlib
import functools
import gc
import json
import os
from collections.abc import Iterator
from io import TextIOBase
from itertools import combinations
from operator import itemgetter

from .diagrams import legal_swap, odd_diagram_key
from .duality import has_anti_automorphism, is_self_dual, self_dual_by_rank
from .intervals import BruhatInterval, rank_vector
from .partition import _factor_lengths, class_interval
from .perms import Perm, format_perm
from .polynomials import carrell_holds

__all__ = [
    "class_shape",
    "ends_shape",
    "pinned_values",
    "class_stream",
    "classes_of_sn",
    "parity_block",
    "parity_block_ends",
    "parity_sets",
    "class_of",
    "write_report",
    "resolve_jobs",
    "census",
]

# the positions at the end of a permutation that ``parity_block`` takes from
# per-row suffix tables: C(n, 2) C(n - 2, 2) tables of 4 rows at most. The
# ends sweep reads grouped tables of ``_ends_suffix(n)`` positions instead
SUFFIX = 4

# a class as ``parity_block`` gives it: key, sorted members, their lengths
ClassFields = tuple[int, tuple[Perm, ...], tuple[int, ...]]
# a class as ``parity_block_ends`` gives it: key, minimum, maximum, rank
ClassEnds = tuple[int, Perm, Perm, int]

# a class with every position its members share deleted, standardized:
# its two ends from ``ends_shape``, all its members from ``class_shape``
Shape = tuple[Perm, ...]


def pinned_values(u: Perm, v: Perm) -> int:
    """The values at the positions p pinned by the ends u <= v of a class,
    as a bitmask with value c at bit c. Position p is pinned when u(p) =
    v(p) = c and u and v have equally many entries above c before p.

    Every w in [u, v] has w(p) = c there. Write r_w(i, j) for #{a <= i :
    w(a) >= j}; u <= w <= v holds exactly when r_u <= r_w <= r_v at every
    (i, j) (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5).
    With A the number of entries above c before p, u and v share the four
    counts r(p - 1, c) = A, r(p, c) = A + 1, r(p - 1, c + 1) = A and
    r(p, c + 1) = A, so every w between them has them too: w(p) >= c by the
    first two, and w(p) < c + 1 by the last two. ``verify class_shapes``
    re-checks that the pinned positions are exactly those where all members
    agree."""
    seen_u = seen_v = pinned = 0  # the values before p, value x at bit x
    for x, y in zip(u, v):
        if x == y and (seen_u >> x).bit_count() == (seen_v >> x).bit_count():
            pinned |= 1 << x
        seen_u |= 1 << x
        seen_v |= 1 << y
    return pinned


def ends_shape(u: Perm, v: Perm) -> Shape:
    """The shape of the class with minimum u and maximum v: the pair (u, v)
    with the positions of the ``pinned_values`` deleted and each value x left
    lowered by the number of pinned values below it, its rank among the
    values left. The census and the report decide self-duality, the
    Carrell-Peterson count and the factor lengths once per shape.

    Deleting positions where every member has one value is a bijection from
    the class onto [u', v'] in S_m, u' and v' the reduced ends, m the
    positions left: such an entry adds the same 0 or 1 to both sides of each
    comparison of the rank-matrix criterion, so the criterion for u <= w <= v
    is the one for u' <= w' <= v', and any w' there extends back by the
    deleted entries. A transposition that joins two members never moves a
    shared entry, so the reflections between members map over too. So
    classes of one shape have isomorphic Bruhat orders with the same
    reflections, and the same verdicts. Nor is a pinned position ever an
    anchor of ``_factor_lengths``: each step works inside the class, and
    each of its anchors holds k in the members of its own block and in no
    other, so the members do not agree there. The pinned entries are then
    the same in both ends at every step, and deleting them keeps each
    step's k, anchors and block count. ``verify class_shapes`` re-checks
    that this key and ``class_shape`` group the classes alike."""
    pinned = pinned_values(u, v)
    return (tuple([x - (pinned & ((1 << x) - 1)).bit_count() for x in u if not pinned >> x & 1]),
            tuple([y - (pinned & ((1 << y) - 1)).bit_count() for y in v if not pinned >> y & 1]))


def class_shape(members: tuple[Perm, ...]) -> Shape:
    """The shape of the class with these sorted members, read from all of
    them: each member with every position where all members agree deleted,
    the values left replaced by their ranks among them. It is the reference
    for ``ends_shape``, which the census and the report use: ``verify
    class_shapes`` checks that the two keys group the classes alike, and
    that this one keeps the Bruhat order among the members."""
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


def parity_block(n: int, evens: tuple[int, ...], tables: dict) -> list[ClassFields]:
    """The odd diagram classes of the w in S_n with the values ``evens`` at
    the 0-based even positions, each as its ``(key, members, lengths)``. The
    block is swept in lexicographic order, so each class's members are sorted
    and the classes come in the order of their minima. ``tables`` is the
    store of per-row suffix tables of ``_block_leaves``, shared by every
    block of one sweep."""
    groups: dict[int, list] = {}  # key -> [member, length, member, length, ...]
    for prefix, key, inv, table in _block_leaves(n, evens, tables):
        for tail, bits, tail_inv in table:
            groups.setdefault(key | bits, []).extend((prefix + tail, inv + tail_inv))
    return [(key, tuple(flat[::2]), tuple(flat[1::2])) for key, flat in groups.items()]


def _ends_suffix(n: int) -> int:
    """The positions at the end of a permutation of S_n that
    ``parity_block_ends`` takes from grouped suffix tables: SUFFIX up to
    n = 8, one more above, as measured (README, CLI section). A longer
    suffix means fewer leaves and fewer groups per row, but more tables to
    build and hold: at n = 11, 6 positions took 94 MB a census worker
    against 49 MB at 5."""
    return SUFFIX if n <= 8 else SUFFIX + 1


def parity_block_ends(n: int, evens: tuple[int, ...], tables: dict) -> list[ClassEnds]:
    """The classes of ``parity_block`` with only their ends: each as its key,
    its first and last member, and its rank, the last member's length less
    the first's. Bruhat order refines lexicographic order, so these are the
    class minimum and maximum (Theorem B), and the class is the interval
    between them; no member tuple of a class is built. ``tables`` is the
    store of ``_block_leaves``, grouped tables of ``_ends_suffix(n)``
    positions over per-row ones.

    One dict step per group of a grouped table, not per row: the rows of a
    leaf that share their key bits are members of one class, in
    lexicographic order, and so are the leaves, so a class's first member
    is the first row of the first group that reaches it, and its last
    member the last row of the last. A group of one row gives both ends one
    tuple, as a one-member class has in ``parity_block``."""
    first: dict[int, tuple[Perm, int]] = {}
    last: dict[int, tuple[Perm, int]] = {}
    for prefix, key, inv, table in _block_leaves(n, evens, tables, _ends_suffix(n), True):
        for bits, lo, lo_inv, hi, hi_inv in table:
            key_w = key | bits
            end = (prefix + hi, inv + hi_inv)
            if key_w not in last:
                first[key_w] = end if lo is hi else (prefix + lo, inv + lo_inv)
            last[key_w] = end
    # both dicts gained their keys in the same order
    return [(key, lo, hi, hi_length - lo_length)
            for (key, (lo, lo_length)), (hi, hi_length) in zip(first.items(), last.values())]


def _block_leaves(n: int, evens: tuple[int, ...], tables: dict, suffix: int = SUFFIX,
                  grouped: bool = False) -> list[tuple[Perm, int, int, list[tuple]]]:
    """The lexicographic sweep of the parity block of S_n with the values
    ``evens`` at the 0-based even positions, down to its suffix tables: one
    ``(prefix, key, inv, table)`` for each arrangement of the first
    n - ``suffix`` positions, in lexicographic order, with the key bits and
    inversions of those positions and the ``_suffix_table`` of the values
    left, grouped when ``grouped`` is true. A permutation of the block is a
    prefix with one tail of its table, its key ``key | bits`` and its length
    ``inv + tail_inv``.

    In a block the positions of each parity hold exactly that parity's
    values, so row i of the key is the set of values of the other parity
    left to place after position i that lie below w(i), and its inversions
    after i are the values left that lie below w(i). Both are known when
    w(i) is placed. Position p draws from ``mine_bits``, what is left of its
    parity's values, stepping through its set bits lowest first; the rows
    and inversions of the last ``suffix`` positions depend only on how the
    values left are arranged. ``tables`` holds the tables for every block of
    one sweep."""
    mine_bits = _bits(evens)
    their_bits = (1 << n) - 1 ^ mine_bits
    # ``_suffix_table`` is read at each call, so a test can stand in for it
    build = functools.partial(_suffix_table, grouped=True) if grouped else _suffix_table
    if n <= suffix:
        return [((), 0, 0, build(n, mine_bits, their_bits, tables))]
    tag = 1 << 2 * n if grouped else 0  # grouped tables are stored apart
    last = n - suffix - 1  # the last position placed one by one
    set_bits = _set_bits(n)
    leaves = []

    def fill(p: int, prefix: Perm, mine_bits: int, their_bits: int, key: int, inv: int) -> None:
        left = mine_bits | their_bits
        for bit, head in set_bits[mine_bits]:
            key_y = key | (their_bits & (bit - 1)) << (p * n)
            inv_y = inv + (left & (bit - 1)).bit_count()
            if p < last:
                fill(p + 1, prefix + head, their_bits, mine_bits ^ bit, key_y, inv_y)
            else:
                # the next position draws from ``their_bits``; a table is
                # never empty, so ``or`` builds only a missing one
                leaves.append((prefix + head, key_y, inv_y,
                               tables.get(tag | their_bits << n | mine_bits ^ bit)
                               or build(n, their_bits, mine_bits ^ bit, tables)))

    fill(0, (), mine_bits, their_bits, 0, 0)
    # ``fill`` refers to itself; dropping the name frees it on return
    # instead of at the next full garbage collection
    del fill
    return leaves


def _bits(values: tuple[int, ...]) -> int:
    """The set ``values`` as a bitmask, value y at bit y - 1."""
    return sum(1 << (y - 1) for y in values)


@functools.lru_cache(maxsize=4)
def _set_bits(n: int) -> tuple[tuple[tuple[int, tuple[int]], ...], ...]:
    """For each bitmask m of n bits, at index m, its set bits lowest first,
    each as the bit and the 1-tuple of its value y (bit y - 1): how the
    sweeps step through a set of values, with no scan of 1..n and no
    slicing. 2^n entries; an S_11 sweep reads 2,048."""
    steps = [(1 << (y - 1), (y,)) for y in range(1, n + 1)]
    return tuple(tuple(step for step in steps if m & step[0]) for m in range(1 << n))


def _suffix_table(n: int, mine_bits: int, their_bits: int, tables: dict,
                  grouped: bool = False) -> list[tuple]:
    """Every arrangement of the last k positions of S_n, k the number of
    values in the bitmasks ``mine_bits`` and ``their_bits``, with the values
    of ``mine_bits`` at the positions of the parity of n - k and the others
    at the rest, in lexicographic order, each as ``(tail, bits, inv)``: the
    key bits of its k rows and its inversions among themselves. Row and
    inversions of the first of the k positions come from one AND each, as in
    ``_block_leaves``. Built from the per-row tables one position shorter,
    and kept in ``tables`` under ``mine_bits << n | their_bits``.

    ``grouped`` builds the grouped table instead, in the same pass, with no
    per-row table of these k positions: one ``(bits, lo, lo_inv, hi,
    hi_inv)`` for each key bits, its first and last row (``lo is hi`` for
    one row), in the order of the first rows, kept under the name with bit
    2n set."""
    name = (1 << 2 * n if grouped else 0) | mine_bits << n | their_bits
    table = tables.get(name)
    if table is None:
        left = mine_bits | their_bits
        shift = (n - left.bit_count()) * n
        table = [] if mine_bits else [((), 0, 0)]
        first: dict[int, tuple[Perm, int]] = {}
        last: dict[int, tuple[Perm, int]] = {}
        for bit, head in _set_bits(n)[mine_bits]:
            row = (their_bits & (bit - 1)) << shift
            below = (left & (bit - 1)).bit_count()
            shorter = _suffix_table(n, their_bits, mine_bits ^ bit, tables)
            if grouped:
                for tail, bits, inv in shorter:
                    key = row | bits
                    end = (head + tail, below + inv)
                    if key not in last:
                        first[key] = end
                    last[key] = end
            else:
                table += [(head + tail, row | bits, below + inv) for tail, bits, inv in shorter]
        if grouped:
            # both dicts gained their keys in the same order
            table = [(key, lo, lo_inv, hi, hi_inv)
                     for (key, (lo, lo_inv)), (hi, hi_inv) in zip(first.items(), last.values())]
        tables[name] = table
    return table


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off. A sweep makes
    millions of tuples that live until their block ends and form no cycles,
    so each collection scans them for nothing: with the collector on, the
    census of S_10 ran 4,599 young and 38 full collections, about a sixth of
    its time. The collector comes back on afterwards, also on an exception,
    only if it was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def class_stream(n: int) -> Iterator[BruhatInterval]:
    """The odd diagram classes of S_n, each as the ``BruhatInterval`` from its
    first member to its last, one parity block at a time in the order of
    ``parity_sets``, each block's classes by minimum, with one store of
    suffix tables and one copy of each length vector (376 for S_9's 103,873
    classes). The collector is paused only while a block's members are
    swept. Each interval is made only as it is yielded and the stream keeps
    no reference to it, so the ``cover_graph`` a reader caches on a class
    goes when the reader drops the class."""
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    tables: dict = {}
    for evens in parity_sets(n):
        with _collector_paused():
            block = parity_block(n, evens, tables)
        for _, members, lengths in block:
            yield BruhatInterval(members, shared.setdefault(lengths, lengths))


def classes_of_sn(n: int) -> list[BruhatInterval]:
    """The intervals of ``class_stream``, held in one list sorted by minimum,
    for the library and the tests: no command builds it. Nothing runs
    between its blocks, so the collector stays paused throughout."""
    with _collector_paused():
        return sorted(class_stream(n), key=lambda cls: cls.bottom)


def resolve_jobs(jobs: int) -> int:
    """Worker count for ``jobs`` in 0..os.cpu_count() (0 = all cores);
    anything else raises ``ValueError``."""
    cores = os.cpu_count() or 1
    if not 0 <= jobs <= cores:
        raise ValueError(f"jobs must be in 0..{cores}, got {jobs}")
    return jobs or cores


def _run_census(n: int, run: list[tuple[int, ...]]) -> tuple[int, list[tuple[Perm, Perm]]]:
    """The number of classes in the parity blocks of S_n in ``run``, and the
    (min, max) of those that are not self-dual, from ``parity_block_ends``
    in sweep order. The classes that ``self_dual_by_rank`` settles are
    dropped by their rank; of the rest one class per ``ends_shape`` is built
    from its ends by ``class_interval`` and searched. The blocks share one
    store of suffix tables and one memo of verdicts by shape, both of which
    end with the run."""
    tables: dict = {}
    verdicts: dict[Shape, bool] = {}
    count = 0
    kept = []
    with _collector_paused():
        for evens in run:
            block = parity_block_ends(n, evens, tables)
            count += len(block)
            for _, lo, hi, rank in block:
                if self_dual_by_rank(rank):
                    continue
                shape = ends_shape(lo, hi)
                verdict = verdicts.get(shape)
                if verdict is None:
                    verdict = verdicts[shape] = has_anti_automorphism(class_interval(lo, hi))
                if not verdict:
                    kept.append((lo, hi))
            # freed before the next block is swept, not as that sweep returns
            del block
    return count, kept


def census(n: int, jobs: int = 1) -> tuple[int, list[tuple[Perm, Perm]]]:
    """The number of odd diagram classes of S_n, and the (min, max) of each
    that is not self-dual, sorted by minimum. No table of S_n is held: each
    parity block is swept for the ends of its classes only. The blocks are
    dealt out in turn to ``jobs`` workers (as in ``resolve_jobs``), and each
    worker's ``_run_census`` sweeps its run of blocks and returns its count
    and the ends of the classes it keeps. The 66,795 classes of S_10 that
    the rank leaves open have 389 shapes, so a run builds 389 intervals at
    most, and the 833,953 of S_11 have 1,761; none is built here. The ends
    sweep, on grouped suffix tables (``_ends_suffix``), is most of the run:
    S_11 (8,248,273 classes, 1,978 not self-dual) took about 15 s with two
    workers of about 46 MB each on a 2-core host."""
    jobs = resolve_jobs(jobs)
    blocks = parity_sets(n)
    task = functools.partial(_run_census, n)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            runs = pool.map(task, [blocks[i::jobs] for i in range(jobs)], chunksize=1)
    else:
        runs = [task(blocks)]
    return (sum(count for count, _ in runs),
            sorted(ends for _, run_kept in runs for ends in run_kept))


def class_of(w: Perm, max_members: int | None = None) -> BruhatInterval:
    """The odd diagram class of w, the interval between its ends. By Theorem
    B and the parity theorem only the minimum has no lowering ``legal_swap``
    move and only the maximum no raising one, so each walk ends at its
    extreme within rank steps. Members and lengths come from
    ``class_interval`` on the ends, one walk of their anchor chain and the
    translates of its blocks, at a cost that follows class size, not n!. With
    ``max_members``, the class size is checked before any member is built."""
    key = odd_diagram_key(w)
    lo = hi = w
    while x := legal_swap(lo, key, True):
        lo = x
    while x := legal_swap(hi, key, False):
        hi = x
    return class_interval(lo, hi, max_members)


# a record as ``json.dumps`` writes the record dict: the diagram's boxes, the
# size, the two ends, then the last five fields, the text of a ``_ReportMemo`` entry
_RECORD = '{"diagram": [%s], "size": %d, "min": "%s", "max": "%s", %s}'


class _RowTexts(dict):
    """The texts of the diagram rows of S_n, each keyed by the row's bits in
    place in an ``odd_diagram_key``: its boxes as ``[row, col], `` each, lowest
    column first, and "" for an empty row. A text is made when first asked
    for: the 2,041 classes of S_7 have 120 distinct rows, the 103,873 of S_9
    502."""

    def __init__(self, n: int):
        super().__init__({0: ""})
        self.n = n

    def __missing__(self, bits: int) -> str:
        n = self.n
        row = (bits.bit_length() - 1) // n
        self[bits] = text = "".join([f"[{row + 1}, {j + 1}], "
                                     for j in range(n) if bits >> (row * n + j) & 1])
        return text


def _entry(ranks: tuple, kl_is_one: bool, self_dual: bool, factors: tuple) -> tuple[int, str]:
    """An entry of ``_ReportMemo``: the size of a class with rank vector
    ``ranks``, and the text of its record's last five fields, one ``json.dumps``."""
    fields = {"rank_vector": ranks, "poincare_coeffs": ranks, "factor_lengths": factors,
              "kl_is_one": kl_is_one, "self_dual": self_dual}
    return sum(ranks), json.dumps(fields)[1:-1]


class _ReportMemo:
    """What the records of one report of S_n share, each made once: the
    texts of the diagram rows, and one ``_entry`` per rank <= 2 and per
    ``ends_shape`` of rank >= 3."""

    __slots__ = ("masks", "rows", "by_rank", "by_shape")

    def __init__(self, n: int):
        # row n of a key is empty: no position follows the last
        self.masks = [((1 << n) - 1) << (i * n) for i in range(n - 1)]
        self.rows = _RowTexts(n)
        self.by_rank = [_entry(ranks, True, self_dual_by_rank(rank), (2,) * rank)
                        for rank, ranks in enumerate([(1,), (1, 1), (1, 2, 1)])]
        self.by_shape: dict[Shape, tuple[int, str]] = {}


def _record_text(key: int, lo: Perm, hi: Perm, rank: int, memo: _ReportMemo) -> str:
    """The JSON text of the record of the class with key ``key``, ends ``lo``
    and ``hi`` and rank ``rank``, filled in from the texts in ``memo``: no
    member, box list, record dict or ``json.dumps`` per record. The diagram
    joins the texts of its rows, each the key's bits in one row.

    The other fields depend on the ends only through their ``ends_shape``
    (the proof is in its docstring; ``verify class_shapes`` re-checks them
    per shape). At rank <= 2 the rank vector is (1), (1, 1) or (1, 2, 1): an
    interval of rank 2 has 4 members (Bjorner-Brenti, Lemma 2.7.3). A class
    of higher rank builds its interval, by ``class_interval`` from its ends,
    only when it is the first of its shape, for the size and every field but
    the diagram.

    ``kl_is_one`` is P_{min,max} = 1, decided without the KL engine: at rank
    <= 2 by the degree bound deg P <= (rank - 1)/2 < 1 and P(0) = 1, where
    ``self_dual_by_rank`` settles ``self_dual``; above, by ``carrell_holds``,
    the reflection count at the minimum alone. ``verify kl_carrell`` and
    ``kl_class_probe`` re-check ``kl_is_one`` against KL. ``factor_lengths``
    is the unchecked core of ``factorize``, since a class's ends are its
    extremes by construction. A class of rank r <= 2 has r factors of 2:
    the factors m_i give sum(m_i - 1) = r, and 4 members are not the 3 of a
    factor of 3."""
    if rank <= 2:
        size, tail = memo.by_rank[rank]
    else:
        shape = ends_shape(lo, hi)
        entry = memo.by_shape.get(shape)
        if entry is None:
            interval = class_interval(lo, hi)
            entry = memo.by_shape[shape] = _entry(
                rank_vector(interval), carrell_holds(interval), is_self_dual(interval),
                _factor_lengths(lo, hi))
        size, tail = entry
    rows = memo.rows
    # every box text ends in ", ", so the last two characters are cut
    diagram = "".join([rows[key & mask] for mask in memo.masks])[:-2]
    return _RECORD % (diagram, size, format_perm(lo), format_perm(hi), tail)


def write_report(n: int, out: TextIOBase) -> int:
    """Write the JSON report of the classes of S_n, schema version 1, to
    ``out``, and return their number: the header, then one record a line,
    by class minimum, each the text of ``_record_text``. S_n is swept as
    the census sweeps it, by ``parity_block_ends`` with one store of suffix
    tables and the collector paused, so each class is held only as the
    sweep's (key, min, max, rank), sorted by the minimum: about 349 MB for
    S_10, of which the grouped tables are about 4. A one-member class holds
    one tuple for both ends; two would add about 23 MB for the 132,784
    one-member classes of S_10. The row texts and the entries by rank and
    by shape (13 shapes for the 171 classes of S_7 of rank >= 3) are kept
    until the report is written. ValueError for n < 1."""
    tables: dict = {}
    with _collector_paused():
        ends = [end for evens in parity_sets(n) for end in parity_block_ends(n, evens, tables)]
        ends.sort(key=itemgetter(1))
        memo = _ReportMemo(n)
        out.write(f'{{"schema": 1, "n": {n}, "classes": [')
        for i, (key, lo, hi, rank) in enumerate(ends):
            out.write(",\n" if i else "\n")
            out.write(_record_text(key, lo, hi, rank, memo))
        out.write("\n]}\n")
    return len(ends)
