"""Self-duality of Bruhat intervals: top-heaviness, the self-duality census
and the boundary bipartite-graph criterion.

Both duality questions go to one search, ``_graded_isomorphic``: is [u, v]
isomorphic to its dual, and is its bottom boundary graph isomorphic to its
top one."""

import functools
import os
from dataclasses import dataclass

from .classes import OddDiagramClass, parity_block, parity_sets
from .intervals import BruhatInterval, interval_elements, rank_vector, self_dual_by_rank
from .perms import Perm, identity

# (levels, up, down) as in ``BruhatInterval.cover_graph``
CoverGraph = tuple[list[list[int]], list[set[int]], list[set[int]]]

__all__ = [
    "BipartiteGraph",
    "top_heavy_check",
    "is_self_dual",
    "boundary_bipartite_graphs",
    "bipartite_criterion",
    "resolve_jobs",
    "non_self_dual_classes",
    "census",
    "non_self_dual_census",
]


@dataclass(frozen=True)
class BipartiteGraph:
    """Covers between two consecutive rank levels; edges are index pairs."""

    left: tuple[Perm, ...]
    right: tuple[Perm, ...]
    edges: frozenset[tuple[int, int]]


def top_heavy_check(w: Perm) -> bool:
    """Rank sizes of [e, w] satisfy #P_k <= #P_(l(w)-k) for k <= l(w)/2."""
    ranks = rank_vector(interval_elements(identity(len(w)), w))
    top = len(ranks) - 1
    return all(ranks[k] <= ranks[top - k] for k in range(top // 2 + 1))


def is_self_dual(interval: BruhatInterval) -> bool:
    """Does the Bruhat interval admit an order-reversing self-bijection?

    Intervals of rank <= 3 always do (``self_dual_by_rank``); the others go
    to ``_has_anti_automorphism``.
    """
    return self_dual_by_rank(interval.rank) or _has_anti_automorphism(interval)


def _has_anti_automorphism(interval: BruhatInterval) -> bool:
    """The full search, whatever the rank: rank-vector palindromicity is a
    necessary pre-filter that saves building the cover graph, then
    ``_graded_isomorphic`` looks for a map of the interval onto its dual."""
    sizes = rank_vector(interval)
    if sizes != sizes[::-1]:
        return False
    levels, up, down = interval.cover_graph
    return _graded_isomorphic((levels, up, down), (levels[::-1], down, up))


def _graded_isomorphic(a: CoverGraph, b: CoverGraph) -> bool:
    """Is there a bijection from the members of ``a`` onto those of ``b``,
    level r onto level r, that maps covers onto covers? Each side is a
    ``(levels, up, down)`` triple shaped like ``BruhatInterval.cover_graph``.

    The search places members bottom-up, pruning on (down-degree,
    up-degree); the lower covers of a member are already placed and must
    land among the lower covers of its image.
    """
    levels, up, down = a
    b_levels, b_up, b_down = b
    if list(map(len, levels)) != list(map(len, b_levels)):
        return False
    # members bottom-up, each with the level of b it must be mapped into
    steps = [(x, targets) for level, targets in zip(levels, b_levels) for x in level]
    mapping = [0] * len(up)
    used = [False] * len(b_up)

    def placements(pos: int):
        """Map the member of steps[pos] to each admissible target, undoing on resume."""
        x, targets = steps[pos]
        for target in targets:
            if used[target]:
                continue
            if len(up[x]) != len(b_up[target]) or len(down[x]) != len(b_down[target]):
                continue
            if any(mapping[y] not in b_down[target] for y in down[x]):
                continue
            mapping[x] = target
            used[target] = True
            yield True
            used[target] = False

    # one generator per placed member on an explicit stack: intervals can
    # have more members than Python's recursion limit
    stack = [placements(0)]
    while stack:
        if not next(stack[-1], False):
            stack.pop()
        elif len(stack) == len(steps):
            return True
        else:
            stack.append(placements(len(stack)))
    return False


def boundary_bipartite_graphs(
    interval: BruhatInterval,
) -> tuple[BipartiteGraph, BipartiteGraph]:
    """Cover graphs between ranks 1-2 above the bottom and ranks 1-2 below
    the top; defined only for intervals of rank >= 2."""
    if interval.rank < 2:
        raise ValueError("boundary graphs need an interval of rank >= 2")
    levels, up, down = interval.cover_graph

    def graph(left: int, right: int, neighbors) -> BipartiteGraph:
        rpos = {i: p for p, i in enumerate(levels[right])}
        edges = frozenset(
            (p, rpos[j]) for p, i in enumerate(levels[left]) for j in neighbors[i] if j in rpos
        )
        return BipartiteGraph(interval.levels[left], interval.levels[right], edges)

    return graph(1, 2, up), graph(-2, -3, down)


def _as_cover_graph(graph: BipartiteGraph) -> CoverGraph:
    """The graph as two levels, the left part below the right."""
    k = len(graph.left)
    up: list[set[int]] = [set() for _ in range(k + len(graph.right))]
    down: list[set[int]] = [set() for _ in up]
    for a, b in graph.edges:
        up[a].add(k + b)
        down[k + b].add(a)
    return [list(range(k)), list(range(k, len(up)))], up, down


def bipartite_criterion(interval: BruhatInterval) -> bool:
    """True iff the two boundary graphs are isomorphic as bipartite graphs
    (parts not exchanged); vacuously true for intervals of rank <= 1."""
    if interval.rank < 2:
        return True
    bottom_graph, top_graph = boundary_bipartite_graphs(interval)
    return _graded_isomorphic(_as_cover_graph(bottom_graph), _as_cover_graph(top_graph))


def resolve_jobs(jobs: int) -> int:
    """Worker count for ``jobs`` in 0..os.cpu_count() (0 = all cores);
    anything else raises ``ValueError``."""
    cores = os.cpu_count() or 1
    if not 0 <= jobs <= cores:
        raise ValueError(f"jobs must be in 0..{cores}, got {jobs}")
    return jobs or cores


def non_self_dual_classes(classes: list[OddDiagramClass]) -> list[OddDiagramClass]:
    """The classes whose Bruhat interval is not self-dual, in input order.
    Only the classes that ``self_dual_by_rank`` leaves open are searched; the
    rank is read from the lengths of the first and last members, the class
    extremes."""
    return [c for c in classes if not self_dual_by_rank(c.rank)
            and not is_self_dual(c.interval)]


def _block_census(n: int, evens: tuple[int, ...],
                  tables: dict) -> tuple[int, list[OddDiagramClass]]:
    """The number of classes in one parity block of S_n, and those that are
    not self-dual. A class is built only when ``self_dual_by_rank`` leaves it
    open. ``tables`` is the store of suffix tables of ``parity_block``."""
    block = parity_block(n, evens, tables)
    undecided = [OddDiagramClass(*fields) for fields in block
                 if not self_dual_by_rank(fields[2][-1] - fields[2][0])]
    return len(block), non_self_dual_classes(undecided)


def _run_census(n: int, run: list[tuple[int, ...]]) -> list[tuple[int, list[OddDiagramClass]]]:
    """``_block_census`` of each parity block in ``run``, the blocks sharing
    one store of suffix tables, which ends with the run."""
    tables: dict = {}
    return [_block_census(n, evens, tables) for evens in run]


def census(n: int, allow_large: bool = False, jobs: int = 1) -> tuple[int, list[OddDiagramClass]]:
    """The number of odd diagram classes of S_n, and those that are not
    self-dual, sorted by minimum.

    S_n is swept one parity block at a time and no table of S_n is held:
    each block is swept and decided whole. The blocks are dealt out in turn
    to ``jobs`` workers (0..os.cpu_count(), 0 = all cores), and each worker
    sweeps its run of blocks with one store of suffix tables."""
    jobs = resolve_jobs(jobs)
    blocks = parity_sets(n, allow_large)
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


def non_self_dual_census(n: int, allow_large: bool = False, jobs: int = 1) -> int:
    """Number of odd diagram classes of S_n that are not self-dual."""
    return len(census(n, allow_large, jobs)[1])
