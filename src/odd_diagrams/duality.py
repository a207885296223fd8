"""Self-duality of Bruhat intervals: top-heaviness, anti-automorphism
search, and the boundary bipartite-graph criterion."""

import os
from collections import Counter
from dataclasses import dataclass

from .classes import OddDiagramClass, classes_of_sn
from .intervals import BruhatInterval, _cached_interval, rank_vector
from .perms import Perm, identity

__all__ = [
    "BipartiteGraph",
    "top_heavy_check",
    "is_self_dual",
    "boundary_bipartite_graphs",
    "bipartite_criterion",
    "resolve_jobs",
    "non_self_dual_classes",
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
    ranks = rank_vector(_cached_interval(identity(len(w)), w))
    top = len(ranks) - 1
    return all(ranks[k] <= ranks[top - k] for k in range(top // 2 + 1))


def _settled_by_rank(interval: BruhatInterval) -> bool:
    """True when the rank alone makes the interval self-dual: every Bruhat
    interval of rank 2 is a diamond and every one of rank 3 a k-crown
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Sec. 2.7), and ranks 0
    and 1 are chains. ``verify short_intervals_self_dual`` re-checks this."""
    return interval.rank <= 3


def is_self_dual(interval: BruhatInterval) -> bool:
    """Does the Bruhat interval admit an order-reversing self-bijection?

    Intervals of rank <= 3 always do (``_settled_by_rank``); the others go
    to ``_has_anti_automorphism``.
    """
    return _settled_by_rank(interval) or _has_anti_automorphism(interval)


def _has_anti_automorphism(interval: BruhatInterval) -> bool:
    """The full search, whatever the rank.

    Rank-vector palindromicity is a necessary pre-filter; the search then
    backtracks rank by rank for a bijection sending covers to reversed
    covers, pruning on (down-degree, up-degree) signatures.
    """
    sizes = rank_vector(interval)
    if sizes != sizes[::-1]:
        return False
    levels, up, down = interval.cover_graph
    # elements bottom-up, each with the rank level it must be mapped into
    steps = [(x, levels[-1 - r]) for r, level in enumerate(levels) for x in level]
    mapping = [0] * len(steps)
    used = [False] * len(steps)

    def placements(pos: int):
        """Map the element of steps[pos] to each admissible target, undoing on resume."""
        x, targets = steps[pos]
        for target in targets:
            if used[target]:
                continue
            if len(up[x]) != len(down[target]) or len(down[x]) != len(up[target]):
                continue
            # down-neighbors of x are already mapped (ranks are processed
            # bottom-up) and must land among the up-neighbors of the target
            if any(target not in down[mapping[y]] for y in down[x]):
                continue
            mapping[x] = target
            used[target] = True
            yield True
            used[target] = False

    # one generator per placed element on an explicit stack: intervals can
    # have more elements than Python's recursion limit
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


def _bipartite_isomorphic(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Part-preserving isomorphism test by backtracking over the left part.

    For a fixed left bijection, a right bijection exists iff the multisets
    of right-vertex neighborhoods (as subsets of the left part) agree.
    """
    if len(g1.left) != len(g2.left) or len(g1.right) != len(g2.right):
        return False
    if len(g1.edges) != len(g2.edges):
        return False
    k = len(g1.left)
    deg1 = [0] * k
    deg2 = [0] * k
    nbhd1: list[set[int]] = [set() for _ in g1.right]
    nbhd2: list[set[int]] = [set() for _ in g2.right]
    for a, b in g1.edges:
        deg1[a] += 1
        nbhd1[b].add(a)
    for a, b in g2.edges:
        deg2[a] += 1
        nbhd2[b].add(a)
    if sorted(deg1) != sorted(deg2):
        return False
    if Counter(len(s) for s in nbhd1) != Counter(len(s) for s in nbhd2):
        return False
    target_nbhds = Counter(frozenset(s) for s in nbhd2)

    sigma = [-1] * k
    used = [False] * k

    def extend(a: int) -> bool:
        if a == k:
            mapped = Counter(frozenset(sigma[x] for x in s) for s in nbhd1)
            return mapped == target_nbhds
        for t in range(k):
            if used[t] or deg1[a] != deg2[t]:
                continue
            sigma[a] = t
            used[t] = True
            if extend(a + 1):
                return True
            used[t] = False
        sigma[a] = -1
        return False

    return extend(0)


def bipartite_criterion(interval: BruhatInterval) -> bool:
    """True iff the two boundary graphs are isomorphic as bipartite graphs
    (parts not exchanged); vacuously true for intervals of rank <= 1."""
    if interval.rank < 2:
        return True
    bottom_graph, top_graph = boundary_bipartite_graphs(interval)
    return _bipartite_isomorphic(bottom_graph, top_graph)


def resolve_jobs(jobs: int) -> int:
    """Worker count for ``jobs`` in 0..os.cpu_count() (0 = all cores);
    anything else raises ``ValueError``."""
    cores = os.cpu_count() or 1
    if not 0 <= jobs <= cores:
        raise ValueError(f"jobs must be in 0..{cores}, got {jobs}")
    return jobs or cores


def non_self_dual_classes(
    classes: list[OddDiagramClass], jobs: int = 1
) -> list[OddDiagramClass]:
    """The classes whose Bruhat interval is not self-dual, in input order.
    Only the classes that ``_settled_by_rank`` leaves open are searched, by
    ``jobs`` workers (0..os.cpu_count(), 0 = all cores)."""
    jobs = resolve_jobs(jobs)
    undecided = [c for c in classes if not _settled_by_rank(c.interval)]
    intervals = (c.interval for c in undecided)
    if jobs > 1 and undecided:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            verdicts = pool.map(is_self_dual, intervals, chunksize=64)
    else:
        verdicts = map(is_self_dual, intervals)
    return [c for c, ok in zip(undecided, verdicts) if not ok]


def non_self_dual_census(n: int, allow_large: bool = False, jobs: int = 1) -> int:
    """Number of odd diagram classes of S_n that are not self-dual."""
    return len(non_self_dual_classes(classes_of_sn(n, allow_large=allow_large), jobs))
