"""Self-duality of any Bruhat interval: the rank rule, top-heaviness and
the boundary bipartite-graph criterion. The census of classes is in ``classes``.

Both duality questions go to one search, ``_graded_isomorphic``: is [u, v]
isomorphic to its dual, and is its bottom boundary graph isomorphic to its
top one."""

from .intervals import BruhatInterval, interval_elements, rank_vector
from .perms import Perm, identity

# (levels, up, down) as in ``BruhatInterval.cover_graph``
CoverGraph = tuple[list[list[int]], list[set[int]], list[set[int]]]

__all__ = [
    "self_dual_by_rank",
    "top_heavy_check",
    "is_self_dual",
    "has_anti_automorphism",
    "bipartite_criterion",
]


def self_dual_by_rank(rank: int) -> bool:
    """True when the rank alone makes a Bruhat interval self-dual: every
    interval of rank 2 is a diamond and every one of rank 3 a k-crown
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Sec. 2.7), and ranks 0
    and 1 are chains. ``verify short_intervals_self_dual`` re-checks this."""
    return rank <= 3


def top_heavy_check(w: Perm) -> bool:
    """Rank sizes of [e, w] satisfy #P_k <= #P_(l(w)-k) for k <= l(w)/2."""
    ranks = rank_vector(interval_elements(identity(len(w)), w))
    top = len(ranks) - 1
    return all(ranks[k] <= ranks[top - k] for k in range(top // 2 + 1))


def is_self_dual(interval: BruhatInterval) -> bool:
    """Does the Bruhat interval admit an order-reversing self-bijection? Up
    to rank 3 ``self_dual_by_rank`` says yes; above, ``has_anti_automorphism``."""
    return self_dual_by_rank(interval.rank) or has_anti_automorphism(interval)


def has_anti_automorphism(interval: BruhatInterval) -> bool:
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


def _boundary_graph(levels: list[list[int]], up: list[set[int]], down: list[set[int]],
                    lower: int, upper: int) -> CoverGraph:
    """Levels ``lower`` and ``upper`` of a cover graph, one rank apart, as a
    graph of two levels on the same member indices: the up sets of ``lower``
    and the down sets of ``upper`` are kept whole, since a cover is one rank
    away, and every other set is empty. Given down and up in place of up and
    down, the graph reads the interval downward, ``upper`` below ``lower``."""
    cut_up, cut_down = [frozenset()] * len(up), [frozenset()] * len(down)
    for k in levels[lower]:
        cut_up[k] = up[k]
    for k in levels[upper]:
        cut_down[k] = down[k]
    return [levels[lower], levels[upper]], cut_up, cut_down


def bipartite_criterion(interval: BruhatInterval) -> bool:
    """True iff the cover graph between ranks 1 and 2 above the bottom is
    isomorphic to the one between ranks 1 and 2 below the top, as bipartite
    graphs whose parts are not exchanged; vacuously true for intervals of
    rank <= 1."""
    if interval.rank < 2:
        return True
    levels, up, down = interval.cover_graph
    return _graded_isomorphic(_boundary_graph(levels, up, down, 1, 2),
                              _boundary_graph(levels, down, up, -2, -3))
