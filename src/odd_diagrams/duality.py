"""Self-duality of any Bruhat interval: the rank rule, top-heaviness and
the boundary bipartite-graph criterion. The census of classes is in ``classes``.

Both duality questions go to one search, ``_graded_isomorphic``: is [u, v]
isomorphic to its dual, and is its bottom boundary graph isomorphic to its
top one."""

from .intervals import BruhatInterval, interval_elements, rank_vector
from .perms import FrozenRecord, Perm, identity

# (levels, up, down) as in ``BruhatInterval.cover_graph``
CoverGraph = tuple[list[list[int]], list[set[int]], list[set[int]]]

__all__ = [
    "BipartiteGraph",
    "self_dual_by_rank",
    "top_heavy_check",
    "is_self_dual",
    "boundary_bipartite_graphs",
    "bipartite_criterion",
]


class BipartiteGraph(FrozenRecord):
    """Covers between two consecutive rank levels; edges are index pairs."""

    __slots__ = _fields = ("left", "right", "edges")
    left: tuple[Perm, ...]
    right: tuple[Perm, ...]
    edges: frozenset[tuple[int, int]]

    def __init__(self, left: tuple[Perm, ...], right: tuple[Perm, ...],
                 edges: frozenset[tuple[int, int]]):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", edges)


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
    to rank 3 ``self_dual_by_rank`` says yes; above, ``_has_anti_automorphism``."""
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
