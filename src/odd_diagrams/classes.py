"""Odd diagram classes of S_n: enumeration, extremes, JSON reports."""

import json
from dataclasses import dataclass

from .diagrams import Diagram, diagram_of_key, odd_diagram_key
from .intervals import BruhatInterval, interval_elements, rank_vector
from .perms import Perm, all_perms, format_perm

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
    """All permutations sharing one odd diagram: its ``odd_diagram_key`` and its
    sorted members, from which the rest is derived. Bruhat order refines
    lexicographic order, so by Theorem B (checked by verify theorem_b) the
    first and last members are the Bruhat extremes."""

    key: int
    members: tuple[Perm, ...]

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
        return BruhatInterval(self.min_elem, self.max_elem, self.members)

    def __len__(self) -> int:
        return len(self.members)


def _build_class(key: int, members: list[Perm]) -> OddDiagramClass:
    members.sort()
    return OddDiagramClass(key, tuple(members))


def classes_of_sn(n: int, allow_large: bool = False) -> list[OddDiagramClass]:
    """Partition S_n into odd diagram classes, sorted by minimum element."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > GUARDED_MAX_N and not allow_large:
        raise ValueError(f"n = {n} > {GUARDED_MAX_N}; pass allow_large=True to override")
    groups: dict[int, list[Perm]] = {}
    for w in all_perms(n):
        groups.setdefault(odd_diagram_key(w), []).append(w)
    classes = [_build_class(key, members) for key, members in groups.items()]
    classes.sort(key=lambda c: c.min_elem)
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
    return _build_class(target, queue)


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
