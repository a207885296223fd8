"""Rothe diagrams, odd diagrams, odd length, and legal transpositions.

A diagram is a sorted tuple of ``(row, col)`` boxes in matrix coordinates.
Within S_n the integer ``odd_diagram_key`` is an odd diagram's canonical
form: permutations are grouped and compared by key, and boxes decode from it.
"""

from .perms import Perm, Transposition, inverse, right_transpose

Box = tuple[int, int]
Diagram = tuple[Box, ...]

__all__ = [
    "Box",
    "Diagram",
    "rothe_diagram",
    "odd_diagram",
    "odd_diagram_key",
    "diagram_of_key",
    "odd_length",
    "is_legal",
    "satisfies_legality_criterion",
    "first_difference",
    "legal_swap",
    "render_diagrams",
]


def rothe_diagram(w: Perm) -> Diagram:
    """Boxes (i, j) with w(i) > j and i < w^-1(j)."""
    inv = inverse(w)
    boxes = []
    for i in range(1, len(w) + 1):
        for j in range(1, w[i - 1]):
            if i < inv[j - 1]:
                boxes.append((i, j))
    return tuple(sorted(boxes))


def odd_diagram(w: Perm) -> Diagram:
    """Rothe boxes (i, j) with i != w^-1(j) mod 2, sorted: odd_diagram_key decoded."""
    return diagram_of_key(odd_diagram_key(w), len(w))


def odd_diagram_key(w: Perm) -> int:
    """Odd diagram packed into a bitmask; fast grouping key for one fixed n.

    Box (i, j) maps to bit (i-1)*n + (j-1).  Equal keys within S_n are
    exactly equal odd diagrams: (i, w(p)) over inversion pairs i < p of
    opposite parity.
    """
    n = len(w)
    key = 0
    for i in range(n - 1):
        wi = w[i]
        for p in range(i + 1, n, 2):
            if w[p] < wi:
                key |= 1 << (i * n + w[p] - 1)
    return key


def diagram_of_key(key: int, n: int) -> Diagram:
    """The sorted boxes of an ``odd_diagram_key`` of S_n: its set bits,
    lowest first."""
    boxes = []
    while key:
        low = key & -key
        i, j = divmod(low.bit_length() - 1, n)
        boxes.append((i + 1, j + 1))
        key ^= low
    return tuple(boxes)


def odd_length(w: Perm) -> int:
    """Number of inversions (i, j) with i != j mod 2."""
    count = 0
    n = len(w)
    for i in range(n - 1):
        for j in range(i + 1, n, 2):
            if w[i] > w[j]:
                count += 1
    return count


def is_legal(u: Perm, t: Transposition) -> bool:
    """Definitional check: does u (i j) have the same odd diagram as u?"""
    return odd_diagram_key(u) == odd_diagram_key(right_transpose(u, t))


def satisfies_legality_criterion(u: Perm, t: Transposition) -> bool:
    """Sufficient condition for legality of (i j).

    With m = min(u(i), u(j)) and M = max(u(i), u(j)):
      (1) i = j mod 2;
      (2) u(p) < m for p in {i+1, i+3, ..., j-1};
      (3) u(q) not in [m, M] for q in {j+1, j+3, ...} up to n.
    The converse is not assumed.
    """
    i, j = t
    if (i - j) % 2 != 0:
        return False
    m, M = sorted((u[i - 1], u[j - 1]))
    for p in range(i + 1, j, 2):
        if u[p - 1] >= m:
            return False
    for q in range(j + 1, len(u) + 1, 2):
        if m <= u[q - 1] <= M:
            return False
    return True


def first_difference(u: Perm, v: Perm) -> int:
    """Least value whose position differs between u and v."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    if u == v:
        raise ValueError("permutations are equal; no differing value")
    # value x moves exactly when it stands where u and v differ
    return min(x for x, y in zip(u, v) if x != y)


def legal_swap(w: Perm, key: int, down: bool) -> Perm | None:
    """The first w (i j) in order of (i, j), i = j mod 2, with odd diagram
    ``key`` below w if ``down`` and above it otherwise, or None. For a
    transposition Bruhat below is lexicographically smaller: w(i) > w(j)."""
    for i in range(len(w) - 2):
        for j in range(i + 2, len(w), 2):
            if (w[i] > w[j]) == down:
                x = w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:]
                if odd_diagram_key(x) == key:
                    return x
    return None


def render_diagrams(w: Perm) -> str:
    """ASCII n x n grid: '*' for odd-diagram boxes, '#' for the remaining
    Rothe boxes, '.' elsewhere."""
    n = len(w)
    rothe = set(rothe_diagram(w))
    odd = set(odd_diagram(w))
    lines = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if (i, j) in odd:
                row.append("*")
            elif (i, j) in rothe:
                row.append("#")
            else:
                row.append(".")
        lines.append(" ".join(row))
    return "\n".join(lines)
