"""Permutations of [1, n] in one-line notation, with Bruhat order utilities.

A permutation is a plain tuple ``w`` with ``w[i-1] = w(i)``; positions and
values are 1-indexed everywhere on the public surface.  Tuples compare
lexicographically, which gives a canonical total order for member lists
and reports.

The module also holds ``Record`` and ``FrozenRecord``, the bases of the
package's value classes, since it is the bottom of the import stack.
"""

from collections.abc import Iterable, Iterator
from itertools import combinations, permutations
from operator import itemgetter

Perm = tuple[int, ...]
Transposition = tuple[int, int]

__all__ = [
    "Perm",
    "Transposition",
    "Record",
    "FrozenRecord",
    "make_permutation",
    "parse_perm",
    "format_perm",
    "identity",
    "all_perms",
    "inverse",
    "right_transpose",
    "length",
    "bruhat_leq",
    "covers",
    "upward_covers",
    "descent_set",
    "avoids",
]


class Record:
    """A value class that compares, prints and pickles by the attributes
    named in ``_fields``, in that order, as a dataclass does: equal only to
    an instance of the same class, and unhashable, since it is mutable.
    Written out rather than made by ``dataclasses``, whose import and code
    generation cost a command line more than the rest of its start-up."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt by the constructor: unpickling a slot would go through __setattr__
        return self.__class__, self._astuple()


class FrozenRecord(Record):
    """An immutable ``Record``: assigning or deleting an attribute raises
    AttributeError, and it hashes by its fields. A subclass keeps its fields
    in ``__slots__``, and its ``__init__`` sets them with
    ``object.__setattr__``. The fields hold only what cannot be derived from
    one another; what can is a property."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())


def make_permutation(values: Iterable[int]) -> Perm:
    """Validate one-line notation: every value 1..n exactly once."""
    w = tuple(values)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse one-line text: a digit string for n <= 9, comma-separated otherwise."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation: {text!r}") from None
    return make_permutation(values)


def _perm_template(n: int) -> str:
    """The ``%`` template of ``format_perm`` for degree n."""
    return "%d" * n if n <= 9 else ",".join(["%d"] * n)


# the templates of the degrees up to 16; a larger degree builds its own per call
_PERM_TEMPLATES = tuple(map(_perm_template, range(17)))


def format_perm(w: Perm) -> str:
    """One-line text: digits run together for n <= 9, comma-separated otherwise."""
    n = len(w)
    return (_PERM_TEMPLATES[n] if n < len(_PERM_TEMPLATES) else _perm_template(n)) % w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return permutations(range(1, n + 1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, x in enumerate(w):
        inv[x - 1] = i + 1
    return tuple(inv)


def _check_transposition(n: int, t: Transposition) -> None:
    i, j = t
    if not (1 <= i < j <= n):
        raise ValueError(f"bad transposition {t} for degree {n}")


def right_transpose(w: Perm, t: Transposition) -> Perm:
    """w (i j): swap the entries in positions i and j."""
    _check_transposition(len(w), t)
    i, j = t
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions: for each entry, a popcount of
    the earlier entries above it, kept as a bitmask with value c at bit c."""
    seen = inversions = 0
    for x in w:
        inversions += (seen >> x).bit_count()
        seen |= 1 << x
    return inversions


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Bruhat comparison by the rank-matrix criterion (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.1.5): u <= v iff every prefix of
    u has at most as many entries >= c as the same prefix of v, for every c.

    The prefixes are grown as bitmasks, value c at bit c. Write D(c) for u's
    count of entries >= c less v's. A step that adds x to u and y to v
    raises D by one on (y, x] if x > y, lowers it on (x, y] if x < y, and
    leaves it elsewhere. So only a step with x > y can break D <= 0, only on
    (y, x], and there only at a value u holds and v lacks: D, read from c =
    x downward, rises only at such values."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    seen_u = seen_v = 0
    for x, y in zip(u, v):
        seen_u |= 1 << x
        seen_v |= 1 << y
        if x > y:
            ahead = seen_u & ~seen_v & ((2 << x) - (2 << y))
            while ahead:
                c = ahead.bit_length() - 1
                if (seen_u >> c).bit_count() > (seen_v >> c).bit_count():
                    return False
                ahead ^= 1 << c
    return True


def covers(u: Perm, v: Perm) -> bool:
    """True iff v covers u: v = u (i j), u(i) < u(j), nothing in between."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    diff = [p for p in range(len(u)) if u[p] != v[p]]
    if len(diff) != 2:
        return False
    i, j = diff
    if not (u[i] == v[j] and u[j] == v[i] and u[i] < u[j]):
        return False
    lo, hi = u[i], u[j]
    return all(not (lo < u[p] < hi) for p in range(i + 1, j))


def upward_covers(w: Perm) -> Iterator[Perm]:
    """All permutations covering w in the Bruhat order."""
    n = len(w)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if w[i] < w[j] and all(not (w[i] < w[p] < w[j]) for p in range(i + 1, j)):
                out = list(w)
                out[i], out[j] = out[j], out[i]
                yield tuple(out)


def descent_set(w: Perm) -> set[int]:
    """Right descents: positions i with w(i) > w(i+1)."""
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def avoids(w: Perm, pattern: Perm) -> bool:
    """True iff no subsequence of w is order-isomorphic to pattern. A
    subsequence matches exactly when its entries, read in the order of the
    pattern's values, increase; the subsequences are taken as value tuples
    by ``combinations``. Every w contains the empty pattern and each of its
    entries the one-entry pattern."""
    k = len(pattern)
    if k > len(w):
        return True
    if k < 2:  # itemgetter of one index returns the entry, not a tuple
        return False
    by_pattern = itemgetter(*sorted(range(k), key=pattern.__getitem__))
    for sub in combinations(w, k):
        if list(by_pattern(sub)) == sorted(sub):
            return False
    return True
