"""Exact integer polynomials; Poincare, R- and Kazhdan-Lusztig polynomials."""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .intervals import (
    BruhatInterval,
    _above,
    _cached_interval,
    _descent_step,
    _position_swap,
    interval_elements,
    rank_vector,
)
from .perms import Perm, bruhat_leq, descent_set, length

__all__ = [
    "IntPolynomial",
    "zero",
    "one",
    "poincare",
    "is_palindromic",
    "expand_factors",
    "r_polynomial",
    "r_polynomial_choosing",
    "kl_polynomial",
    "carrell_holds",
    "carrell_condition",
]


class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == (IntPolynomial([other])).coeffs
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return IntPolynomial(out)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def reversed_to(self, d: int) -> IntPolynomial:
        """q^d * p(1/q) as an ordinary polynomial; requires d >= degree."""
        if d < self.degree:
            raise ValueError(f"cannot reverse degree-{self.degree} polynomial to {d}")
        out = [0] * (d + 1)
        for k, c in enumerate(self.coeffs):
            out[d - k] = c
        return IntPolynomial(out)

    def pretty(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if abs(c) == 1 else str(abs(c))
                if c < 0:
                    head = "-" + head
                power = var if k == 1 else f"{var}^{k}"
                terms.append(f"{head}{power}")
        return "+".join(terms).replace("+-", "-")

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __reduce__(self):  # protocols 0 and 1 cannot pickle a slot
        return IntPolynomial, (self.coeffs,)


def zero() -> IntPolynomial:
    return IntPolynomial()


def one() -> IntPolynomial:
    return IntPolynomial([1])


_Q = IntPolynomial([0, 1])
_Q_MINUS_1 = IntPolynomial([-1, 1])


def poincare(u: Perm, v: Perm, max_members: int | None = None) -> IntPolynomial:
    """Rank generating function of [u, v], normalized to constant term 1.
    With ``max_members`` the interval is built by ``interval_elements``
    within that budget, not taken from the cache."""
    interval = (_cached_interval(u, v) if max_members is None
                else interval_elements(u, v, max_members))
    return IntPolynomial(rank_vector(interval))


def is_palindromic(f: IntPolynomial) -> bool:
    if not f:
        raise ValueError("palindromicity is undefined for the zero polynomial")
    return f.coeffs == tuple(reversed(f.coeffs))


def expand_factors(lengths: Iterable[int]) -> IntPolynomial:
    """Product of 1 + t + ... + t^(len-1) over the given lengths."""
    out = one()
    for m in lengths:
        if m < 1:
            raise ValueError(f"factor length must be >= 1, got {m}")
        out = out * IntPolynomial([1] * m)
    return out


def _default_descent(u: Perm) -> int:
    return min(descent_set(u))


def _r_recursive(
    x: Perm, y: Perm, choose_descent: Callable[[Perm], int], memo: dict
) -> IntPolynomial:
    """R_{x,y} for x <= y, with s = s_{i+1} the chosen descent of y. If xs < x
    then xs <= ys (Deodhar's property Z); otherwise x <= ys by the lifting
    property (Bjorner-Brenti, Prop. 2.2.7), and xs <= ys is decided by the
    one prefix in which xs and x differ. So every call keeps x <= y."""
    if x == y:
        return one()
    key = (x, y)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i = choose_descent(y) - 1
    swap = _position_swap(len(y), i)
    ys, xs = swap(y), swap(x)
    if x[i] > x[i + 1]:
        result = _r_recursive(xs, ys, choose_descent, memo)
    else:
        lowered = _r_recursive(xs, ys, choose_descent, memo) if _above(xs, i, (ys,)) else zero()
        result = _Q * lowered + _Q_MINUS_1 * _r_recursive(x, ys, choose_descent, memo)
    memo[key] = result
    return result


def r_polynomial_choosing(
    x: Perm, y: Perm, choose_descent: Callable[[Perm], int]
) -> IntPolynomial:
    """R-polynomial by the descent recursion, with a memo local to the call.

    choose_descent picks which right descent of y drives the recursion;
    the result is independent of the choice (property-tested).
    """
    if not bruhat_leq(x, y):
        return zero()
    return _r_recursive(x, y, choose_descent, {})


# Memo caps. A top-level call clears a memo that has grown past its cap, so
# a long-running process keeps about one cap's worth between calls (a single
# call still holds all it needs). A full memo measured at n = 6 is about
# 28 MB of R-polynomials or 17 MB of KL columns.
_R_MEMO_CAP = 100_000  # R-polynomials, ~280 bytes each
_KL_MEMO_CAP = 200_000  # P_{u,y} values over the stored columns, ~85 bytes each

_R_MEMO: dict[tuple[Perm, Perm], IntPolynomial] = {}


def r_polynomial(x: Perm, y: Perm) -> IntPolynomial:
    """R-polynomial by the recursion of ``r_polynomial_choosing`` on the
    smallest descent of y, memoized across calls."""
    if len(_R_MEMO) > _R_MEMO_CAP:
        _R_MEMO.clear()
    known = _R_MEMO.get((x, y))
    if known is not None:  # the memo holds only pairs x <= y
        return known
    if not bruhat_leq(x, y):  # raises ValueError on a degree mismatch
        return zero()
    return _r_recursive(x, y, _default_descent, _R_MEMO)


# (x, y) -> the column {u: (length(u), coefficients of P_{u,y})} over [x, y]
_KL_MEMO: dict[tuple[Perm, Perm], dict[Perm, tuple[int, tuple[int, ...]]]] = {}
_kl_memo_values = 0  # P_{u,y} values held by the columns of _KL_MEMO
# one shared object per distinct (length, coefficients) entry of the
# columns; most entries are (l, (1,)), so this saves most of their memory
_KL_ENTRIES: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
_ONE = (1,)


def _checked(coeffs: list[int], d: int) -> tuple[int, ...]:
    """Trimmed coefficients of P_{u,y} with d = length(y) - length(u);
    raises unless deg <= (d - 1)/2 (deg 0 when d = 0) and P(0) = 1."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs or coeffs[0] != 1 or 2 * (len(coeffs) - 1) > max(d - 1, 0):
        raise AssertionError(
            f"KL polynomial {coeffs} breaks the degree bound or P(0) = 1 "
            f"at length difference {d}; the KL computation is inconsistent"
        )
    return tuple(coeffs)


def _kl_column(x: Perm, y: Perm) -> dict[Perm, tuple[int, tuple[int, ...]]]:
    """P_{u,y} with length(u) for every u in [x, y]; requires x <= y."""
    column = _KL_MEMO.get((x, y))
    if column is not None:
        return column
    if x == y:
        column = {y: (length(y), _ONE)}
    else:
        i, lifts = _descent_step(x, y)
        if lifts:
            column = _kl_column_step(x, y, i)
        else:
            # P_{u,y} = P_{us,y}, and [x, y] is the part of [xs, y] above x
            known = _kl_column(_position_swap(len(x), i)(x), y)
            column = {u: known[u] for u in _above(x, i, known)}
    global _kl_memo_values
    _KL_MEMO[x, y] = column
    _kl_memo_values += len(column)
    return column


def _kl_column_step(x: Perm, y: Perm, i: int) -> dict[Perm, tuple[int, tuple[int, ...]]]:
    """The column of (x, y) from that of (x, v), v = ys, for s = s_{i+1} in
    case A of ``_descent_step``: [x, y] is K and K s for K = [x, v], and
    each s-pair {u < us} in it has u in K. For such u (Kazhdan-Lusztig 1979;
    Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 5.1.7)

        P_{u,y} = q P_{us,v} + P_{u,v} - sum mu(z,v) q^((l(y)-l(z))/2) P_{u,z}

    over z in [u, v] with zs < z, where mu(z, v) is the coefficient of
    q^((l(v)-l(z)-1)/2) in P_{z,v}; and P_{us,y} = P_{u,y}.
    """
    swap = _position_swap(len(y), i)
    v = swap(y)
    known = _kl_column(x, v)
    lv = known[v][0]
    ly = lv + 1
    # the sum, pushed from each z with mu(z, v) != 0 onto the u below it
    sums: dict[Perm, list[int]] = {}
    for z, (lz, pzv) in known.items():
        gap = lv - lz
        if gap % 2 == 0 or z[i] < z[i + 1]:
            continue
        top = (gap - 1) // 2
        mu = pzv[top] if top < len(pzv) else 0
        if not mu:
            continue
        shift = (ly - lz) // 2
        for u, (lu, puz) in _kl_column(x, z).items():
            if u[i] < u[i + 1]:
                acc = sums.get(u)
                if acc is None:
                    acc = sums[u] = [0] * (ly - lu + 1)
                for k, c in enumerate(puz, start=shift):
                    acc[k] -= mu * c
    column = {}
    for u, (lu, puv) in known.items():
        if u[i] > u[i + 1]:
            continue
        us = swap(u)
        d = ly - lu
        coeffs = sums.get(u) or [0] * (d + 1)
        for k, c in enumerate(puv):
            coeffs[k] += c
        entry = known.get(us)
        if entry is not None:
            for k, c in enumerate(entry[1], start=1):
                coeffs[k] += c
        # the bound at us, one length closer to y, is the stricter one
        p = _checked(coeffs, d - 1)
        column[u] = _KL_ENTRIES.setdefault((lu, p), (lu, p))
        column[us] = _KL_ENTRIES.setdefault((lu + 1, p), (lu + 1, p))
    return column


def kl_polynomial(x: Perm, y: Perm) -> IntPolynomial:
    """Kazhdan-Lusztig polynomial P_{x,y} by the descent recursion.

    One memoized column per (x, y) holds P_{u,y} for every u in [x, y]. It
    is built by the case analysis of ``interval_elements``, so only x <= y
    goes through ``bruhat_leq``. Each new entry must satisfy deg P_{u,y} <=
    (length(y) - length(u) - 1)/2 and P_{u,y}(0) = 1, or the call raises
    AssertionError; ``verify kl_inversion`` re-checks the defining relation.
    """
    global _kl_memo_values
    if _kl_memo_values > _KL_MEMO_CAP:
        _KL_MEMO.clear()
        _KL_ENTRIES.clear()
        _kl_memo_values = 0
    if len(x) != len(y):
        raise ValueError("degree mismatch")
    if x == y:
        return one()
    if not bruhat_leq(x, y):
        return zero()
    return IntPolynomial(_kl_column(x, y)[x][1])


def carrell_holds(interval: BruhatInterval) -> bool:
    """Carrell-Peterson reflection count on [x, y]: for every w in it, the
    number of transpositions t with w < w t in [x, y] equals length(y) -
    length(w). By Carrell-Peterson and monotonicity of KL polynomials
    (Braden-MacPherson) this holds iff P_{x,y} = 1; ``verify kl_carrell``
    re-checks that on every pair of S_n.

    The sets {t w} and {w t} agree, and w < w t for t swapping positions
    i < j iff w[i] < w[j]. Such a w t lies above w >= x, so w t <= y iff it
    is a member. Only the position pairs of ``interval.swaps`` are tried,
    and lengths are the ones the interval carries."""
    members = set(interval.elements)
    top = interval.lengths[-1]
    swaps = interval.swaps
    for w, lw in zip(interval.elements, interval.lengths):
        row = list(w)
        count = 0
        for i, j in swaps:
            wi, wj = w[i], w[j]
            if wi < wj:
                row[i], row[j] = wj, wi
                count += tuple(row) in members
                row[i], row[j] = wi, wj
        if count != top - lw:
            return False
    return True


def carrell_condition(x: Perm, y: Perm) -> bool:
    """``carrell_holds`` on [x, y]; raises ValueError unless x <= y."""
    return carrell_holds(_cached_interval(x, y))
