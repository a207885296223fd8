"""Named verification checks over S_n, backing the `verify` CLI command.

Each check exercises a theorem-backed invariant by exhaustive enumeration
over S_n, and is declared once, in its ``CHECKS`` row.  Checks backed by
proved theorems must report failed = 0; open-question probes report their
observations as findings instead.
"""

import time
from itertools import combinations

from . import classes as classes_mod
from . import diagrams, duality, intervals, partition, perms, polynomials
from .perms import Record

__all__ = ["CheckResult", "VerificationReport", "CHECKS", "select_checks", "run_checks"]


class CheckResult(Record):
    """One check's counts, one for each case of S_n it tries, and its
    findings, which the check records, and the seconds it took, which
    ``run_checks`` sets once the check returns."""

    _fields = ("name", "passed", "failed", "findings", "wall_time")

    def __init__(self, name: str, passed: int = 0, failed: int = 0,
                 findings: list | None = None, wall_time: float = 0.0):
        self.name = name
        self.passed = passed
        self.failed = failed
        self.findings = [] if findings is None else findings
        self.wall_time = wall_time

    def record(self, ok: bool, finding=None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if finding is not None and len(self.findings) < 20:
                self.findings.append(finding)


class VerificationReport(Record):
    _fields = ("n", "checks", "wall_time")

    def __init__(self, n: int, checks: list[CheckResult], wall_time: float):
        self.n = n
        self.checks = checks
        self.wall_time = wall_time

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 3,
            "n": self.n,
            "wall_time": self.wall_time,
            "checks": [{field: getattr(c, field) for field in CheckResult._fields}
                       for c in self.checks],
        }


def check_bruhat_vs_covers(n: int, result: CheckResult) -> None:
    """bruhat_leq agrees with the transitive closure of the cover relation."""
    elems = list(perms.all_perms(n))
    reach = {w: {w} for w in elems}
    by_len = sorted(elems, key=perms.length, reverse=True)
    for w in by_len:
        for z in perms.upward_covers(w):
            reach[w] |= reach[z]
    for u in elems:
        for v in elems:
            result.record(
                perms.bruhat_leq(u, v) == (v in reach[u]),
                {"u": perms.format_perm(u), "v": perms.format_perm(v)},
            )


def check_cover_gradedness(n: int, result: CheckResult) -> None:
    """Covers raise length by exactly 1 via exactly one transposition."""
    for u in perms.all_perms(n):
        lu = perms.length(u)
        for v in perms.upward_covers(u):
            witnesses = [
                t
                for t in combinations(range(1, n + 1), 2)
                if perms.right_transpose(u, t) == v
            ]
            ok = perms.length(v) == lu + 1 and len(witnesses) == 1 and perms.covers(u, v)
            result.record(ok, {"u": perms.format_perm(u), "v": perms.format_perm(v)})


def check_diagram_counts(n: int, result: CheckResult) -> None:
    """|Rothe| = length, |odd| = odd length, odd diagram inside Rothe."""
    for w in perms.all_perms(n):
        rothe = diagrams.rothe_diagram(w)
        odd = diagrams.odd_diagram(w)
        ok = (
            len(rothe) == perms.length(w)
            and len(odd) == diagrams.odd_length(w)
            and set(odd) <= set(rothe)
        )
        result.record(ok, {"w": perms.format_perm(w)})


def check_theorem_b(n: int, result: CheckResult) -> None:
    """Every odd diagram class is the Bruhat interval between its extremes:
    the lifting recursion from its first to its last member gives back its
    members and their carried lengths. So does ``class_interval``, the
    builder from the anchor chain of the ends that ``class_of``, the census
    and the report use."""
    for cls in classes_mod.class_stream(n):
        result.record(intervals.interval_elements(cls.bottom, cls.top) == cls
                      and partition.class_interval(cls.bottom, cls.top) == cls,
                      {"min": perms.format_perm(cls.bottom)})


def check_parity(n: int, result: CheckResult) -> None:
    """Within a class, each value occupies positions of one parity: all
    members have the same set of values at even positions. The classes are
    grouped by ``odd_diagram_key`` over S_n, not read from ``class_stream``,
    which sweeps one such set at a time and would split a class that broke the
    theorem. A key keeps its first member, as bytes, and its even-position bitmask."""
    seen: dict[int, tuple[bytes, int]] = {}
    broken = set()
    for w in perms.all_perms(n):
        key = diagrams.odd_diagram_key(w)
        evens = sum(map((1).__lshift__, w[::2]))
        if seen.setdefault(key, (bytes(w), evens))[1] != evens:
            broken.add(key)
    for key, (first, _) in seen.items():
        result.record(key not in broken, {"min": perms.format_perm(tuple(first))})


def check_legality_sufficiency(n: int, result: CheckResult) -> None:
    """The three-part criterion implies definitional legality.

    Legal transpositions failing the criterion are recorded as findings:
    the criterion is only claimed to be sufficient.
    """
    converse_gaps = 0
    for u in perms.all_perms(n):
        for t in combinations(range(1, n + 1), 2):
            criterion = diagrams.satisfies_legality_criterion(u, t)
            legal = diagrams.is_legal(u, t)
            result.record(
                (not criterion) or legal,
                {"u": perms.format_perm(u), "t": list(t)},
            )
            if legal and not criterion:
                converse_gaps += 1
    if converse_gaps:
        result.findings.append(
            {"legal_but_criterion_false": converse_gaps, "note": "converse probe"}
        )


def check_uniform_partition(n: int, result: CheckResult) -> None:
    """The uniform partition theorem, re-proved here and nowhere else: the
    blocks of ``decompose`` are non-empty and equal in size, each is the
    Bruhat interval between its ends, members and lengths, and together they
    hold each member of [u, v], by the lifting recursion, once and with its
    length; phi maps each member to a cover in the next block, and each
    block's ends to the next block's ends, so the u- and v-chains are the
    anchor transpositions of the class's ends. A ValueError or
    AssertionError is recorded as a failure, with its message."""
    for cls in classes_mod.class_stream(n):
        if len(cls) == 1:
            continue
        finding = {"min": perms.format_perm(cls.bottom)}
        try:
            step, blocks = partition.decompose(cls.bottom, cls.top)
            whole = intervals.interval_elements(cls.bottom, cls.top)
            union = {w: lw for b in blocks for w, lw in zip(b.elements, b.lengths)}
            ok = (len({len(block) for block in blocks}) == 1 and len(blocks[0]) > 0
                  and all(intervals.interval_elements(b.bottom, b.top) == b for b in blocks)
                  and sum(map(len, blocks)) == len(whole)
                  and union == dict(zip(whole.elements, whole.lengths)))
            for i, (block, after) in enumerate(zip(blocks, blocks[1:]), start=1):
                images = [partition.phi(w, step, i) for w in block.elements]
                ok = (ok and all(map(perms.covers, block.elements, images))
                      and all(partition.block_index(x, step) == i + 1 for x in images)
                      and (images[0], images[-1]) == (after.bottom, after.top))
        except (AssertionError, ValueError) as exc:
            ok, finding["error"] = False, str(exc)
        result.record(ok, finding)


def check_factorization(n: int, result: CheckResult) -> None:
    """The product of factorize's factors equals the rank generating function
    of the class the stream hands over, [bottom, top] by ``theorem_b``, and
    that polynomial is palindromic. No interval is built."""
    for cls in classes_mod.class_stream(n):
        direct = polynomials.IntPolynomial(intervals.rank_vector(cls))
        ok = (polynomials.expand_factors(partition.factorize(cls.bottom, cls.top)) == direct
              and polynomials.is_palindromic(direct))
        result.record(ok, {"min": perms.format_perm(cls.bottom)})


def check_rpoly_descent_independence(n: int, result: CheckResult) -> None:
    """R-polynomials do not depend on the chosen descent of y."""
    elems = list(perms.all_perms(n))
    for y in elems:
        ds = sorted(perms.descent_set(y))
        if len(ds) < 2:
            continue
        for x in elems:
            values = {
                polynomials.r_polynomial_choosing(x, y, lambda w, d=d: _pick(w, d)).coeffs
                for d in ds
            }
            result.record(
                len(values) == 1, {"x": perms.format_perm(x), "y": perms.format_perm(y)}
            )


def _pick(w, preferred):
    ds = perms.descent_set(w)
    return preferred if preferred in ds else min(ds)


def check_interval_lifting_vs_filter(n: int, result: CheckResult) -> None:
    """For every pair u <= v of S_n, in lexicographic order, the lifting
    recursion of ``interval_elements`` equals the brute-force filter
    {w : u <= w <= v} by ``bruhat_leq``, members in order, and the lengths it
    carries equal ``perms.length``. Each element's up-set, down-set and
    length are computed once, and each pair's filter intersects two sets."""
    elems = list(perms.all_perms(n))
    up = {u: {w for w in elems if perms.bruhat_leq(u, w)} for u in elems}
    down = {w: {u for u in elems if w in up[u]} for w in elems}
    length = {w: perms.length(w) for w in elems}
    for u in elems:
        for v in sorted(up[u]):
            built = intervals.interval_elements(u, v)
            ok = (built.elements == tuple(sorted(up[u] & down[v]))
                  and built.lengths == tuple(map(length.get, built.elements)))
            result.record(ok, {"u": perms.format_perm(u), "v": perms.format_perm(v)})


def check_top_heavy(n: int, result: CheckResult) -> None:
    """Lower intervals are top-heavy."""
    for w in perms.all_perms(n):
        result.record(duality.top_heavy_check(w), {"w": perms.format_perm(w)})


def check_self_dual_bipartite_agreement(n: int, result: CheckResult) -> None:
    """Probe: self-duality vs the boundary bipartite-graph criterion.

    Disagreements are findings, not failures; the criterion is proved for
    lower intervals only.
    """
    for cls in classes_mod.class_stream(n):
        sd = duality.is_self_dual(cls)
        bc = duality.bipartite_criterion(cls)
        result.record(True)
        if sd != bc:
            result.findings.append(
                {
                    "min": perms.format_perm(cls.bottom),
                    "max": perms.format_perm(cls.top),
                    "self_dual": sd,
                    "bipartite_criterion": bc,
                }
            )


def check_short_intervals_self_dual(n: int, result: CheckResult) -> None:
    """Every interval [u, v] with 1 <= length(v) - length(u) <= 3 is self-dual
    by the full search, which ``is_self_dual`` skips at these ranks. The
    tops v are the elements up to three covers above u."""
    for u in perms.all_perms(n):
        tops, frontier = [], [u]
        for _ in range(3):
            frontier = sorted({z for w in frontier for z in perms.upward_covers(w)})
            tops += frontier
        for v in tops:
            interval = intervals.interval_elements(u, v)
            result.record(
                duality.has_anti_automorphism(interval),
                {"u": perms.format_perm(u), "v": perms.format_perm(v)},
            )


def check_kl_class_probe(n: int, result: CheckResult) -> None:
    """KL polynomial of every odd diagram class equals 1."""
    for cls in classes_mod.class_stream(n):
        p = polynomials.kl_polynomial(cls.bottom, cls.top)
        result.record(p == 1, {"min": perms.format_perm(cls.bottom)})


def check_kl_inversion(n: int, result: CheckResult) -> None:
    """KL polynomials satisfy their defining conditions: for x <= y,
    sum_{z in [x, y]} R_{x,z} P_{z,y} = q^d P_{x,y}(1/q) with
    d = length(y) - length(x), and deg P_{x,y} <= (d - 1)/2 for x < y."""
    e = perms.identity(n)
    for y in perms.all_perms(n):
        below = intervals.interval_elements(e, y).elements
        kl = {z: polynomials.kl_polynomial(z, y) for z in below}
        ly = perms.length(y)
        for x in below:
            p = kl[x]
            d = ly - perms.length(x)
            ok = p == 1 if x == y else 2 * p.degree <= d - 1
            if ok:
                total = polynomials.zero()
                for z in intervals.interval_elements(x, y).elements:
                    total = total + polynomials.r_polynomial(x, z) * kl[z]
                ok = total == p.reversed_to(d)
            result.record(ok, {"x": perms.format_perm(x), "y": perms.format_perm(y)})


def check_kl_carrell(n: int, result: CheckResult) -> None:
    """P_{x,y} = 1 iff [x, y] passes the Carrell-Peterson reflection count,
    for every pair x <= y of S_n (3,781 at n = 5, 394 of them with P_{x,y}
    != 1). The count says P_{u,y} = 1 for every u in [x, y]; by monotonicity
    (Braden-MacPherson) that follows from P_{x,y} = 1, which is how the
    class report reads ``kl_is_one``."""
    e = perms.identity(n)
    for y in perms.all_perms(n):
        for x in intervals.interval_elements(e, y).elements:
            ok = (polynomials.kl_polynomial(x, y) == 1) == polynomials.carrell_condition(x, y)
            result.record(ok, {"x": perms.format_perm(x), "y": perms.format_perm(y)})


def check_class_covers(n: int, result: CheckResult) -> None:
    """The Hasse diagram of every class, built from the position pairs that
    ``BruhatInterval.swaps`` derives from its members, equals the covers
    ``perms.upward_covers`` finds among the same members."""
    for cls in classes_mod.class_stream(n):
        members = set(cls.elements)
        covers = [(x, y) for x in cls.elements
                  for y in sorted(members.intersection(perms.upward_covers(x)))]
        result.record(
            intervals.hasse_edges(cls) == covers,
            {"min": perms.format_perm(cls.bottom), "max": perms.format_perm(cls.top)},
        )


def check_class_shapes(n: int, result: CheckResult) -> None:
    """``classes.class_shape`` keeps the Bruhat order among a class's
    members, and all classes of one shape get the same self-duality search
    and Carrell-Peterson verdicts, the same bipartite-criterion verdict and
    the same rank vector: the facts that let the census and the report
    decide these once per shape. The key they use, ``ends_shape``,
    groups the classes as ``class_shape`` does, and the positions that
    ``pinned_values`` pins are exactly those where all members agree."""
    verdicts: dict = {}
    ends_of: dict = {}  # class_shape -> ends_shape
    shape_of: dict = {}  # ends_shape -> class_shape
    for cls in classes_mod.class_stream(n):
        shape = classes_mod.class_shape(cls.elements)
        ends = classes_mod.ends_shape(cls.bottom, cls.top)
        verdict = (duality.has_anti_automorphism(cls), polynomials.carrell_holds(cls),
                   duality.bipartite_criterion(cls), intervals.rank_vector(cls))
        pinned = classes_mod.pinned_values(cls.bottom, cls.top)
        agree = [len(set(column)) == 1 for column in zip(*cls.elements)]
        pairs = list(zip(cls.elements, shape))
        ok = (verdicts.setdefault(shape, verdict) == verdict and len(shape) == len(cls)
              and ends_of.setdefault(shape, ends) == ends
              and shape_of.setdefault(ends, shape) == shape
              and agree == [bool(pinned >> x & 1) for x in cls.bottom]
              and all(perms.bruhat_leq(u, w) == perms.bruhat_leq(flat_u, flat_w)
                      for u, flat_u in pairs for w, flat_w in pairs))
        result.record(ok, {"min": perms.format_perm(cls.bottom),
                           "max": perms.format_perm(cls.top)})


# Each check's one declaration: its name maps to (check, n-limit). The
# n-limit is the largest n at which the check runs without --long: each
# finishes within about 15 s there on a 2-core host with Python 3.11, and takes
# longer one size up (bruhat_vs_covers also holds memory quadratic in n!).
CHECKS = {
    "bruhat_vs_covers": (check_bruhat_vs_covers, 6),
    "cover_gradedness": (check_cover_gradedness, 8),
    "diagram_counts": (check_diagram_counts, 9),
    "theorem_b": (check_theorem_b, 8),
    "parity": (check_parity, 9),
    "legality_sufficiency": (check_legality_sufficiency, 8),
    "uniform_partition": (check_uniform_partition, 8),
    "factorization": (check_factorization, 8),
    "rpoly_descent_independence": (check_rpoly_descent_independence, 5),
    "interval_lifting_vs_filter": (check_interval_lifting_vs_filter, 5),
    "top_heavy": (check_top_heavy, 7),
    "self_dual_bipartite_agreement": (check_self_dual_bipartite_agreement, 9),
    "short_intervals_self_dual": (check_short_intervals_self_dual, 6),
    "kl_class_probe": (check_kl_class_probe, 8),
    "kl_inversion": (check_kl_inversion, 5),
    "kl_carrell": (check_kl_carrell, 5),
    "class_covers": (check_class_covers, 7),
    "class_shapes": (check_class_shapes, 8),
}


def select_checks(n: int, names=None, allow_large: bool = False) -> list[str]:
    """The names of the checks to run over S_n (default: all). Raises
    ValueError for n < 1, an unknown or repeated name, or, unless
    ``allow_large``, a check asked for above its n-limit in ``CHECKS``."""
    if n < 1:
        raise ValueError("n must be positive")
    names = list(CHECKS) if names is None else names
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"checks named more than once: {repeated}")
    over = [f"{name} (n <= {CHECKS[name][1]})" for name in names if n > CHECKS[name][1]]
    if over and not allow_large:
        raise ValueError(f"n = {n} is above the n-limit of {', '.join(over)}; "
                         "pass --long to run anyway")
    return names


def run_checks(n: int, names=None, allow_large: bool = False) -> VerificationReport:
    """Run the named checks (default: all) over S_n, after ``select_checks``
    has accepted them. Each check records into a ``CheckResult`` of its
    name. Each class check reads ``classes.class_stream(n)``
    itself, so no table of S_n is held, and its findings come in
    parity-block order, then by minimum."""
    names = select_checks(n, names, allow_large)
    start = time.perf_counter()
    results = []
    for name in names:
        check, _ = CHECKS[name]
        result = CheckResult(name)
        check_start = time.perf_counter()
        check(n, result)
        result.wall_time = time.perf_counter() - check_start
        results.append(result)
    return VerificationReport(n, results, time.perf_counter() - start)
