"""Named verification checks over S_n, backing the `verify` CLI command.

Each check exercises a theorem-backed invariant by exhaustive or sampled
enumeration.  Checks backed by proved theorems must report failed = 0;
open-question probes report their observations as findings instead.
"""

import functools
import random
import time
from itertools import combinations

from . import classes as classes_mod
from . import diagrams, duality, intervals, partition, perms, polynomials
from .perms import Record

__all__ = ["CheckResult", "VerificationReport", "CHECKS", "MAX_N", "select_checks", "run_checks"]


class CheckResult(Record):
    """One check's counts and findings, and the seconds it took, which
    ``run_checks`` sets once the check returns."""

    _fields = ("name", "scope", "passed", "failed", "findings", "wall_time")

    def __init__(self, name: str, scope: str, passed: int = 0, failed: int = 0,
                 findings: list | None = None, wall_time: float = 0.0):
        self.name = name
        self.scope = scope  # "exhaustive" | "sampled"
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
            "schema": 2,
            "n": self.n,
            "wall_time": self.wall_time,
            "checks": [
                {
                    "name": c.name,
                    "scope": c.scope,
                    "passed": c.passed,
                    "failed": c.failed,
                    "findings": c.findings,
                    "wall_time": c.wall_time,
                }
                for c in self.checks
            ],
        }


def check_bruhat_vs_covers(n: int, rng, class_table) -> CheckResult:
    """bruhat_leq agrees with the transitive closure of the cover relation."""
    result = CheckResult("bruhat_vs_covers", "exhaustive")
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
    return result


def check_cover_gradedness(n: int, rng, class_table) -> CheckResult:
    """Covers raise length by exactly 1 via exactly one transposition."""
    result = CheckResult("cover_gradedness", "exhaustive")
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
    return result


def check_diagram_counts(n: int, rng, class_table) -> CheckResult:
    """|Rothe| = length, |odd| = odd length, odd diagram inside Rothe."""
    result = CheckResult("diagram_counts", "exhaustive")
    for w in perms.all_perms(n):
        rothe = diagrams.rothe_diagram(w)
        odd = diagrams.odd_diagram(w)
        ok = (
            len(rothe) == perms.length(w)
            and len(odd) == diagrams.odd_length(w)
            and set(odd) <= set(rothe)
        )
        result.record(ok, {"w": perms.format_perm(w)})
    return result


def check_theorem_b(n: int, rng, class_table) -> CheckResult:
    """Every odd diagram class is the Bruhat interval between its extremes."""
    result = CheckResult("theorem_b", "exhaustive")
    for cls in class_table():
        try:
            classes_mod.class_extremes(cls)
            result.record(True)
        except AssertionError:
            result.record(False, {"min": perms.format_perm(cls.min_elem)})
    return result


def check_parity(n: int, rng, class_table) -> CheckResult:
    """Within a class, each value occupies positions of one parity: all
    members have the same set of values at even positions. The classes are
    grouped here by ``odd_diagram_key`` over S_n, not taken from the class
    table, which is built one such set at a time and so would split a class
    that broke the theorem instead of failing it."""
    result = CheckResult("parity", "exhaustive")
    groups: dict[int, list] = {}
    for w in perms.all_perms(n):
        groups.setdefault(diagrams.odd_diagram_key(w), []).append(w)
    for members in groups.values():
        ok = len({frozenset(w[::2]) for w in members}) == 1
        result.record(ok, {"min": perms.format_perm(members[0])})
    return result


def check_legality_sufficiency(n: int, rng, class_table) -> CheckResult:
    """The three-part criterion implies definitional legality.

    Legal transpositions failing the criterion are recorded as findings:
    the criterion is only claimed to be sufficient.
    """
    result = CheckResult("legality_sufficiency", "exhaustive")
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
    return result


def check_uniform_partition(n: int, rng, class_table) -> CheckResult:
    """Blocks are equal-sized intervals; phi maps each member to a cover."""
    result = CheckResult("uniform_partition", "exhaustive")
    for cls in class_table():
        if len(cls.members) == 1:
            continue
        try:
            decomp = partition.decompose(cls.min_elem, cls.max_elem)
        except AssertionError as exc:
            result.record(False, {"min": perms.format_perm(cls.min_elem), "error": str(exc)})
            continue
        ok = True
        step = decomp.step
        for i, block in enumerate(decomp.blocks[:-1], start=1):
            for w in block.elements:
                image = partition.phi(w, step, i)
                if not perms.covers(w, image):
                    ok = False
                if partition.block_index(image, step) != i + 1:
                    ok = False
        result.record(ok, {"min": perms.format_perm(cls.min_elem)})
    return result


def check_factorization(n: int, rng, class_table) -> CheckResult:
    """factorize's product equals the enumerated Poincare polynomial and
    that polynomial is palindromic."""
    result = CheckResult("factorization", "exhaustive")
    for cls in class_table():
        outcome = partition.factorize(cls.min_elem, cls.max_elem)
        direct = polynomials.poincare(cls.min_elem, cls.max_elem)
        ok = outcome.product == direct and polynomials.is_palindromic(direct)
        result.record(ok, {"min": perms.format_perm(cls.min_elem)})
    return result


def check_rpoly_descent_independence(n: int, rng, class_table) -> CheckResult:
    """R-polynomials do not depend on the chosen descent of y."""
    result = CheckResult("rpoly_descent_independence", "exhaustive")
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
    return result


def _pick(w, preferred):
    ds = perms.descent_set(w)
    return preferred if preferred in ds else min(ds)


def check_interval_bfs_vs_filter(n: int, rng, class_table, samples: int = 500) -> CheckResult:
    """The lifting recursion of ``interval_elements`` equals the brute-force
    filter, and the lengths it carries equal ``perms.length``."""
    result = CheckResult("interval_bfs_vs_filter", "sampled")
    elems = list(perms.all_perms(n))
    tried = 0
    while tried < samples:
        u, v = rng.choice(elems), rng.choice(elems)
        if not perms.bruhat_leq(u, v):
            continue
        tried += 1
        built = intervals.interval_elements(u, v)
        brute = tuple(
            sorted(w for w in elems if perms.bruhat_leq(u, w) and perms.bruhat_leq(w, v))
        )
        lengths = tuple(map(perms.length, built.elements))
        result.record(built.elements == brute and built.lengths == lengths,
                      {"u": perms.format_perm(u), "v": perms.format_perm(v)})
    return result


def check_top_heavy(n: int, rng, class_table) -> CheckResult:
    """Lower intervals are top-heavy."""
    result = CheckResult("top_heavy", "exhaustive")
    for w in perms.all_perms(n):
        result.record(duality.top_heavy_check(w), {"w": perms.format_perm(w)})
    return result


def check_self_dual_bipartite_agreement(n: int, rng, class_table) -> CheckResult:
    """Probe: self-duality vs the boundary bipartite-graph criterion.

    Disagreements are findings, not failures; the criterion is proved for
    lower intervals only.
    """
    result = CheckResult("self_dual_bipartite_agreement", "exhaustive")
    for cls in class_table():
        interval = cls.interval
        sd = duality.is_self_dual(interval)
        bc = duality.bipartite_criterion(interval)
        result.record(True)
        if sd != bc:
            result.findings.append(
                {
                    "min": perms.format_perm(cls.min_elem),
                    "max": perms.format_perm(cls.max_elem),
                    "self_dual": sd,
                    "bipartite_criterion": bc,
                }
            )
    return result


def check_short_intervals_self_dual(n: int, rng, class_table) -> CheckResult:
    """Every interval [u, v] with 1 <= length(v) - length(u) <= 3 is self-dual
    by the full search, which ``is_self_dual`` skips at these ranks. The
    tops v are the elements up to three covers above u."""
    result = CheckResult("short_intervals_self_dual", "exhaustive")
    for u in perms.all_perms(n):
        tops, frontier = [], [u]
        for _ in range(3):
            frontier = sorted({z for w in frontier for z in perms.upward_covers(w)})
            tops += frontier
        for v in tops:
            interval = intervals.interval_elements(u, v)
            result.record(
                duality._has_anti_automorphism(interval),
                {"u": perms.format_perm(u), "v": perms.format_perm(v)},
            )
    return result


def check_kl_class_probe(n: int, rng, class_table) -> CheckResult:
    """KL polynomial of every odd diagram class equals 1."""
    result = CheckResult("kl_class_probe", "exhaustive")
    for cls in class_table():
        p = polynomials.kl_polynomial(cls.min_elem, cls.max_elem)
        result.record(p == 1, {"min": perms.format_perm(cls.min_elem)})
    return result


def check_kl_inversion(n: int, rng, class_table) -> CheckResult:
    """KL polynomials satisfy their defining conditions: for x <= y,
    sum_{z in [x, y]} R_{x,z} P_{z,y} = q^d P_{x,y}(1/q) with
    d = length(y) - length(x), and deg P_{x,y} <= (d - 1)/2 for x < y."""
    result = CheckResult("kl_inversion", "exhaustive")
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
    return result


def check_kl_carrell(n: int, rng, class_table) -> CheckResult:
    """P_{x,y} = 1 iff [x, y] passes the Carrell-Peterson reflection count,
    for every pair x <= y of S_n (3,781 at n = 5, 394 of them with P_{x,y}
    != 1). The count says P_{u,y} = 1 for every u in [x, y]; by monotonicity
    (Braden-MacPherson) that follows from P_{x,y} = 1, which is how the
    class report reads ``kl_is_one``."""
    result = CheckResult("kl_carrell", "exhaustive")
    e = perms.identity(n)
    for y in perms.all_perms(n):
        for x in intervals.interval_elements(e, y).elements:
            ok = (polynomials.kl_polynomial(x, y) == 1) == polynomials.carrell_condition(x, y)
            result.record(ok, {"x": perms.format_perm(x), "y": perms.format_perm(y)})
    return result


def check_class_covers(n: int, rng, class_table) -> CheckResult:
    """The Hasse diagram of every class, built from the position pairs that
    ``BruhatInterval.swaps`` derives from its members, equals the covers
    ``perms.upward_covers`` finds among the same members."""
    result = CheckResult("class_covers", "exhaustive")
    for cls in class_table():
        members = set(cls.members)
        covers = [(x, y) for x in cls.members
                  for y in sorted(members.intersection(perms.upward_covers(x)))]
        result.record(
            intervals.hasse_edges(cls.interval) == covers,
            {"min": perms.format_perm(cls.min_elem), "max": perms.format_perm(cls.max_elem)},
        )
    return result


def check_class_shapes(n: int, rng, class_table) -> CheckResult:
    """``classes.class_shape`` keeps the Bruhat order among a class's
    members, and all classes of one shape get the same self-duality search
    and Carrell-Peterson verdicts: the facts that let the census and the
    report decide both once per shape."""
    result = CheckResult("class_shapes", "exhaustive")
    verdicts: dict = {}
    for cls in class_table():
        shape = classes_mod.class_shape(cls.members)
        interval = cls.interval
        verdict = (duality._has_anti_automorphism(interval), polynomials.carrell_holds(interval))
        pairs = list(zip(cls.members, shape))
        ok = verdicts.setdefault(shape, verdict) == verdict and len(shape) == len(cls) and all(
            perms.bruhat_leq(u, w) == perms.bruhat_leq(flat_u, flat_w)
            for u, flat_u in pairs for w, flat_w in pairs)
        result.record(ok, {"min": perms.format_perm(cls.min_elem),
                           "max": perms.format_perm(cls.max_elem)})
    return result


CHECKS = {
    "bruhat_vs_covers": check_bruhat_vs_covers,
    "cover_gradedness": check_cover_gradedness,
    "diagram_counts": check_diagram_counts,
    "theorem_b": check_theorem_b,
    "parity": check_parity,
    "legality_sufficiency": check_legality_sufficiency,
    "uniform_partition": check_uniform_partition,
    "factorization": check_factorization,
    "rpoly_descent_independence": check_rpoly_descent_independence,
    "interval_bfs_vs_filter": check_interval_bfs_vs_filter,
    "top_heavy": check_top_heavy,
    "self_dual_bipartite_agreement": check_self_dual_bipartite_agreement,
    "short_intervals_self_dual": check_short_intervals_self_dual,
    "kl_class_probe": check_kl_class_probe,
    "kl_inversion": check_kl_inversion,
    "kl_carrell": check_kl_carrell,
    "class_covers": check_class_covers,
    "class_shapes": check_class_shapes,
}


# The largest n at which each check runs without --long: each finishes
# within about 15 s there on a 2-core host with Python 3.11, and takes longer
# one size up (bruhat_vs_covers also holds memory quadratic in n!).
MAX_N = {
    "bruhat_vs_covers": 6,
    "cover_gradedness": 8,
    "diagram_counts": 9,
    "theorem_b": 8,
    "parity": 9,
    "legality_sufficiency": 8,
    "uniform_partition": 8,
    "factorization": 8,
    "rpoly_descent_independence": 5,
    "interval_bfs_vs_filter": 6,
    "top_heavy": 7,
    "self_dual_bipartite_agreement": 9,
    "short_intervals_self_dual": 6,
    "kl_class_probe": 8,
    "kl_inversion": 5,
    "kl_carrell": 5,
    "class_covers": 7,
    "class_shapes": 8,
}


def select_checks(n: int, names=None, allow_large: bool = False) -> list[str]:
    """The names of the checks to run over S_n (default: all). Raises
    ValueError for n < 1, an unknown or repeated name, or, unless
    ``allow_large``, a check asked for above its ``MAX_N``."""
    if n < 1:
        raise ValueError("n must be positive")
    names = list(CHECKS) if names is None else names
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"checks named more than once: {repeated}")
    over = [f"{name} (n <= {MAX_N[name]})" for name in names if n > MAX_N[name]]
    if over and not allow_large:
        raise ValueError(f"n = {n} is above the n-limit of {', '.join(over)}; "
                         "pass --long to run anyway")
    return names


def run_checks(n: int, names=None, seed: int = 0, allow_large: bool = False) -> VerificationReport:
    """Run the named checks (default: all) over S_n, after ``select_checks``
    has accepted them."""
    names = select_checks(n, names, allow_large)
    rng = random.Random(seed)
    start = time.perf_counter()
    # the class table of S_n, built on first use and shared by the checks
    class_table = functools.cache(lambda: classes_mod.classes_of_sn(n))
    results = []
    for name in names:
        check_start = time.perf_counter()
        result = CHECKS[name](n, rng, class_table)
        # the first check to use the class table pays for building it
        result.wall_time = time.perf_counter() - check_start
        results.append(result)
    return VerificationReport(n, results, time.perf_counter() - start)
