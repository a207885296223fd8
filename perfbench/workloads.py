"""The benchmark's workloads: seeded inputs, timed calls and output gates.

Every workload is a closed loop with one client: a single process issues its
calls serially, each after the previous one returned. Only the calls into
``odd_diagrams`` are timed; the gates that check their outputs are not.

Why these four: each layer a later change is likely to optimise dominates one
workload and is absent from another. The KL engine is heavy in ``kl_lower``,
medium in ``report`` and absent from ``census``; the class table is heavy in
``census`` and absent from ``kl_lower``; the scanning ``class_of`` is heavy in
``queries`` and absent from ``census``; self-duality and Hasse edges are heavy
in ``census`` and absent from ``kl_lower``.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import tempfile
import time
from itertools import permutations

# Full-size parameters. census and report take no random input, so their
# seed changes nothing; kl_lower and queries draw their permutations from it.
FULL = {
    # the CLI census over S_7, six calls a repeat: 2041 classes, none of them
    # non-self-dual. S_9 takes ~40 s and S_8 ~6 s in one call, too long to
    # repeat in a run; short calls also let the speed samples between them
    # (see REFERENCE_PASS_S) follow the host closely
    "census": {"n": 7, "calls": 6, "expect": "classes: 2041, non-self-dual: 0"},
    # the JSON class report of S_7, every class checked
    "report": {"n": 7, "classes": 2041},
    # lower intervals [e, w] in S_6: a seeded quarter of the w of each length
    # 1..7. The cost of a cold KL computation varies widely between w, even of
    # one length, so a small sample would make the run time depend on the
    # seed; sampling a fixed share of every length keeps the work steady
    "kl_lower": {"n": 6, "lengths": list(range(1, 8)), "share": 0.25},
    # seeded point lookups in S_9 plus the golden classes of the paper
    "queries": {"n": 9, "count": 2, "golden": ["5431627", "654172839"]},
}

# Criteria 3 and 4: the golden classes in S_7 and S_9, keyed by their minimum.
GOLDEN = {
    "5431627": {
        "max": "7461523",
        "size": 18,
        "rank_vector": [1, 3, 5, 5, 3, 1],
        "factors": [3, 3, 2],
        "k": 3,
        "anchors": [3, 5, 7],
        "block_size": 6,
    },
    "654172839": {
        "max": "958172634",
        "k": 4,
        "anchors": [3, 5, 7, 9],
        "u_chain": ["654172839", "657142839", "657182439", "657182934"],
    },
}


class GateFailure(Exception):
    """An output of the program differs from what the workload expects."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


# The host this benchmark was tuned on (a shared 2-core VM) changes speed by
# up to 2x within seconds and stays slow or fast for minutes, which spread the
# median raw wall time of ten runs by up to 30 % (quartile spread). So an
# untraced repeat samples the host's speed with reference_pass_s right after
# set-up and after each operation, and scales the operation's wall time to a
# host on which one reference pass takes REFERENCE_PASS_S (its typical time on
# the tuning host). This about halved that spread in trials.
REFERENCE_PASS_S = 0.008
FIRST_SAMPLE_S = 0.2
# a sample after an operation lasts this share of the operation, within bounds
SAMPLE_SHARE, MAX_SAMPLE_S = 0.1, 0.2


class Session:
    """Times calls into the package and counts gated operations.

    ``pass_s`` is the reference pass time sampled before the first
    operation, or None to skip sampling (traced repeats).
    """

    def __init__(self, cli, pass_s=None):
        self.cli_module = cli
        self.pass_s = pass_s
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall_s += time.perf_counter() - start
            # ru_maxrss only grows; reading it here leaves the gates' own
            # allocations out of the workload's peak
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def cli(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.timed(self.cli_module.run, list(argv))
        return code, out.getvalue() + err.getvalue()

    def op(self, label: str, body) -> None:
        """One operation: its calls and gate. A raise or a failed gate fails it."""
        self.attempted += 1
        wall_before = self.wall_s
        try:
            body()
        except Exception as exc:  # any exception from the program is a failed operation
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        if self.pass_s is not None:
            op_s = self.wall_s - wall_before
            after = reference_pass_s(min(MAX_SAMPLE_S, SAMPLE_SHARE * op_s))
            self.scaled_wall_s += op_s * REFERENCE_PASS_S / ((self.pass_s + after) / 2)
            self.pass_s = after


# --- the benchmark's own oracles, independent of the package -------------


def inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def odd_diagram(w) -> frozenset:
    """Boxes (i, j) with w(i) > j, i < w^-1(j) and i - w^-1(j) odd."""
    pos = {x: p for p, x in enumerate(w, start=1)}
    return frozenset(
        (i, j)
        for i, wi in enumerate(w, start=1)
        for j in range(1, wi)
        if i < pos[j] and (pos[j] - i) % 2 == 1
    )


def expand(lengths) -> list[int]:
    """Coefficients of the product of [m]_t = 1 + t + ... + t^(m-1)."""
    poly = [1]
    for m in lengths:
        out = [0] * (len(poly) + m - 1)
        for i, c in enumerate(poly):
            for j in range(m):
                out[i + j] += c
        poly = out
    return poly


def parse_poly(text: str) -> list[int]:
    """Coefficients of a polynomial printed by ``IntPolynomial.pretty('t')``."""
    coeffs: list[int] = []
    for term in text.strip().replace("-", "+-").split("+"):
        if not term:
            continue
        if "t" in term:
            head, power = term.split("t")
            degree = int(power[1:]) if power else 1
            c = {"": 1, "-": -1}.get(head)
            c = int(head) if c is None else c
        else:
            degree, c = 0, int(term)
        coeffs.extend([0] * (degree + 1 - len(coeffs)))
        coeffs[degree] += c
    return coeffs


def fmt(w) -> str:
    return "".join(str(x) for x in w)


def reference_pass_s(seconds: float) -> float:
    """Mean time of one pass of a fixed pure-Python computation of the
    benchmark's own (odd diagram and length of every w in S_6), repeated for
    at least ``seconds``: how fast the host runs the interpreter right now."""
    start = time.perf_counter()
    passes = 0
    while True:
        for w in permutations(range(1, 7)):
            inversions(w)
            odd_diagram(w)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / passes


# --- inputs --------------------------------------------------------------


def make_inputs(name: str, params: dict, seed: int) -> list:
    """The permutations a workload hands to the program, drawn from the seed."""
    rng = random.Random(seed)
    if name == "kl_lower":
        by_length: dict[int, list] = {}
        for w in permutations(range(1, params["n"] + 1)):
            by_length.setdefault(inversions(w), []).append(w)
        return [w for k in params["lengths"]
                for w in rng.sample(by_length[k],
                                    max(1, round(params["share"] * len(by_length[k]))))]
    if name == "queries":
        n = params["n"]
        drawn = [fmt(rng.sample(range(1, n + 1), n)) for _ in range(params["count"])]
        return drawn + list(params["golden"])
    return []


# --- workloads -----------------------------------------------------------


def run_census(s: Session, od, params: dict, inputs: list, workdir: str) -> None:
    # census keeps no memo between calls, so each call does the work of a
    # fresh invocation
    def body():
        code, out = s.cli("census", "--n", str(params["n"]), "--jobs", "1")
        expect(code == 0 and out.strip() == params["expect"],
               f"exit {code}, output {out.strip()!r}")

    for _ in range(params["calls"]):
        s.op("census", body)


def run_report(s: Session, od, params: dict, inputs: list, workdir: str) -> None:
    n, count = params["n"], params["classes"]

    def body():
        out_dir = tempfile.mkdtemp(dir=workdir)
        try:
            path = os.path.join(out_dir, "classes.json")
            code, out = s.cli("classes", "--n", str(n), "--out", path)
            expect(code == 0 and out.strip() == f"wrote {path} ({count} classes)",
                   f"exit {code}, output {out.strip()!r}")
            with open(path) as fh:
                report = json.load(fh)
        finally:
            shutil.rmtree(out_dir)
        records = report["classes"]
        expect(report["schema"] == 1 and report["n"] == n, "bad report header")
        expect(len(records) == count, f"{len(records)} classes, expected {count}")
        expect(sum(r["size"] for r in records) == math.factorial(n),
               "class sizes do not sum to n!")
        for r in records:
            where = f"class {r['min']}"
            ranks = r["rank_vector"]
            expect(r["size"] == sum(ranks), f"{where}: size != sum(rank_vector)")
            expect(expand(r["factor_lengths"]) == ranks,
                   f"{where}: factors {r['factor_lengths']} do not give {ranks}")
            expect(r["poincare_coeffs"] == ranks, f"{where}: poincare != rank_vector")
            expect(r["kl_is_one"] is True, f"{where}: KL polynomial is not 1")
            expect(r["self_dual"] is True, f"{where}: not self-dual")

    s.op("report", body)


def run_kl_lower(s: Session, od, params: dict, inputs: list, workdir: str) -> None:
    e = tuple(range(1, params["n"] + 1))
    p4231, p3412 = (4, 2, 3, 1), (3, 4, 1, 2)
    for w in inputs:
        def body(w=w):
            kl_one = s.timed(od.kl_polynomial, e, w) == 1
            palindromic = s.timed(od.is_palindromic, s.timed(od.poincare, e, w))
            carrell = s.timed(od.carrell_condition, e, w)
            smooth = s.timed(od.avoids, w, p4231) and s.timed(od.avoids, w, p3412)
            # criterion 9: four equivalent characterisations of smoothness
            expect(smooth == palindromic == kl_one == carrell,
                   f"smooth={smooth} palindromic={palindromic} "
                   f"kl_one={kl_one} carrell={carrell}")

        s.op(f"kl_lower {fmt(w)}", body)


_STEP = re.compile(r"k=(\d+) a=\d+ b=\d+ anchors=\[([\d, ]*)\] m=(\d+)")


def _query(s: Session, text: str) -> None:
    w = tuple(int(c) for c in text)
    code, out = s.cli("class", "--perm", text)
    expect(code == 0, f"class: exit {code}: {out.strip()}")
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    lo, hi = fields["min"], fields["max"]
    members = fields["members"].split()
    ranks = json.loads(fields["rank_vector"])
    size = int(fields["size"])

    # the class against the benchmark's own odd diagram and length
    expect(text in members and lo in members and hi in members,
           "w or an extreme missing from members")
    expect(len(members) == size == sum(ranks), "size, members and rank_vector disagree")
    diagram = odd_diagram(w)
    perms = [tuple(int(c) for c in m) for m in members]
    expect(all(odd_diagram(p) == diagram for p in perms), "members differ in odd diagram")
    base = inversions(perms[members.index(lo)])
    levels = [0] * len(ranks)
    for p in perms:
        levels[inversions(p) - base] += 1
    expect(levels == ranks, f"rank_vector {ranks} != member lengths {levels}")

    code, out = s.cli("factorize", "--interval", lo, hi)
    expect(code == 0, f"factorize: exit {code}: {out.strip()}")
    factors_text, poly_text = out.strip().split(" = ")
    factors = json.loads(factors_text)
    expect(expand(factors) == ranks == parse_poly(poly_text),
           f"factorize {out.strip()!r} != rank_vector {ranks}")

    code, out = s.cli("poincare", "--interval", lo, hi)
    expect(code == 0 and parse_poly(out) == ranks, f"poincare {out.strip()!r} != {ranks}")

    golden = GOLDEN.get(text)
    if golden:
        expect(lo == text and hi == golden["max"], f"golden extremes {lo}, {hi}")
        expect(all(golden[k] == v for k, v in
                   (("size", size), ("rank_vector", ranks), ("factors", factors))
                   if k in golden), "golden class data differ")

    # partition answers "permutations are equal" (exit 2) on a one-member class
    # by design, so it is not asked there
    if size == 1:
        return
    code, out = s.cli("partition", "--interval", lo, hi)
    expect(code == 0, f"partition: exit {code}: {out.strip()}")
    lines = out.strip().splitlines()
    step = _STEP.fullmatch(lines[0])
    expect(step is not None, f"partition header {lines[0]!r}")
    k, anchors, m = int(step[1]), json.loads(f"[{step[2]}]"), int(step[3])
    blocks = [line.split(": ", 1)[1].split() for line in lines[3:]]
    expect(len(blocks) == m == len(anchors), f"{len(blocks)} blocks, m={m}")
    expect(len({len(b) for b in blocks}) == 1, "blocks of unequal size")
    expect(sorted(x for b in blocks for x in b) == sorted(members),
           "blocks do not partition the class")
    if golden:
        u_chain = lines[1].split(": ", 1)[1].replace("[", "").replace("]", "").split()
        expect(k == golden["k"] and anchors == golden["anchors"],
               f"golden step k={k} anchors={anchors}")
        expect(golden.get("block_size", len(blocks[0])) == len(blocks[0]),
               "golden block size")
        expect(golden.get("u_chain", u_chain) == u_chain, f"golden u_chain {u_chain}")


def run_queries(s: Session, od, params: dict, inputs: list, workdir: str) -> None:
    for text in inputs:
        s.op(f"query {text}", lambda text=text: _query(s, text))


RUN = {
    "census": run_census,
    "report": run_report,
    "kl_lower": run_kl_lower,
    "queries": run_queries,
}
