"""The benchmark's four workloads and the checker for their results.

Each workload is one closed loop with a single caller: every op starts when
the previous one has returned.  ``Pass.call`` times one op, reduces its
outcome to a small summary right away and keeps only the summary, so the
pass holds no results the program itself would not hold (``Pass.each``
keeps one chunk of the counting grid until the chunk is digested).

A summary has two parts.  The invariant part does not change when a
design's points are relabelled (counts, size histograms, types, canonical
codes, O'Nan presence).  The extra part is the labelling-dependent rest
(block lists, witnesses, CLI stdout bytes).  Seed 0 runs the builtin
labelling and is checked on both parts; any other seed relabels every
design and is checked on the invariant part only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import ceil, floor, isqrt
from time import perf_counter

import steiner_ekr as se
from steiner_ekr import cli

# Same statement as the installed ``steiner-ekr`` console script.
CLI_ENTRY = "import sys; from steiner_ekr.cli import main; sys.exit(main())"


# -- one pass ----------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def canonical(value) -> str:
    """JSON text that is equal for equal summaries (tuples read as lists)."""
    return json.dumps(value, sort_keys=True)


def describe(outcome, summary):
    """(invariant, extra) summary of an op's outcome; a raised error is an outcome too."""
    if isinstance(outcome, Exception):
        return {"raised": type(outcome).__name__, "count": getattr(outcome, "count", None)}, None
    try:
        return summary(outcome)
    except Exception as exc:  # an outcome of the wrong shape is a failed op, not a crash
        return {"unreadable": f"{type(exc).__name__}: {exc}"}, None


class Pass:
    """One pass of a workload: timed ops, their summaries, and extra checks."""

    def __init__(self, seed: int, tracer=None, pacer=None):
        self.seed = seed
        self.tracer = tracer
        self.pacer = pacer  # calib.Pacer: host-speed reference samples
        self.clock = perf_counter if pacer is None else pacer.clock
        self.rng = random.Random(seed)
        self.latencies: list[float] = []
        self.results: dict[str, list] = {}  # key -> [invariant, extra]
        self.ops: Counter = Counter()  # key -> ops run under it
        self.oracles: dict[str, object] = {}  # key -> thunk giving the expected [invariant, extra]
        self.checks: dict[str, bool] = {}

    @property
    def exact(self) -> bool:
        return self.seed == 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def call(self, key: str, summary, fn, *args, oracle=None):
        with self.span("bench." + key):
            t0 = self.clock()
            try:
                outcome = fn(*args)
            except Exception as exc:
                outcome = exc
            self.latencies.append(self.clock() - t0)
        self.tick()
        self.results[key] = list(describe(outcome, summary))
        self.ops[key] += 1
        if oracle is not None:
            self.oracles[key] = oracle
        return outcome

    def each(self, key: str, summary, fn, arg_list) -> list:
        """One op per argument tuple, all checked together through one digest."""
        outcomes = []
        for args in arg_list:
            with self.span("bench." + key):
                t0 = self.clock()
                try:
                    outcome = fn(*args)
                except Exception as exc:
                    outcome = exc
                self.latencies.append(self.clock() - t0)
            self.tick()
            outcomes.append(outcome)
        parts = list(zip(*(describe(o, summary) for o in outcomes)))
        self.results[key] = [_digest(parts[0]), _digest(parts[1])]
        self.ops[key] += len(outcomes)
        return outcomes

    def tick(self) -> None:
        if self.pacer is not None:
            self.pacer.tick()

    def check(self, key: str, ok: bool) -> None:
        self.checks[key] = bool(ok)

    def expected(self) -> dict:
        """The summaries of this pass in the golden file's layout."""
        return {k: v for k, v in self.results.items() if k not in self.oracles}

    def verdict(self, golden: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, failing keys) against golden summaries and oracles.

        Every op of a key whose summary differs counts as failed, so one
        wrong digest over the counting grid fails all the calls behind it.
        """
        attempted = sum(self.ops.values()) + len(self.checks)
        failed = 0
        bad: list[str] = []
        for key, (inv, extra) in self.results.items():
            try:
                want = self.oracles[key]() if key in self.oracles else golden.get(key)
            except (ValueError, ArithmeticError):
                want = None
            ok = want is not None and canonical(inv) == canonical(want[0])
            if ok and self.exact:
                ok = canonical(extra) == canonical(want[1])
            if not ok:
                failed += self.ops[key]
                bad.append(key)
        for key, ok in self.checks.items():
            if not ok:
                failed += 1
                bad.append(key)
        return attempted, failed, bad


# -- seeded inputs -----------------------------------------------------------


def relabel(design, rng: random.Random):
    """The design with its points permuted by ``rng``; same blocks as point sets."""
    perm = list(range(design.v))
    rng.shuffle(perm)
    blocks = [tuple(sorted(perm[p] for p in block)) for block in design.blocks]
    return se.Design(design.v, design.k, blocks, name=design.name)


def _build(p: Pass, key: str, maker, arg):
    """Build op for a builtin design, relabelled outside the op when the seed asks."""
    design = p.call(key, _design_summary, maker, arg)
    if p.exact or isinstance(design, Exception):
        return design
    with p.span("designs.Design"):
        return relabel(design, p.rng)


# -- summaries ---------------------------------------------------------------


def _design_summary(d):
    return {"v": d.v, "k": d.k, "b": d.b}, {"blocks": _digest(d.blocks)}


def _onan_summary(w):
    return {"found": w is not None}, {"blocks": list(w) if w else None}


def _families_summary(fams):
    sizes = Counter(len(f) for f in fams)
    hist = {str(s): sizes[s] for s in sorted(sizes, reverse=True)}
    return {"count": len(fams), "sizes": hist}, {"families": _digest([f.indices() for f in fams])}


def _types_summary(types):
    rows = [
        [t.label, t.size, count, t.profile.covered, list(t.profile.k_hist), t.profile.k_s, t.code]
        for t, count in types
    ]
    return rows, None


def _onan_free_summary(v):
    ce = None if v.counterexample is None else len(v.counterexample)
    return {
        "confirmed": v.confirmed,
        "pencils": v.pencil_count,
        "triangles": v.triangle_count,
        "note": v.note,
        "counterexample": ce,
    }, None


def _max_summary(fam):
    return {"size": len(fam)}, {"blocks": list(fam.indices())}


def _sizes_summary(sizes):
    return {str(s): c for s, c in sizes.items()}, None


def _report_summary(r):
    return [f"{r.value.numerator}/{r.value.denominator}", r.floor_value, r.active_branch], None


def _cert_summary(c):
    return {"certified": c.certified, "total_cases": c.total_cases, "failures": len(c.failures)}, None


def _floor_summary(r):
    return r.floor_value, None


def _value_summary(x):
    return x, None


# -- census-deep -------------------------------------------------------------

# Large, highly symmetric families: 40 pencils and 40 plane line sets of
# PG(3,3), then the 28 pencils of the O'Nan-free unital of order 3, which
# also takes the classify_onan_free path.  The unital of order 4 at min_size
# 16 (65 pencils, about 14 s) is left out: a pass must be short enough for
# several to fit in one run on a noisy host.  Builders are named, not bound,
# so that a traced pass calls them through the package attribute the tracer
# wraps.
DEEP = (("pg3_line_design", "pg3", 3, 13), ("hermitian_unital", "unital", 3, 9))


def census_deep(p: Pass) -> None:
    for maker, name, arg, min_size in DEEP:
        tag = f"{name}:{arg}"
        design = _build(p, f"{tag}:build", getattr(se, maker), arg)
        witness = p.call(f"{tag}:onan", _onan_summary, se.find_onan, design)
        fams = p.call(
            f"{tag}:enumerate", _families_summary, lambda d=design, m=min_size: se.enumerate_maximal_ekr(d, min_size=m)
        )
        p.call(f"{tag}:classify", _types_summary, se.classify, design, fams)
        if witness is None:
            p.call(f"{tag}:onan-free", _onan_free_summary, se.classify_onan_free, design, fams)


# -- stream ------------------------------------------------------------------

# Enumeration, the O'Nan scan and materialisation, with no canonical labelling.
STREAM_CENSUS = (("hermitian_unital", "unital", 4), ("affine_plane", "affine", 5))
BUDGET_CAP = 10


def stream(p: Pass) -> None:
    design = _build(p, "unital:5:build", se.hermitian_unital, 5)
    p.call("unital:5:onan", _onan_summary, se.find_onan, design)
    p.call("unital:5:max-size", _max_summary, se.max_ekr_size, design)
    w1 = p.call("unital:5:sizes-w1", _sizes_summary, lambda: se.maximal_family_sizes(design, workers=1))
    w2 = p.call("unital:5:sizes-w2", _sizes_summary, lambda: se.maximal_family_sizes(design, workers=2))
    p.check("unital:5:sizes-w1==w2", w1 == w2 and not isinstance(w1, Exception))
    p.call(
        "unital:5:budget",
        _families_summary,
        lambda: se.enumerate_maximal_ekr(design, max_count=BUDGET_CAP),
    )
    for maker, name, arg in STREAM_CENSUS:
        d = _build(p, f"{name}:{arg}:build", getattr(se, maker), arg)
        p.call(f"{name}:{arg}:sizes", _sizes_summary, se.maximal_family_sizes, d)


# -- exact -------------------------------------------------------------------

# k = 3..12 is 15,050 calls; the full k = 3..20 grid (100,506 calls, about
# 8 s) would leave room for a single pass per run.
GRID_K = range(3, 13)
MOMENT_CASE = (3, 7, 0, 7)  # (l, a, b, r) for certify_moment_inequality

# The magnitude ladder stops where the seed code stops answering in time:
# unital_second_max_bound(10**11) takes about 148 s in its one-integer floor
# walk (10**10 takes about 1.5 s), and surd_floor(SurdExpr(0, 10**30, 2))
# does not return.  Extend the ladder once the floors are fixed.
LADDER_Q = range(5, 200)
LADDER_Q_TOP = 10**10
LADDER_Q_DECADES = range(3, 10)  # seeded decades 10^2..10^9 below the top
LOCATE_K_TOP = 10**5
LOCATE_K_DECADES = range(3, 5)  # seeded decades below the top
SURD_EXPONENTS = range(1, 25)


def ladder(p: Pass, decades, top: int) -> list[int]:
    """10^e per decade at seed 0, else one seeded value in (10^(e-1), 10^e]; then the top rung."""
    if p.exact:
        return [10**e for e in decades] + [top]
    return [p.rng.randrange(10 ** (e - 1) + 1, 10**e + 1) for e in decades] + [top]


def grid_args(k: int) -> list[tuple[int, int, int]]:
    """(k, deficit, excess) over deficit -k..k^2 and excess 0..k."""
    return [(k, deficit, b) for deficit in range(-k, k * k + 1) for b in range(k + 1)]


def exact(p: Pass) -> None:
    for k in GRID_K:
        cells = grid_args(k)
        plain = p.each(
            f"grid:counting:k={k}",
            _report_summary,
            se.counting_bound,
            [(k, (k - 1) ** 2 - deficit, b) for _, deficit, b in cells],
        )
        deficit = p.each(f"grid:deficit:k={k}", _report_summary, se.counting_bound_deficit, cells)
        p.check(
            f"grid:agree:k={k}",
            all(getattr(a, "value", a) == getattr(b, "value", b) for a, b in zip(plain, deficit)),
        )
    p.call("sweep:deficit-grid", _cert_summary, se.sweep_deficit_grid, "all")
    p.call("sweep:large-k", _cert_summary, se.sweep_large_k, 50)
    p.call("sweep:moments", _cert_summary, se.certify_moment_inequality, *MOMENT_CASE)
    for q in [*LADDER_Q, *ladder(p, LADDER_Q_DECADES, LADDER_Q_TOP)]:
        p.call(
            f"ladder:unital-second:q={q}",
            _floor_summary,
            se.unital_second_max_bound,
            q,
            oracle=lambda q=q: (unital_second_floor(q), None),
        )
    for k in ladder(p, LOCATE_K_DECADES, LOCATE_K_TOP):
        p.call(
            f"ladder:locate:k={k}",
            _value_summary,
            se.locate_deficit_interval,
            k,
            k // 2,
            oracle=lambda k=k: (window_index(k, k // 2), None),
        )
    for e in SURD_EXPONENTS:
        p.call(
            f"ladder:surd-floor:e={e}",
            _value_summary,
            se.surd_floor,
            se.SurdExpr(0, 10**e, 2),
            oracle=lambda e=e: (isqrt(2 * 10 ** (2 * e)), None),
        )


# -- independent integer oracles for the ladder -------------------------------


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for n >= 0 by integer Newton steps."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def unital_second_floor(q: int) -> int:
    """floor(q^2 - q + 1 + t^2 - 2t/3) with t = q^(1/3), for q >= 5.

    t is bracketed between consecutive multiples of 2^-bits; the expression
    increases in t past 1/3, so equal floors at both ends decide it.
    """
    bits = 64
    while True:
        root = icbrt(q << (3 * bits))
        lo, hi = Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)
        g_lo = lo * lo - Fraction(2, 3) * lo
        g_hi = hi * hi - Fraction(2, 3) * hi
        if floor(g_lo) == ceil(g_hi) - 1:
            return q * q - q + 1 + floor(g_lo)
        bits *= 2


def window_index(k: int, deficit: int) -> int:
    """Index of the deficit window holding ``deficit``, in closed form.

    deficit >= lo(I_c) reduces to c <= (deficit^2 - deficit) / (k - 1 - deficit),
    so the window is the floor of that ratio.  Only deficits whose window lies
    well inside the admissible range 1..C_k are answered.
    """
    if deficit * deficit < k - 1:
        return 0
    if not 0 < deficit < k - 1:
        raise ValueError("deficit outside the range the closed form covers")
    c = (deficit * deficit - deficit) // (k - 1 - deficit)
    # C_k = (4k/3 - 2) sqrt(k) - 2k is at least (4k/3 - 2) isqrt(k) - 2k
    if 3 * c > (4 * k - 6) * isqrt(k) - 6 * k:
        raise ValueError("window index beyond the range the closed form certifies")
    return c


# -- census-cli --------------------------------------------------------------

BUILDERS = {
    "affine": "affine_plane",
    "kgraph": "complete_graph",
    "pg3": "pg3_line_design",
    "projective": "projective_plane",
    "sts13": "sts13",
    "unital": "hermitian_unital",
}

CLASSIFY_SPECS = (
    "unital:3",
    *(f"kgraph:{v}" for v in range(4, 13)),
    "sts13:1",
    "sts13:2",
    "pg3:2",
    "affine:3",
    "affine:4",
    "projective:2",
    "projective:3",
)

CLI_ARGVS = (
    *(("classify", "--design", spec, "--format", "json") for spec in CLASSIFY_SPECS),
    ("enumerate", "--design", "unital:3", "--size-only"),
    ("enumerate", "--design", "affine:4", "--size-only", "--format", "csv"),
    ("enumerate", "--design", "pg3:2", "--size-only"),
    ("onan", "--design", "projective:2"),
    ("onan", "--design", "unital:3", "--format", "csv"),
    ("max-size", "--design", "pg3:2"),
    ("max-size", "--design", "sts13:1", "--format", "csv"),
    ("max-size", "--design", "unital:3"),
    ("bound", "--formula", "counting", "--k", "3", "--r", "6", "--excess", "1"),
    ("bound", "--formula", "counting-deficit", "--k", "5", "--deficit", "2", "--excess", "3", "--format", "json"),
    ("bound", "--formula", "multiplicity-cap", "--k", "4", "--max-mult", "3"),
    ("bound", "--formula", "cover-range", "--k", "5", "--shortfall", "2", "--format", "csv"),
    ("bound", "--formula", "replication", "--k", "3", "--r", "7"),
    ("bound", "--formula", "near-extremal", "--k", "4", "--r", "9", "--format", "json"),
    ("bound", "--formula", "unital-counting", "--q", "4", "--excess", "2"),
    ("bound", "--formula", "unital-second", "--q", "27", "--format", "json"),
    ("bound", "--formula", "pencil-uniqueness", "--k", "3", "--v", "19"),
    ("bound", "--formula", "discriminant", "--k", "14", "--excess", "3"),
    ("sweep", "--check", "deficit-grid", "--k", "all", "--format", "json"),
    ("sweep", "--check", "large-k", "--k-max", "50"),
    ("sweep", "--check", "moments", "--l", "2", "--a", "2", "--excess", "1", "--r", "6"),
)


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_view(argv, stdout: str):
    """The part of a verb's stdout that survives relabelling the design's points."""
    verb = argv[0]
    csv = "csv" in argv
    lines = stdout.splitlines()
    if verb == "classify":
        report = json.loads(stdout)
        design = {k: v for k, v in report["design"].items() if k != "source"}
        types = [{k: v for k, v in t.items() if k != "witness"} for t in report["types"]]
        return {"design": design, "family_count": report["family_count"], "types": types}
    if verb == "onan":
        return {"found": lines[1].startswith("true") if csv else not lines[0].endswith("none")}
    if verb == "max-size":
        return {"size": lines[1].split(",")[0] if csv else lines[0]}
    return stdout  # enumerate --size-only, bound and sweep do not name blocks or points


def cli_summary(argv):
    def summary(outcome):
        rc, out, err = outcome
        view = cli_view(argv, out) if rc == 0 else None
        return {"rc": rc, "stderr": err, "view": view}, {"stdout": out}

    return summary


def cli_argvs(p: Pass, workdir: str | None) -> list[tuple[str, ...]]:
    """The argv list as run: builtin specs at seed 0, relabelled design files otherwise.

    The files are written here, before the loop starts, so writing them is
    input generation and not part of any op.
    """
    out = []
    for argv in CLI_ARGVS:
        if p.exact or "--design" not in argv:
            out.append(argv)
            continue
        at = argv.index("--design") + 1
        spec = argv[at]
        path = os.path.join(workdir, spec.replace(":", "-") + ".txt")
        if not os.path.exists(path):
            name, _, arg = spec.partition(":")
            se.save_design(relabel(getattr(se, BUILDERS[name])(int(arg)), p.rng), path)
        out.append((*argv[:at], f"file:{path}", *argv[at + 1 :]))
    return out


def run_subprocess(argv, env) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *argv], env=env, capture_output=True, text=True, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def census_cli(p: Pass, argvs, corpus: dict, env=None) -> None:
    """One CLI invocation per argv: subprocesses when ``env`` is given, else in-process."""
    for original, argv in zip(CLI_ARGVS, argvs):
        key = cli_key(original)
        golden = corpus.get(key)
        fn = (lambda a=argv: run_subprocess(a, env)) if env is not None else (lambda a=argv: run_inprocess(a))
        p.call(key, cli_summary(original), fn, oracle=lambda o=original, g=golden: cli_expected(o, g))


def cli_expected(argv, stdout: str | None):
    """Expected [invariant, extra] summary of one invocation, from the recorded stdout."""
    if stdout is None:
        return None
    return {"rc": 0, "stderr": "", "view": cli_view(argv, stdout)}, {"stdout": stdout}
