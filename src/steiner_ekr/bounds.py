"""Exact bound formulas, thresholds, and inequality sweeps for intersecting families.

Everything here is evaluated in exact arithmetic: rationals stay rationals,
square roots become SurdExpr comparisons, and a cube-root expression is an
exactnum.CubeRootBound, which takes the sign of its field norm and uses
integer cube roots only for the floor's first guess.  Floors gallop and
bisect on exact sign tests and are certified against consecutive integers,
never by rounding a float.  Sweep functions return certificates listing
every failing case: an empty list is the proof.  Every parameter of a
public function is an int (bool included), and a float or str raises
TypeError, so no inexact value reaches a decision; sweep_deficit_grid also
takes "all".
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import BudgetExceeded, DomainError, Record
from .exactnum import CubeRootBound, SurdExpr, cmp_surd, surd_floor, surd_sign

__all__ = [
    "BoundReport",
    "DEFICIT_CAPS",
    "NearExtremalVerdict",
    "ReplicationVerdict",
    "SweepCertificate",
    "certify_moment_inequality",
    "counting_bound",
    "counting_bound_deficit",
    "cover_range_submax",
    "deficit_cap",
    "deficit_interval",
    "discriminant",
    "locate_deficit_interval",
    "multiplicity_cap_bound",
    "near_extremal_cutoff",
    "near_extremal_threshold",
    "pencil_uniqueness_threshold",
    "replication_threshold",
    "sweep_deficit_grid",
    "sweep_large_k",
    "unital_counting_bound",
    "unital_second_max_bound",
]


class BoundReport(Record):
    """A bound's exact value and its floor.

    active_branch is the counting bound's larger branch (1 or 2); the other
    bounds leave it None.
    """

    __slots__ = _fields = ("value", "floor_value", "active_branch")
    value: object  # Fraction, int, SurdExpr, or CubeRootBound
    floor_value: int
    active_branch: int | None

    def __init__(self, value: object, floor_value: int, active_branch: int | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "floor_value", floor_value)
        object.__setattr__(self, "active_branch", active_branch)


class SweepCertificate(Record):
    """What a sweep covered and every case that failed; certified when none did.

    ranges names the parameter ranges the sweep ran over, total_cases counts
    the cases it checked, and failures holds one tuple per failing case.
    certified is set from failures, so it is not passed in; the fields in
    this order are the CLI's sweep payload.
    """

    __slots__ = _fields = ("ranges", "total_cases", "certified", "failures")
    ranges: dict
    total_cases: int
    certified: bool
    failures: tuple

    def __init__(self, ranges: dict, total_cases: int, failures: tuple = ()):
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "total_cases", total_cases)
        object.__setattr__(self, "certified", not failures)
        object.__setattr__(self, "failures", failures)


class ReplicationVerdict(enum.Enum):
    BOUND_AND_UNIQUENESS = "bound-and-uniqueness"
    BOUND_HOLDS = "bound-holds"
    BELOW = "below"


class NearExtremalVerdict(enum.Enum):
    CLASSIFIED = "classified"
    BOUND_ONLY = "bound-only"
    OUTSIDE = "outside"


# -- single formulas ---------------------------------------------------------


def _ints(**params) -> None:
    """TypeError unless every parameter is an int (bool included); DomainError on a budget < 0."""
    for name, x in params.items():
        if not isinstance(x, int):
            raise TypeError(f"{name} must be an int, not {type(x).__name__}")
    if params.get("budget", 0) < 0:
        raise DomainError(f"the requested budget {params['budget']} is negative")


def multiplicity_cap_bound(k: int, max_mult: int) -> int:
    """Size cap for an intersecting family whose top point multiplicity is max_mult."""
    _ints(k=k, max_mult=max_mult)
    if k < 2:
        raise DomainError("block size must be at least 2")
    if not 1 <= max_mult <= k:
        raise DomainError(f"top multiplicity must lie in 1..{k}")
    return max_mult * k - k + 1


def _counting(k: int, deficit: int, excess: int) -> BoundReport:
    """The two-branch counting bound at r = (k-1)^2 - deficit; a tie keeps branch 1."""
    if k < 3:
        raise DomainError("counting bound needs block size at least 3")
    k, R, b = Fraction(k), Fraction(deficit), Fraction(excess)
    branch1 = (
        k * k - k + 1
        - 2 * (k * k - 3 * k + 1 - R) * (k + R) / (k * (k - 2))
        + b * (b - 1) / ((k - 1) * (k - 2))
        + 2 * (b - 1) * (k - 1 + R) / ((k - 1) * (k - 2))
    )
    branch2 = (
        k - 1 + R + R / (k - 2)
        + b * (b + k * k + R - 2) / (k * (k - 2))
    )
    value, active = (branch2, 2) if branch2 > branch1 else (branch1, 1)
    return BoundReport(value, math.floor(value), active)


def counting_bound(k: int, r: int, excess: int) -> BoundReport:
    """Family size cap from the two-branch counting argument.

    excess is the number of covered points beyond k(k-1).  The k=2
    denominators are a genuine domain edge, not a removable one, so k < 3 is
    rejected outright.
    """
    _ints(k=k, r=r, excess=excess)
    return _counting(k, (k - 1) ** 2 - r, excess)


def counting_bound_deficit(k: int, deficit: int, excess: int) -> BoundReport:
    """The counting bound with r eliminated via r = (k-1)^2 - deficit.

    Negative deficits are allowed; they correspond to r above (k-1)^2.
    Agrees with counting_bound(k, (k-1)^2 - deficit, excess) identically.
    """
    _ints(k=k, deficit=deficit, excess=excess)
    return _counting(k, deficit, excess)


def cover_range_submax(k: int, shortfall: int) -> tuple[Fraction, Fraction]:
    """Covered-point interval when the top multiplicity is k-1.

    shortfall is a' = (k-1)^2 - |family|.  The right endpoint has a pole at
    a' = k-1; the underlying argument only applies below it, so larger values
    are rejected rather than extended.
    """
    _ints(k=k, shortfall=shortfall)
    if k < 3:
        raise DomainError("cover range needs block size at least 3")
    if not 0 <= shortfall < k - 1:
        raise DomainError(f"shortfall must lie in 0..{k - 2}")
    a = Fraction(shortfall)
    lo = Fraction(k * (k - 1))
    hi = lo + (a * a - a) / (k - 1 - a)
    return lo, hi


def _count_vectors(l: int, s1: int, s2: int):
    """Every nonnegative (n_1..n_l) with sum i n_i = s1 and sum i(i-1) n_i = s2.

    Yields (ns, lhs) with ns[i] = n_i (ns[0] unused; one list, updated in
    place) and lhs = sum (i-1) n_i, ordered by (n_l, ..., n_3) ascending.
    n_i is 0 wherever i(i-1) > s2, so the scan runs over n_top..n_3 for the
    largest top <= l with top(top-1) <= s2 and solves for n_2 and n_1.
    Before n_i is chosen, left2[i] and used1[i] are the parts of s2 still free
    and of s1 already taken, and acc[i] is sum_{j>i} (j-1) n_j.
    """
    top = min(l, (math.isqrt(4 * s2 + 1) + 1) // 2)
    ns = [0] * (l + 1)
    size = max(top, 2) + 1
    left2, used1, acc = [s2] * size, [0] * size, [0] * size
    while True:
        rem2 = left2[2]
        n1 = s1 - used1[2] - rem2
        if rem2 % 2 == 0 and n1 >= 0:
            ns[2], ns[1] = rem2 // 2, n1
            yield ns, acc[2] + ns[2]
        # raise the lowest n_i that has room and reset every n_j below it
        i = 3
        while i <= top and (
            ns[i] + 1 > left2[i] // (i * (i - 1)) or used1[i] + i * (ns[i] + 1) > s1
        ):
            i += 1
        if i > top:
            return
        ns[i] += 1
        below = (
            left2[i] - i * (i - 1) * ns[i], used1[i] + i * ns[i], acc[i] + (i - 1) * ns[i]
        )
        for j in range(2, i):
            ns[j] = 0
            left2[j], used1[j], acc[j] = below


def certify_moment_inequality(
    l: int, a: int, b: int, r: int, budget: int = 2_000_000
) -> SweepCertificate:
    """Brute-force the moment inequality over all admissible count vectors.

    Enumerates every nonnegative (n_1..n_l) satisfying the two equality
    constraints (first and second factorial moments fixed by l, a, b, r) and
    checks sum (i-1) n_i <= C(b,2) + (a+2b-2) C(l+1,2) on each.  The
    hypothesis window for a is checked exactly before searching; its lower
    edges lo1 and lo2 are sum_i >= 0 and sum_ii >= 0.  More than budget cases
    raise BudgetExceeded, before the search where it must meet more; a
    negative budget raises DomainError.
    """
    _ints(l=l, a=a, b=b, r=r, budget=budget)
    if l < 2:
        raise DomainError("moment certificate needs l at least 2")
    if b < 0:
        raise DomainError("excess must be nonnegative")
    lo1 = Fraction(-l * (r - l - 1) + 1) - Fraction(b * r, l + 1)
    lo2 = Fraction(-b * (b - 1), (l + 1) * l) - 2 * (b - 1)
    hi = (
        Fraction(r * l - l * l + l - 1, l - 1)
        - Fraction(b * (2 * l * l + 2 * l - r + b - 1), l * l - 1)
    )
    if not max(lo1, lo2) <= a <= hi:
        raise DomainError(
            f"a={a} outside the hypothesis window [{max(lo1, lo2)}, {hi}]"
        )
    s1 = (a - 1) * (l + 1) + b * r + l * (l + 1) * (r - l - 1)
    s2 = b * (b - 1) + l * (l + 1) * (a + 2 * b - 2)
    rhs = Fraction(b * (b - 1), 2) + Fraction((a + 2 * b - 2) * l * (l + 1), 2)
    ranges = {"l": l, "a": a, "b": b, "r": r, "sum_i": s1, "sum_ii": s2}
    # n_i is 0 wherever i(i-1) > s2, so only the first `width` counts can move
    width = min(l, max(2, (math.isqrt(4 * s2 + 1) + 1) // 2))
    # Every in-window input with l <= 60, r <= l + 60 and b <= 7 yields at least
    # width - 1 cases, so a smaller budget is refused before the search
    # allocates its width + 1 counts.
    if width - 1 > budget:
        raise BudgetExceeded(f"moment search passed {budget} cases", count=budget + 1)
    failures: list[tuple] = []
    cases = 0
    for ns, lhs in _count_vectors(width, s1, s2):
        cases += 1
        if cases > budget:
            raise BudgetExceeded(f"moment search passed {budget} cases", count=cases)
        if lhs > rhs:
            failures.append(tuple(ns[1:]) + (0,) * (l - width))
    return SweepCertificate(ranges, cases, tuple(failures))


def replication_threshold(k: int, r: int) -> ReplicationVerdict:
    """Where r sits relative to k^2-k+1, the pencil-optimality threshold."""
    _ints(k=k, r=r)
    if k < 2:
        raise DomainError("block size must be at least 2")
    pivot = k * k - k + 1
    if r > pivot:
        return ReplicationVerdict.BOUND_AND_UNIQUENESS
    if r == pivot:
        return ReplicationVerdict.BOUND_HOLDS
    return ReplicationVerdict.BELOW


def near_extremal_cutoff(k: int) -> SurdExpr:
    """k^2 - 3k + 2 + (3/4) sqrt(k), the lower edge of the classified window.

    The window is set up for k >= 4 only; a smaller k raises DomainError.
    """
    _ints(k=k)
    if k < 4:
        raise DomainError("near-extremal window needs block size at least 4")
    return SurdExpr(k * k - 3 * k + 2, Fraction(3, 4), k)


def near_extremal_threshold(k: int, r: int) -> NearExtremalVerdict:
    """Classification status of designs with r in [k^2-3k+2+(3/4)sqrt(k), k^2-k].

    The window edge is irrational, so membership is decided by exact surd
    comparison.  (r,k)=(8,4) sits inside the window but only the size bound
    holds there, not the uniqueness statement.
    """
    _ints(k=k, r=r)
    cutoff = near_extremal_cutoff(k)
    if r > k * k - k:
        return NearExtremalVerdict.OUTSIDE
    if cmp_surd(SurdExpr.rational(r), cutoff) < 0:
        return NearExtremalVerdict.OUTSIDE
    if (k, r) == (4, 8):
        return NearExtremalVerdict.BOUND_ONLY
    return NearExtremalVerdict.CLASSIFIED


def pencil_uniqueness_threshold(k: int, v: int) -> bool:
    """True when v >= 1 + k^2 (k-1), past which pencils are the unique maxima."""
    _ints(k=k, v=v)
    if k < 2:
        raise DomainError("block size must be at least 2")
    return v >= 1 + k * k * (k - 1)


# -- deficit grid sweep ------------------------------------------------------


def deficit_cap(k: int) -> int:
    """floor(k - 1 - (3/4) sqrt(k)), the deficit cap as a closed form."""
    _ints(k=k)
    return surd_floor(SurdExpr(k - 1, Fraction(-3, 4), k))


# Largest deficit per block size for which the counting bound stays below the
# pencil size over the whole admissible excess grid; sweep_deficit_grid
# certifies each entry and its sharpness.
DEFICIT_CAPS = {k: deficit_cap(k) for k in range(4, 14)}


def sweep_deficit_grid(k) -> SweepCertificate:
    """Certify the counting bound stays under the pencil size across the deficit grid.

    For each deficit R up to the cap deficit_cap(k) and each admissible excess
    b, checks counting_bound_deficit(k, R, b) < (k-1)^2 - R strictly.  Also
    certifies the cap is sharp: at R = cap+1 some b must break the inequality.
    Pass k="all" for the combined certificate over every k in DEFICIT_CAPS.
    """
    if k == "all":
        failures: list[tuple] = []
        cases = 0
        for kk in sorted(DEFICIT_CAPS):
            cert = sweep_deficit_grid(kk)
            cases += cert.total_cases
            failures.extend(cert.failures)
        return SweepCertificate({"k": sorted(DEFICIT_CAPS)}, cases, tuple(failures))
    _ints(k=k)
    if k not in DEFICIT_CAPS:
        raise DomainError(f"no tabulated deficit cap for k={k}")
    cap = DEFICIT_CAPS[k]
    failures = []
    cases = 0

    def excess_top(R: int) -> int:
        return (R * (R - 1)) // (k - 1 - R)

    for R in range(cap + 1):
        for b in range(excess_top(R) + 1):
            cases += 1
            value = counting_bound_deficit(k, R, b).value
            if not value < (k - 1) ** 2 - R:
                failures.append(("bound", k, R, b))
    # sharpness: one deficit past the cap, some admissible excess must fail
    R = cap + 1
    for b in range(excess_top(R) + 1):
        cases += 1
        if counting_bound_deficit(k, R, b).value >= (k - 1) ** 2 - R:
            break
    else:
        failures.append(("sharpness", k, R))
    return SweepCertificate({"k": k, "deficit_cap": cap}, cases, tuple(failures))


# -- large-k surd sweep ------------------------------------------------------


def discriminant(b: int, k: int) -> int:
    """(k^3 - 3k^2 - 2bk + 6k - 2)^2 - 8k(k-1)(b-1)(b-2)."""
    _ints(b=b, k=k)
    lead = k ** 3 - 3 * k * k - 2 * b * k + 6 * k - 2
    return lead * lead - 8 * k * (k - 1) * (b - 1) * (b - 2)


def _window_edge(k: int, c: int) -> SurdExpr:
    """(1 - c + sqrt((c-1)^2 + 4c(k-1))) / 2, the lower edge of I_c for c >= 1."""
    return SurdExpr(Fraction(1 - c, 2), Fraction(1, 2), (c - 1) ** 2 + 4 * c * (k - 1))


def _axis_limit(k: int) -> SurdExpr:
    """C_k = (4/3) k sqrt(k) - 2k - 2 sqrt(k), the top of the admissible c range."""
    return SurdExpr(-2 * k, Fraction(4 * k, 3) - 2, k)


def _c_sampler(k: int) -> tuple[int, ...]:
    """Extremes plus midpoint of 1..floor(C_k)."""
    top = surd_floor(_axis_limit(k))
    return tuple(sorted({1, top // 2, top}))


def sweep_large_k(k_max: int = 50, budget: int = 2_000_000) -> SweepCertificate:
    """Exact surd verification of the two large-k inequalities over k in [14, k_max].

    For each sampled c and b in {0, c}:
      (k^3 - 7k^2 + 10k - 2bk - 2 - sqrt(D(b,k))) / (4(k-1)) < lo(I_c),
    the lower edge of the deficit window I_c, and, once per k, the b = 0 left
    side is negative.  A negative discriminant is recorded as a failure since
    the square root leaves the rationals.  The c grid is a deterministic
    sample; the continuous range is covered by the underlying analytic
    argument, not by this sweep.  The sampled c are 1, top // 2 and top, with
    top = floor(C_k) >= 34 for every k >= 14, so each k costs seven cases
    (three c, two b each, one b = 0 check), and a sweep of more than budget
    cases raises BudgetExceeded before it starts; a negative budget raises
    DomainError.
    """
    _ints(k_max=k_max, budget=budget)
    if k_max < 14:
        raise DomainError("large-k sweep starts at k = 14")
    need = 7 * (k_max - 13)
    if need > budget:
        raise BudgetExceeded(f"large-k sweep needs {need} cases, more than {budget}", count=need)
    failures: list[tuple] = []
    cases = 0
    for k in range(14, k_max + 1):
        denom = 4 * (k - 1)
        for c in _c_sampler(k):
            rhs = _window_edge(k, c)
            for b in (0, c):
                cases += 1
                disc = discriminant(b, k)
                if disc < 0:
                    failures.append(("negative-discriminant", k, b))
                    continue
                lead = Fraction(k ** 3 - 7 * k * k + 10 * k - 2 * b * k - 2, denom)
                if not cmp_surd(SurdExpr(lead, Fraction(-1, denom), disc), rhs) < 0:
                    failures.append(("first", k, c, b))
        cases += 1
        disc0 = discriminant(0, k)
        if disc0 < 0:
            failures.append(("negative-discriminant", k, 0))
        elif surd_sign(k**3 - 7 * k * k + 10 * k - 2, -1, disc0) >= 0:  # times 4(k-1) > 0
            failures.append(("second", k))
    return SweepCertificate(
        {"k_min": 14, "k_max": k_max, "b_grid": "extremes", "c_grid": "extremes+midpoint"},
        cases,
        tuple(failures),
    )


def deficit_interval(k: int, c: int) -> tuple[SurdExpr, SurdExpr]:
    """The half-open deficit window I_c = [e(c), e(c+1)); I_0 = [0, sqrt(k-1)).

    e(c) = (1 - c + sqrt((c-1)^2 + 4c(k-1))) / 2, so consecutive windows abut exactly.
    """
    _ints(k=k, c=c)
    if k < 14:
        raise DomainError("deficit windows are set up for k at least 14")
    if c < 0:
        raise DomainError("window index must be nonnegative")
    if c == 0:
        return SurdExpr.rational(0), SurdExpr(0, 1, k - 1)
    return _window_edge(k, c), _window_edge(k, c + 1)


def locate_deficit_interval(k: int, deficit: int) -> int | None:
    """The unique window index in 0..floor(C_k) whose interval contains the deficit, else None.

    For d < k-1, d >= lo(I_c) reduces to d^2 - d >= c(k-1-d): c in closed form, which one
    cmp_surd pair certifies.  With floor(C_k), three sign tests and two comparisons at any k.
    Like deficit_interval, it raises DomainError for every k below 14.
    """
    _ints(k=k, deficit=deficit)
    if k < 14:
        raise DomainError("deficit windows are set up for k at least 14")
    if deficit < 0:
        raise DomainError("deficit must be nonnegative")
    top = surd_floor(_axis_limit(k))
    c = top if deficit >= k - 1 else min((deficit**2 - deficit) // (k - 1 - deficit), top)
    lo, hi = deficit_interval(k, c)
    probe = SurdExpr.rational(deficit)
    if cmp_surd(lo, probe) > 0:
        raise DomainError(f"window {c} starts above deficit {deficit} at k={k}")
    return c if cmp_surd(probe, hi) < 0 else None


# -- unital bounds -----------------------------------------------------------


def unital_counting_bound(q: int, excess: int) -> BoundReport:
    """Counting bound specialized to unital parameters (k = q+1, r = q^2, so deficit 0)."""
    _ints(q=q, excess=excess)
    if q < 2:
        raise DomainError("unital order must be at least 2")
    return _counting(q + 1, 0, excess)


def unital_second_max_bound(q: int) -> BoundReport:
    """Size cap for unital families other than pencils.

    q^2 - q + 1 + q^(2/3) - (2/3) q^(1/3) for q >= 5; the small orders have
    sharper tabulated values.  The floor is certified by exact sign tests of
    the cubic-root expression.
    """
    _ints(q=q)
    if q < 3:
        raise DomainError("second-largest unital bound starts at q = 3")
    if q == 3:
        return BoundReport(8, 8)
    if q == 4:
        return BoundReport(13, 13)
    expr = CubeRootBound(q, Fraction(q * q - q + 1), Fraction(1), Fraction(-2, 3))
    return BoundReport(expr, expr.exact_floor())
