"""Closed-form bounds, certified sweeps, and exact threshold decisions.

Hand-computed spot values are pinned as fractions; the two counting-bound
parameterizations are held to exact agreement on a dense grid, and to their
integer numerators over k(k-1)(k-2) below, which is the strongest
transcription check available for formulas of this shape; the unital
specialization is held to the paper's closed form.  The window index
is held to the linear scan it replaced, and the floors to their bracketing
sign tests at magnitudes up to 10^40.
"""

import inspect
import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from steiner_ekr import bounds
from steiner_ekr.bounds import (
    DEFICIT_CAPS,
    _c_sampler,
    _count_vectors,
    NearExtremalVerdict,
    ReplicationVerdict,
    certify_moment_inequality,
    counting_bound,
    counting_bound_deficit,
    cover_range_submax,
    deficit_cap,
    deficit_interval,
    discriminant,
    locate_deficit_interval,
    multiplicity_cap_bound,
    near_extremal_cutoff,
    near_extremal_threshold,
    pencil_uniqueness_threshold,
    replication_threshold,
    sweep_deficit_grid,
    sweep_large_k,
    unital_counting_bound,
    unital_second_max_bound,
)
from steiner_ekr.errors import BudgetExceeded, DomainError
from steiner_ekr.exactnum import CubeRootBound, SurdExpr, _floor_from_sign, cmp_surd, surd_floor

# Generous next to the milliseconds these calls take; a floor that walks one
# integer at a time, or a window scan over c, blows through it.
DEADLINE_MS = 1000


# -- reference forms -----------------------------------------------------------


def _larger_branch(k, branch1, branch2):
    """(value, active branch) of two numerators over D = k(k-1)(k-2); a tie keeps branch 1."""
    top, active = (branch2, 2) if branch2 > branch1 else (branch1, 1)
    return F(top, k * (k - 1) * (k - 2)), active


def _counting_numerators(k, r, b):
    """counting_bound's two branches as integer numerators over D = k(k-1)(k-2)."""
    d = k * (k - 1) * (k - 2)
    branch1 = (
        (k * k - k + 1) * d
        - 2 * (r - k) * (k * k - k + 1 - r) * (k - 1)
        + b * (b - 1) * k
        + 2 * (b - 1) * (k * k - k - r) * k
    )
    branch2 = (k * k - r) * d - (r - 1) * k * (k - 1) + b * (b - 1 - r + 2 * k * (k - 1)) * (k - 1)
    return _larger_branch(k, branch1, branch2)


def _counting_deficit_numerators(k, R, b):
    """counting_bound_deficit's two branches as integer numerators over D = k(k-1)(k-2)."""
    d = k * (k - 1) * (k - 2)
    branch1 = (
        (k * k - k + 1) * d
        - 2 * (k * k - 3 * k + 1 - R) * (k + R) * (k - 1)
        + b * (b - 1) * k
        + 2 * (b - 1) * (k - 1 + R) * k
    )
    branch2 = (k - 1 + R) * d + R * k * (k - 1) + b * (b + k * k + R - 2) * (k - 1)
    return _larger_branch(k, branch1, branch2)


def _locate_by_scan(k, deficits):
    """locate_deficit_interval as a linear scan over c = 1..floor(C_k), per ascending deficit.

    The scan answers the first c with d < hi(I_c).  Every c that a smaller
    deficit passed over has hi(I_c) <= that deficit < d, so each deficit
    resumes where the one before stopped; the outcomes are those of a scan
    from c = 1.  A DomainError is recorded as ("error", message).
    """
    top = surd_floor(SurdExpr(-2 * k, F(4 * k, 3) - 2, k))
    out, c = {}, 1
    for d in deficits:
        if d * d < k - 1:
            out[d] = 0
            continue
        probe = SurdExpr.rational(d)
        try:
            while c <= top:
                lo, hi = deficit_interval(k, c)
                if cmp_surd(probe, hi) < 0:
                    if cmp_surd(lo, probe) > 0:
                        raise DomainError(f"windows are not contiguous at k={k}, c={c}")
                    break
                c += 1
            out[d] = c if c <= top else None
        except DomainError as exc:
            out[d] = ("error", str(exc))
    return out


def _icbrt(n):
    """floor(n ** (1/3)) by bisection on integers."""
    lo, hi = 0, 1 << (n.bit_length() // 3 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**3 <= n else (lo, mid)
    return lo


def _unital_second_floor(q):
    """floor(q^2 - q + 1 + t^2 - 2t/3), t = q^(1/3), from fixed-point brackets of t.

    g(t) = t^2 - 2t/3 increases past t = 1/3, so once g at the two ends of
    the bracket [lo, hi) shares one floor, that is the floor of g(t).
    """
    bits = 32
    while True:
        root = _icbrt(q << (3 * bits))
        lo, hi = F(root, 1 << bits), F(root + 1, 1 << bits)
        g_lo, g_hi = lo * lo - F(2, 3) * lo, hi * hi - F(2, 3) * hi
        if math.floor(g_lo) == math.ceil(g_hi) - 1:
            return q * q - q + 1 + math.floor(g_lo)
        bits *= 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("error", str(exc))


# -- counting bounds ----------------------------------------------------------


def test_counting_bound_spot_values():
    rep = counting_bound(3, 6, 1)
    assert rep.value == F(5) and rep.floor_value == 5 and rep.active_branch == 1
    rep = counting_bound(4, 9, 1)
    assert rep.value == F(8) and rep.active_branch == 1
    rep = counting_bound(4, 8, 1)
    assert rep.value == F(8) and rep.active_branch == 1
    # second branch wins when r drops toward k
    rep = counting_bound(4, 4, 0)
    assert rep.value == F(21, 2) and rep.active_branch == 2 and rep.floor_value == 10


def test_counting_bound_rejects_small_k():
    for fn in (counting_bound, counting_bound_deficit):
        with pytest.raises(DomainError):
            fn(2, 1, 0)


def test_parameterizations_agree_on_grid():
    for k in range(3, 21):
        for deficit in range(-k, k * k + 1):
            r = (k - 1) ** 2 - deficit
            for b in range(0, k + 1):
                direct = counting_bound(k, r, b)
                via_deficit = counting_bound_deficit(k, deficit, b)
                expected = _counting_numerators(k, r, b)
                assert (direct.value, direct.active_branch) == expected, (k, deficit, b)
                assert (via_deficit.value, via_deficit.active_branch) == expected
                assert direct.floor_value == via_deficit.floor_value == math.floor(expected[0])


@given(
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=-300, max_value=3600),
    st.integers(min_value=0, max_value=80),
)
@settings(max_examples=300, deadline=None)
def test_parameterizations_agree_everywhere(k, deficit, b):
    direct = counting_bound(k, (k - 1) ** 2 - deficit, b)
    via_deficit = counting_bound_deficit(k, deficit, b)
    assert direct.value == via_deficit.value
    expected = _counting_deficit_numerators(k, deficit, b)
    assert (via_deficit.value, via_deficit.active_branch) == expected


@given(
    st.integers(min_value=3, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=0, max_value=10**40),
)
@settings(max_examples=200, deadline=DEADLINE_MS)
def test_counting_bounds_match_the_integer_forms_at_large_magnitudes(k, deficit, b):
    r = (k - 1) ** 2 - deficit
    for rep, (value, active) in (
        (counting_bound(k, r, b), _counting_numerators(k, r, b)),
        (counting_bound_deficit(k, deficit, b), _counting_deficit_numerators(k, deficit, b)),
    ):
        assert (rep.value, rep.active_branch, rep.floor_value) == (value, active, math.floor(value))


def test_multiplicity_cap():
    assert multiplicity_cap_bound(3, 3) == 7
    assert multiplicity_cap_bound(4, 4) == 13
    assert multiplicity_cap_bound(9, 1) == 1
    assert multiplicity_cap_bound(2, 2) == 3
    with pytest.raises(DomainError):
        multiplicity_cap_bound(1, 1)
    with pytest.raises(DomainError):
        multiplicity_cap_bound(4, 5)
    with pytest.raises(DomainError):
        multiplicity_cap_bound(4, 0)


def test_cover_range_submax():
    assert cover_range_submax(4, 0) == (F(12), F(12))
    assert cover_range_submax(4, 2) == (F(12), F(14))
    assert cover_range_submax(5, 3) == (F(20), F(26))
    assert cover_range_submax(3, 1) == (F(6), F(6))
    with pytest.raises(DomainError):
        cover_range_submax(4, 3)  # pole at shortfall = k-1
    with pytest.raises(DomainError):
        cover_range_submax(4, -1)
    with pytest.raises(DomainError):
        cover_range_submax(2, 0)


# -- moment certificates -------------------------------------------------------


def test_moment_certificate_single_case():
    cert = certify_moment_inequality(2, 2, 1, 6)
    assert cert.certified
    assert cert.total_cases == 1
    assert cert.ranges["sum_i"] == 27 and cert.ranges["sum_ii"] == 12


def test_sweep_certificate_is_certified_when_nothing_failed():
    ranges = {"k": [4, 5]}
    assert bounds.SweepCertificate(ranges, 2, ()).certified
    assert bounds.SweepCertificate(ranges, 2).certified
    failed = bounds.SweepCertificate(ranges, 2, (("second", 5),))
    assert not failed.certified
    # the field order is the CLI's sweep payload order
    assert list(failed._fields) == [
        "ranges",
        "total_cases",
        "certified",
        "failures",
    ]


def test_moment_certificate_window_edges():
    # l=3, b=0, r=7 admits a in [2, 7]
    assert certify_moment_inequality(3, 2, 0, 7).certified
    cert = certify_moment_inequality(3, 7, 0, 7)
    assert cert.certified and cert.total_cases == 11
    for bad_a in (1, 8):
        with pytest.raises(DomainError):
            certify_moment_inequality(3, bad_a, 0, 7)


def test_moment_certificate_budget():
    with pytest.raises(BudgetExceeded) as exc:
        certify_moment_inequality(3, 7, 0, 7, budget=5)
    assert exc.value.count == 6


def test_moment_certificate_small_grid():
    checked = 0
    for l in (2, 3):
        for b in (0, 1, 2):
            for r in range(l + 2, l + 7):
                lo1 = F(-l * (r - l - 1) + 1) - F(b * r, l + 1)
                lo2 = F(-b * (b - 1), (l + 1) * l) - 2 * (b - 1)
                hi = F(r * l - l * l + l - 1, l - 1) - F(
                    b * (2 * l * l + 2 * l - r + b - 1), l * l - 1
                )
                lo = max(lo1, lo2)
                if lo > hi:
                    continue
                candidates = {a for a in (math.ceil(lo), math.floor(hi)) if lo <= a <= hi}
                for a in candidates:
                    assert certify_moment_inequality(l, a, b, r).certified, (l, a, b, r)
                    checked += 1
    assert checked >= 20


def _count_vectors_by_brute_force(l, s1, s2):
    """(n_1..n_l, sum (i-1) n_i) for every solution, ordered by (n_l, ..., n_3)."""
    out = []
    ranges = [range(s2 // (i * (i - 1)) + 1) for i in range(l, 2, -1)]
    for high in itertools.product(*ranges):  # (n_l, ..., n_3)
        n = dict(zip(range(l, 2, -1), high))
        rem2 = s2 - sum(i * (i - 1) * m for i, m in n.items())
        if rem2 < 0 or rem2 % 2:
            continue
        n[2] = rem2 // 2
        n[1] = s1 - sum(i * m for i, m in n.items())
        if n[1] >= 0:
            out.append((tuple(n[i] for i in range(1, l + 1)), sum((i - 1) * n[i] for i in n)))
    return out


def test_count_vectors_match_brute_force():
    checked = 0
    for l in range(2, 7):
        for s1 in range(0, 31, 3):
            for s2 in range(0, 41, 2):
                got = [(tuple(ns[1:]), lhs) for ns, lhs in _count_vectors(l, s1, s2)]
                assert got == _count_vectors_by_brute_force(l, s1, s2), (l, s1, s2)
                checked += len(got)
    assert checked > 1000


def test_moment_certificate_matches_the_search_over_all_l_counts():
    # the certificate searches only n_1..n_w with w(w-1) <= sum_ii; the
    # search over all l counts must give the same cases and failures.  In the
    # window sum_ii is b(b-1) + l(l+1)(a+2b-2), so w < l needs a = 2 - 2b
    # and, for w > 2, b >= 3
    checked = capped = 0
    for l in range(2, 7):
        for b in range(5):
            for r in range(l + 2, l + 11):
                for a in range(-6, 12):
                    try:
                        cert = certify_moment_inequality(l, a, b, r, budget=3000)
                    except (DomainError, BudgetExceeded):
                        continue
                    s1, s2 = cert.ranges["sum_i"], cert.ranges["sum_ii"]
                    # the window's lower edges lo1 and lo2 are sum_i >= 0 and sum_ii >= 0
                    assert s1 >= 0 and s2 >= 0, (l, a, b, r)
                    rhs = F(b * (b - 1), 2) + F((a + 2 * b - 2) * l * (l + 1), 2)
                    full = [(tuple(ns[1:]), lhs) for ns, lhs in _count_vectors(l, s1, s2)]
                    assert cert.total_cases == len(full), (l, a, b, r)
                    assert cert.failures == tuple(n for n, lhs in full if lhs > rhs)
                    checked += 1
                    capped += 2 < s2 < l * (l - 1)
    assert checked > 500 and capped > 20


def test_moment_certificate_starts_at_the_largest_admissible_multiplicity():
    # s2 = 0 forces n_2 = ... = n_l = 0: one vector, however long it is
    cert = certify_moment_inequality(2000, 2, 0, 2001)
    assert cert.certified and cert.total_cases == 1
    assert cert.ranges["sum_ii"] == 0 and cert.ranges["sum_i"] == 2001
    # s2 = 2 leaves only n_2 = 1
    cert = certify_moment_inequality(2000, -2, 2, 2002)
    assert cert.certified and cert.total_cases == 1 and cert.ranges["sum_ii"] == 2


def test_moment_certificate_large_second_moment_stops_at_the_budget():
    # s2 = 4,002,000 leaves every multiplicity up to 2000 open
    with pytest.raises(BudgetExceeded) as exc:
        certify_moment_inequality(2000, 3, 0, 4000, budget=1000)
    assert exc.value.count == 1001


def test_moment_search_yields_at_least_width_minus_one_cases():
    # the count that lets certify_moment_inequality refuse a budget below
    # width - 1 before it searches: every in-window input here reaches it
    checked = 0
    for l in range(2, 21):
        for b in range(6):
            for r in range(l + 21):
                lo1 = F(-l * (r - l - 1) + 1) - F(b * r, l + 1)
                lo2 = F(-b * (b - 1), (l + 1) * l) - 2 * (b - 1)
                hi = F(r * l - l * l + l - 1, l - 1) - F(
                    b * (2 * l * l + 2 * l - r + b - 1), l * l - 1
                )
                for a in range(math.ceil(max(lo1, lo2)), math.floor(hi) + 1):
                    s1 = (a - 1) * (l + 1) + b * r + l * (l + 1) * (r - l - 1)
                    s2 = b * (b - 1) + l * (l + 1) * (a + 2 * b - 2)
                    width = min(l, max(2, (math.isqrt(4 * s2 + 1) + 1) // 2))
                    cases = itertools.islice(_count_vectors(width, s1, s2), width - 1)
                    assert sum(1 for _ in cases) == width - 1, (l, a, b, r)
                    checked += 1
    assert checked == 28001


def test_moment_budget_below_the_width_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="passed 1000 cases") as exc:
            certify_moment_inequality(10**7, 3, 0, 10**7 + 10, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.count == 1001
    assert peak < 1 << 20


def test_moment_certificate_rejects_bad_shape():
    with pytest.raises(DomainError):
        certify_moment_inequality(1, 0, 0, 5)
    with pytest.raises(DomainError):
        certify_moment_inequality(3, 0, -1, 9)


# -- thresholds ----------------------------------------------------------------


def test_replication_threshold():
    assert replication_threshold(3, 8) is ReplicationVerdict.BOUND_AND_UNIQUENESS
    assert replication_threshold(3, 7) is ReplicationVerdict.BOUND_HOLDS
    assert replication_threshold(3, 6) is ReplicationVerdict.BELOW
    assert replication_threshold(4, 13) is ReplicationVerdict.BOUND_HOLDS
    with pytest.raises(DomainError):
        replication_threshold(1, 5)


def test_near_extremal_cutoff_value():
    cutoff = near_extremal_cutoff(4)
    assert cmp_surd(cutoff, SurdExpr.rational(F(15, 2))) == 0


def test_near_extremal_threshold_windows():
    V = NearExtremalVerdict
    assert near_extremal_threshold(4, 7) is V.OUTSIDE
    assert near_extremal_threshold(4, 8) is V.BOUND_ONLY  # the lone exception
    assert near_extremal_threshold(4, 9) is V.CLASSIFIED
    assert near_extremal_threshold(4, 12) is V.CLASSIFIED
    assert near_extremal_threshold(4, 13) is V.OUTSIDE
    # irrational lower edge: 58.25 for k=9
    assert near_extremal_threshold(9, 58) is V.OUTSIDE
    assert near_extremal_threshold(9, 59) is V.CLASSIFIED
    assert near_extremal_threshold(9, 72) is V.CLASSIFIED
    assert near_extremal_threshold(9, 73) is V.OUTSIDE
    # rational lower edge (k a perfect square) is included
    assert near_extremal_threshold(16, 213) is V.CLASSIFIED
    assert near_extremal_threshold(16, 212) is V.OUTSIDE
    with pytest.raises(DomainError):
        near_extremal_threshold(3, 5)


@pytest.mark.parametrize("k", [-4, 0, 3])
def test_near_extremal_window_starts_at_k_4(k):
    # below k = 4 there is no window: the edge and the verdict refuse alike
    # (at k = -4 the edge's radicand would be negative)
    message = "near-extremal window needs block size at least 4"
    with pytest.raises(DomainError, match=message):
        near_extremal_cutoff(k)
    with pytest.raises(DomainError, match=message):
        near_extremal_threshold(k, 9)


def test_pencil_uniqueness_threshold():
    assert pencil_uniqueness_threshold(3, 19)
    assert not pencil_uniqueness_threshold(3, 18)
    assert pencil_uniqueness_threshold(2, 5)
    with pytest.raises(DomainError):
        pencil_uniqueness_threshold(1, 10)


# -- deficit grid ---------------------------------------------------------------


def test_deficit_caps_match_closed_form():
    # DEFICIT_CAPS is built from deficit_cap; the literal table is the reference
    assert DEFICIT_CAPS == {4: 1, 5: 2, 6: 3, 7: 4, 8: 4, 9: 5, 10: 6, 11: 7, 12: 8, 13: 9}
    assert deficit_cap(14) == 10
    assert deficit_cap(50) == 43


def test_sweep_deficit_grid_single_k():
    cert = sweep_deficit_grid(4)
    assert cert.certified
    assert cert.total_cases == 4
    assert cert.ranges == {"k": 4, "deficit_cap": 1}


def test_sweep_deficit_grid_all():
    cert = sweep_deficit_grid("all")
    assert cert.certified
    assert cert.total_cases == 362
    assert cert.ranges == {"k": list(range(4, 14))}


def test_sweep_deficit_grid_sharpness_is_checked():
    # one past the cap, some admissible excess must break the bound
    for k, cap in DEFICIT_CAPS.items():
        r_past = cap + 1
        top = (r_past * (r_past - 1)) // (k - 1 - r_past) if r_past else 0
        assert any(
            counting_bound_deficit(k, r_past, b).value >= (k - 1) ** 2 - r_past
            for b in range(top + 1)
        ), k


def test_sweep_deficit_grid_rejects_unknown_k():
    with pytest.raises(DomainError):
        sweep_deficit_grid(3)
    with pytest.raises(DomainError):
        sweep_deficit_grid(14)


# -- large-k sweep ---------------------------------------------------------------


def test_discriminant_spot_values():
    assert discriminant(0, 14) == 5005732
    assert discriminant(1, 14) == 2210 ** 2  # the product term vanishes
    assert discriminant(2, 14) == 2182 ** 2


def test_default_c_sampler():
    assert _c_sampler(14) == (1, 17, 34)


def test_sweep_large_k_certifies():
    cert = sweep_large_k(50)
    assert cert.certified
    assert cert.total_cases == 259
    assert cert.failures == ()


def test_sweep_large_k_minimum():
    assert sweep_large_k(14).total_cases == 7
    with pytest.raises(DomainError):
        sweep_large_k(13)


# -- deficit windows --------------------------------------------------------------


def test_deficit_windows_abut_exactly():
    for c in range(0, 11):
        _, hi = deficit_interval(14, c)
        lo_next, _ = deficit_interval(14, c + 1)
        assert cmp_surd(hi, lo_next) == 0, c
    with pytest.raises(DomainError):
        deficit_interval(13, 1)
    with pytest.raises(DomainError):
        deficit_interval(14, -1)


def test_first_deficit_window_is_zero_to_sqrt_k_minus_1():
    for k in range(14, 40):
        lo, hi = deficit_interval(k, 0)
        assert cmp_surd(lo, SurdExpr.rational(0)) == 0
        root = math.isqrt(k - 1)
        assert cmp_surd(hi, SurdExpr.rational(root)) == (
            0 if root * root == k - 1 else 1
        ), k
        assert cmp_surd(hi, SurdExpr.rational(root + 1)) == -1, k


def test_locate_deficit_interval_spots():
    assert locate_deficit_interval(14, 0) == 0
    assert locate_deficit_interval(14, 3) == 0  # 3^2 < 13
    assert locate_deficit_interval(14, 4) == 1
    assert locate_deficit_interval(14, 5) == 2
    # 10 sits exactly on a window edge: sqrt(2401) = 49 makes hi(I_29) = 10
    assert locate_deficit_interval(14, 10) == 30
    assert locate_deficit_interval(14, 11) is None
    with pytest.raises(DomainError):
        locate_deficit_interval(14, -1)


def test_locate_deficit_interval_matches_the_linear_scan():
    for k in range(14, 301):
        deficits = range(0, k + 3)
        expected = _locate_by_scan(k, deficits)
        for deficit in deficits:
            assert _outcome(locate_deficit_interval, k, deficit) == expected[deficit], (k, deficit)
    # below k = 14 there are no windows: the same error as deficit_interval at every deficit
    for k in range(2, 14):
        for deficit in range(-1, k + 3):
            with pytest.raises(DomainError, match="set up for k at least 14"):
                locate_deficit_interval(k, deficit)


@given(st.integers(min_value=14, max_value=10**40), st.data())
@settings(max_examples=200, deadline=DEADLINE_MS)
def test_locate_deficit_interval_brackets_at_large_magnitudes(k, data):
    deficit = data.draw(st.integers(min_value=0, max_value=k + 2))
    c = locate_deficit_interval(k, deficit)
    probe = SurdExpr.rational(deficit)
    if c is None:
        # past the last window: the deficit sits at or above hi(I_floor(C_k))
        top = surd_floor(SurdExpr(-2 * k, F(4 * k, 3) - 2, k))
        assert cmp_surd(probe, deficit_interval(k, top)[1]) >= 0
    else:
        lo, hi = deficit_interval(k, c)
        assert cmp_surd(lo, probe) <= 0 < cmp_surd(hi, probe)


def test_locate_deficit_interval_is_monotone():
    last = 0
    for deficit in range(0, 11):
        c = locate_deficit_interval(14, deficit)
        assert c is not None
        assert c >= last
        last = c
        lo, hi = deficit_interval(14, c)
        probe = SurdExpr.rational(deficit)
        assert cmp_surd(lo, probe) <= 0 and cmp_surd(probe, hi) < 0


# -- unital bounds -----------------------------------------------------------------


def _unital_counting_closed_form(q, b):
    """(value, active branch) of the unital counting bound as the paper writes it."""
    branch1 = q * q - q + 1 + F(b * (b - 1), q * (q - 1)) + F(2 * b, q - 1)
    branch2 = q + F(b * q * (q + 2), q * q - 1) + F(b * (b - 1), q * q - 1)
    return (branch2, 2) if branch2 > branch1 else (branch1, 1)


def test_unital_counting_specializes_general_bound():
    for q in list(range(2, 60)) + [199, 10**12 + 39]:
        for b in list(range(0, 8)) + [q, q * q]:
            rep = unital_counting_bound(q, b)
            value, active = _unital_counting_closed_form(q, b)
            assert (rep.value, rep.active_branch) == (value, active), (q, b)
            assert rep.floor_value == math.floor(value)
    with pytest.raises(DomainError):
        unital_counting_bound(1, 0)


def test_unital_second_max_small_orders():
    assert unital_second_max_bound(3).floor_value == 8
    assert unital_second_max_bound(4).floor_value == 13
    with pytest.raises(DomainError):
        unital_second_max_bound(2)


def test_unital_second_max_cube_root_floor():
    rep = unital_second_max_bound(5)
    assert rep.floor_value == 22
    # q = 27 makes the irrational parts collapse: 703 + 9 - 2 = 710 exactly
    rep = unital_second_max_bound(27)
    assert rep.floor_value == 710
    assert rep.value.compare(710) == 0
    assert rep.value.compare(711) < 0


def test_cube_root_bound_floor_brackets():
    for q in (5, 6, 7, 11, 26, 27, 28, 64, 125, 199):
        expr = unital_second_max_bound(q).value
        if isinstance(expr, int):
            continue
        m = expr.exact_floor()
        assert expr.compare(m) >= 0
        assert expr.compare(m + 1) < 0


_BIG = st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**6)


@given(st.integers(min_value=0, max_value=10**40), _BIG, _BIG, _BIG)
@settings(max_examples=100, deadline=DEADLINE_MS)
def test_cube_root_bound_floor_brackets_at_large_magnitudes(radicand, const, sq, lin):
    expr = CubeRootBound(radicand, const, sq, lin)
    m = expr.exact_floor()
    assert expr.compare(m) >= 0 > expr.compare(m + 1)


def _floor_from_integer_roots(expr):
    """exact_floor as first written: a guess from the integer roots of q^2 and q.

    That guess is off by up to |sq_coef| + |lin_coef|, so the gallop takes
    about 2 log2 of that many sign tests, but it ends on the same floor.
    """
    t2, t = _icbrt(expr.radicand**2), _icbrt(expr.radicand)
    return _floor_from_sign(expr.compare, math.floor(expr.const + expr.sq_coef * t2 + expr.lin_coef * t))


@given(st.integers(min_value=0, max_value=10**40), _BIG, _BIG, _BIG)
@settings(max_examples=50, deadline=DEADLINE_MS)
def test_cube_root_bound_floor_takes_three_sign_tests(radicand, const, sq, lin):
    calls = []

    class Counting(CubeRootBound):
        def compare(self, m):
            calls.append(m)
            return super().compare(m)

    m = Counting(radicand, const, sq, lin).exact_floor()
    assert len(calls) <= 3
    assert m == _floor_from_integer_roots(CubeRootBound(radicand, const, sq, lin))


@given(st.integers(min_value=5, max_value=10**40))
@settings(max_examples=200, deadline=DEADLINE_MS)
def test_unital_second_max_matches_integer_cube_roots(q):
    assert unital_second_max_bound(q).floor_value == _unital_second_floor(q)


def test_large_inputs_answer_quickly():
    # a floor seeded from a float overflows at 10^400, and a one-step walk never ends
    for q in (10**11, 10**21, 10**400):
        start = time.perf_counter()
        rep = unital_second_max_bound(q)
        assert time.perf_counter() - start < 0.5, q
        assert rep.floor_value == _unital_second_floor(q)
        assert rep.value.compare(rep.floor_value) >= 0 > rep.value.compare(rep.floor_value + 1)
    start = time.perf_counter()
    assert surd_floor(SurdExpr(0, 10**30, 2)) == math.isqrt(2 * 10**60)
    k, deficit = 10**10, 5 * 10**9
    c = locate_deficit_interval(k, deficit)
    assert time.perf_counter() - start < 0.5
    assert c == (deficit * deficit - deficit) // (k - 1 - deficit)
    lo, hi = deficit_interval(k, c)
    probe = SurdExpr.rational(deficit)
    assert cmp_surd(lo, probe) <= 0 < cmp_surd(hi, probe)


# -- parameters are ints -----------------------------------------------------------

# valid int arguments for every public function of bounds
_INT_CALLS = {
    "certify_moment_inequality": (3, 7, 0, 7, 2_000_000),
    "counting_bound": (4, 9, 0),
    "counting_bound_deficit": (4, 0, 0),
    "cover_range_submax": (5, 1),
    "deficit_cap": (4,),
    "deficit_interval": (14, 1),
    "discriminant": (1, 14),
    "locate_deficit_interval": (14, 3),
    "multiplicity_cap_bound": (4, 2),
    "near_extremal_cutoff": (4,),
    "near_extremal_threshold": (4, 12),
    "pencil_uniqueness_threshold": (3, 19),
    "replication_threshold": (3, 7),
    "sweep_deficit_grid": (4,),
    "sweep_large_k": (20, 2_000_000),
    "unital_counting_bound": (3, 0),
    "unital_second_max_bound": (5,),
}


@pytest.mark.parametrize(
    "name", sorted(n for n in bounds.__all__ if inspect.isfunction(getattr(bounds, n)))
)
def test_public_functions_take_only_ints(name):
    # a float equal to a valid int once answered (multiplicity_cap_bound(4, 2.0)
    # gave 5.0), a fractional one reached a decision, and a str failed deep inside
    func, args = getattr(bounds, name), _INT_CALLS[name]
    func(*args)
    for slot, x in enumerate(args):
        for bad in (float(x), float(x) + 0.5, str(x)):
            with pytest.raises(TypeError):
                func(*args[:slot], bad, *args[slot + 1 :])


def test_negative_budget_is_refused_before_any_work(monkeypatch):
    # -1 once read as exceeded: "moment search passed -1 cases" with count 0
    monkeypatch.setattr(bounds, "_count_vectors", None)
    monkeypatch.setattr(bounds, "_c_sampler", None)
    for call in (
        lambda: certify_moment_inequality(3, 7, 0, 7, budget=-1),
        lambda: sweep_large_k(20, budget=-1),
    ):
        with pytest.raises(DomainError, match="^the requested budget -1 is negative$"):
            call()
