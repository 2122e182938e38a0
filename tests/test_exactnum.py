"""Exact arithmetic layer: spot values, independent fixed-point oracle, properties.

The oracle evaluates every expression in 256-bit fixed point.  At that scale
the rationals and surds generated here are either exactly zero or larger than
2^-100 in magnitude, so any disagreement inside the dead zone would mean the
exact code produced a nonzero verdict for a value the oracle can bound below
2^-100, which the input magnitudes rule out.  Cube-root signs, decided by a
field norm, are also held to the root-factoring form they replaced.
"""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from steiner_ekr.bounds import unital_second_max_bound
from steiner_ekr.exactnum import (
    CubeRootBound,
    SurdExpr,
    _floor_from_sign,
    cbrt_quadratic_sign,
    cmp_surd,
    icbrt_floor,
    surd_floor,
    surd_sign,
)

SCALE = 1 << 256


def fx_sqrt(n: int) -> int:
    return isqrt(n << 512)


def fx_cbrt(n: int) -> int:
    lo, hi = 0, 1 << 300
    target = n << 768
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def fx_surd(a: F, b: F, n: int) -> int:
    return a.numerator * SCALE // a.denominator + b.numerator * fx_sqrt(n) // b.denominator


def _icbrt(n: int) -> int:
    """floor(n ** (1/3)) by bisection on integers."""
    lo, hi = 0, 1 << (n.bit_length() // 3 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**3 <= n else (lo, mid)
    return lo


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def cbrt_sign_by_roots(c2, c1, c0, n: int) -> int:
    """Sign of c2 t^2 + c1 t + c0 at t = n^(1/3) by factoring the quadratic.

    The earlier implementation of cbrt_quadratic_sign, kept as a reference:
    the quadratic is c2 (t - rho_1)(t - rho_2) over its real roots
    rho = u + v sqrt(w), and t - rho has the sign of n - rho^3 since cubing is
    increasing; rho^3 = (u^3 + 3 u v^2 w) + (3 u^2 v + v^3 w) sqrt(w) is a
    quadratic surd.  No real root means the sign of c2.
    """
    c2, c1, c0 = F(c2), F(c1), F(c0)
    root = _icbrt(n)
    if root**3 == n:
        return _sign(c2 * root * root + c1 * root + c0)
    if c2 == 0:
        if c1 == 0:
            return _sign(c0)
        return _sign(c1) * _sign(n - (-c0 / c1) ** 3)
    bb, cc = c1 / c2, c0 / c2
    disc = bb * bb - 4 * cc
    if disc < 0:
        return _sign(c2)
    u, v, w = -bb / 2, F(1, 2 * disc.denominator), disc.numerator * disc.denominator

    def above(u, v):  # sign of t - (u + v sqrt(w))
        return surd_sign(n - u**3 - 3 * u * v * v * w, -(3 * u * u * v + v**3 * w), w)

    return _sign(c2) * above(u, -v) * above(u, v)


# -- integer cube roots ----------------------------------------------------


def test_icbrt_spot_values():
    assert icbrt_floor(0) == 0
    assert icbrt_floor(1) == 1
    assert icbrt_floor(7) == 1
    assert icbrt_floor(8) == 2
    assert icbrt_floor(25) == 2
    assert icbrt_floor(27) == 3
    assert icbrt_floor(3**30) == 3**10


@given(st.integers(min_value=0, max_value=10**40))
def test_icbrt_bracket_property(value):
    f = icbrt_floor(value)
    assert type(f) is int
    assert f**3 <= value < (f + 1) ** 3


def test_icbrt_exact_powers():
    for base in (2, 3, 10, 12345, 10**13 + 7):
        assert icbrt_floor(base**3) == base
        assert icbrt_floor(base**3 - 1) == base - 1


# -- single surds -----------------------------------------------------------


def test_cmp_spot_values():
    assert cmp_surd(SurdExpr(1, 1, 2), SurdExpr(0, 1, 5)) == 1
    assert cmp_surd(SurdExpr(0, F(3, 4), 4), SurdExpr.rational(F(3, 2))) == 0
    assert cmp_surd(SurdExpr(0, 1, 4), SurdExpr(2, 0, 0)) == 0
    assert cmp_surd(SurdExpr(0, 1, 2), SurdExpr(0, 1, 3)) == -1
    # dependent radicands: sqrt(8) = 2 sqrt(2)
    assert cmp_surd(SurdExpr(0, 1, 8), SurdExpr(0, 2, 2)) == 0
    assert cmp_surd(SurdExpr(0, 1, 8), SurdExpr(0, 2, 3)) == -1
    assert cmp_surd(SurdExpr(1, 0, 0), SurdExpr(0, 1, 1)) == 0
    assert surd_sign(0, 0, 7) == 0
    assert surd_sign(-3, 1, 9) == 0  # -3 + sqrt(9)
    assert surd_sign(-3, 1, 8) == -1
    assert surd_sign(-3, 1, 10) == 1


def test_surd_floor_spot_values():
    assert surd_floor(SurdExpr(0, 1, 2)) == 1
    assert surd_floor(SurdExpr(0, 1, 4)) == 2
    assert surd_floor(SurdExpr(0, -1, 2)) == -2
    assert surd_floor(SurdExpr(F(-1, 2), F(1, 2), 105)) == 4
    assert surd_floor(SurdExpr.rational(F(7, 2))) == 3
    assert surd_floor(SurdExpr.rational(-3)) == -3
    assert surd_floor(SurdExpr(3, F(-3, 4), 4)) == 1  # 3 - 3/2


@given(
    st.fractions(min_value=-400, max_value=400, max_denominator=9),
    st.fractions(min_value=-400, max_value=400, max_denominator=9),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=300, deadline=None)
def test_surd_floor_brackets_exactly(a, b, n):
    x = SurdExpr(a, b, n)
    f = surd_floor(x)
    assert cmp_surd(SurdExpr.rational(f), x) <= 0
    assert cmp_surd(SurdExpr.rational(f + 1), x) > 0


@given(
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**12),
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**12),
    st.integers(min_value=0, max_value=10**40),
)
@settings(max_examples=300, deadline=1000)
def test_surd_floor_brackets_at_large_magnitudes(a, b, n):
    f = surd_floor(SurdExpr(a, b, n))
    assert surd_sign(a - f, b, n) >= 0 > surd_sign(a - f - 1, b, n)


def test_surd_floor_of_a_huge_coefficient():
    # a guess with a fixed 64-bit fraction is off by about 5 * 10^10 here
    assert surd_floor(SurdExpr(0, 10**30, 2)) == isqrt(2 * 10**60)
    assert surd_floor(SurdExpr(0, -(10**30), 2)) == -isqrt(2 * 10**60) - 1


@given(
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**6),
    st.integers(min_value=-(10**45), max_value=10**45),
)
@settings(max_examples=300, deadline=1000)
def test_floor_from_sign_gallops_from_any_guess(x, guess):
    tests = []

    def sign_at(m):
        tests.append(m)
        return (x > m) - (x < m)

    assert _floor_from_sign(sign_at, guess) == math.floor(x)
    # galloping out and bisecting back each take about log2 |error| steps
    assert len(tests) <= 2 * abs(math.floor(x) - guess).bit_length() + 3


@pytest.mark.parametrize("sign", [1, 0, -1])
@pytest.mark.parametrize("guess", [0, -7, 10**45, -(10**400)])
def test_floor_from_sign_rejects_an_oracle_that_never_changes_sign(sign, guess):
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match=str(guess)):
        _floor_from_sign(lambda m: sign, guess)
    assert time.perf_counter() - start < 1


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
@settings(max_examples=200, deadline=None)
def test_cmp_agrees_with_rationals_on_perfect_squares(a, b):
    # with n = 9 the surd collapses to a rational: a + 3b
    lhs = SurdExpr(a, b, 9)
    rhs = SurdExpr.rational(a + 3 * b)
    assert cmp_surd(lhs, rhs) == 0
    shifted = SurdExpr.rational(a + 3 * b + F(1, 10**9))
    assert cmp_surd(lhs, shifted) == -1


def test_double_surd_random_oracle():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(6000):
        a = F(rng.randint(-50, 50), rng.randint(1, 12))
        b = F(rng.randint(-50, 50), rng.randint(1, 12))
        m = rng.randint(0, 60)
        c = F(rng.randint(-50, 50), rng.randint(1, 12))
        d = F(rng.randint(-50, 50), rng.randint(1, 12))
        n = rng.randint(0, 60)
        got = cmp_surd(SurdExpr(a, b, m), SurdExpr(c, d, n))
        val = fx_surd(a, b, m) - fx_surd(c, d, n)
        if abs(val) < (1 << 100):
            assert got == 0 or abs(val) <= 4, (a, b, m, c, d, n, got, val)
            continue
        assert got == (val > 0) - (val < 0), (a, b, m, c, d, n)
        checked += 1
    assert checked > 5000


def test_double_surd_exact_cancellations():
    # b^2 m = d^2 n with matched rational parts must compare equal
    assert cmp_surd(SurdExpr(F(1, 3), 2, 18), SurdExpr(F(1, 3), 6, 2)) == 0
    assert cmp_surd(SurdExpr(5, F(3, 2), 8), SurdExpr(5, 3, 2)) == 0
    assert cmp_surd(SurdExpr(5, F(3, 2), 8), SurdExpr(4, 3, 2)) == 1


def test_exact_ties_at_zero_square_and_equal_radicands():
    # the random oracle forgives any sign within a few units of zero, so the
    # ties are pinned here: a coefficient over a zero radicand counts as 0
    assert cmp_surd(SurdExpr(0, 1, 0), SurdExpr(0, -1, 0)) == 0
    assert cmp_surd(SurdExpr(3, 7, 0), SurdExpr(3, 0, 5)) == 0
    assert surd_sign(0, 5, 0) == 0
    assert surd_sign(0, -5, 0) == 0
    assert surd_sign(2, -1, 4) == 0
    assert surd_sign(-2, 1, 4) == 0
    assert surd_sign(F(3, 2), F(-1, 2), 9) == 0
    # a square radicand on either side: 1 + 2 sqrt(9) = 7
    assert cmp_surd(SurdExpr(1, 2, 9), SurdExpr(7, 0, 5)) == 0
    assert cmp_surd(SurdExpr(7, 0, 5), SurdExpr(1, 2, 9)) == 0
    assert cmp_surd(SurdExpr(1, 2, 9), SurdExpr(6, 1, 1)) == 0
    assert cmp_surd(SurdExpr(-2, 1, 9), SurdExpr(0, 1, 2)) == -1
    assert cmp_surd(SurdExpr(0, 1, 2), SurdExpr(-2, 1, 9)) == 1
    # equal radicands whose coefficients cancel
    assert cmp_surd(SurdExpr(1, F(3, 2), 7), SurdExpr(1, F(3, 2), 7)) == 0
    assert cmp_surd(SurdExpr(2, 1, 7), SurdExpr(1, 1, 7)) == 1
    assert cmp_surd(SurdExpr(F(1, 2), -1, 7), SurdExpr(F(1, 2), -1, 7)) == 0


def test_surd_floor_random_oracle():
    rng = random.Random(99)
    for _ in range(2500):
        a = F(rng.randint(-400, 400), rng.randint(1, 9))
        b = F(rng.randint(-400, 400), rng.randint(1, 9))
        n = rng.randint(0, 500)
        f = surd_floor(SurdExpr(a, b, n))
        val = fx_surd(a, b, n)
        assert f * SCALE - 4 <= val < (f + 1) * SCALE + 4, (a, b, n, f)


def test_rejects_negative_radicand():
    with pytest.raises(ValueError):
        SurdExpr(1, 1, -1)
    with pytest.raises(ValueError):
        surd_sign(1, 1, -1)
    with pytest.raises(ValueError):
        cbrt_quadratic_sign(1, 1, 1, -1)
    with pytest.raises(ValueError):
        icbrt_floor(-5)
    with pytest.raises(ValueError):
        CubeRootBound(-27, 0, 1, 0)


@pytest.mark.parametrize("bad", [0.1, 2.0, "7/2", Decimal("0.1")])
def test_rejects_values_that_are_not_exact(bad):
    # a float, string or Decimal would be decided on its binary or parsed value
    calls = [
        lambda: SurdExpr(bad, 0, 0),
        lambda: SurdExpr(0, bad, 2),
        lambda: SurdExpr.rational(bad),
        lambda: surd_floor(SurdExpr(bad, 0, 0)),
        lambda: cmp_surd(SurdExpr(bad, 1, 2), SurdExpr(0, 1, 2)),
        lambda: surd_sign(bad, 0, 0),
        lambda: surd_sign(0, bad, 2),
        lambda: cbrt_quadratic_sign(bad, 0, 0, 2),
        lambda: cbrt_quadratic_sign(0, bad, 0, 2),
        lambda: cbrt_quadratic_sign(0, 0, bad, 2),
        # a cube-root bound refuses it when it is built, not at its first floor
        lambda: CubeRootBound(27, bad, 1, 0),
        lambda: CubeRootBound(27, 0, bad, 0),
        lambda: CubeRootBound(27, 0, 1, bad),
        # as a radicand
        lambda: SurdExpr(0, 1, bad),
        lambda: cmp_surd(SurdExpr(0, 1, bad), SurdExpr(0, 1, 2)),
        lambda: surd_sign(-1, 1, bad),
        lambda: cbrt_quadratic_sign(1, 0, 0, bad),
        lambda: icbrt_floor(bad),
        lambda: CubeRootBound(bad, 0, 1, 0),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_accepts_int_bool_and_fraction():
    assert SurdExpr(True, 0, 0).a == 1
    assert surd_sign(True, False, 0) == 1
    assert surd_sign(F(-1, 2), 0, True) == -1
    assert cbrt_quadratic_sign(0, 0, F(1, 3), 2) == 1
    bound = CubeRootBound(27, 1, True, 0)
    assert bound == CubeRootBound(27, F(1), F(1), F(0))
    assert all(type(c) is F for c in (bound.const, bound.sq_coef, bound.lin_coef))


# -- cube root sign decisions -------------------------------------------------


def test_cbrt_sign_exact_zeros():
    # (t - q)(t + 1) evaluated at t = cbrt(q^3) is exactly zero
    for q in range(1, 20):
        assert cbrt_quadratic_sign(F(1), F(1 - q), F(-q), q**3) == 0
        assert cbrt_quadratic_sign(F(1), F(1 - q), F(-q) + F(1, 10**9), q**3) == 1
        assert cbrt_quadratic_sign(F(1), F(1 - q), F(-q) - F(1, 10**9), q**3) == -1


def test_cbrt_sign_on_cubes_where_the_norm_vanishes():
    # at n = m^3 the norm of c2 (t^2 + m t + m^2) is 0, but its value is 3 c2 m^2
    for m in range(1, 30):
        assert cbrt_quadratic_sign(F(1), F(m), F(m * m), m**3) == 1
        assert cbrt_quadratic_sign(F(-2), F(-2 * m), F(-2 * m * m), m**3) == -1
        assert cbrt_quadratic_sign(F(1), F(m), F(-2 * m * m), m**3) == 0


def test_cbrt_sign_linear_and_constant_cases():
    assert cbrt_quadratic_sign(F(0), F(0), F(3), 7) == 1
    assert cbrt_quadratic_sign(F(0), F(0), F(0), 7) == 0
    assert cbrt_quadratic_sign(F(0), F(1), F(-2), 7) == -1  # cbrt(7) < 2
    assert cbrt_quadratic_sign(F(0), F(1), F(-1), 7) == 1
    assert cbrt_quadratic_sign(F(0), F(-1), F(2), 7) == 1


def test_cbrt_sign_random_oracle():
    rng = random.Random(4242)
    cbrts = {q: fx_cbrt(q) for q in range(0, 70)}
    assert cbrts[27] == 3 * SCALE and cbrts[8] == 2 * SCALE
    checked = 0
    for _ in range(1500):
        c2 = F(rng.randint(-30, 30), rng.randint(1, 8))
        c1 = F(rng.randint(-30, 30), rng.randint(1, 8))
        c0 = F(rng.randint(-30, 30), rng.randint(1, 8))
        q = rng.randint(0, 69)
        got = cbrt_quadratic_sign(c2, c1, c0, q)
        t = cbrts[q]
        val = (
            c2.numerator * (t * t // SCALE) // c2.denominator
            + c1.numerator * t // c1.denominator
            + c0.numerator * SCALE // c0.denominator
        )
        if abs(val) < (1 << 120):
            assert got == 0 or abs(val) <= 8, (c2, c1, c0, q, got, val)
            continue
        assert got == (val > 0) - (val < 0), (c2, c1, c0, q)
        checked += 1
    assert checked > 1300


def _near_zero_cases(rng, count):
    """(c2, c1, c0, n) with c0 one of -m+1..-m-2, m the floor of c2 t^2 + c1 t.

    Those constant terms put the quadratic within two of zero, where a sign
    test has least room; m comes from CubeRootBound, only to place the inputs.
    """
    for _ in range(count):
        n = rng.choice([rng.randint(0, 10**6), rng.randint(0, 10**40)])
        c2 = F(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        c1 = F(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        m = CubeRootBound(n, F(0), c2, c1).exact_floor()
        for j in range(-1, 3):
            yield c2, c1, F(-m - j), n


def test_cbrt_sign_norm_matches_root_factoring():
    rng = random.Random(20261018)

    def coef():
        if rng.random() < 0.15:
            return F(0)
        return F(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))

    cases = []
    for _ in range(1500):
        n = rng.choice(
            [rng.randint(0, 70), rng.randint(0, 10**12), rng.randint(0, 10**40)]
            + [rng.randint(0, 10**13) ** 3]
        )
        cases.append((coef(), coef(), coef(), n))
    cases.extend(_near_zero_cases(rng, 300))
    # the unital floors: q^2 - q + 1 + q^(2/3) - (2/3) q^(1/3) against m-1..m+2
    for q in list(range(5, 200)) + [rng.randint(200, 10**40) for _ in range(100)]:
        rep = unital_second_max_bound(q)
        expr = rep.value
        for m in range(rep.floor_value - 1, rep.floor_value + 3):
            cases.append((expr.sq_coef, expr.lin_coef, expr.const - m, q))
    signs = set()
    for c2, c1, c0, n in cases:
        got = cbrt_quadratic_sign(c2, c1, c0, n)
        assert got == cbrt_sign_by_roots(c2, c1, c0, n), (c2, c1, c0, n)
        signs.add(got)
    assert signs == {-1, 0, 1}
