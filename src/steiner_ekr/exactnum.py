"""Exact arithmetic for certificate-grade inequality checking.

Rationals are ints or plain ``fractions.Fraction`` (reduced, positive
denominator, arbitrary precision); a float, str or Decimal raises TypeError.
Quadratic surds a + b*sqrt(n) are compared through sign analysis with at
most two squarings; equality is decided exactly, never through an epsilon.
A polynomial in a real cube root takes the sign of its field norm, one
integer.  ``CubeRootBound`` holds such an expression with a constant term
and floors it by those sign tests.  An integer cube root is a plain int x
with x^3 <= n < (x+1)^3.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt, lcm

from .errors import Record

__all__ = [
    "CubeRootBound",
    "SurdExpr",
    "cbrt_quadratic_sign",
    "cmp_surd",
    "icbrt_floor",
    "surd_floor",
    "surd_sign",
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _exact(x):
    """x itself if it is an int or a Fraction; a float, str or Decimal is not exact: TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact value must be an int or a Fraction, not {type(x).__name__}")
    return x


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(_exact(x))


def _check_radicand(n) -> None:
    """TypeError unless n is an int, ValueError if it is negative."""
    if not isinstance(n, int):
        raise TypeError(f"radicand must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("negative radicand")


def icbrt_floor(value: int) -> int:
    """The x with x^3 <= value < (x+1)^3, the floor of the cube root of value >= 0."""
    _check_radicand(value)
    # Newton iteration from an over-estimate, then exact fixup.
    x = 1 << -(-value.bit_length() // 3)
    while value:
        y = (2 * x + value // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x**3 > value:
        x -= 1
    while (x + 1) ** 3 <= value:
        x += 1
    return x


class SurdExpr(Record):
    """Exact a + b*sqrt(n) with rational a, b and integer radicand n >= 0.

    Instances compare structurally, field by field (a ``Record``), so
    SurdExpr(0, 1, 4) != SurdExpr(2, 0, 0); algebraic order and equality go
    through :func:`cmp_surd`, which is exact for all inputs.
    """

    __slots__ = _fields = ("a", "b", "n")
    a: Fraction
    b: Fraction
    n: int

    def __init__(self, a, b, n: int):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        _check_radicand(n)
        object.__setattr__(self, "n", n)

    @classmethod
    def rational(cls, x) -> "SurdExpr":
        return cls(_frac(x), Fraction(0), 0)


def _scaled(*xs) -> list[int]:
    """The rationals xs times the lcm of their denominators: integers, same signs and ratios."""
    fs = [_exact(x) for x in xs]
    den = lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs]


def surd_sign(a, b, n: int) -> int:
    """Exact sign of a + b*sqrt(n)."""
    _check_radicand(n)
    a, b = _scaled(a, b)
    sa = _sign(a)
    sb = _sign(b) if n else 0  # b*sqrt(0) is 0 whatever b is
    if sa * sb >= 0:
        return sa or sb
    # Opposite signs: compare a^2 with b^2 n, equal only when n is a square.
    d = a * a - b * b * n
    return 0 if d == 0 else (sa if d > 0 else sb)


def cmp_surd(lhs: SurdExpr, rhs: SurdExpr) -> int:
    """-1 / 0 / +1 ordering of two quadratic surds, decided exactly.

    lhs - rhs is a + b*sqrt(m) + c*sqrt(n) with m = lhs.n and n = rhs.n; its
    sign takes two squarings at most.
    """
    m, n = lhs.n, rhs.n
    a, rhs_a, b, c = _scaled(lhs.a, rhs.a, lhs.b, -rhs.b)
    a -= rhs_a
    # sign of b*sqrt(m) + c*sqrt(n); zero is possible (e.g. 2*sqrt(2) - sqrt(8)).
    # A coefficient over a zero radicand counts as 0; no step needs a non-square radicand.
    sb, sc = _sign(b) if m else 0, _sign(c) if n else 0
    d = b * b * m - c * c * n
    st = sb if sb == sc or d > 0 else (sc if d < 0 else 0)
    sa = _sign(a)
    if sa * st >= 0:
        return sa or st
    # a and the radical part have opposite signs: square once more.
    d2 = surd_sign(a * a - b * b * m - c * c * n, -2 * b * c, m * n)
    return 0 if d2 == 0 else (sa if d2 > 0 else st)


def _floor_from_sign(sign_at, guess: int) -> int:
    """floor(x) from sign_at(m) = sign(x - m): O(log |floor(x) - guess|) sign tests.

    Gallops from the guess in steps 1, 2, 4, ... and then bisects; a guess within one
    of the floor costs three tests at most.  A sign_at that has not changed sign
    after 4 * bit_length(guess) + 256 doublings, a distance far beyond any guess
    error, is taken to be broken: ArithmeticError rather than a walk without end.
    """
    cap = 1 << (4 * guess.bit_length() + 256)
    lo, hi, step = guess, guess + 1, 1
    while sign_at(lo) < 0:
        if step > cap:
            raise ArithmeticError(f"sign oracle never changed sign below the guess {guess}")
        lo, hi, step = lo - step, lo, 2 * step
    while sign_at(hi) >= 0:
        if step > cap:
            raise ArithmeticError(f"sign oracle never changed sign above the guess {guess}")
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sign_at(mid) >= 0 else (lo, mid)
    return lo


def surd_floor(x: SurdExpr) -> int:
    """Exact floor of a + b*sqrt(n).

    The guess floor(a +- isqrt(floor(b^2 n))) is within one of the floor, so
    the floor costs at most three exact sign tests at any magnitude.
    """
    root = isqrt(floor(x.b * x.b * x.n))
    guess = floor(x.a + (root if x.b > 0 else -root))
    return _floor_from_sign(lambda m: surd_sign(x.a - m, x.b, x.n), guess)


def cbrt_quadratic_sign(c2, c1, c0, radicand: int) -> int:
    """Exact sign of x = c2*t**2 + c1*t + c0 at t = radicand ** (1/3).

    Cube-root expressions are degree three over the rationals, so a plain
    squaring chain does not apply.  For a radicand n that is not a cube, the
    other two conjugates of x (t replaced by w*t and w*w*t, w a primitive
    cube root of unity) are a complex pair, so x has the sign of its norm
    c0^3 + c1^3 n + c2^3 n^2 - 3 c0 c1 c2 n, which is zero only when x is.
    A perfect cube n = m^3 is evaluated directly: there the norm also vanishes
    on c2 (t^2 + m t + m^2), whose value 3 c2 m^2 is not zero.
    """
    _check_radicand(radicand)
    c2, c1, c0 = _scaled(c2, c1, c0)
    root = icbrt_floor(radicand)
    if root**3 == radicand:
        return _sign((c2 * root + c1) * root + c0)
    n = radicand
    return _sign(c0**3 + c1**3 * n + c2**3 * n * n - 3 * c0 * c1 * c2 * n)


class CubeRootBound(Record):
    """const + sq_coef * radicand^(2/3) + lin_coef * radicand^(1/3), exactly."""

    __slots__ = _fields = ("radicand", "const", "sq_coef", "lin_coef")
    radicand: int
    const: Fraction
    sq_coef: Fraction
    lin_coef: Fraction

    def __init__(self, radicand: int, const, sq_coef, lin_coef):
        _check_radicand(radicand)
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "const", _frac(const))
        object.__setattr__(self, "sq_coef", _frac(sq_coef))
        object.__setattr__(self, "lin_coef", _frac(lin_coef))

    def compare(self, m: int) -> int:
        """Sign of (self - m), decided without floating point."""
        return cbrt_quadratic_sign(self.sq_coef, self.lin_coef, self.const - m, self.radicand)

    def exact_floor(self) -> int:
        """floor(self) by exact sign tests, at most three of them for any coefficients.

        The guess takes both roots in fixed point, T2 = floor(2^s radicand^(2/3))
        and T = floor(2^s radicand^(1/3)), with 2^s > |sq_coef| + |lin_coef|, so
        const + (sq_coef T2 + lin_coef T) / 2^s is off by less than one.
        """
        s = ceil(abs(self.sq_coef) + abs(self.lin_coef)).bit_length()
        t2 = icbrt_floor(self.radicand**2 << 3 * s)
        t = icbrt_floor(self.radicand << 3 * s)
        guess = floor(self.const + Fraction(self.sq_coef * t2 + self.lin_coef * t, 1 << s))
        return _floor_from_sign(self.compare, guess)
