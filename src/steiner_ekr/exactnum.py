"""Exact arithmetic for certificate-grade inequality checking.

Rationals are plain ``fractions.Fraction`` (already reduced, positive
denominator, arbitrary precision).  Quadratic surds a + b*sqrt(n) are compared
through sign analysis with at most two squarings; equality is decided exactly,
never through an epsilon.  Integer k-th roots carry explicit bracketing
witnesses so a reported floor can be re-checked by multiplication alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt, lcm

Rational = Fraction

LESS, EQUAL, GREATER = -1, 0, 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RootBracket:
    """Witness that floor_root**degree <= value < (floor_root+1)**degree."""

    value: int
    degree: int
    floor_root: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative radicand")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        f = self.floor_root
        if f < 0 or not f**self.degree <= self.value < (f + 1) ** self.degree:
            raise ValueError("bracket does not hold")


def _integer_root(value: int, degree: int) -> int:
    if value == 0:
        return 0
    # Newton iteration from an over-estimate, then exact fixup.
    x = 1 << -(-value.bit_length() // degree)
    while True:
        y = ((degree - 1) * x + value // x ** (degree - 1)) // degree
        if y >= x:
            break
        x = y
    while x**degree > value:
        x -= 1
    while (x + 1) ** degree <= value:
        x += 1
    return x


def icbrt_floor(value: int, degree: int = 3) -> RootBracket:
    """Floor of value ** (1/degree) for integers, with a verified bracket."""
    if value < 0:
        raise ValueError("negative radicand")
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree == 1 or value in (0, 1):
        root = value
    elif degree == 2:
        root = isqrt(value)
    else:
        root = _integer_root(value, degree)
    return RootBracket(value, degree, root)


@dataclass(frozen=True)
class SurdExpr:
    """Exact a + b*sqrt(n) with rational a, b and integer radicand n >= 0.

    Instances compare structurally (dataclass equality); algebraic order and
    equality go through :func:`cmp_surd`, which is exact for all inputs.
    """

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.n < 0:
            raise ValueError("negative radicand")

    @classmethod
    def rational(cls, x) -> "SurdExpr":
        return cls(_frac(x), Fraction(0), 0)

    @classmethod
    def sqrt(cls, n: int, coef=1, shift=0) -> "SurdExpr":
        return cls(_frac(shift), _frac(coef), n)

    def plus(self, x) -> "SurdExpr":
        return SurdExpr(self.a + _frac(x), self.b, self.n)

    def times(self, x) -> "SurdExpr":
        c = _frac(x)
        return SurdExpr(self.a * c, self.b * c, self.n)

    def cubed(self) -> "SurdExpr":
        a, b, n = self.a, self.b, self.n
        return SurdExpr(a**3 + 3 * a * b * b * n, 3 * a * a * b + b**3 * n, n)

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.n)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.n**0.5


def _scaled(*xs) -> list[int]:
    """The rationals xs times the lcm of their denominators: integers, same signs and ratios."""
    fs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    den = lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs]


def surd_sign(a, b, n: int) -> int:
    """Exact sign of a + b*sqrt(n)."""
    if n < 0:
        raise ValueError("negative radicand")
    a, b = _scaled(a, b)
    r = isqrt(n)
    if r * r == n:
        return _sign(a + b * r)
    sa, sb = _sign(a), _sign(b)
    if sa * sb >= 0:
        return sa or sb
    # Opposite signs: compare |a| with |b|*sqrt(n).  a*a == b*b*n would make
    # sqrt(n) rational, excluded above, so the comparison is strict.
    return sa if a * a > b * b * n else sb


def double_surd_sign(a, b, m: int, c, n: int) -> int:
    """Exact sign of a + b*sqrt(m) + c*sqrt(n), two squarings at most."""
    if m < 0 or n < 0:
        raise ValueError("negative radicand")
    return _int_double_sign(m, n, *_scaled(a, b, c))


def _int_double_sign(m: int, n: int, a: int, b: int, c: int) -> int:
    rm = isqrt(m)
    if rm * rm == m:
        return surd_sign(a + b * rm, c, n)
    rn = isqrt(n)
    if rn * rn == n:
        return surd_sign(a + c * rn, b, m)
    if m == n:
        return surd_sign(a, b + c, m)
    # sign of b*sqrt(m) + c*sqrt(n); zero is possible (e.g. 2*sqrt(2) - sqrt(8))
    sb, sc, d = _sign(b), _sign(c), b * b * m - c * c * n
    st = sb if sb == sc or d > 0 else (sc if d < 0 else 0)
    sa = _sign(a)
    if sa * st >= 0:
        return sa or st
    # a and the radical part have opposite signs: square once more.
    d2 = surd_sign(a * a - b * b * m - c * c * n, -2 * b * c, m * n)
    return 0 if d2 == 0 else (sa if d2 > 0 else st)


def cmp_surd(lhs: SurdExpr, rhs: SurdExpr) -> int:
    """-1 / 0 / +1 ordering of two quadratic surds, decided exactly."""
    a, c, b, d = _scaled(lhs.a, rhs.a, lhs.b, rhs.b)
    return _int_double_sign(lhs.n, rhs.n, a - c, b, -d)


def cmp_double_surd(p, q, m: int, s, t, n: int) -> int:
    """Ordering of p + q*sqrt(m) versus s + t*sqrt(n)."""
    p, s, q, t = _scaled(p, s, q, t)
    return double_surd_sign(p - s, q, m, -t, n)


def _floor_from_sign(sign_at, guess: int) -> int:
    """floor(x) from sign_at(m) = sign(x - m): O(log |floor(x) - guess|) sign tests.

    Gallops from the guess in steps 1, 2, 4, ... and then bisects; a guess within one
    of the floor costs three tests at most.
    """
    lo, hi, step = guess, guess + 1, 1
    while sign_at(lo) < 0:
        lo, hi, step = lo - step, lo, 2 * step
    while sign_at(hi) >= 0:
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
    """Exact sign of c2*t**2 + c1*t + c0 at t = radicand ** (1/3).

    Cube-root expressions are degree three over the rationals, so a plain
    squaring chain does not apply.  Instead the quadratic is factored through
    its real roots; t is compared against each root by cubing, which turns the
    comparison back into a quadratic-surd sign.
    """
    c2, c1, c0 = _frac(c2), _frac(c1), _frac(c0)
    if radicand < 0:
        raise ValueError("negative radicand")
    root = icbrt_floor(radicand, 3).floor_root
    if root**3 == radicand:
        return _sign(c2 * root * root + c1 * root + c0)
    if c2 == 0:
        if c1 == 0:
            return _sign(c0)
        rho = -c0 / c1
        return _sign(c1) * _sign(Fraction(radicand) - rho**3)
    bb = c1 / c2
    cc = c0 / c2
    disc = bb * bb - 4 * cc
    if disc < 0:
        return _sign(c2)
    half = Fraction(1, 2)
    sqrt_disc = SurdExpr(0, Fraction(1, disc.denominator), disc.numerator * disc.denominator)
    lo = sqrt_disc.times(-half).plus(-bb * half)
    hi = sqrt_disc.times(half).plus(-bb * half)
    return _sign(c2) * _cbrt_vs_surd(radicand, lo) * _cbrt_vs_surd(radicand, hi)


def _cbrt_vs_surd(radicand: int, rho: SurdExpr) -> int:
    # cube is strictly increasing on the reals, so compare radicand with rho**3
    cub = rho.cubed()
    return surd_sign(Fraction(radicand) - cub.a, -cub.b, cub.n)
