"""Small finite fields, projective / Hermitian point sets and their secant lines.

Two caps keep every construction small.  A field GF(q) has at most
``MAX_FIELD_ORDER`` = 2**16 elements, and ``prime_power`` refuses a q above
that cap before it factors, so no trial division runs on a larger number.  A
projective space has at most ``MAX_POINTS`` = 2**17 points: ``pg_points``
refuses a larger one before listing it, and its lines are listed only when
they hold at most ``MAX_POINTS`` line-point incidences, which ``pg_lines``
checks before it lists the points.

Field elements use a dense integer encoding: the element with base-p digits
(c0, c1, ...) is sum(ci * p**i), so 0 and 1 are the additive and
multiplicative identities.  A field is named by its order: ``Field(q)``
factors q = p^e with ``prime_power`` and takes as its modulus the least monic
irreducible polynomial of degree e, with coefficients compared from the
highest degree down; ``field(q)`` is its cached constructor.
Multiplication runs on discrete log tables built from a fixed generator
search, which keeps every construction reproducible across runs and
platforms.

Lines of PG(d, q) and the blocks of a Hermitian unital are both secant lines
of a point set, and both come from ``secant_lines``, which cuts each line of
the space down to the set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import DomainError

__all__ = ["Field", "field", "hermitian_points", "pg_lines", "pg_points"]

MAX_FIELD_ORDER = 1 << 16
MAX_POINTS = 1 << 17


def _factor(n: int) -> dict[int, int]:
    """The prime factorization of n as {p: multiplicity}, by trial division; {} for n < 2."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Factor q = p**f with p prime, or raise DomainError; q above MAX_FIELD_ORDER is refused."""
    if q > MAX_FIELD_ORDER:
        raise DomainError(f"{q} exceeds the field order cap {MAX_FIELD_ORDER}")
    factors = _factor(q)
    if len(factors) != 1:
        raise DomainError(f"{q} is not a prime power")
    [(p, f)] = factors.items()
    return p, f


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a mod the monic m, as deg(m) coefficients, lowest degree first."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return tuple(x % p for x in a[:dm])


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division of the monic m by every monic polynomial of degree <= deg(m)/2."""
    for d in range(1, (len(m) - 1) // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = (*tail, 1)
            if not any(_poly_mod(m, g, p)):
                return False
    return True


def _min_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The least monic irreducible of degree e, comparing from the highest degree down."""
    for tail in product(range(p), repeat=e):
        m = (*reversed(tail), 1)
        if _is_irreducible(m, p):
            return m
    raise DomainError(f"no irreducible polynomial of degree {e} over GF({p})")


class Field:
    """Arithmetic table for GF(q), q = p^e, on elements encoded as 0 .. q - 1."""

    def __init__(self, q: int):
        self.p, self.e = prime_power(q)
        self.order = q
        self.modulus = _min_irreducible(self.p, self.e)
        self._build_tables()

    # -- encoding -----------------------------------------------------

    def _digits(self, x: int) -> list[int]:
        p, e = self.p, self.e
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return out

    def _encode(self, digits) -> int:
        val = 0
        for c in reversed(list(digits)):
            val = val * self.p + (c % self.p)
        return val

    # -- construction -------------------------------------------------

    def _mul_raw(self, x: int, y: int) -> int:
        dx, dy = self._digits(x), self._digits(y)
        prod = [0] * (2 * self.e - 1)
        for i, a in enumerate(dx):
            if a:
                for j, b in enumerate(dy):
                    prod[i + j] = (prod[i + j] + a * b) % self.p
        return self._encode(_poly_mod(tuple(prod), self.modulus, self.p))

    def _pow_raw(self, x: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self._mul_raw(out, x)
            x = self._mul_raw(x, x)
            k >>= 1
        return out

    def _build_tables(self):
        q = self.order
        factors = _factor(q - 1)
        # the modulus is irreducible, so a generator exists; GF(2)'s is 1
        gens = (g for g in range(2, q) if all(self._pow_raw(g, (q - 1) // ell) != 1 for ell in factors))
        gen = self.generator = next(gens, 1)
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._mul_raw(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    # -- public arithmetic ---------------------------------------------

    def add(self, x: int, y: int) -> int:
        p = self.p
        if self.e == 1:
            return (x + y) % p
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        q1 = self.order - 1
        return self._exp[(self._log[x] + self._log[y]) % q1]

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        q1 = self.order - 1
        return self._exp[(self._log[x] * k) % q1]

    @property
    def elements(self) -> range:
        return range(self.order)


# GF(2**16) keeps 5.4 MB of tables, so the cache is bounded.  The test suite
# builds 35 distinct fields and asks for each again later, which sets the
# bound; a census-cli benchmark pass cycles through 4, a unital build asks for
# GF(q^2) twice in a row, and every other constructor asks once.
@lru_cache(maxsize=35)
def field(q: int) -> Field:
    return Field(q)


# -- projective geometry ------------------------------------------------


def pg_points(fld: Field, dim: int) -> list[tuple[int, ...]]:
    """Points of PG(dim, q), lexicographically sorted normalized coordinates.

    Raises DomainError, before listing any, when there are more than MAX_POINTS.
    """
    q = fld.order
    # PG(dim, q) has more than 2**dim points
    if dim >= MAX_POINTS.bit_length() or num_pg_points(dim, q) > MAX_POINTS:
        raise DomainError(f"PG({dim}, {q}) has more than {MAX_POINTS} points")
    pts = []
    for lead in range(dim + 1):
        for tail in product(range(q), repeat=dim - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def num_pg_points(dim: int, q: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def num_pg_lines(dim: int, q: int) -> int:
    return ((q ** (dim + 1) - 1) * (q**dim - 1)) // ((q * q - 1) * (q - 1))


def _check_line_incidences(dim: int, q: int) -> None:
    """Refuse PG(dim, q) if its lines hold over MAX_POINTS incidences, as at any dim >= 17."""
    if dim >= MAX_POINTS.bit_length() or num_pg_lines(dim, q) * (q + 1) > MAX_POINTS:
        raise DomainError(f"the lines of PG({dim}, {q}) hold more than {MAX_POINTS} points")


def _lines(fld: Field, dim: int):
    """Every line of PG(dim, q) once, as the list of its q + 1 normalized points.

    A line has one reduced echelon basis: v leads with its 1 at j, and u leads
    with its 1 at i < j and is 0 at j.  Its points v and u + t*v, t in GF(q),
    then lead with a 1 as they stand.  Callers check _check_line_incidences
    before listing any line.
    """
    els = fld.elements
    for j in range(1, dim + 1):
        for vtail in product(els, repeat=dim - j):
            v = (0,) * j + (1, *vtail)
            # u + t*v is u's head before j and t at j; only its tail takes arithmetic
            tvtails = [[fld.mul(t, c) for c in vtail] for t in els]
            for i in range(j):
                for mid in product(els, repeat=j - i - 1):
                    head = (0,) * i + (1, *mid)
                    for utail in product(els, repeat=dim - j):
                        yield [v] + [(*head, t, *map(fld.add, utail, tv)) for t, tv in zip(els, tvtails)]


def secant_lines(fld: Field, pts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every line through two or more of pts, as the sorted indices of pts on it, sorted.

    pts are normalized points of one projective space over fld.
    """
    dim = len(pts[0]) - 1
    _check_line_incidences(dim, fld.order)
    index = {pt: i for i, pt in enumerate(pts)}
    lines = []
    for line in _lines(fld, dim):
        on = sorted(index[pt] for pt in line if pt in index)
        if len(on) > 1:
            lines.append(tuple(on))
    lines.sort()
    return lines


def pg_lines(dim: int, q: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Points and lines of PG(dim, q); lines are sorted tuples of point indices."""
    if dim < 2:
        raise DomainError("need dimension at least 2")
    fld = field(q)
    _check_line_incidences(dim, q)
    pts = pg_points(fld, dim)
    lines = secant_lines(fld, pts)
    if len(pts) != num_pg_points(dim, q) or len(lines) != num_pg_lines(dim, q):
        raise DomainError("projective space construction self-check failed")
    return pts, lines


# -- Hermitian curve ------------------------------------------------------


def hermitian_points(q: int) -> list[tuple[int, ...]]:
    """Points of PG(2, q^2) with x0^(q+1) + x1^(q+1) + x2^(q+1) = 0."""
    prime_power(q)  # so that an error names q, not q**2
    fld = field(q * q)
    m = q + 1
    sel = []
    for pt in pg_points(fld, 2):
        acc = 0
        for c in pt:
            acc = fld.add(acc, fld.pow(c, m))
        if acc == 0:
            sel.append(pt)
    if len(sel) != q**3 + 1:
        raise DomainError("Hermitian curve self-check failed")
    return sel
