"""Finite fields and projective geometry over them."""

import time

import pytest

from steiner_ekr import geometry
from steiner_ekr.errors import DomainError
from steiner_ekr.geometry import (
    MAX_FIELD_ORDER,
    MAX_POINTS,
    field,
    hermitian_points,
    num_pg_lines,
    num_pg_points,
    pg_lines,
    pg_points,
    prime_power,
    secant_lines,
)


def test_prime_fields_below_60():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    prime_powers = {p**e for p in primes for e in range(1, 6)}
    for n in range(60):
        if n in prime_powers:
            assert field(n).order == n
        else:
            with pytest.raises(DomainError):
                field(n)


def test_field_cache_is_bounded():
    bound = field.cache_info().maxsize
    assert bound is not None
    orders = []
    for q in range(2, MAX_FIELD_ORDER):
        try:
            prime_power(q)
        except DomainError:
            continue
        orders.append(q)
        if len(orders) > bound:
            break
    for q in orders:
        assert field(q).order == q
        assert field.cache_info().currsize <= bound
    assert len(orders) > bound


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(169) == (13, 2)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(DomainError):
            prime_power(bad)


def test_field_order_cap():
    assert prime_power(MAX_FIELD_ORDER) == (2, 16)
    with pytest.raises(DomainError, match="exceeds the field order cap"):
        field(MAX_FIELD_ORDER * 2)


LARGE_INPUTS = {
    # a prime far above the field cap: refused before any trial division
    "field": lambda: field(2**61 - 1),
    "prime_power": lambda: prime_power(2**61 - 1),
    "hermitian_points": lambda: hermitian_points(2**61 - 1),
    # PG(2, 4096), PG(40, 2) and beyond: refused before their points are listed
    "hermitian_points-64": lambda: hermitian_points(64),
    "pg_points": lambda: pg_points(field(2), 40),
    "pg_lines": lambda: pg_lines(40, 2),
    "pg_points-huge-dim": lambda: pg_points(field(2), 10**12),
    # under the point cap, but their lines hold more than MAX_POINTS incidences
    "pg_lines-2-128": lambda: pg_lines(2, 128),
    "pg_lines-2-256": lambda: pg_lines(2, 256),
    "pg_lines-3-32": lambda: pg_lines(3, 32),
    "pg_lines-16-2": lambda: pg_lines(16, 2),
}


@pytest.mark.parametrize("name", sorted(LARGE_INPUTS))
def test_large_inputs_are_refused_at_once(name):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        LARGE_INPUTS[name]()
    assert time.perf_counter() - start < 1.0


def test_pg_lines_refuses_before_listing_points(monkeypatch):
    # PG(16, 2) has 131,071 points, under the point cap, but its lines are
    # refused; the points must not be listed first
    def no_points(*args):
        raise AssertionError("pg_points called")

    monkeypatch.setattr(geometry, "pg_points", no_points)
    for dim in (16, 10**12):
        with pytest.raises(DomainError, match="lines of PG"):
            pg_lines(dim, 2)


def test_pg_lines_needs_dimension_two():
    with pytest.raises(DomainError, match="dimension at least 2"):
        pg_lines(1, 2)


def test_point_cap_admits_the_plane_over_gf256():
    assert num_pg_points(2, 256) <= MAX_POINTS < num_pg_points(2, 4096)
    assert num_pg_points(16, 2) <= MAX_POINTS < num_pg_points(17, 2)


def test_incidence_cap_admits_the_planes_up_to_gf49():
    assert num_pg_lines(2, 49) * 50 <= MAX_POINTS < num_pg_lines(2, 64) * 65
    for q in (43, 49):
        points, lines = pg_lines(2, q)
        assert len(lines) == len(points) == num_pg_points(2, q)


def test_gf2_tables():
    f = field(2)
    assert [f.add(a, b) for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 0]
    assert [f.mul(a, b) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]


def test_gf4_multiplication():
    f = field(4)
    # elements 2 and 3 are the two primitive cube roots of unity
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.pow(2, 3) == 1


def test_field_axioms_by_enumeration():
    for q in (7, 9, 16, 25):
        f = field(q)
        elems = list(f.elements)
        assert len(elems) == q
        for x in elems:
            if x:
                assert f.mul(x, f.pow(x, -1)) == 1
            # y -> x + y permutes the field, so every x has an additive inverse
            assert sorted(f.add(x, y) for y in elems) == sorted(elems)
            for y in elems:
                assert f.mul(x, y) == f.mul(y, x)
        # distributivity on a slice is enough to catch a bad modulus
        for x in elems[:5]:
            for y in elems:
                for z in elems[:5]:
                    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


# Moduli that GF(p^e) used before one rule chose them all, constant
# coefficient first; each is the least monic irreducible compared from the
# highest degree down.
FORMER_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
}


@pytest.mark.parametrize("pe", sorted(FORMER_MODULI))
def test_default_modulus_keeps_the_former_table(pe):
    assert field(pe[0] ** pe[1]).modulus == FORMER_MODULI[pe]


def test_default_modulus_is_least_from_the_top():
    # GF(81): x^4 + 2 and x^4 + 1 split, x^4 + x + 1 has the root 1
    assert field(81).modulus == (2, 1, 0, 0, 1)
    assert field(5).modulus == (0, 1)


# Generators the table construction picks, pinned so that a change to the
# factoring or the search cannot move them: every log and exp table follows
# from the generator and the modulus.
FORMER_GENERATORS = {(2, 8): 3, (43, 1): 3, (5, 2): 6, (19, 2): 22, (251, 2): 256, (65521, 1): 17}


@pytest.mark.parametrize("pe", sorted(FORMER_GENERATORS))
def test_generator_keeps_the_former_choice(pe):
    assert field(pe[0] ** pe[1]).generator == FORMER_GENERATORS[pe]


def test_field_edge_operations():
    f = field(9)
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_pg_point_and_line_counts():
    assert num_pg_points(2, 2) == 7 and num_pg_lines(2, 2) == 7
    assert num_pg_points(3, 2) == 15 and num_pg_lines(3, 2) == 35
    assert num_pg_points(3, 3) == 40 and num_pg_lines(3, 3) == 130
    assert num_pg_points(2, 9) == 91 and num_pg_lines(2, 9) == 91
    for dim, q in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        points, lines = pg_lines(dim, q)
        assert len(points) == num_pg_points(dim, q)
        assert len(lines) == num_pg_lines(dim, q)
        assert all(len(ln) == q + 1 for ln in lines)


def test_every_point_pair_on_one_line():
    points, lines = pg_lines(3, 2)
    seen = {}
    for idx, ln in enumerate(lines):
        for i, p in enumerate(ln):
            for p2 in ln[i + 1 :]:
                key = (p, p2)
                assert key not in seen, f"pair {key} on lines {seen[key]} and {idx}"
                seen[key] = idx
    n = len(points)
    assert len(seen) == n * (n - 1) // 2


def _spanned_lines(f, pts):
    """Brute force: the closure of every pair of pts in PG over f, cut down to pts.

    The closure of a, b is a together with b + t*a for each t, each scaled so
    its first nonzero entry is 1.
    """
    index = {pt: i for i, pt in enumerate(pts)}
    lines = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            span = {a}
            for t in f.elements:
                w = [f.add(y, f.mul(t, x)) for x, y in zip(a, b)]
                s = f.pow(next(c for c in w if c), -1)
                span.add(tuple(f.mul(s, c) for c in w))
            lines.add(tuple(sorted(index[w] for w in span if w in index)))
    return sorted(lines)


PG_SPACES = [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3), (3, 4), (4, 2)]


@pytest.mark.parametrize("dim,q", PG_SPACES)
def test_pg_lines_are_the_spans_of_point_pairs(dim, q):
    points, lines = pg_lines(dim, q)
    assert lines == _spanned_lines(field(q), points)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_unital_secants_are_the_spans_of_curve_point_pairs(q):
    f = field(q * q)
    curve = hermitian_points(q)
    assert secant_lines(f, curve) == _spanned_lines(f, curve)


def test_secant_lines_keep_lines_through_two_or_more_points():
    f = field(3)
    # three points of the line x0 = 0 and one point off it
    pts = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]
    assert secant_lines(f, pts) == [(0, 1, 2), (0, 3), (1, 3), (2, 3)]


def test_hermitian_point_counts():
    for q, expect in ((2, 9), (3, 28), (4, 65)):
        assert len(hermitian_points(q)) == expect  # q^3 + 1


def test_hermitian_secant_tangent_dichotomy():
    # every line of PG(2,9) meets the q=3 curve in 1 or q+1 points;
    # 28 tangents (one per curve point) and 63 secants
    q = 3
    points, lines = pg_lines(2, q * q)
    index = {pt: i for i, pt in enumerate(points)}
    curve = {index[pt] for pt in hermitian_points(q)}
    profile = {}
    for ln in lines:
        hits = sum(1 for p in ln if p in curve)
        profile[hits] = profile.get(hits, 0) + 1
    assert profile == {1: 28, 4: 63}
