"""Intersecting families: construction, enumeration, O'Nan detection, classification.

Census numbers asserted here were frozen after cross-checking the enumerator
against a brute-force maximal-clique scan on every design small enough to
admit one; the larger designs are pinned so any behavioural drift surfaces.
"""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import pathlib
import random
import tracemalloc
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import steiner_ekr as se
from steiner_ekr.canon import canonical_code, concurrency_classes
from steiner_ekr.designs import MAX_BLOCKS
from steiner_ekr.ekr import (
    BlockSet,
    HasONan,
    NotIntersecting,
    PointOnBlock,
    classify,
    classify_onan_free,
    cover_profile,
    enumerate_maximal_ekr,
    find_onan,
    is_intersecting,
    is_maximal,
    max_ekr_size,
    maximal_family_sizes,
    point_pencil,
    shape,
    triangle,
)
from steiner_ekr.errors import BudgetExceeded, DomainError
from steiner_ekr.geometry import prime_power


# Every builtin design the classification digest covers.
DIGEST_CORPUS = (
    [(se.complete_graph, n) for n in range(3, 11)]
    + [(se.sts13, 1), (se.sts13, 2)]
    + [(se.projective_plane, q) for q in (2, 3, 4, 5)]
    + [(se.affine_plane, 3), (se.affine_plane, 4), (se.pg3_line_design, 2)]
    + [(se.hermitian_unital, q) for q in (2, 3, 4)]
)


# -- block sets --------------------------------------------------------------


def test_blockset_container_protocol():
    d = se.projective_plane(2)
    fam = BlockSet(d, [3, 0, 5])
    assert len(fam) == 3
    assert fam.indices() == (0, 3, 5)
    assert list(fam) == [0, 3, 5]
    assert 3 in fam and 1 not in fam
    for same in (BlockSet(d, [0, 3, 5]), BlockSet(d, 0b101001)):
        assert fam == same and hash(fam) == hash(same)
    assert fam != BlockSet(d, [0, 3])
    assert repr(fam) == "BlockSet((0, 3, 5))"
    assert repr(BlockSet(d)) == "BlockSet(())"


def test_blockset_is_frozen():
    d = se.projective_plane(2)
    fam = BlockSet(d, [0, 3])
    held = {fam}
    for name, value in (("mask", 8), ("design", se.projective_plane(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fam, name, value)
    assert fam.mask == 0b1001 and fam in held and BlockSet(d, 0b1001) in held


def test_blockset_equality_is_per_design_object():
    d, twin = se.projective_plane(2), se.projective_plane(2)
    assert d.blocks == twin.blocks
    assert BlockSet(d, [0, 1]) != BlockSet(twin, [0, 1])
    assert BlockSet(d, 3) != 3


def test_blockset_rejects_bad_indices():
    d = se.projective_plane(2)
    with pytest.raises(DomainError):
        BlockSet(d, [7])
    with pytest.raises(DomainError):
        BlockSet(d, 1 << 7)
    with pytest.raises(DomainError):
        BlockSet(d, [-1])


@pytest.mark.parametrize("blocks", [[1.0], ["1"], "1", [True], 1.5, True, None], ids=repr)
def test_blockset_rejects_values_that_are_not_ints(blocks):
    # once a bare TypeError from the bit arithmetic, and True passed as the mask 1
    with pytest.raises(DomainError):
        BlockSet(se.projective_plane(2), blocks)


def test_intersection_adjacency_fano_is_complete():
    d = se.projective_plane(2)
    adj = d.intersection_adjacency
    full = (1 << 7) - 1
    for i in range(7):
        assert adj[i] == full & ~(1 << i)


def _through(design, point):
    return [j for j, bl in enumerate(design.blocks) if point in bl]


def _relabelled(design, seed):
    """design with its points permuted; Design sorts its blocks, so their indices move too."""
    perm = list(range(design.v))
    random.Random(seed).shuffle(perm)
    return se.Design(design.v, design.k, [sorted(perm[p] for p in bl) for bl in design.blocks])


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize(
    "make, arg", DIGEST_CORPUS, ids=[f"{make.__name__}-{arg}" for make, arg in DIGEST_CORPUS]
)
def test_intersection_adjacency_matches_block_overlap(make, arg, relabel):
    d = make(arg)
    if relabel:
        d = _relabelled(d, arg)
    adj = d.intersection_adjacency
    for i, j in itertools.combinations(range(d.b), 2):
        meets = bool(set(d.blocks[i]) & set(d.blocks[j]))
        assert bool((adj[i] >> j) & 1) == meets
        assert bool((adj[j] >> i) & 1) == meets
    assert all(not (adj[i] >> i) & 1 for i in range(d.b))
    for p in range(d.v):
        assert d.pencil_masks[p] == sum(1 << j for j in _through(d, p))


@pytest.mark.parametrize("name", ["sts13a", "unital3"])
def test_pencils_and_triangles_match_block_lists(suite, name):
    # the list-based definitions the mask expressions replaced
    d = suite.design(name)
    for p in range(d.v):
        through = _through(d, p)
        assert point_pencil(d, p) == BlockSet(d, through)
        for blk, bl in enumerate(d.blocks):
            if p in bl:
                continue
            members = [blk] + [j for j in through if set(d.blocks[j]) & set(bl)]
            assert triangle(d, p, blk) == BlockSet(d, members)


def test_analysed_designs_are_freed():
    d = se.hermitian_unital(3)
    assert len(d.intersection_adjacency) == 63
    assert find_onan(d) is None
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


# -- hand-built families -----------------------------------------------------


def test_point_pencil_structure():
    d = se.sts13(1)
    for p in range(d.v):
        fam = point_pencil(d, p)
        assert len(fam) == d.r
        assert all(p in d.blocks[i] for i in fam)
        prof = cover_profile(fam)
        assert prof.k_s == d.r
        assert prof.covered == d.r * (d.k - 1) + 1
        assert is_maximal(fam)
    with pytest.raises(DomainError):
        point_pencil(d, 13)


def test_triangle_structure():
    d = se.hermitian_unital(3)
    blk = 0
    external = next(p for p in range(d.v) if p not in d.blocks[blk])
    fam = triangle(d, external, blk)
    assert len(fam) == d.k + 1
    assert blk in fam
    prof = cover_profile(fam)
    assert prof.k_s == d.k  # the external point carries k members
    assert is_intersecting(fam)
    assert is_maximal(fam)
    with pytest.raises(PointOnBlock):
        triangle(d, d.blocks[blk][0], blk)
    with pytest.raises(DomainError):
        triangle(d, -1, blk)
    with pytest.raises(DomainError, match="block index"):
        triangle(d, external, d.b)


@pytest.mark.parametrize(
    "make, args",
    [
        (point_pencil, (1.0,)),
        (point_pencil, (True,)),
        (point_pencil, ("1",)),
        (triangle, (0, 6.0)),
        (triangle, (0, True)),
        (triangle, (1.0, 6)),
        (triangle, (False, 6)),
    ],
    ids=repr,
)
def test_shapes_refuse_an_index_that_is_not_an_int(make, args):
    # once a bare TypeError, and point_pencil(d, True) was the pencil of point 1
    with pytest.raises(DomainError, match="is not an int$"):
        make(se.sts13(1), *args)


def test_maximality_predicates():
    d = se.sts13(1)
    pencil = point_pencil(d, 0)
    sub = BlockSet(d, pencil.indices()[:-1])
    assert is_intersecting(sub)
    assert not is_maximal(sub)
    other = next(i for i, blk in enumerate(d.blocks) if blk[0] > 2)
    disjoint = BlockSet(d, [d.block_index((0, 1, 2)), other])
    assert not is_intersecting(disjoint)
    with pytest.raises(NotIntersecting):
        is_maximal(disjoint)
    assert not is_maximal(BlockSet(d))


def test_cover_profile_all_fano_blocks():
    d = se.projective_plane(2)
    prof = cover_profile(BlockSet(d, (1 << 7) - 1))
    assert prof.covered == 7
    assert prof.k_s == 3
    assert prof.k_hist == (0, 0, 0, 7)
    assert prof.cover_excess == 1


def test_cover_profile_of_the_empty_family():
    d = se.hermitian_unital(3)
    assert cover_profile(BlockSet(d)) == se.CoverProfile(0, (0,), 0, -12)


# -- enumeration -------------------------------------------------------------

CENSUS = {
    "fano": {7: 1},
    "proj3": {13: 1},
    "affine3": {4: 81},
    "sts13a": {6: 13, 5: 24, 4: 164},
    "sts13b": {6: 13, 5: 39, 4: 104},
    "pg32": {7: 30},
    "unital2": {4: 81},
    "unital3": {9: 28, 5: 1512},
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census(name, suite):
    design, families = suite.pair(name)
    sizes = {}
    for fam in families:
        sizes[len(fam)] = sizes.get(len(fam), 0) + 1
    assert sizes == CENSUS[name]
    assert maximal_family_sizes(design) == CENSUS[name]


@pytest.mark.parametrize("name", ["fano", "affine3", "sts13a", "unital2", "pg32"])
def test_enumerated_families_are_maximal(name, suite):
    _, families = suite.pair(name)
    for fam in families:
        assert is_maximal(fam)
    assert len(set(families)) == len(families)


def test_complete_graph_census(suite):
    for v in (4, 5, 6, 7):
        sizes = maximal_family_sizes(se.complete_graph(v))
        expect = {3: v * (v - 1) * (v - 2) // 6}
        expect[v - 1] = expect.get(v - 1, 0) + v  # pencils; v=4 folds into size 3
        assert sizes == expect


def test_min_size_is_a_pure_filter(suite):
    design, full = suite.pair("sts13a")
    filtered = enumerate_maximal_ekr(design, min_size=5)
    assert filtered == [f for f in full if len(f) >= 5]
    assert len(filtered) == 37


def test_budget_is_enforced():
    d = se.sts13(1)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_maximal_ekr(d, max_count=10)
    assert exc.value.count == 201
    assert len(enumerate_maximal_ekr(d, max_count=201)) == 201


def test_negative_budget_is_refused_before_the_search(monkeypatch):
    d = se.sts13(1)
    # max_count=0 still searches and reports the exact count
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_maximal_ekr(d, max_count=0)
    assert exc.value.count == 201
    # a negative cap once ran the whole search before it said "exceed the cap -1"
    monkeypatch.setattr(se.ekr, "_bk_pivot", None)
    for cap in (-1, -201):
        with pytest.raises(DomainError, match=f"^the requested cap {cap} is negative$"):
            enumerate_maximal_ekr(d, max_count=cap)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_size": "3"},
        {"min_size": 3.0},
        {"min_size": True},
        {"max_count": 1.5},
        {"max_count": True},
        {"max_count": "10"},
    ],
    ids=repr,
)
def test_enumeration_refuses_arguments_that_are_not_ints(monkeypatch, kwargs):
    # max_count=1.5 was once a cap printed in BudgetExceeded, and min_size="3"
    # a bare TypeError; the refusal comes before the O'Nan scan and the search
    monkeypatch.setattr(se.ekr, "_bk_pivot", None)
    design = se.sts13(1)
    with pytest.raises(DomainError, match="is not an int$"):
        enumerate_maximal_ekr(design, **kwargs)
    assert "onan" not in design.__dict__


@pytest.mark.parametrize("make, arg", [(se.sts13, 1), (se.hermitian_unital, 3)])
@pytest.mark.parametrize("min_size", [1, 5])
def test_budget_boundary_is_exact(make, arg, min_size):
    design = make(arg)
    families = enumerate_maximal_ekr(design, min_size=min_size)
    count = len(families)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_maximal_ekr(design, min_size=min_size, max_count=count - 1)
    assert exc.value.count == count
    assert enumerate_maximal_ekr(design, min_size=min_size, max_count=count) == families


@pytest.mark.parametrize(
    "make, arg", [(se.sts13, 1), (se.hermitian_unital, 3), (se.complete_graph, 5)]
)
def test_min_size_bounds(make, arg):
    design = make(arg)
    families = enumerate_maximal_ekr(design)
    largest = max(len(f) for f in families)
    assert [len(f) for f in enumerate_maximal_ekr(design, min_size=largest)] == [
        len(f) for f in families if len(f) == largest
    ]
    assert enumerate_maximal_ekr(design, min_size=largest + 1) == []
    assert enumerate_maximal_ekr(design, min_size=largest + 1, max_count=0) == []
    for min_size in (0, -3):
        assert enumerate_maximal_ekr(design, min_size=min_size) == families


def _enumeration_peak(design, **kwargs):
    """tracemalloc peak of one enumerate_maximal_ekr call, and the family count."""
    tracemalloc.start()
    try:
        try:
            count = len(enumerate_maximal_ekr(design, **kwargs))
        except BudgetExceeded as exc:
            count = exc.count
        return tracemalloc.get_traced_memory()[1], count
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make, arg, families", [(se.hermitian_unital, 3, 1540), (se.affine_plane, 4, 1024)], ids=["unital-3", "affine-4"]
)
def test_budget_keeps_memory_small(make, arg, families):
    # unital:3 takes the closed form, which counts its families and raises
    # before it builds a mask; affine:4 has O'Nan configurations, so its
    # capped search keeps ten.  Both are small, as tracing slows the search
    # about 20-fold.  Python 3.10 allocates the search's frames once, on the
    # first capped run (4,800 bytes against 1,500 after), so a warm-up run
    # is left out of both peaks too: affine-4's full/capped ratio then reads
    # about 65 on 3.10 and 3.11 alike, not 19.9 against the bound of 20.
    d = make(arg)
    d.intersection_adjacency, d.onan  # cached on the design, so left out of both peaks
    with pytest.raises(BudgetExceeded):
        enumerate_maximal_ekr(d, max_count=10)
    capped, count = _enumeration_peak(d, max_count=10)
    full, full_count = _enumeration_peak(d)
    assert count == full_count == families
    assert capped < full / 20


# Every builtin design with at most 208 blocks except affine:q for q >= 7:
# an affine plane has q^(q+1) maximal families, 5,764,801 at q = 7.
ORACLE_DESIGNS = (
    [(se.projective_plane, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [(se.affine_plane, q) for q in (2, 3, 4, 5)]
    + [(se.pg3_line_design, q) for q in (2, 3)]
    + [(se.hermitian_unital, q) for q in (2, 3, 4)]
    + [(se.sts13, variant) for variant in (1, 2)]
    + [(se.complete_graph, v) for v in range(3, 21)]
)


def _networkx_cliques(design):
    """The maximal cliques of the intersection graph, by networkx, as sorted index tuples."""
    blocks = [set(bl) for bl in design.blocks]
    graph = nx.Graph()
    graph.add_nodes_from(range(design.b))
    graph.add_edges_from(
        (i, j) for i, j in itertools.combinations(range(design.b), 2) if blocks[i] & blocks[j]
    )
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(graph))


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize(
    "make, arg", ORACLE_DESIGNS, ids=[f"{m.__name__}-{a}" for m, a in ORACLE_DESIGNS]
)
def test_enumeration_matches_networkx(make, arg, seed):
    design = make(arg)
    if seed is not None:
        design = _relabelled(design, seed)
    cliques = _networkx_cliques(design)
    for min_size in (1, design.k + 1, design.r):
        got = [f.indices() for f in enumerate_maximal_ekr(design, min_size=min_size)]
        assert got == [c for c in cliques if len(c) >= min_size]


ANTI_PASCH_STS15 = pathlib.Path(__file__).parent / "data" / "sts15_anti_pasch.txt"

# The O'Nan-free designs with k >= 3 that the closed form is checked on.
ONAN_FREE_DESIGNS = [
    (se.hermitian_unital, 2),
    (se.hermitian_unital, 3),
    (se.hermitian_unital, 4),
    (se.affine_plane, 3),
    (se.load_design, ANTI_PASCH_STS15),
]


def _searched_masks(design, min_size):
    """The masks _bk_pivot finds with min_size, sorted by index tuple."""
    out = se.ekr._Cliques(math.inf)
    se.ekr._bk_pivot(design.intersection_adjacency, 0, 0, (1 << design.b) - 1, 0, min_size, out)
    se.ekr._sort_by_indices(out.kept, design.b)
    return out.kept


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize(
    "make, arg", ONAN_FREE_DESIGNS, ids=["unital-2", "unital-3", "unital-4", "affine-3", "sts15-anti-pasch"]
)
def test_closed_form_matches_the_search_and_networkx(make, arg, seed, monkeypatch):
    design = make(arg)
    if seed is not None:
        design = _relabelled(design, seed)
    assert design.k >= 3 and find_onan(design) is None
    sizes = (1, design.k + 1, design.r, design.r + 1)
    searched = {min_size: _searched_masks(design, min_size) for min_size in sizes}
    cliques = _networkx_cliques(design)
    assert len(cliques) == design.v * (1 + design.b - design.r)
    monkeypatch.setattr(se.ekr, "_bk_pivot", None)  # the closed form never searches
    for min_size in sizes:
        families = enumerate_maximal_ekr(design, min_size=min_size)
        assert [f.mask for f in families] == searched[min_size]
        assert [f.indices() for f in families] == [c for c in cliques if len(c) >= min_size]
        count = len(families)
        if count:
            with pytest.raises(BudgetExceeded) as exc:
                enumerate_maximal_ekr(design, min_size=min_size, max_count=count - 1)
            assert exc.value.count == count
        assert enumerate_maximal_ekr(design, min_size=min_size, max_count=count) == families


def _closed_form_by_pairs(design, min_size):
    """The closed form's masks before sorting, by one _triangle_mask call per point and block off it."""
    masks = list(design.pencil_masks) if design.r >= min_size else []
    if design.k + 1 >= min_size:
        masks += [
            se.ekr._triangle_mask(design, p, i)
            for p in range(design.v)
            for i in range(design.b)
            if p not in design.blocks[i]
        ]
    return masks


def _assert_trusted_path(design):
    """Check enumerate_maximal_ekr's unchecked BlockSets against the checked constructor."""
    closed_form = design.k >= 3 and find_onan(design) is None
    for min_size in (design.r, design.k + 1, 1):  # the last is the whole census
        if closed_form:
            count, masks = se.ekr._pencils_and_triangles(design, min_size, math.inf)
            assert masks == _closed_form_by_pairs(design, min_size) and count == len(masks)
            se.ekr._sort_by_indices(masks, design.b)
        else:
            masks = _searched_masks(design, min_size)
        families = enumerate_maximal_ekr(design, min_size=min_size)
        assert [f.mask for f in families] == masks
        for f in families:
            checked = BlockSet(design, f.mask)
            assert f == checked and hash(f) == hash(checked) and repr(f) == repr(checked)
            assert f.design is design
            for name, value in (("mask", 0), ("design", design)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(f, name, value)
    sizes = collections.Counter(len(f) for f in families)
    assert list(maximal_family_sizes(design).items()) == sorted(sizes.items(), reverse=True)
    return closed_form


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "make, arg", ORACLE_DESIGNS, ids=[f"{m.__name__}-{a}" for m, a in ORACLE_DESIGNS]
)
def test_enumerated_block_sets_match_the_checked_constructor(make, arg, seed):
    _assert_trusted_path(_relabelled(make(arg), seed))


def test_unital_5_census():
    # 126 pencils and one triangle per point and block off it: 126 * (525 - 25)
    assert maximal_family_sizes(se.hermitian_unital(5)) == {25: 126, 7: 63000}


def test_anti_pasch_sts15_census_by_closed_form_and_search(monkeypatch):
    design = se.load_design(ANTI_PASCH_STS15)
    assert find_onan(design) is None
    # 15 pencils of r = 7 triples and 15 * (35 - 7) triangles of k + 1 = 4
    families = enumerate_maximal_ekr(design)
    assert collections.Counter(map(len, families)) == {7: 15, 4: 420}
    calls = []
    search = se.ekr._bk_pivot

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(se.ekr, "_bk_pivot", counted)
    searched = se.load_design(ANTI_PASCH_STS15)
    monkeypatch.setitem(searched.__dict__, "onan", (0, 0, 0, 0))  # read as a witness: the closed form is bypassed
    assert [f.indices() for f in enumerate_maximal_ekr(searched)] == [f.indices() for f in families]
    assert calls


@pytest.mark.parametrize(
    "make, arg",
    [(se.sts13, 1), (se.pg3_line_design, 2), (se.affine_plane, 4), (se.complete_graph, 7)],
)
def test_designs_with_onan_or_k_2_are_searched(make, arg, monkeypatch):
    design = make(arg)
    assert design.k == 2 or find_onan(design) is not None
    calls = []
    search = se.ekr._bk_pivot

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(se.ekr, "_bk_pivot", counted)
    assert [f.indices() for f in enumerate_maximal_ekr(design)] == _networkx_cliques(design)
    assert calls


def test_every_builtin_projective_plane_has_an_onan_configuration():
    # four lines in general position, so no plane takes the closed form;
    # the orders are every prime power q with q^2 + q + 1 <= MAX_BLOCKS
    assert 43 * 43 + 43 + 1 <= MAX_BLOCKS < 47 * 47 + 47 + 1
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43):
        design = se.projective_plane(q)
        quad = find_onan(design)
        assert quad == (0, 1, q + 1, 2 * q + 2)
        _assert_is_onan(design, quad)


# Designs whose random sub-families the predicates are checked on, each also relabelled.
PREDICATE_DESIGNS = [se.complete_graph(6), se.sts13(1), se.affine_plane(4), se.hermitian_unital(3)]
PREDICATE_DESIGNS += [_relabelled(d, seed) for seed, d in enumerate(PREDICATE_DESIGNS)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_family_predicates_match_oracles(data):
    design = data.draw(st.sampled_from(PREDICATE_DESIGNS))
    order = data.draw(st.permutations(range(design.b)))
    blocks = [set(bl) for bl in design.blocks]
    if data.draw(st.booleans()):
        # a prefix of a greedy maximal family: intersecting, maximal when whole
        pool = []
        for j in order:
            if all(blocks[j] & blocks[i] for i in pool):
                pool.append(j)
    else:
        pool = order
    members = pool[: data.draw(st.integers(0, len(pool)))]
    fam = BlockSet(design, members)

    mult = collections.Counter(p for i in members for p in blocks[i])
    k_s = max(mult.values(), default=0)
    hist = [0] * (k_s + 1)
    for m in mult.values():
        hist[m] += 1
    k = design.k
    assert cover_profile(fam) == se.CoverProfile(len(mult), tuple(hist), k_s, len(mult) - k * (k - 1))

    intersecting = all(blocks[i] & blocks[j] for i, j in itertools.combinations(members, 2))
    assert is_intersecting(fam) == intersecting
    if not intersecting:
        with pytest.raises(NotIntersecting):
            is_maximal(fam)
    else:
        extendable = any(
            j not in members and all(blocks[j] & blocks[i] for i in members) for j in range(design.b)
        )
        assert is_maximal(fam) == (not extendable)


def test_max_ekr_size_returns_witness():
    for design, size in [
        (se.projective_plane(2), 7),
        (se.sts13(1), 6),
        (se.pg3_line_design(2), 7),
        (se.hermitian_unital(3), 9),
    ]:
        best = max_ekr_size(design)
        assert len(best) == size
        assert is_maximal(best)


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize(
    "make, arg", DIGEST_CORPUS, ids=[f"{make.__name__}-{arg}" for make, arg in DIGEST_CORPUS]
)
def test_max_ekr_size_matches_networkx(make, arg, relabel):
    design = make(arg)
    if relabel:
        design = _relabelled(design, arg)
    blocks = [set(bl) for bl in design.blocks]
    graph = nx.Graph()
    graph.add_nodes_from(range(design.b))
    graph.add_edges_from(
        (i, j) for i, j in itertools.combinations(range(design.b), 2) if blocks[i] & blocks[j]
    )
    _, size = nx.algorithms.clique.max_weight_clique(graph, weight=None)
    best = max_ekr_size(design)
    assert len(best) == size
    assert is_intersecting(best)


# First 16 hex digits of the sha256 of the repr of the max_ekr_size witness
# index tuples of DIGEST_CORPUS, each design given and then relabelled;
# recorded before the search kept its families as bit vectors.
WITNESS_DIGEST = "3efb497605a7ec9b"


def test_max_ekr_size_witness_digest():
    witnesses = []
    for make, arg in DIGEST_CORPUS:
        design = make(arg)
        for d in (design, _relabelled(design, arg)):
            witnesses.append(max_ekr_size(d).indices())
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16] == WITNESS_DIGEST


def _prime_powers(top):
    out = []
    for q in range(2, top + 1):
        try:
            prime_power(q)
        except DomainError:
            continue
        out.append(q)
    return out


# Every builtin design with b > v under the block cap, so all but the planes:
# affine:47, pg3:7, unital:7 and kgraph:64 pass the cap.
BLOCK_GRAPH_CORPUS = (
    [(se.affine_plane, q) for q in _prime_powers(43)]
    + [(se.pg3_line_design, q) for q in _prime_powers(5)]
    + [(se.hermitian_unital, q) for q in _prime_powers(5)]
    + [(se.complete_graph, v) for v in range(4, 64)]
    + [(se.sts13, 1), (se.sts13, 2)]
)


@pytest.mark.parametrize(
    "make, arg", BLOCK_GRAPH_CORPUS, ids=[f"{make.__name__}-{arg}" for make, arg in BLOCK_GRAPH_CORPUS]
)
def test_block_graph_is_strongly_regular(make, arg):
    # the premises of max_ekr_size's bound: two meeting blocks have
    # r - 2 + (k - 1)^2 common neighbours and two disjoint ones k^2
    design = make(arg)
    designs = [design]
    # a relabelled copy moves every block index; past 500 blocks it is left
    # out, since it would double the count's time on an isomorphic graph
    if design.b <= 500:
        designs.append(_relabelled(design, arg))
    for d in designs:
        assert d.b > d.v
        lam, mu = d.r - 2 + (d.k - 1) ** 2, d.k**2
        adj = d.intersection_adjacency
        for i, row in enumerate(adj):
            meets = f"{row:0{d.b}b}"[::-1]
            counts = [(row & other).bit_count() for other in adj[i + 1 :]]
            assert counts == [lam if bit == "1" else mu for bit in meets[i + 1 :]], i


@pytest.mark.parametrize(
    "make, arg, non_pencils",
    [
        (se.pg3_line_design, 2, 15),  # the Fano planes of PG(3,2)
        (se.pg3_line_design, 3, 40),  # the line sets of the planes of PG(3,3)
        (se.affine_plane, 3, 72),  # the triangles, of k + 1 = r blocks
        (se.affine_plane, 4, 1008),
        (se.hermitian_unital, 3, 0),
        (se.sts13, 1, 0),
    ],
)
def test_every_block_outside_a_family_of_r_blocks_meets_k_members(make, arg, non_pencils):
    # equality in max_ekr_size's bound: x lies in the row space of the
    # incidence matrix, so each outside block meets exactly k members
    design = make(arg)
    families = enumerate_maximal_ekr(design, min_size=design.r)
    assert {len(f) for f in families} == {design.r}
    assert sum(f.mask not in design.pencil_masks for f in families) == non_pencils
    blocks = [set(bl) for bl in design.blocks]
    for fam in families:
        for j in range(design.b):
            if j not in fam:
                assert sum(bool(blocks[j] & blocks[i]) for i in fam) == design.k


def test_plane_of_order_32_needs_no_deep_recursion():
    # 1,057 pairwise intersecting lines: one family, deeper than the recursion limit
    design = se.projective_plane(32)
    families = enumerate_maximal_ekr(design)
    assert [len(f) for f in families] == [design.b]
    assert len(max_ekr_size(design)) == design.b


def test_pencil_count_equals_point_count(suite):
    # with r > k no pencil can hide inside another family, so all v appear
    for name in ("sts13a", "unital3", "affine3"):
        design, families = suite.pair(name)
        assert design.r > design.k
        pencils = [f for f in families if cover_profile(f).k_s == len(f)]
        assert len(pencils) == design.v
        assert {f.indices() for f in pencils} == {
            point_pencil(design, p).indices() for p in range(design.v)
        }


# -- O'Nan configurations ----------------------------------------------------


def test_find_onan_in_fano():
    d = se.projective_plane(2)
    quad = find_onan(d)
    assert quad == (0, 1, 3, 6)
    _assert_is_onan(d, quad)
    assert find_onan(d) is not None


def test_find_onan_in_projective_plane_three():
    d = se.projective_plane(3)
    quad = find_onan(d)
    assert quad is not None
    _assert_is_onan(d, quad)


def _first_onan_by_brute_force(design):
    blocks = [set(bl) for bl in design.blocks]
    for quad in itertools.combinations(range(design.b), 4):
        pts = [blocks[a] & blocks[b] for a, b in itertools.combinations(quad, 2)]
        if all(len(p) == 1 for p in pts) and len(set().union(*pts)) == 6:
            return quad
    return None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "make, arg",
    [(se.projective_plane, 3), (se.affine_plane, 4), (se.sts13, 1), (se.complete_graph, 7)],
)
def test_find_onan_is_the_first_quadruple(make, arg, seed):
    # relabelled points reorder the blocks, so the first configuration moves
    design = make(arg)
    for d in (design, _relabelled(design, seed)):
        assert find_onan(d) == _first_onan_by_brute_force(d)


def _first_onan_by_triangles(design):
    """The first O'Nan configuration by trying every triangle (a, b, c) and masking the d that complete it."""
    adj = design.intersection_adjacency
    masks = design.block_masks
    pencil = design.pencil_masks
    for a in range(design.b):
        na = adj[a] >> (a + 1) << (a + 1)
        ma = na
        while ma:
            bit_b = ma & -ma
            b = bit_b.bit_length() - 1
            ma ^= bit_b
            # c off the pencil of p_ab makes p_ab, p_ac and p_bc distinct
            p_ab = (masks[a] & masks[b]).bit_length() - 1
            mc = (na & adj[b] & ~pencil[p_ab]) >> (b + 1) << (b + 1)
            while mc:
                bit_c = mc & -mc
                c = bit_c.bit_length() - 1
                mc ^= bit_c
                p_ac = (masks[a] & masks[c]).bit_length() - 1
                p_bc = (masks[b] & masks[c]).bit_length() - 1
                md = mc & adj[c] & ~pencil[p_ac] & ~pencil[p_bc]
                if md:
                    return (a, b, c, (md & -md).bit_length() - 1)
    return None


def _random_sts(v, seed):
    """A Steiner triple system on v = 1 or 3 (mod 6) points by Stinson's hill-climbing.

    A live point x has two uncovered pairs xy and xz; the triple xyz goes
    in, and the triple on yz, if any, comes out.  Every point's uncovered
    pairs stay even in number, so each step finds a live point's two.
    """
    rng = random.Random(seed)
    third = {}  # (s, t) -> the third point of the triple on s and t
    uncovered = [set(range(v)) - {x} for x in range(v)]
    count = 0
    while count < v * (v - 1) // 6:
        x = rng.choice([p for p in range(v) if uncovered[p]])
        y, z = rng.sample(sorted(uncovered[x]), 2)
        if (y, z) in third:
            w = third[y, z]
            for s, t in ((y, z), (y, w), (z, w)):
                del third[s, t], third[t, s]
                uncovered[s].add(t)
                uncovered[t].add(s)
        else:
            count += 1
        for s, t, u in ((x, y, z), (x, z, y), (y, z, x)):
            third[s, t] = third[t, s] = u
            uncovered[s].discard(t)
            uncovered[t].discard(s)
    return se.Design(v, 3, {tuple(sorted((s, t, u))) for (s, t), u in third.items()})


@pytest.mark.parametrize("v", [9, 13, 15, 19, 21, 25, 27, 31, 33])
def test_find_onan_matches_the_triangle_scan_on_random_sts(v):
    systems = [_random_sts(v, seed) for seed in range(10)]
    witnesses = [find_onan(d) for d in systems]
    assert witnesses == [_first_onan_by_triangles(d) for d in systems]
    # STS(9) is AG(2, 3); in each larger corpus some first witness misses block 0
    if v == 9:
        assert witnesses == [None] * 10
    else:
        assert None not in witnesses and any(w[0] > 0 for w in witnesses)


def test_enumerated_block_sets_of_random_sts_match_the_checked_constructor():
    # STS(9) is AG(2, 3) and takes the closed form; the larger systems have
    # O'Nan configurations and are searched
    branches = [_assert_trusted_path(_random_sts(v, seed)) for v in (9, 13, 15, 19, 21, 25) for seed in range(3)]
    assert branches == [True] * 3 + [False] * 15


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make, arg", [(se.hermitian_unital, 3), (se.hermitian_unital, 4), (se.affine_plane, 3)])
def test_find_onan_matches_the_triangle_scan_on_relabelled_onan_free_designs(make, arg, seed):
    design = _relabelled(make(arg), seed)
    assert find_onan(design) is None
    assert _first_onan_by_triangles(design) is None


def _assert_is_onan(design, quad):
    pts = []
    for a, b in itertools.combinations(quad, 2):
        common = set(design.blocks[a]) & set(design.blocks[b])
        assert len(common) == 1
        pts.append(common.pop())
    assert len(set(pts)) == 6


@pytest.mark.parametrize("name", ["unital2", "unital3", "affine3"])
def test_onan_free_designs(name, suite):
    assert find_onan(suite.design(name)) is None


def test_sts13_contains_onan():
    # consistent with its EKR_5 families: a design whose maximal families
    # are not all pencils or triangles must contain the configuration
    for variant in (1, 2):
        d = se.sts13(variant)
        quad = find_onan(d)
        assert quad is not None
        _assert_is_onan(d, quad)


def test_complete_graphs_have_no_onan():
    assert find_onan(se.complete_graph(8)) is None


def test_pg3_designs_have_onan():
    assert find_onan(se.pg3_line_design(2)) is not None
    assert find_onan(se.pg3_line_design(3)) is not None


# -- classification ----------------------------------------------------------


def test_classify_sts13(suite):
    design, families = suite.pair("sts13a")
    rows = classify(design, families)
    assert [(t.label, t.size, n) for t, n in rows] == [
        ("point-pencil", 6, 13),
        ("EKR_5", 5, 24),
        ("EKR_4", 4, 164),
    ]


def test_classify_unital(suite):
    design, families = suite.pair("unital3")
    rows = classify(design, families)
    assert [(t.label, t.size, n) for t, n in rows] == [
        ("point-pencil", 9, 28),
        ("triangle", 5, 1512),
    ]


def test_classify_projective_plane(suite):
    design, families = suite.pair("proj3")
    [(etype, count)] = classify(design, families)
    assert count == 1 and etype.size == 13
    assert etype.label.startswith("type-s13-")


def test_classify_witness_is_the_first_family_of_its_type(suite):
    design, families = suite.pair("sts13a")
    rows = classify(design, families)
    for etype, _ in rows:
        assert etype.witness is next(f for f in families if canonical_code(f) == etype.code)
    # the witness takes no part in equality, hashing or repr
    other = _relabelled(design, 1)
    moved = classify(other, enumerate_maximal_ekr(other))
    assert moved == rows
    assert {t for t, _ in moved} == {t for t, _ in rows}
    assert [repr(t) for t, _ in moved] == [repr(t) for t, _ in rows]
    assert [t.witness.indices() for t, _ in moved] != [t.witness.indices() for t, _ in rows]


def test_classify_onan_free_unitals(suite):
    for name, pencil_size in (("unital2", 4), ("unital3", 9)):
        design, families = suite.pair(name)
        verdict = classify_onan_free(design, families)
        assert verdict.confirmed
        assert verdict.pencil_count == design.v
        assert verdict.triangle_count == len(families) - design.v
        assert verdict.counterexample is None
        assert max(len(f) for f in families) == pencil_size


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_classify_onan_free_rejects_onan_designs(q):
    # every projective plane has four lines with no three concurrent
    with pytest.raises(HasONan) as exc:
        classify_onan_free(se.projective_plane(q))
    assert exc.value.blocks == (0, 1, q + 1, 2 * q + 2)


def test_classify_onan_free_rejects_sts13(suite):
    with pytest.raises(HasONan):
        classify_onan_free(suite.design("sts13a"))


def test_classify_onan_free_reports_counterexample(suite):
    # feed a hand-picked non-pencil, non-triangle family to exercise the
    # refutation path: three lines in general position (k_s = 2, size 3)
    design = suite.design("affine3")
    adj = design.intersection_adjacency
    chosen = None
    for a, b, c in itertools.combinations(range(design.b), 3):
        if not ((adj[a] >> b) & 1 and (adj[a] >> c) & 1 and (adj[b] >> c) & 1):
            continue
        fam = BlockSet(design, [a, b, c])
        if cover_profile(fam).k_s == 2:
            chosen = fam
            break
    assert chosen is not None
    verdict = classify_onan_free(design, [chosen])
    assert not verdict.confirmed
    assert verdict.counterexample == chosen


def test_classify_onan_free_complete_graph():
    verdict = classify_onan_free(se.complete_graph(7))
    assert verdict.confirmed
    assert verdict.pencil_count == 7
    assert verdict.triangle_count == 35


def test_classify_onan_free_triangle_of_k3():
    # the three edges of K_3 are all blocks and form a triangle, not a pencil
    verdict = classify_onan_free(se.complete_graph(3))
    assert (verdict.confirmed, verdict.pencil_count, verdict.triangle_count) == (True, 0, 1)


def test_non_intersecting_family_is_not_a_triangle(suite):
    # four blocks through point 0 and a block that misses one of them: k+1
    # members with k on a point, but two members are disjoint
    design = suite.design("unital3")
    adj = design.intersection_adjacency
    other = next(i for i, bl in enumerate(design.blocks) if 0 not in bl)
    through = _through(design, 0)
    met = [j for j in through if (adj[other] >> j) & 1]
    missed = next(j for j in through if not (adj[other] >> j) & 1)
    fam = BlockSet(design, met[:3] + [missed, other])
    assert len(fam) == design.k + 1 and cover_profile(fam).k_s == design.k
    assert not is_intersecting(fam)
    [(etype, _)] = classify(design, [fam])
    assert etype.label.startswith("type-s5-")
    verdict = classify_onan_free(design, [fam])
    assert (verdict.confirmed, verdict.pencil_count, verdict.triangle_count) == (False, 0, 0)
    assert verdict.counterexample == fam


@pytest.mark.parametrize("members", [(), (0,)])
def test_families_below_two_members_have_no_shape(suite, members):
    design = suite.design("unital3")
    fam = BlockSet(design, members)
    [(etype, _)] = classify(design, [fam])
    assert etype.label.startswith(f"type-s{len(members)}-")
    verdict = classify_onan_free(design, [fam])
    assert not verdict.confirmed
    assert verdict.counterexample == fam


def test_classify_refuses_families_of_another_design(suite):
    # the O'Nan check would read K_5 and the shapes the unital's families
    families = suite.families("unital3")
    with pytest.raises(DomainError):
        classify(se.complete_graph(5), families)
    with pytest.raises(DomainError):
        classify_onan_free(se.complete_graph(5), families)
    # an equal design built again is another design too
    again = se.hermitian_unital(3)
    assert again.blocks == suite.design("unital3").blocks
    with pytest.raises(DomainError):
        classify_onan_free(again, families)


# -- the shape rule against the concurrency classes -----------------------------


def _class_shape(family):
    """The shape rule read from concurrency classes, the reference for ekr.shape.

    A point-pencil is one class holding every member.  A triangle is k+1
    members whose classes are a base of k of them and the k pairs that join
    the remaining apex to each base member.
    """
    s, classes = concurrency_classes(family)
    if s < 2:
        return None
    ground = frozenset(range(s))
    if classes == [ground]:
        return "point-pencil"
    if s != family.design.k + 1 or len(classes) != s:
        return None
    base = max(classes, key=len)
    apex = ground - base
    if len(base) != s - 1 or set(classes) != {base} | {apex | {e} for e in base}:
        return None
    return "triangle"


SHAPE_DESIGNS = {
    d.name: d
    for d in (
        se.complete_graph(3),
        se.complete_graph(5),
        se.complete_graph(7),
        se.sts13(1),
        se.sts13(2),
        se.hermitian_unital(3),
        se.affine_plane(4),
        se.projective_plane(3),
        se.pg3_line_design(2),
    )
}
SHAPE_DESIGNS |= {
    f"{name}-relabelled": _relabelled(d, seed) for seed, (name, d) in enumerate(SHAPE_DESIGNS.items())
}


@pytest.mark.parametrize("name", list(SHAPE_DESIGNS))
def test_shape_matches_the_class_rule_on_maximal_families(name):
    for fam in enumerate_maximal_ekr(SHAPE_DESIGNS[name]):
        assert shape(fam) == _class_shape(fam)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shape_matches_the_class_rule_on_block_subsets(data):
    design = data.draw(st.sampled_from(list(SHAPE_DESIGNS.values())))
    if data.draw(st.booleans()):
        # any few blocks, often fewer than two and often not intersecting
        order = data.draw(st.permutations(range(design.b)))
        members = set(order[: data.draw(st.integers(0, design.k + 2))])
    else:
        # a pencil or a triangle, sometimes with one block dropped, added or swapped
        point = data.draw(st.integers(0, design.v - 1))
        off = [i for i, bl in enumerate(design.blocks) if point not in bl]
        if data.draw(st.booleans()):
            fam = point_pencil(design, point)
        else:
            fam = triangle(design, point, data.draw(st.sampled_from(off)))
        members = set(fam)
        mutation = data.draw(st.sampled_from(("none", "drop", "add", "swap")))
        if mutation in ("drop", "swap"):
            members.discard(data.draw(st.sampled_from(sorted(members))))
        if mutation in ("add", "swap"):
            members.add(data.draw(st.integers(0, design.b - 1)))
    fam = BlockSet(design, members)
    assert shape(fam) == _class_shape(fam)


def _classification_digest() -> str:
    """sha256 of the classify rows and classify_onan_free verdicts of DIGEST_CORPUS."""
    record = []
    for make, arg in DIGEST_CORPUS:
        design = make(arg)
        families = enumerate_maximal_ekr(design)
        rows = [
            [t.label, t.size, count, t.profile.covered, list(t.profile.k_hist), t.profile.k_s, t.code]
            for t, count in classify(design, families)
        ]
        try:
            v = classify_onan_free(design, families)
            witness = None if v.counterexample is None else v.counterexample.indices()
            verdict = [v.confirmed, v.pencil_count, v.triangle_count, witness]
        except HasONan as exc:
            verdict = ["onan", exc.blocks]
        record.append([design.name, len(families), rows, verdict])
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()


# Recorded with an earlier, profile-based shape rule, so the digest pins
# ekr.shape's verdicts to a rule independent of block masks.
CLASSIFICATION_DIGEST = "1bc7ec748cae924b72072ee576825d9269cea1b495c963d732be7cc9ce6ebb0f"


def test_classification_digest():
    assert _classification_digest() == CLASSIFICATION_DIGEST
