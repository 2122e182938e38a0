"""Canonical codes for intersection configurations, cross-checked against VF2.

The code of a family must be a complete isomorphism invariant of its
concurrency structure: which member blocks run through which multiply
covered points.  networkx is used only here, as an independent oracle.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from steiner_ekr import canon
from steiner_ekr.canon import (
    _incidence,
    _individualize,
    _refine,
    _search,
    canonical_code,
    canonical_set_system,
    concurrency_classes,
)
from steiner_ekr.errors import DomainError


def _as_graph(family):
    s, classes = concurrency_classes(family)
    g = nx.Graph()
    for i in range(s):
        g.add_node(("b", i), color="block")
    for j, cls in enumerate(classes):
        g.add_node(("c", j), color=f"class{len(cls)}")
        for i in cls:
            g.add_edge(("c", j), ("b", i))
    return g


def _isomorphic(fam_a, fam_b):
    ga, gb = _as_graph(fam_a), _as_graph(fam_b)
    matcher = GraphMatcher(ga, gb, node_match=categorical_node_match("color", None))
    return matcher.is_isomorphic()


def _agreement_sample(families, rng, pairs):
    chosen = [rng.choice(families) for _ in range(2 * pairs)]
    for a, b in zip(chosen[::2], chosen[1::2]):
        assert (canonical_code(a) == canonical_code(b)) == _isomorphic(a, b)


def test_code_matches_vf2_within_design(suite):
    rng = random.Random(7)
    _agreement_sample(suite.families("sts13a"), rng, 60)
    _agreement_sample(suite.families("affine3"), rng, 40)


def test_code_matches_vf2_exhaustively_on_small_design(suite):
    fams = suite.families("kgraph5")
    for a, b in itertools.combinations(fams, 2):
        assert (canonical_code(a) == canonical_code(b)) == _isomorphic(a, b)


def test_k4_has_exactly_two_codes(suite):
    codes = {canonical_code(f) for f in suite.families("kgraph4")}
    assert len(codes) == 2  # vertex pencils and triangles, both of size 3


def test_code_format_spot():
    import steiner_ekr as se

    fams = se.enumerate_maximal_ekr(se.complete_graph(4))
    pencil_codes = {canonical_code(f) for f in fams if se.cover_profile(f).k_s == 3}
    assert pencil_codes == {"k2:s3:0,1,2"}


def test_canonical_set_system_spot():
    assert canonical_set_system(3, [frozenset({0, 1}), frozenset({1, 2})]) == (
        (0, 2),
        (1, 2),
    )


@pytest.mark.parametrize(
    "s, subsets",
    [
        (3, [[-1, 0]]),
        (3, [[0, 1, 2, -1]]),
        (0, [[0]]),
        (2, [[0, 5]]),
        (-1, []),
        (3, [[0.0, 2]]),
        (3, [[Fraction(1), 2]]),
        (3, [[True, 2]]),
        (3, [[0, 1], [True]]),
        (2.5, []),
        ("3", [[0]]),
        (True, [[0]]),
    ],
)
def test_canonical_set_system_refuses_elements_outside_the_ground_set(s, subsets):
    # -1 would index from the end and 5 past it: each once gave a wrong form or an
    # IndexError; 0.0 and Fraction(1) equal ground elements but once failed in the
    # search with a bare TypeError; a bool element once passed as an int, and so
    # did the size True, while 2.5 and "3" failed with a bare TypeError
    with pytest.raises(DomainError):
        canonical_set_system(s, subsets)


@pytest.mark.parametrize("s", [-1, 2.5, "3", True, None], ids=repr)
def test_canonical_set_system_refuses_a_bad_size_before_reading_the_subsets(s):
    def unread():
        raise AssertionError("the subsets were read")
        yield

    with pytest.raises(DomainError):
        canonical_set_system(s, unread())


@pytest.mark.parametrize("count", [0, 1, 2])
def test_empty_ground_set_keeps_each_empty_subset(count):
    # as at s = 1, the form holds one () per subset given
    assert canonical_set_system(0, [[]] * count) == ((),) * count
    assert canonical_set_system(1, [[]] * count) == ((),) * count
    # the search itself takes s = 0: one leaf, the empty colouring
    assert _search.__wrapped__(0, ((),) * count) == ((),) * count


@st.composite
def _set_systems(draw, max_s, max_count):
    s = draw(st.integers(min_value=2, max_value=max_s))
    count = draw(st.integers(min_value=0, max_value=max_count))
    subsets = set()
    for _ in range(count):
        size = draw(st.integers(min_value=2, max_value=s))
        subsets.add(frozenset(draw(st.permutations(range(s)))[:size]))
    return s, sorted(subsets, key=sorted)


@given(_set_systems(12, 10), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonical_set_system_relabel_invariant(system, rng):
    s, subsets = system
    perm = list(range(s))
    rng.shuffle(perm)
    relabeled = [frozenset(perm[i] for i in sub) for sub in subsets]
    assert canonical_set_system(s, relabeled) == canonical_set_system(s, subsets)


def _individualize_by_sort(colors, x):
    """Individualise x by ranking (colour, is-not-x) pairs; needs no dense colouring."""
    keyed = [(colors[e], 0 if e == x else 1) for e in range(len(colors))]
    rank = {key: i for i, key in enumerate(sorted(set(keyed)))}
    return [rank[key] for key in keyed]


def _dense_colourings(s):
    for colors in itertools.product(range(s), repeat=s):
        if set(colors) == set(range(max(colors) + 1)):
            yield list(colors)


@pytest.mark.parametrize("s", range(2, 7))
def test_individualize_equals_the_sort_on_dense_colourings(s):
    splits = 0
    for colors in _dense_colourings(s):
        for x in range(s):
            if colors.count(colors[x]) > 1:  # the search splits only such cells
                assert _individualize(colors, x) == _individualize_by_sort(colors, x)
                splits += 1
    assert splits


def _members(s, subs):
    """Per element of 0..s-1, the indices of the subsets holding it."""
    mem = [[] for _ in range(s)]
    for si, S in enumerate(subs):
        for e in S:
            mem[e].append(si)
    return mem


def _refine_by_sort(subs, mem, colors):
    """Refine by ranking keys built afresh each round: the kernel's reference.

    Subsets are keyed by (size, sorted colours), elements by (colour, sorted
    subset ranks), and a round that changes no colour ends the refinement.
    """
    while True:
        scol = [(len(S), tuple(sorted(colors[e] for e in S))) for S in subs]
        srank = {key: i for i, key in enumerate(sorted(set(scol)))}
        esig = [(col, tuple(sorted(srank[scol[si]] for si in m))) for col, m in zip(colors, mem)]
        erank = {key: i for i, key in enumerate(sorted(set(esig)))}
        new = [erank[sig] for sig in esig]
        if new == colors:
            return new
        colors = new


@st.composite
def _systems_with_colourings(draw):
    """A set system over 0..s-1, repeats allowed, and a dense colouring of its ground set."""
    s = draw(st.integers(min_value=0, max_value=9))
    subs = draw(st.lists(st.frozensets(st.integers(0, max(s - 1, 0)), max_size=s), max_size=8))
    if subs:
        subs += draw(st.lists(st.sampled_from(subs), max_size=3))
    raw = draw(st.lists(st.integers(0, max(s - 1, 0)), min_size=s, max_size=s))
    rank = {col: i for i, col in enumerate(sorted(set(raw)))}
    return s, tuple(tuple(sorted(S)) for S in subs), [rank[col] for col in raw]


@given(_systems_with_colourings())
@example((0, (), []))
@example((0, ((), ()), []))
@example((1, ((0,),), [0]))
@example((3, ((0,), (0,), (1, 2)), [0, 0, 0]))  # a repeated singleton
@example((5, ((0, 1), (1, 2)), [0, 0, 0, 0, 0]))  # degrees 0, 1 and 2 in one cell
@example((6, ((0, 1, 2), (3, 4), (3, 4), ()), [1, 0, 0, 2, 1, 0]))
@settings(max_examples=400, deadline=None)
def test_refine_equals_the_sort_on_dense_colourings(case):
    s, subs, colors = case
    assert _refine(*_incidence(s, subs), list(colors)) == _refine_by_sort(subs, _members(s, subs), colors)


def _leaf_codes(s, subsets):
    """Every leaf code of the search tree, in search order, without pruning.

    Same target cell as canonical_set_system, with the refinement and the
    individualisation by sorting.
    """
    subs = [frozenset(S) for S in subsets]
    mem = _members(s, subs)

    def leaves(colors):
        cells = {}
        for e in range(s):
            cells.setdefault(colors[e], []).append(e)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            yield tuple(sorted(tuple(sorted(colors[e] for e in S)) for S in subs))
            return
        for x in target:
            yield from leaves(_refine_by_sort(subs, mem, _individualize_by_sort(colors, x)))

    return leaves(_refine_by_sort(subs, mem, [0] * s))


def _reference_form(s, subsets, max_leaves):
    """The minimum leaf code of the whole search tree, found without pruning.

    Every leaf is visited, so this is the canonical form by definition.
    Returns None once more than max_leaves leaves have been seen.
    """
    codes = list(itertools.islice(_leaf_codes(s, subsets), max_leaves + 1))
    return min(codes) if len(codes) <= max_leaves else None


def _symmetric_corpus():
    systems = {}
    for s in range(2, 7):
        systems[f"pencil{s}"] = (s, [range(s)])
    for s in range(3, 9):
        systems[f"cycle{s}"] = (s, [{i, (i + 1) % s} for i in range(s)])
        systems[f"star{s}"] = (s, [{0, i} for i in range(1, s)])
    for s in (4, 6, 8):
        systems[f"matching{s}"] = (s, [{i, i + 1} for i in range(0, s, 2)])
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    systems["fano"] = (7, fano)
    # refinement leaves 1, 2, 4, 5, 6, 7 in one cell, which holds three
    # orbits; a backjump past the branch point loses the minimum here
    triples = [(1, 2, 5), (1, 4, 5), (1, 6, 7), (2, 4, 5), (2, 6, 7), (4, 6, 7)]
    systems["triples9"] = (9, triples)
    return systems


SYMMETRIC_CORPUS = _symmetric_corpus()


@pytest.mark.parametrize("name", list(SYMMETRIC_CORPUS))
def test_pruned_search_matches_reference_on_symmetric_corpus(name):
    s, subsets = SYMMETRIC_CORPUS[name]
    assert canonical_set_system(s, subsets) == _reference_form(s, subsets, 10**6)


@st.composite
def _closed_systems(draw):
    """A drawn system, often closed under a drawn permutation to make it an automorphism."""
    s, subsets = draw(_set_systems(8, 6))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(s)))
        closed = set(subsets)
        while True:
            image = closed | {frozenset(perm[i] for i in S) for S in closed}
            if image == closed:
                break
            closed = image
        subsets = sorted(closed, key=sorted)
    return s, subsets


@given(_closed_systems())
@settings(max_examples=200, deadline=None)
def test_pruned_search_matches_reference_on_random_systems(system):
    s, subsets = system
    reference = _reference_form(s, subsets, 2000)
    assume(reference is not None)  # the symmetric corpus covers the large trees
    assert canonical_set_system(s, subsets) == reference


# -- the memo under canonical_set_system ------------------------------------------


@given(_set_systems(9, 8), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memo_returns_what_a_fresh_search_returns(system, rng):
    s, subsets = system
    subs = [frozenset(S) for S in subsets]
    fresh = _search.__wrapped__(s, subs)
    shuffled = rng.sample(subs, len(subs))
    assert canonical_set_system(s, shuffled) == fresh
    searched = subs != [frozenset(range(s))]  # all but the pencil shortcut
    hits = _search.cache_info().hits
    assert canonical_set_system(s, subs) == fresh
    assert _search.cache_info().hits == hits + searched
    if subs:
        # the key is a multiset: a repeated subset is a different system
        doubled = subs + [rng.choice(subs)]
        assert canonical_set_system(s, doubled) == _search.__wrapped__(s, doubled) != fresh


def _memo_counts(design, **kwargs):
    import steiner_ekr as se

    families = se.enumerate_maximal_ekr(design, **kwargs)
    _search.cache_clear()
    se.classify(design, families)
    info = _search.cache_info()
    return len(families), info.hits + info.misses, info.misses


def test_memo_searches_each_labelled_system_once():
    import steiner_ekr as se

    # 40 point-pencils by the pencil shortcut, and 40 plane line sets that
    # are one labelled system at the builtin labelling
    assert _memo_counts(se.pg3_line_design(3), min_size=13) == (80, 40, 1)
    # all but the 16 point-pencils are looked up; the 240 triangles add 5
    # labelled systems, one per position of their apex
    assert _memo_counts(se.affine_plane(4)) == (1024, 1008, 21)
    assert _search.cache_info().maxsize is not None


def _refine_calls(monkeypatch, s, subs):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    _search.__wrapped__(s, subs)
    return calls


def test_search_tree_is_pinned_by_its_refine_calls(monkeypatch):
    import steiner_ekr as se

    # the uncached _search, so that the memo stays out; the counts were recorded
    # with the sort-based individualisation, so the tree has not moved
    pg3 = se.pg3_line_design(3)
    plane = next(
        f for f in se.enumerate_maximal_ekr(pg3, min_size=13) if len(concurrency_classes(f)[1]) > 1
    )
    plane5 = se.projective_plane(5)
    affine4 = se.affine_plane(4)
    off = next(p for p in range(affine4.v) if p not in affine4.blocks[0])
    cases = [
        (concurrency_classes(plane), 27),
        (concurrency_classes(se.BlockSet(plane5, (1 << plane5.b) - 1)), 92),
        (concurrency_classes(se.triangle(affine4, off, 0)), 10),
    ]
    for (s, subs), calls in cases:
        assert _refine_calls(monkeypatch, s, subs) == calls


def _relabelled(design, seed):
    import steiner_ekr as se

    perm = list(range(design.v))
    random.Random(seed).shuffle(perm)
    return se.Design(design.v, design.k, [sorted(perm[p] for p in bl) for bl in design.blocks])


# sha256 of the classify rows [label, size, count, code] of pg3:3 at min_size
# 13 relabelled by random.Random(seed) for seeds 1-3, then of projective:2-5.
# Relabelled, the 40 plane line sets of pg3:3 are 28, 24 and 26 labelled
# systems, so the memo misses and the search runs on each; a plane's one
# family is one system.  Recorded with the refinement that _refine_by_sort restates.
MEMO_MISS_DIGEST = "dfd7f292e967cb2acb232bee48e2e7549fdad1772f4b7199ba68b05312c13067"


def test_searched_codes_are_pinned_by_a_digest():
    import steiner_ekr as se

    cases = [(_relabelled(se.pg3_line_design(3), seed), 13) for seed in (1, 2, 3)]
    cases += [(se.projective_plane(q), 1) for q in (2, 3, 4, 5)]
    record = []
    searched = 0
    for design, min_size in cases:
        families = se.enumerate_maximal_ekr(design, min_size=min_size)
        _search.cache_clear()
        record.append([[t.label, t.size, count, t.code] for t, count in se.classify(design, families)])
        searched += _search.cache_info().misses
    assert searched == 28 + 24 + 26 + 4
    assert hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest() == MEMO_MISS_DIGEST


def test_large_pencil_is_fast():
    # one class through all members: the search tree has 40! leaves, all equal
    t0 = time.perf_counter()
    assert canonical_set_system(40, [range(40)]) == (tuple(range(40)),)
    assert time.perf_counter() - t0 < 2.0


def test_distinct_structures_get_distinct_codes():
    # a pencil-like system and a chain of the same size must differ
    pencil = canonical_set_system(3, [frozenset({0, 1, 2})])
    chain = canonical_set_system(3, [frozenset({0, 1}), frozenset({1, 2})])
    assert pencil != chain


# -- closed forms of pencils and triangles ---------------------------------------


def _pencil(s):
    return [frozenset(range(s))]


def _triangle(s, apex):
    """The base class of every position but apex, and the pair joining apex to each."""
    base = frozenset(range(s)) - {apex}
    return [base] + [frozenset({apex, e}) for e in sorted(base)]


def _class_orders(subs, rng):
    """Every order of the classes when there are at most 4, else two of them."""
    if len(subs) <= 4:
        return [list(p) for p in itertools.permutations(subs)]
    return [subs, rng.sample(subs, len(subs))]


@pytest.mark.parametrize("s", range(3, 17))
def test_closed_forms_equal_the_search(s):
    pencil_form = (tuple(range(s)),)
    triangle_form = tuple((0, e) for e in range(1, s)) + (tuple(range(1, s)),)
    rng = random.Random(s)
    cases = [(_pencil(s), pencil_form)] + [(_triangle(s, a), triangle_form) for a in range(s)]
    for subs, form in cases:
        for order in _class_orders(subs, rng):
            assert canonical_set_system(s, order) == form
            assert _search.__wrapped__(s, order) == form
            if s <= 6:
                assert _reference_form(s, order, 10**4) == form
            else:
                # every leaf of a pencil or a triangle carries the same code, as
                # the symmetric group of the base permutes the leaves transitively
                assert set(itertools.islice(_leaf_codes(s, order), 30)) == {form}


_MUTATIONS = ("none", "drop", "duplicate", "add", "move")


@st.composite
def _near_misses(draw):
    """A pencil or a triangle on 1..6 positions, often with one class broken, relabelled."""
    s = draw(st.integers(min_value=1, max_value=6))
    subs = _pencil(s) if draw(st.booleans()) else _triangle(s, draw(st.integers(0, s - 1)))
    subs = [set(S) for S in subs if S]
    mutation = draw(st.sampled_from(_MUTATIONS))
    i = draw(st.integers(0, max(len(subs) - 1, 0)))
    if mutation == "drop" and subs:
        del subs[i]
    elif mutation == "duplicate" and subs:
        subs.append(set(subs[i]))
    elif mutation == "add":
        subs.append(set(draw(st.permutations(range(s)))[: draw(st.integers(1, s))]))
    elif mutation == "move" and subs:
        cls = subs[i]
        cls.discard(draw(st.sampled_from(sorted(cls))))
        outside = sorted(set(range(s)) - cls)
        if outside:
            cls.add(draw(st.sampled_from(outside)))
    perm = draw(st.permutations(range(s)))
    subs = [frozenset(perm[e] for e in S) for S in subs]
    return s, draw(st.permutations(subs))


@given(_near_misses())
@settings(max_examples=300, deadline=None)
def test_near_misses_agree_with_the_reference(system):
    s, subsets = system
    assert canonical_set_system(s, subsets) == _reference_form(s, subsets, 10**4)


def test_pencils_and_triangles_classify_quickly():
    import steiner_ekr as se

    design = se.hermitian_unital(4)
    start = time.perf_counter()
    types = se.classify(design, se.enumerate_maximal_ekr(design, min_size=16))
    assert time.perf_counter() - start < 0.2
    assert [(etype.label, count) for etype, count in types] == [("point-pencil", 65)]
