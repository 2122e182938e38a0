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
        (3, [5]),
        (3, None),
    ],
)
def test_canonical_set_system_refuses_elements_outside_the_ground_set(s, subsets):
    # -1 would index from the end and 5 past it: each once gave a wrong form or an
    # IndexError; 0.0 and Fraction(1) equal ground elements but once failed in the
    # search with a bare TypeError; a bool element once passed as an int, and so
    # did the size True, while 2.5 and "3" failed with a bare TypeError, as did a
    # subset or a system that is not iterable
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
    assert _search(0, ((),) * count, canon._Forms()) == ((),) * count


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


@st.composite
def _sparse_systems(draw):
    """A drawn system with one to three more elements in no subset, relabelled."""
    s, subsets = draw(_set_systems(6, 5))
    n = s + draw(st.integers(min_value=1, max_value=3))
    perm = draw(st.permutations(range(n)))
    return n, [frozenset(perm[e] for e in S) for S in subsets]


@given(_sparse_systems())
@example((5, [frozenset({1, 3})]))
@example((6, []))
@example((4, [frozenset(), frozenset({0, 2})]))
@settings(max_examples=150, deadline=None)
def test_elements_in_no_subset_shift_the_form_as_the_search_does(system):
    # the form of the covered elements alone, shifted by the number left out
    s, subsets = system
    reference = _reference_form(s, subsets, 2000)
    assume(reference is not None)
    assert canonical_set_system(s, subsets) == reference


def test_a_sparse_system_on_a_large_ground_set_is_fast():
    # the 4,997 elements in no subset once made a tree of about s^2/2 nodes,
    # and a recursion too deep for Python past s = 1,000
    t0 = time.perf_counter()
    assert canonical_set_system(5000, [[0, 1], [1, 2]]) == ((4997, 4999), (4998, 4999))
    assert canonical_set_system(5000, [[4999, 7]]) == ((4998, 4999),)
    assert canonical_set_system(5000, []) == ()
    assert time.perf_counter() - t0 < 0.1


# -- the memo under canonical_set_system ------------------------------------------


def _key(subsets):
    return tuple(sorted(tuple(sorted(S)) for S in subsets))


def _plain_search(s, subsets):
    """The search with an empty memo, which cannot hit: the reference."""
    return _search(s, _key(subsets), canon._Forms())


def _counted_searches(mp):
    """Give canonical_set_system a fresh memo; return the list of (s, system) it searches."""
    mp.setattr(canon, "_FORMS", canon._Forms())
    calls = []

    def counted(s, subs, memo):
        calls.append((s, subs))
        return _search(s, subs, memo)

    mp.setattr(canon, "_search", counted)
    return calls


@given(_set_systems(9, 8), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memo_returns_what_a_fresh_search_returns(system, rng):
    s, subsets = system
    subs = [frozenset(S) for S in subsets]
    fresh = _plain_search(s, subs)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_searches(mp)
        assert canonical_set_system(s, rng.sample(subs, len(subs))) == fresh
        assert len(calls) == (len(subs) != 1)  # all but the single-subset shortcut
        assert canonical_set_system(s, subs) == fresh
        assert len(calls) == (len(subs) != 1)
        if subs:
            # the key is a multiset: a repeated subset is a different system
            doubled = subs + [rng.choice(subs)]
            assert canonical_set_system(s, doubled) == _plain_search(s, doubled) != fresh


def _memo_counts(monkeypatch, design, **kwargs):
    import steiner_ekr as se

    families = se.enumerate_maximal_ekr(design, **kwargs)
    calls = _counted_searches(monkeypatch)
    se.classify(design, families)
    return len(families), len(calls)


def test_memo_searches_each_labelled_system_once(monkeypatch):
    import steiner_ekr as se

    # 40 point-pencils by the single-subset shortcut, and 40 plane line sets
    # that are one labelled system at the builtin labelling
    assert _memo_counts(monkeypatch, se.pg3_line_design(3), min_size=13) == (80, 1)
    # all but the 16 point-pencils are looked up; the 240 triangles add 5
    # labelled systems, one per position of their apex, and 2 of the 21
    # systems are leaf codes of systems searched before them
    assert _memo_counts(monkeypatch, se.affine_plane(4)) == (1024, 19)


def test_a_system_equal_to_a_visited_leaf_code_is_not_searched(monkeypatch):
    s, subs = SYMMETRIC_CORPUS["triples9"]
    calls = _counted_searches(monkeypatch)
    form = canonical_set_system(s, subs)
    # one search, of the six covered elements relabelled in order
    [(n, system)] = calls
    assert n == 6 and {m for m, _ in canon._FORMS.forms} == {n}
    codes = [code for _, code in canon._FORMS.forms if code != system]
    assert len(codes) >= 2
    for code in codes:
        assert canonical_set_system(n, code) == canon._FORMS.forms[n, system]
        # the same code with three elements in no subset: it is the same lookup
        assert canonical_set_system(s, code) == form
    assert len(calls) == 1


def _refine_calls(monkeypatch, s, subs, memo):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    _search(s, subs, memo)
    return calls


def test_search_tree_is_pinned_by_its_refine_calls(monkeypatch):
    import steiner_ekr as se

    # _search with an empty memo, so that the memo stays out; the counts were
    # recorded with the sort-based individualisation, so the tree has not moved
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
        assert _refine_calls(monkeypatch, s, _key(subs), canon._Forms()) == calls


def _relabelled(design, seed):
    import steiner_ekr as se

    perm = list(range(design.v))
    random.Random(seed).shuffle(perm)
    return se.Design(design.v, design.k, [sorted(perm[p] for p in bl) for bl in design.blocks])


# sha256 of the classify rows [label, size, count, code] of pg3:3 at min_size
# 13 relabelled by random.Random(seed) for seeds 1-3, then of projective:2-5.
# Relabelled, the 40 plane line sets of pg3:3 are 28, 24 and 26 labelled
# systems, of which one each equals a leaf code visited before it, so the
# search runs on 27, 23 and 25; a plane's one family is one system.  Recorded
# with the refinement that _refine_by_sort restates.
MEMO_MISS_DIGEST = "dfd7f292e967cb2acb232bee48e2e7549fdad1772f4b7199ba68b05312c13067"


def test_searched_codes_are_pinned_by_a_digest(monkeypatch):
    import steiner_ekr as se

    cases = [(_relabelled(se.pg3_line_design(3), seed), 13) for seed in (1, 2, 3)]
    cases += [(se.projective_plane(q), 1) for q in (2, 3, 4, 5)]
    record = []
    searched = 0
    for design, min_size in cases:
        families = se.enumerate_maximal_ekr(design, min_size=min_size)
        calls = _counted_searches(monkeypatch)
        record.append([[t.label, t.size, count, t.code] for t, count in se.classify(design, families)])
        searched += len(calls)
    assert searched == 27 + 23 + 25 + 4
    assert hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest() == MEMO_MISS_DIGEST


# -- visited leaf codes in the memo: (s, leaf code) -> canonical form ----------


def _stored_systems(s, subsets):
    """What a pruned search stores in a fresh memo: its input and the leaf codes it visits."""
    memo = canon._Forms()
    _search(s, _key(subsets), memo)
    assert {n for n, _ in memo.forms} <= {s}
    return {code for _, code in memo.forms}


@pytest.mark.parametrize("name", list(SYMMETRIC_CORPUS))
def test_pruned_search_visits_every_leaf_code_on_symmetric_corpus(name):
    # the hit guarantee: the prunes skip only subtrees whose codes occur elsewhere
    s, subsets = SYMMETRIC_CORPUS[name]
    assert _stored_systems(s, subsets) == set(_leaf_codes(s, subsets)) | {_key(subsets)}


@given(_closed_systems())
@settings(max_examples=150, deadline=None)
def test_pruned_search_visits_every_leaf_code_on_random_systems(system):
    s, subsets = system
    codes = list(itertools.islice(_leaf_codes(s, subsets), 2001))
    assume(len(codes) <= 2000)
    assert _stored_systems(s, subsets) == set(codes) | {_key(subsets)}


def _permuted(subsets, perm):
    return [frozenset(perm[e] for e in S) for S in subsets]


def _pg3_plane():
    import steiner_ekr as se

    families = se.enumerate_maximal_ekr(se.pg3_line_design(3), min_size=13)
    return concurrency_classes(next(f for f in families if len(concurrency_classes(f)[1]) > 1))


def test_relabelled_copies_answered_at_their_first_leaf_give_the_reference_form():
    rng = random.Random(11)
    cases = [SYMMETRIC_CORPUS[name] for name in ("cycle7", "star6", "matching8", "fano", "triples9")]
    cases.append(_pg3_plane())
    for s, subsets in cases:
        reference = _reference_form(s, subsets, 10**5)
        memo = canon._Forms()
        assert _search(s, _key(subsets), memo) == reference
        for _ in range(4):
            copy = _key(_permuted(subsets, rng.sample(range(s), s)))
            assert _search(s, copy, memo) == reference


def test_a_relabelled_copy_costs_one_descent(monkeypatch):
    s, subs = _pg3_plane()
    memo = canon._Forms()
    assert _refine_calls(monkeypatch, s, _key(subs), memo) == 27
    # every leaf of the plane's tree has one code, stored with the input
    assert len(set(memo.forms) - {(s, _key(subs))}) == 1
    for seed in range(5):
        perm = random.Random(seed).sample(range(s), s)
        # the root and the individualisations down to the first leaf
        assert _refine_calls(monkeypatch, s, _key(_permuted(subs, perm)), memo) == 6


def test_an_extra_isolated_element_misses_the_memo(monkeypatch):
    s, subs = _pg3_plane()
    memo = canon._Forms()
    _search(s, _key(subs), memo)
    # the same subsets on s + 1: the code is the same, the system is not
    assert _refine_calls(monkeypatch, s + 1, _key(subs), memo) == _refine_calls(
        monkeypatch, s + 1, _key(subs), canon._Forms()
    )
    assert _search(s + 1, _key(subs), memo) == _plain_search(s + 1, subs)
    assert {n for n, _ in memo.forms} == {s, s + 1}


def test_classify_of_relabelled_pg3_searches_one_plane(monkeypatch):
    import steiner_ekr as se

    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    totals = []
    for seed in (1, 2, 3):
        design = _relabelled(se.pg3_line_design(3), seed)
        families = se.enumerate_maximal_ekr(design, min_size=13)
        searched = _counted_searches(monkeypatch)
        calls = 0
        se.classify(design, families)
        totals.append((len(searched), calls))
    # 28, 24 and 26 labelled systems as in MEMO_MISS_DIGEST, one of each equal
    # to a leaf code met before: one full search of 27 refinements, then one
    # descent of 6 for each other system searched
    assert totals == [(27, 27 + 26 * 6), (23, 27 + 22 * 6), (25, 27 + 24 * 6)]


def _stored_items(memo):
    return sum(len(c) + sum(map(len, c)) for _, c in memo.forms)


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(canon, "_FORMS_ITEMS", 200)
    memo = canon._Forms()
    rng = random.Random(5)
    systems = []
    for s in range(6, 16):
        subsets = _key(frozenset(rng.sample(range(s), 3)) for _ in range(s))
        systems.append((s, subsets))
        form = _search(s, subsets, memo)
        assert form == _plain_search(s, subsets)
        assert memo.items == _stored_items(memo) <= 200
        # the input is stored with the leaf codes, as the newest entry
        assert list(memo.forms)[-1] == (s, subsets) and memo.forms[s, subsets] == form
    assert memo.items > 150
    # the oldest entries went first: the last system's form, one of its leaf codes, stays
    assert (15, form) in memo.forms
    assert min(n for n, _ in memo.forms) > 6
    # a system larger than the bound is not kept at all, nor are its codes
    big = _key(frozenset(range(i, i + 10)) for i in range(30))
    _search(40, big, memo)
    assert memo.items <= 200
    assert 40 not in {n for n, _ in memo.forms}
    # canonical_set_system's inputs and codes share the one bound
    calls = _counted_searches(monkeypatch)
    for s, subsets in systems:
        canonical_set_system(s, subsets)
        assert canon._FORMS.items == _stored_items(canon._FORMS) <= 200
    assert len(calls) == len(systems)
    assert calls[-1] in canon._FORMS.forms


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
            assert _search(s, tuple(map(tuple, order)), canon._Forms()) == form
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
