"""Canonical codes for the incidence structure induced by a block family.

Under the pair axiom two distinct covered points can never lie on the same two
member blocks, so the induced point-block structure is determined, up to the
block size k, by its concurrency classes: for each point on at least two
members, the set of member positions through it.  Canonical labeling of that
set system therefore canonises the whole induced structure.

The search is individualisation-refinement over block positions: refine to a
stable colouring, individualise each member of the first non-singleton cell
in colour order, recurse.  Refinement returns dense ranks 0..m-1, so a cell
is found by counting colours, and individualising x in cell c is arithmetic:
x keeps c, its cell-mates take c + 1, and every higher colour moves up one.
A leaf's code is the sorted class list relabelled by its discrete colouring,
and the canonical form is the minimum leaf code over the whole tree.  Two
prunes skip only subtrees whose codes already occur, so the minimum never
changes (McKay & Piperno, "Practical graph isomorphism II", arXiv:1301.1493):

- Backjumping.  A leaf whose code equals the best one yields an automorphism
  that maps its path onto the best leaf's path.  It fixes the two paths'
  common prefix and carries the rest of the current subtree onto the sibling
  subtree searched before, so the search resumes at the branch point.
- Per-node orbits.  Each node reads, from the one list of automorphisms
  found so far, those that fix its individualised prefix, and keeps the
  closure of its visited children under them; a child in that closure is
  skipped.  It reads the list again, and closes again, only when it grows.
  The list needs no dedupe: refinement ranks by old colour first, so at
  every leaf below a node's child x, x stays below each former cell-mate.
  Distinct leaves have distinct discrete colourings, so the leaves matching
  one best leaf give distinct automorphisms; a repeat would only add a
  generator that changes no closure.

Together they keep highly symmetric inputs (pencils, full plane line sets)
cheap: a pencil of s members visits s(s+1)/2 nodes, not s! leaves.

The refinement kernel runs in rounds.  A round keys each subset by its sorted
colours and ranks those keys by size, then by colours; it keys each element
by its colour and the sorted ranks of its subsets, and ranks those keys into
the new colours.  Both reads go through ``operator.itemgetter`` gathers built
once per system, one over each subset's elements and one over each element's
subset indices, so no Python loop runs per incidence.  A round that splits
no cell ends the refinement and returns its input, since dense colours are
their own ranks.  The leaf code reads the subset gathers, and a node keeps
an automorphism g when the gather of its fixed prefix from g equals the
prefix.  An integer key per subset, one digit per colour, would replace its
sort by a sum, but the digits grow with s: on projective:7's plane (s = 57)
the sums cost more than the sorts they replace, so the keys stay tuples.

One system skips the search: a single class holding the whole ground set,
the concurrency classes of a point-pencil.  Every permutation preserves it,
so every leaf has the code (0, 1, ..., s-1).  The shortcut stays because the
first search of a large pencil is not free (5.3 ms at s = 13), while the
check costs one comparison.  Which families are pencils or triangles is
``ekr.shape``'s business, read from block masks; this module only canonises.

Every other system is searched once per process: the memo sits on
``_search`` itself, which is called with s and the subsets as a sorted
multiset, so a system already searched is not searched again.  A hit is
exact, since the minimum leaf code depends only on that multiset:
refinement ranks do not see the order of the subsets, leaf codes are
sorted, and the prunes skip only codes that already occur.  Hits are
common because many families of one type give the same labelled system, the
classes written over member positions in block-index order: the triangles
of a design give at most k + 1 systems, one per position of the apex, and
the 40 plane line sets of pg3:3 are one.  The uncached search,
``_search.__wrapped__``, is the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import DomainError

__all__ = ["canonical_code", "canonical_set_system", "concurrency_classes"]


def _gather(*idx: int):
    """A function taking a sequence seq to the sequence of seq[i] for i in idx, of any length.

    ``itemgetter`` returns a bare item for one index and takes no index at all,
    so a short idx gathers by a slice.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _incidence(s: int, subs) -> tuple[list, list]:
    """The gathers _refine reads: each subset's elements, and each element's subset indices."""
    mem: list[list[int]] = [[] for _ in range(s)]
    for si, S in enumerate(subs):
        for e in S:
            mem[e].append(si)
    return [_gather(*S) for S in subs], [_gather(*m) for m in mem]


def _refine(subsets: list, members: list, colors: list[int]) -> list[int]:
    """Stable coloring of 0..s-1 jointly refined with the class colors, as dense ranks.

    subsets holds the gather of each class's elements and members the gather
    of each element's class indices; colors must be dense.
    """
    cells = len(set(colors))
    while True:
        skey = [tuple(sorted(g(colors))) for g in subsets]
        # by size, then by sorted colours: the stable sort by len keeps the second order
        srank = {key: i for i, key in enumerate(sorted(sorted(set(skey)), key=len))}
        ranks = list(map(srank.__getitem__, skey))
        esig = [(col, tuple(sorted(g(ranks)))) for col, g in zip(colors, members)]
        sigs = set(esig)
        if len(sigs) == cells:
            # no cell split: the ranks of dense colours are the colours
            return colors
        cells = len(sigs)
        erank = {sig: i for i, sig in enumerate(sorted(sigs))}
        colors = list(map(erank.__getitem__, esig))


def _individualize(colors: list[int], x: int) -> list[int]:
    """Split x's cell of a dense colouring: x keeps its colour c, its cell-mates take c + 1."""
    c = colors[x]
    new = [col + (col >= c) for col in colors]
    new[x] = c
    return new


def _close(orbit: set[int], frontier: list[int], gens: list[tuple[int, ...]]) -> None:
    """Grow orbit in place to its closure under gens, starting from frontier."""
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = g[y]
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)


def canonical_set_system(s: int, subsets) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a set system over ground set 0..s-1.

    An s that is not a nonnegative int, or an element that is not an int or
    lies outside 0..s-1, raises DomainError; a bool is not an int here.
    """
    if type(s) is not int or s < 0:
        raise DomainError(f"ground set size {s!r} is not a nonnegative int")
    subs = [frozenset(S) for S in subsets]
    # each subset's own elements: their union would merge a True into a 1
    elements = list(chain.from_iterable(subs))
    if not set(map(type, elements)) <= {int}:
        raise DomainError("set system has an element that is not an int")
    if elements and not 0 <= min(elements) <= max(elements) < s:
        raise DomainError(f"set system has an element outside the ground set 0..{s - 1}")
    if len(subs) == 1 and len(subs[0]) == s:
        return (tuple(range(s)),)
    return _search(s, tuple(sorted(tuple(sorted(S)) for S in subs)))


@lru_cache(maxsize=4096)  # affine:5 searches 286 distinct systems, 6 of them triangles
def _search(s: int, subs: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The minimum leaf code of the individualisation-refinement tree."""
    subsets, members = _incidence(s, subs)

    best_code: tuple | None = None
    inv_best: list[int] = []
    best_path: list[int] = []
    autos: list[tuple[int, ...]] = []

    def visit_leaf(colors: list[int], fixed: list[int]) -> int:
        nonlocal best_code, inv_best, best_path
        code = tuple(sorted(tuple(sorted(g(colors))) for g in subsets))
        if best_code is None or code < best_code:
            best_code = code
            inv_best = sorted(range(s), key=colors.__getitem__)
            best_path = fixed
        elif code == best_code:
            autos.append(tuple(map(inv_best.__getitem__, colors)))
            # it maps this leaf's path onto the best leaf's: it fixes their
            # common prefix and carries the rest of this subtree onto the
            # sibling subtree already searched, so resume at the branch point
            return next(i for i, (a, b) in enumerate(zip(best_path, fixed)) if a != b)
        return len(fixed)

    def search(colors: list[int], fixed: list[int]) -> int:
        """Search below a node; return the depth at which the search resumes."""
        # colours are dense, so the sorted colours first fall below their
        # index at the second member of the first non-singleton cell
        c = next((col for i, col in enumerate(sorted(colors)) if col < i), None)
        if c is None:
            return visit_leaf(colors, fixed)
        depth = len(fixed)
        gens: list[tuple[int, ...]] = []  # the automorphisms in autos that fix fixed pointwise
        seen = 0
        orbit: set[int] = set()  # closure of the visited children under gens
        at_fixed, fixed_t = _gather(*fixed), tuple(fixed)
        for x in [e for e, col in enumerate(colors) if col == c]:
            new = [g for g in autos[seen:] if at_fixed(g) == fixed_t]
            seen = len(autos)
            if new:
                gens += new
                _close(orbit, list(orbit), gens)
            if x in orbit:
                continue
            orbit.add(x)
            _close(orbit, [x], gens)
            level = search(_refine(subsets, members, _individualize(colors, x)), fixed + [x])
            if level < depth:
                return level
        return depth

    search(_refine(subsets, members, [0] * s), [])
    assert best_code is not None
    return best_code


def concurrency_classes(family) -> tuple[int, list[frozenset[int]]]:
    """Member count s and, per multiply covered point, its member positions."""
    idx = family.indices()
    design = family.design
    through: dict[int, list[int]] = {}
    for pos, bi in enumerate(idx):
        for p in design.blocks[bi]:
            through.setdefault(p, []).append(pos)
    subs = [frozenset(ps) for ps in through.values() if len(ps) >= 2]
    return len(idx), subs


def canonical_code(family) -> str:
    """String equal for two families iff their induced structures are isomorphic."""
    s, subs = concurrency_classes(family)
    form = canonical_set_system(s, subs)
    body = ";".join(",".join(map(str, S)) for S in form)
    return f"k{family.design.k}:s{s}:{body}"

