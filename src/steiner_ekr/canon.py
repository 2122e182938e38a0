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

from .errors import DomainError

__all__ = ["canonical_code", "canonical_set_system", "concurrency_classes"]


def _refine(
    subs: tuple[tuple[int, ...], ...], mem: list[list[int]], colors: list[int]
) -> list[int]:
    """Stable coloring of 0..s-1 jointly refined with the class colors, as dense ranks."""
    while True:
        scol = [(len(S), tuple(sorted(colors[e] for e in S))) for S in subs]
        srank = {key: i for i, key in enumerate(sorted(set(scol)))}
        esig = [(col, tuple(sorted(srank[scol[si]] for si in m))) for col, m in zip(colors, mem)]
        erank = {key: i for i, key in enumerate(sorted(set(esig)))}
        new = [erank[sig] for sig in esig]
        if new == colors:
            return new
        colors = new


def _individualize(colors: list[int], x: int) -> list[int]:
    """Split x's cell of a dense colouring: x keeps its colour c, its cell-mates take c + 1."""
    c = colors[x]
    return [col + 1 if col > c or col == c and e != x else col for e, col in enumerate(colors)]


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

    A negative s, or an element that is not an int or lies outside 0..s-1,
    raises DomainError.
    """
    subs = [frozenset(S) for S in subsets]
    elements = frozenset().union(*subs)
    if s < 0:
        raise DomainError("ground set size must be nonnegative")
    if not all(isinstance(e, int) for e in elements):
        raise DomainError("set system has an element that is not an int")
    if not elements <= frozenset(range(s)):
        raise DomainError(f"set system has an element outside the ground set 0..{s - 1}")
    if len(subs) == 1 and len(subs[0]) == s:
        return (tuple(range(s)),)
    return _search(s, tuple(sorted(tuple(sorted(S)) for S in subs)))


@lru_cache(maxsize=4096)  # affine:5 searches 286 distinct systems, 6 of them triangles
def _search(s: int, subs: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The minimum leaf code of the individualisation-refinement tree."""
    mem: list[list[int]] = [[] for _ in range(s)]
    for si, S in enumerate(subs):
        for e in S:
            mem[e].append(si)

    best_code: tuple | None = None
    inv_best: list[int] = []
    best_path: list[int] = []
    autos: list[tuple[int, ...]] = []

    def visit_leaf(colors: list[int], fixed: list[int]) -> int:
        nonlocal best_code, inv_best, best_path
        code = tuple(sorted(tuple(sorted(colors[e] for e in S)) for S in subs))
        if best_code is None or code < best_code:
            best_code = code
            inv_best = [0] * s
            for e in range(s):
                inv_best[colors[e]] = e
            best_path = fixed
        elif code == best_code:
            autos.append(tuple(inv_best[colors[e]] for e in range(s)))
            # it maps this leaf's path onto the best leaf's: it fixes their
            # common prefix and carries the rest of this subtree onto the
            # sibling subtree already searched, so resume at the branch point
            return next(i for i, (a, b) in enumerate(zip(best_path, fixed)) if a != b)
        return len(fixed)

    def search(colors: list[int], fixed: list[int]) -> int:
        """Search below a node; return the depth at which the search resumes."""
        count = [0] * s
        for col in colors:
            count[col] += 1
        c = next((col for col in range(s) if count[col] > 1), None)
        if c is None:
            return visit_leaf(colors, fixed)
        depth = len(fixed)
        gens: list[tuple[int, ...]] = []  # the automorphisms in autos that fix fixed pointwise
        seen = 0
        orbit: set[int] = set()  # closure of the visited children under gens
        for x in [e for e in range(s) if colors[e] == c]:
            new = [g for g in autos[seen:] if all(g[f] == f for f in fixed)]
            seen = len(autos)
            if new:
                gens += new
                _close(orbit, list(orbit), gens)
            if x in orbit:
                continue
            orbit.add(x)
            _close(orbit, [x], gens)
            level = search(_refine(subs, mem, _individualize(colors, x)), fixed + [x])
            if level < depth:
                return level
        return depth

    search(_refine(subs, mem, [0] * s), [])
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

