"""Intersecting block families: enumeration, maximality, structure, classification.

Block families are bit vectors over block indices, and the pairwise
intersection relation is one adjacency bitmask per block, so the maximality
and enumeration loops are word-parallel.  A point-pencil is the design's
pencil mask of its point, and a triangle is the part of that pencil meeting
its base block, plus the base.  ``shape`` tells the two shapes apart from
every other family by comparing the family with those masks, and builds no
concurrency classes.

On a design with k >= 3 and no O'Nan configuration, enumeration is a
closed form: the maximal intersecting families are exactly the v
point-pencils and the v(b - r) triangles, one per point p and block B off
p.  Write p_xy for the point that blocks x and y share.

- A family in no pencil has three members a, b, c with distinct pairwise
  points.  A further member d meets all three, and with no O'Nan
  configuration d passes one of p_ab, p_ac and p_bc.  If d passes p_ab and
  e passes p_ac, then {b, c, d, e} is an O'Nan configuration.  So every
  further member passes one point, p_ab say, and the family lies in the
  triangle with apex p_ab and base c.
- Such a design has r > k, since the four lines of a projective plane in
  general position form an O'Nan configuration.  So a pencil is maximal: a
  block off p meets only k of the r blocks through p.
- A triangle T(p, B) is maximal.  A block C off p that met every member
  would meet B at one point z, and C, B and the members through two other
  points of B would form an O'Nan configuration; this needs k >= 3.
- For k >= 3, p is the one point on k members of T(p, B) and B the one
  member off p, so distinct pairs give distinct triangles, and no triangle
  is a pencil.

The scan for an O'Nan configuration runs once per design (``Design.onan``)
and tests each intersecting block pair a < b once: a, b and the (k - 1)^2
blocks joining a - p_ab to b - p_ab cover 2k - 1 + (k - 1)^2 (k - 2) points
exactly when no configuration holds both, and the first pair short of that
count is the two least blocks of the first configuration (``find_onan``).
At k = 2 a triangle of K_v has three apexes, so those designs are searched.

Every other design is searched by Bron-Kerbosch with Tomita pivoting from a
root whose candidates are all blocks.  Every node branches in block index
order and its pivot ties break toward the smaller index, which makes every
stream deterministic; no degeneracy order is built, since the intersection
graph of a 2-(v,k,1) design is regular.  A node whose excluded set holds a
block meeting every candidate returns at once, children with at most one
candidate are settled in their parent's loop, and a node's last child to
search continues in the parent's frame.  Both paths keep families as bit
vectors and sort them by index tuple at the end.

The paper's claim has two halves.  The size half, that no intersecting
family has more than the r blocks of a pencil when b > v, is Delsarte's
clique bound for the block graph, and ``max_ekr_size`` returns a pencil
by it with no search.  The uniqueness half, that the pencils are the only
families of r blocks, holds exactly when L < r, L the size of the largest
family in no pencil.  The paper proves it for the (k, r) that
``bounds.replication_threshold`` and ``bounds.near_extremal_threshold``
mark.  On an O'Nan-free design with k >= 3 the closed form above gives
L = k + 1; no other design's L is computed yet.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from operator import attrgetter

from .canon import canonical_code
from .designs import Design
from .errors import BudgetExceeded, DomainError, Record

__all__ = [
    "BlockSet",
    "CoverProfile",
    "EkrType",
    "HasONan",
    "NotIntersecting",
    "OnanFreeVerdict",
    "PointOnBlock",
    "classify",
    "classify_onan_free",
    "cover_profile",
    "enumerate_maximal_ekr",
    "find_onan",
    "is_intersecting",
    "is_maximal",
    "max_ekr_size",
    "maximal_family_sizes",
    "point_pencil",
    "triangle",
]


class NotIntersecting(DomainError):
    pass


class PointOnBlock(DomainError):
    pass


class HasONan(DomainError):
    def __init__(self, blocks: tuple[int, int, int, int]):
        super().__init__(f"design has an O'Nan configuration: blocks {blocks}")
        self.blocks = blocks


class BlockSet(Record):
    """An immutable set of blocks of one design, stored as a bit vector of indices.

    Two block sets are equal when they hold the same blocks of the same
    design object.  blocks is a bit vector as an int, or an iterable of
    int indices; a bool, a float or a str in either place raises DomainError.

    Invariant: mask is an int >= 0 with no bit at b or above.  This constructor
    checks it; ``_block_sets`` trusts it for masks built from the design's
    own pencil and adjacency masks.  Both fill the two slots through their
    setters, which the frozen ``__setattr__`` does not guard.
    """

    __slots__ = _fields = ("design", "mask")
    design: Design
    mask: int

    def __init__(self, design: Design, blocks=0):
        if type(blocks) is int:
            mask = blocks
        else:
            try:
                items = iter(blocks)
            except TypeError:
                raise DomainError(f"blocks must be an int or an iterable of ints, not {blocks!r}") from None
            mask = 0
            for i in items:
                _check_index("block index", i, design.b)
                mask |= 1 << i
        if mask >> design.b:
            raise DomainError("bit vector longer than the block list")
        _set_design(self, design)
        _set_mask(self, mask)

    def indices(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            bit = m & -m
            out.append(bit.bit_length() - 1)
            m ^= bit
        return tuple(out)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.design.b and (self.mask >> i) & 1 == 1

    def __repr__(self):
        return f"BlockSet({self.indices()})"


_set_design = BlockSet.design.__set__
_set_mask = BlockSet.mask.__set__


def _block_sets(design: Design, masks: list[int]) -> list[BlockSet]:
    """BlockSets of design for masks, with no check: each mask must keep BlockSet's invariant."""
    families = list(map(object.__new__, itertools.repeat(BlockSet, len(masks))))
    deque(map(_set_design, families, itertools.repeat(design)), 0)
    deque(map(_set_mask, families, masks), 0)
    return families


class CoverProfile(Record):
    """How a family covers points.

    k_hist[i] counts covered points lying on exactly i member blocks (entry 0
    is unused), k_s is the top multiplicity, and cover_excess is the number of
    covered points beyond k(k-1).
    """

    __slots__ = _fields = ("covered", "k_hist", "k_s", "cover_excess")
    covered: int
    k_hist: tuple[int, ...]
    k_s: int
    cover_excess: int

    def __init__(self, covered: int, k_hist: tuple[int, ...], k_s: int, cover_excess: int):
        object.__setattr__(self, "covered", covered)
        object.__setattr__(self, "k_hist", k_hist)
        object.__setattr__(self, "k_s", k_s)
        object.__setattr__(self, "cover_excess", cover_excess)


class EkrType(Record):
    """Isomorphism type of a maximal family's induced incidence structure.

    witness is the type's first family in the input to classify; it takes no
    part in equality, hashing or repr.
    """

    _fields = ("label", "size", "profile", "code")
    __slots__ = (*_fields, "witness")
    label: str
    size: int
    profile: CoverProfile
    code: str
    witness: BlockSet

    def __init__(self, label: str, size: int, profile: CoverProfile, code: str, witness: BlockSet):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "witness", witness)


def _meeting_all(family: BlockSet) -> int:
    """Bitmask of the blocks that are members or meet every member."""
    adj = family.design.intersection_adjacency
    out = (1 << family.design.b) - 1
    m = family.mask
    while m:
        bit = m & -m
        m ^= bit
        out &= adj[bit.bit_length() - 1] | bit
    return out


def is_intersecting(family: BlockSet) -> bool:
    return family.mask & ~_meeting_all(family) == 0


def is_maximal(family: BlockSet) -> bool:
    """True when no further block meets every member.  Empty families are not maximal."""
    meeting = _meeting_all(family)
    if family.mask & ~meeting:
        raise NotIntersecting("family contains two disjoint blocks")
    return meeting == family.mask


def _check_index(name: str, i, n: int) -> None:
    """Refuse an index i that is not an int (a bool included) or lies outside 0..n-1."""
    if type(i) is not int:
        raise DomainError(f"{name} {i!r} is not an int")
    if not 0 <= i < n:
        raise DomainError(f"{name} {i} outside 0..{n - 1}")


def point_pencil(design: Design, point: int) -> BlockSet:
    """The r blocks through a point."""
    _check_index("point", point, design.v)
    return BlockSet(design, design.pencil_masks[point])


def triangle(design: Design, point: int, block: int) -> BlockSet:
    """A base block plus every block through an external point that meets it."""
    _check_index("point", point, design.v)
    _check_index("block index", block, design.b)
    if point in design.blocks[block]:
        raise PointOnBlock(f"point {point} lies on block {block}")
    return BlockSet(design, _triangle_mask(design, point, block))


def _triangle_mask(design: Design, point: int, block: int) -> int:
    """The blocks through point that meet block, plus block, for point off block."""
    return design.pencil_masks[point] & design.intersection_adjacency[block] | 1 << block


def shape(family: BlockSet) -> str | None:
    """The family's shape from its block masks: "point-pencil", "triangle" or None.

    A family of s >= 2 members is a point-pencil when it lies in the pencil
    of one point, the point its first two members share.  It is a triangle
    when s = k + 1 and, for a point p shared by two of its first three
    members, exactly one member i is off p's pencil and the family is
    ``triangle(design, p, i)``.  Two of any three members of a triangle lie
    in its base, so one such p is the base's point, and the equality alone
    shows that i is the one member off p's pencil.  A family with two
    disjoint members among its first three has no shape, since both shapes
    are intersecting.
    """
    design = family.design
    mask = family.mask
    s = mask.bit_count()
    if s < 2:
        return None
    points = []
    for a, b in itertools.combinations(family.indices()[:3], 2):
        common = design.block_masks[a] & design.block_masks[b]
        if not common:
            return None
        points.append(common.bit_length() - 1)
    pencils = design.pencil_masks
    if not mask & ~pencils[points[0]]:
        return "point-pencil"
    if s == design.k + 1:
        for p in points:
            # the last member off p's pencil; a triangle with base point p has one
            i = (mask & ~pencils[p]).bit_length() - 1
            if mask == _triangle_mask(design, p, i):
                return "triangle"
    return None


def cover_profile(family: BlockSet) -> CoverProfile:
    design = family.design
    mults = [(pencil & family.mask).bit_count() for pencil in design.pencil_masks]
    k_s = max(mults)
    hist = [0] * (k_s + 1)
    for m in mults:
        hist[m] += 1
    covered = design.v - hist[0]
    hist[0] = 0
    return CoverProfile(covered, tuple(hist), k_s, covered - design.k * (design.k - 1))


# -- enumeration -----------------------------------------------------------


class _Cliques:
    """The maximal cliques found so far, as bit vectors: all are counted, the first cap kept."""

    __slots__ = ("cap", "count", "kept")

    def __init__(self, cap: float):
        self.cap = cap
        self.count = 0
        self.kept: list[int] = []

    def add(self, mask: int):
        self.count += 1
        if self.count <= self.cap:
            self.kept.append(mask)


# Bit i of a byte moved to bit 7 - i.  A little-endian dump of a block mask
# with its bytes reversed this way lists the blocks from the smallest index
# down, so of two masks the one holding their smallest differing block has
# the larger key.
_REVERSED_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _sort_by_indices(masks: list[int], b: int) -> None:
    """Sort masks of maximal cliques by their index tuples, in place.

    No maximal clique contains another, so neither of two index tuples is a
    prefix of the other and the smallest differing block decides their order.
    """
    nbytes = (b + 7) // 8
    masks.sort(key=lambda m: m.to_bytes(nbytes, "little").translate(_REVERSED_BITS), reverse=True)


def _bk_pivot(adj, size: int, mask: int, P: int, X: int, min_size: int, out: _Cliques):
    """Extend the clique mask, of size blocks, by the candidates P (at least two) but not X.

    The last child of a node that needs a search continues in this frame, so
    a chain of nodes with one such child each, as in a family of all blocks,
    takes no recursion depth.
    """
    while True:
        # pivot: the first vertex of P | X covering the most of P.  A vertex of
        # P covers at most |P| - 1, so one covering all of P lies in X and
        # makes every clique below extendable.
        need = P.bit_count()
        cand = P | X
        pivot, best = -1, -1
        while cand:
            bit = cand & -cand
            cand ^= bit
            u = bit.bit_length() - 1
            c = (P & adj[u]).bit_count()
            if c > best:
                if c == need:
                    return
                pivot, best = u, c
                if c == need - 1:
                    break
        size += 1
        ext = P & ~adj[pivot]
        while ext:
            bit = ext & -ext
            ext ^= bit
            av = adj[bit.bit_length() - 1]
            Pv = P & av
            Xv = X & av
            # a child with no candidate or one is settled here, not by a call
            if size + Pv.bit_count() >= min_size:
                if not Pv:
                    if not Xv:
                        out.add(mask | bit)
                elif not Pv & (Pv - 1):
                    if not Xv & adj[Pv.bit_length() - 1]:
                        out.add(mask | bit | Pv)
                elif ext:
                    _bk_pivot(adj, size, mask | bit, Pv, Xv, min_size, out)
                else:
                    break  # the last child: searched below, in this frame
            P ^= bit
            X |= bit
        else:
            return
        mask, P, X = mask | bit, Pv, Xv


def _pencils_and_triangles(design: Design, min_size: int, cap: float) -> tuple[int, list[int]]:
    """The count of an O'Nan-free design's maximal families of at least min_size blocks, and their masks.

    The v pencils have r blocks and the v(b - r) triangles k + 1.  When the
    count passes cap no mask is built and the list is empty.  A point's
    triangles are ``_triangle_mask`` over the blocks off it, in one
    comprehension over (adjacency, bit) pairs.
    """
    pencils = design.pencil_masks
    keep_pencils = design.r >= min_size
    keep_triangles = design.k + 1 >= min_size
    count = design.v * (keep_pencils + keep_triangles * (design.b - design.r))
    if count > cap:
        return count, []
    masks = list(pencils) if keep_pencils else []
    if keep_triangles:
        pairs = list(zip(design.intersection_adjacency, [1 << i for i in range(design.b)]))
        for pencil in pencils:
            masks += [pencil & adj | bit for adj, bit in pairs if not pencil & bit]
    return count, masks


def enumerate_maximal_ekr(
    design: Design,
    min_size: int = 1,
    max_count: int | None = None,
) -> list[BlockSet]:
    """Every maximal intersecting family with at least min_size blocks.

    The result is materialised and sorted by block index tuple, so identical
    inputs give identical streams.  When more than max_count families exist
    the call raises BudgetExceeded rather than truncate silently: it keeps
    at most max_count families but counts them all, so the exception's count
    is exact and memory stays O(max_count).  A min_size that is not an int,
    or a max_count that is neither None nor an int, a bool included in both,
    raises DomainError before any work, and so does a negative max_count.

    A design with k >= 3 and no O'Nan configuration takes a closed form: its
    maximal families are exactly the v point-pencils and the v(b - r)
    triangles, one per point p and block B off p.  A family in no pencil has
    three members with distinct pairwise points, and with no O'Nan
    configuration every further member passes one of those points, the same
    one for all, so the family lies in a triangle; the module docstring has
    the whole proof.  The count is known before any mask is built, so a
    capped call raises at once, and the masks are the design's pencils and
    ``_triangle_mask(design, p, B)``.  Pencils are kept when r >= min_size,
    triangles when k + 1 >= min_size.

    Every other design is searched.  The root of the search is an ordinary
    node whose candidates are all blocks, so its children are the blocks its
    pivot misses, and every node branches in block index order.  No
    degeneracy order is computed: the intersection graph of a 2-(v,k,1)
    design is regular of degree k(r-1), so its degeneracy is that degree and
    an order bounds nothing better.  A node returns at once when an excluded
    block meets every candidate, since no clique below it is then maximal.
    The exact count of a capped search needs the whole search, so the cap
    bounds its memory, not its time.

    Both paths build every mask from the design's own pencil and adjacency
    masks, so none has a bit at b or above, and they wrap them as BlockSets
    through ``_block_sets`` with no check.
    """
    if type(min_size) is not int:
        raise DomainError(f"min_size {min_size!r} is not an int")
    if max_count is not None:
        if type(max_count) is not int:
            raise DomainError(f"the requested cap {max_count!r} is not an int")
        if max_count < 0:
            raise DomainError(f"the requested cap {max_count} is negative")
    cap = math.inf if max_count is None else max_count
    if design.k >= 3 and design.onan is None:
        count, masks = _pencils_and_triangles(design, min_size, cap)
    else:
        out = _Cliques(cap)
        _bk_pivot(design.intersection_adjacency, 0, 0, (1 << design.b) - 1, 0, min_size, out)
        count, masks = out.count, out.kept
    if count > cap:
        raise BudgetExceeded(
            f"{count} maximal families exceed the requested cap {max_count}",
            count=count,
        )
    _sort_by_indices(masks, design.b)
    return _block_sets(design, masks)


def maximal_family_sizes(design: Design, workers: int = 1) -> dict[int, int]:
    """Size histogram of the maximal families, largest size first.

    The families are enumerated into a list first, so memory grows with
    their number, and counted by their masks' ``int.bit_count``, in C, with
    no call of ``BlockSet.__len__``.  workers is accepted and ignored.
    """
    sizes = Counter(map(int.bit_count, map(attrgetter("mask"), enumerate_maximal_ekr(design))))
    return dict(sorted(sizes.items(), reverse=True))


def max_ekr_size(design: Design) -> BlockSet:
    """A maximum intersecting family: the pencil of point 0 when b > v, else all blocks.

    Let N be the v x b incidence matrix and x the 0/1 vector of an
    intersecting family of s blocks.  Two members meet in one point, so
    |Nx|^2 = sk + s(s - 1).  N N^T = (r - 1)I + J, so N^T N has eigenvalue rk
    on the all-ones vector, r - 1 on the rest of N's row space and 0 on N's
    kernel, and splitting x along them gives
    |Nx|^2 <= rk s^2/b + (r - 1)(s - s^2/b).  With bk = vr and
    v = r(k - 1) + 1 this is s(r - k) <= r(r - k), so s <= r when r > k,
    that is when b > v: Delsarte's clique bound for the block graph.  When
    b = v the design is a projective plane, and every two blocks meet.
    """
    mask = design.pencil_masks[0] if design.b > design.v else (1 << design.b) - 1
    return BlockSet(design, mask)


# -- O'Nan configurations ---------------------------------------------------


def find_onan(design: Design) -> tuple[int, int, int, int] | None:
    """Four pairwise intersecting blocks with no three through a common point.

    With the pair axiom the condition is equivalent to the six pairwise
    intersection points being distinct.  Let blocks a and b meet at p.  Their
    transversals, the blocks xy with x on a - p and y on b - p, are (k - 1)^2
    distinct blocks, each with k - 2 points off a | b.  Two transversals
    sharing a point z off a | b meet a and b at four distinct points, since
    two blocks share at most one point, so with a and b they form an O'Nan
    configuration; and in any configuration holding a and b the other two
    blocks are such transversals.  So a, b and their transversals cover
    2k - 1 + (k - 1)^2 (k - 2) points exactly when no configuration holds
    both a and b, and the scan (``Design.onan``) tests each intersecting
    pair a < b by that one count.

    A pair short of the count lies in a configuration, and that
    configuration's two least blocks are a pair no later in (a, b) order,
    also short.  So the first short pair is the two least blocks of the
    first configuration in lexicographic order, which is that pair with the
    first (c, d), c > b, completing it.  The scan runs once per design: its
    result is the cached ``Design.onan``.
    """
    return design.onan


# -- classification ---------------------------------------------------------


def _check_design(design: Design, family: BlockSet) -> None:
    if family.design is not design:
        raise DomainError("family belongs to another design than the one given")


def _label(family: BlockSet, code: str) -> str:
    kind = shape(family)
    size = len(family)
    if family.design.k == 3 and kind != "point-pencil":
        return f"EKR_{size}"
    if kind:
        return kind
    # imported here: only a type that is no pencil, triangle or k = 3 family
    # takes a digest, and loading hashlib at import would cost every CLI start
    import hashlib

    digest = hashlib.sha256(code.encode()).hexdigest()[:8]
    return f"type-s{size}-{digest}"


def classify(design: Design, families) -> list[tuple[EkrType, int]]:
    """Group families by the isomorphism type of their induced structures.

    Returns (type, count) per type, by size descending and then canonical
    code; each type's witness is its first family in input order.  A family
    of another design raises DomainError.
    """
    groups: dict[str, list] = {}
    for fam in families:
        _check_design(design, fam)
        code = canonical_code(fam)
        entry = groups.get(code)
        if entry is None:
            etype = EkrType(_label(fam, code), len(fam), cover_profile(fam), code, fam)
            entry = groups[code] = [etype, 0]
        entry[1] += 1
    return sorted(map(tuple, groups.values()), key=lambda e: (-e[0].size, e[0].code))


class OnanFreeVerdict(Record):
    """Outcome of checking that every maximal family is a pencil or a triangle."""

    __slots__ = _fields = ("confirmed", "pencil_count", "triangle_count", "counterexample", "note")
    confirmed: bool
    pencil_count: int
    triangle_count: int
    counterexample: BlockSet | None
    note: str | None

    def __init__(
        self,
        confirmed: bool,
        pencil_count: int,
        triangle_count: int,
        counterexample: BlockSet | None = None,
        note: str | None = None,
    ):
        object.__setattr__(self, "confirmed", confirmed)
        object.__setattr__(self, "pencil_count", pencil_count)
        object.__setattr__(self, "triangle_count", triangle_count)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "note", note)


def classify_onan_free(design: Design, families=None) -> OnanFreeVerdict:
    """For O'Nan-free designs, verify the pencil-or-triangle dichotomy.

    The first family that is neither shape, a non-intersecting one included,
    is returned as the counterexample.  Raises HasONan when the design
    contains an O'Nan configuration; in that case the dichotomy is not
    promised and the caller should inspect the configuration instead.  A
    family of another design raises DomainError.
    """
    witness = find_onan(design)
    if witness is not None:
        raise HasONan(witness)
    if families is None:
        families = enumerate_maximal_ekr(design)
    pencils = 0
    triangles = 0
    for fam in families:
        _check_design(design, fam)
        kind = shape(fam)
        if kind == "point-pencil":
            pencils += 1
        elif kind == "triangle":
            triangles += 1
        else:
            return OnanFreeVerdict(False, pencils, triangles, counterexample=fam)
    return OnanFreeVerdict(True, pencils, triangles)
