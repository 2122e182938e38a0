"""2-(v, k, 1) designs: validation, constructors, file io.

A design here is a point set 0 .. v-1 together with b blocks of k points such
that every pair of points lies in exactly one block.  Validation is part of
construction: a ``Design`` instance that exists has passed the pair axiom.

Incidence is kept only as bitmasks, each built from the block list: per block
its points, per point the blocks through it, and per block the other blocks
it meets, so memory grows as b^2.  The scan for the first O'Nan configuration
runs on these masks once per design (``Design.onan``), once per intersecting
block pair a < b: a configuration holds both exactly when a, b and the
(k - 1)^2 blocks joining a - p to b - p, p their common point, cover fewer
than 2k - 1 + (k - 1)^2 (k - 2) points, and the first such pair is the two
least blocks of the first configuration.  A builtin constructor
or a design file with more than ``MAX_BLOCKS`` blocks is refused before any
block is built or read, and a file is read line by line, so a line of more
than ``MAX_LINE_CHARS`` characters is refused before it is read in full.
Every geometric builtin is the secant-line design of a point set, built by
``geometry.secant_lines`` from the lines of a projective space.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext
from functools import cached_property

from .errors import DomainError
from .geometry import field, hermitian_points, pg_lines, secant_lines

__all__ = [
    "Design",
    "DesignError",
    "ParameterMismatch",
    "PairRepeated",
    "ParseError",
    "affine_plane",
    "complete_graph",
    "hermitian_unital",
    "load_design",
    "pg3_line_design",
    "projective_plane",
    "save_design",
    "sts13",
]


class DesignError(DomainError):
    pass


class ParameterMismatch(DesignError):
    pass


class PairRepeated(DesignError):
    def __init__(self, p: int, q: int, block_a: int, block_b: int):
        super().__init__(f"point pair ({p}, {q}) lies on blocks {block_a} and {block_b}")
        self.pair = (p, q)
        self.blocks = (block_a, block_b)


class ParseError(DesignError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Design:
    """An immutable, validated 2-(v, k, 1) design."""

    def __init__(self, v: int, k: int, blocks, name: str | None = None):
        if not isinstance(v, int) or not isinstance(k, int) or not (v > k > 1):
            raise ParameterMismatch(f"need v > k > 1, got v={v} k={k}")
        clean = []
        for bl in blocks:
            tb = tuple(bl)
            if len(tb) != k:
                raise ParameterMismatch(f"block {tb} does not have {k} points")
            # a bool or a float would pass the checks below but not save_design's text
            if any(type(x) is not int for x in tb):
                raise ParameterMismatch(f"block {tb} has a point that is not an int")
            if any(not (0 <= x < v) for x in tb):
                raise ParameterMismatch(f"block {tb} has a point outside 0..{v - 1}")
            if any(tb[i] >= tb[i + 1] for i in range(k - 1)):
                raise ParameterMismatch(f"block {tb} is not strictly increasing")
            clean.append(tb)
        if len(clean) * k * (k - 1) != v * (v - 1):
            raise ParameterMismatch(
                f"a 2-({v},{k},1) design has v(v-1)/(k(k-1)) blocks, got {len(clean)}"
            )
        clean.sort()
        self.v = v
        self.k = k
        self.blocks: tuple[tuple[int, ...], ...] = tuple(clean)
        self.name = name
        self._check_pairs()

    def _check_pairs(self):
        """Raise PairRepeated on a pair in two blocks.

        __init__ has checked that b = v(v-1)/(k(k-1)), so with no pair
        repeated every pair lies on a block.
        """
        cover = [0] * self.v
        for bi, m in enumerate(self.block_masks):
            for p in self.blocks[bi]:
                later = m >> (p + 1) << (p + 1)
                again = cover[p] & later
                if again:
                    q = (again & -again).bit_length() - 1
                    first = next(a for a, bl in enumerate(self.blocks) if p in bl and q in bl)
                    raise PairRepeated(p, q, first, bi)
                cover[p] |= later

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return (self.v - 1) // (self.k - 1)

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        out = []
        for bl in self.blocks:
            m = 0
            for p in bl:
                m |= 1 << p
            out.append(m)
        return tuple(out)

    @cached_property
    def pencil_masks(self) -> tuple[int, ...]:
        """Per point, the bitmask of the blocks through it."""
        pencils = [0] * self.v
        for bi, bl in enumerate(self.blocks):
            bit = 1 << bi
            for p in bl:
                pencils[p] |= bit
        return tuple(pencils)

    @cached_property
    def intersection_adjacency(self) -> tuple[int, ...]:
        """Per block, the bitmask of other blocks sharing a point with it."""
        pencils = self.pencil_masks
        adj = []
        for bi, bl in enumerate(self.blocks):
            a = 0
            for p in bl:
                a |= pencils[p]
            adj.append(a & ~(1 << bi))
        return tuple(adj)

    @cached_property
    def onan(self) -> tuple[int, int, int, int] | None:
        """The first O'Nan configuration in lexicographic order, or None; see ``ekr.find_onan``.

        The scan tests each intersecting pair a < b once.  Per block a,
        ``cone[y]`` is the point mask of the k blocks joining a point y off a
        to a, built in one pass over the blocks through the points of a.
        For a later block b meeting a at p, the union of ``cone[y]`` over the
        points y of b - p is a, b and their (k - 1)^2 transversals, and it has
        2k - 1 + (k - 1)^2 (k - 2) points exactly when no O'Nan configuration
        holds both a and b.  The first pair short of that count is the two
        least blocks of the first configuration, and only that pair is
        searched for its c and d: a block c > b meeting a and b off p makes
        p_ab, p_ac and p_bc distinct, and then the candidates for d are one
        mask.
        """
        adj = self.intersection_adjacency
        masks = self.block_masks
        pencil = self.pencil_masks
        blocks = self.blocks
        # per point, the mask and points of each block through it
        through = [[] for _ in range(self.v)]
        for m, bl in zip(masks, blocks):
            for p in bl:
                through[p].append((m, bl))
        k = self.k
        full = 2 * k - 1 + (k - 1) ** 2 * (k - 2)
        for a in range(self.b):
            na = adj[a] >> (a + 1) << (a + 1)
            cone = [0] * self.v
            for x in blocks[a]:
                for m, bl in through[x]:
                    for y in bl:
                        cone[y] |= m
            # cleared on a, so b's point p adds nothing to the union below
            for x in blocks[a]:
                cone[x] = 0
            ma = na
            while ma:
                bit_b = ma & -ma
                b = bit_b.bit_length() - 1
                ma ^= bit_b
                union = 0
                for y in blocks[b]:
                    union |= cone[y]
                if union.bit_count() == full:
                    continue
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

    def block_index(self, block) -> int:
        """Index of a block given as an iterable of points."""
        key = tuple(sorted(block))
        i = bisect_left(self.blocks, key)
        if i < len(self.blocks) and self.blocks[i] == key:
            return i
        raise KeyError(f"{key} is not a block")

    def __repr__(self):
        tag = self.name or "design"
        return f"<{tag}: 2-({self.v},{self.k},1), b={self.b}>"


# -- constructors ---------------------------------------------------------

# Most blocks a builtin constructor builds or a design file declares.  By
# Fisher's inequality v <= b, so the v(v-1)/2 point pairs checked at
# construction and the b x b intersection adjacency both grow at most as b^2;
# projective:43 (1,893 blocks), the largest plane below the cap, builds with
# its adjacency in about 0.25 s in a 23 MB process.
MAX_BLOCKS = 2000

# Most characters, newline included, on one line of a design file.  A block
# line lists k <= 45 points, each below v <= b <= MAX_BLOCKS, so no legal line
# comes near it; a longer line is refused once that many characters are read.
MAX_LINE_CHARS = 1 << 16


def _check_block_count(kind: str, n: int, blocks) -> None:
    """Refuse kind:n before building it when n is not an int or its blocks() blocks pass MAX_BLOCKS.

    A bool is not an int here.  A parameter below 1 names no design; the
    constructor's own checks reject it.
    """
    if type(n) is not int:
        raise DesignError(f"{kind} parameter {n!r} is not an int")
    b = blocks()
    if n > 0 and b > MAX_BLOCKS:
        raise DesignError(f"{kind}:{n} would have {b} blocks, more than the {MAX_BLOCKS} allowed")


def projective_plane(q: int) -> Design:
    """Lines of PG(2, q): a 2-(q^2+q+1, q+1, 1) design."""
    _check_block_count("projective", q, lambda: q * q + q + 1)
    pts, lines = pg_lines(2, q)
    return Design(len(pts), q + 1, lines, name=f"projective:{q}")


def pg3_line_design(q: int) -> Design:
    """Lines of PG(3, q): a 2-((q^2+1)(q+1), q+1, 1) design."""
    _check_block_count("pg3", q, lambda: (q * q + 1) * (q * q + q + 1))
    pts, lines = pg_lines(3, q)
    return Design(len(pts), q + 1, lines, name=f"pg3:{q}")


def affine_plane(q: int) -> Design:
    """Lines of AG(2, q): a 2-(q^2, q, 1) design; point (x, y) has index x*q + y."""
    _check_block_count("affine", q, lambda: q * q + q)
    fld = field(q)
    pts = [(1, x, y) for x in fld.elements for y in fld.elements]
    return Design(q * q, q, secant_lines(fld, pts), name=f"affine:{q}")


def hermitian_unital(q: int) -> Design:
    """Secant-line design of the Hermitian curve: 2-(q^3+1, q+1, 1)."""
    _check_block_count("unital", q, lambda: q * q * (q * q - q + 1))
    # the curve first: it factors q itself, so an error names q, not q**2
    pts = hermitian_points(q)
    return Design(q**3 + 1, q + 1, secant_lines(field(q * q), pts), name=f"unital:{q}")


def complete_graph(v: int) -> Design:
    """Edge set of K_v as a 2-(v, 2, 1) design."""
    _check_block_count("kgraph", v, lambda: v * (v - 1) // 2)
    blocks = [(i, j) for i in range(v) for j in range(i + 1, v)]
    return Design(v, 2, blocks, name=f"kgraph:{v}")


# The two nonisomorphic Steiner triple systems on 13 points, blocks given as
# strings over 0-9, a, b, c.
_STS13_BLOCKS = {
    1: (
        "012 034 056 078 09a 0bc 135 147 168 19b 1ac 239 245 "
        "26a 27c 28b 36b 37a 38c 46c 489 4ab 57b 58a 59c 679"
    ),
    2: (
        "012 034 056 078 09a 0bc 135 147 168 19b 1ac 239 245 "
        "26a 27b 28c 36b 37c 38a 46c 489 4ab 57a 58b 59c 679"
    ),
}


def sts13(variant: int) -> Design:
    """One of the two Steiner triple systems on 13 points (variant the int 1 or 2)."""
    if type(variant) is not int or variant not in _STS13_BLOCKS:
        raise DomainError("variant must be 1 or 2")
    blocks = [tuple(sorted(int(ch, 13) for ch in word)) for word in _STS13_BLOCKS[variant].split()]
    return Design(13, 3, blocks, name=f"sts13:{variant}")


# -- file io --------------------------------------------------------------


def save_design(design: Design, path) -> None:
    """Write the plain text exchange format: a "v k" header, then one block per line."""
    lines = [f"{design.v} {design.k}"]
    lines.extend(" ".join(map(str, bl)) for bl in design.blocks)
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _numbered_lines(path):
    """(line_no, line) for each line of the file, numbered as str.splitlines splits its text.

    The file is read one newline-ended line at a time, and a line of more than
    MAX_LINE_CHARS characters raises ParseError before any more is read.
    """
    with nullcontext(path) if hasattr(path, "readline") else open(path) as fh:
        line_no = 0
        try:
            while chunk := fh.readline(MAX_LINE_CHARS + 1):
                if len(chunk) > MAX_LINE_CHARS:
                    raise ParseError(line_no + 1, f"line longer than {MAX_LINE_CHARS} characters")
                for line in chunk.splitlines():
                    line_no += 1
                    yield line_no, line
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"not a text file: {exc.reason}") from None


def load_design(path) -> Design:
    """Parse and validate the text format produced by save_design.

    Lines starting with '#' and blank lines are skipped.  The first payload
    line must be "v k", with b = v(v-1)/(k(k-1)) at most MAX_BLOCKS; exactly
    b block lines must follow, each k strictly increasing point indices.  The
    file is read line by line, so each of these checks, and the MAX_LINE_CHARS
    cap, fires as soon as its line is read.
    """
    header: tuple[int, int] | None = None
    blocks: list[tuple[int, ...]] = []
    expected = None
    for line_no, line in _numbered_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError(line_no, "header must be two integers: v k")
            try:
                v, k = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(line_no, "header must be two integers: v k") from None
            if not v > k > 1:
                raise ParseError(line_no, f"need v > k > 1, got v={v} k={k}")
            if (v - 1) % (k - 1) or (v * (v - 1)) % (k * (k - 1)):
                raise ParseError(line_no, f"no 2-({v},{k},1) design has these parameters")
            header = (v, k)
            expected = v * (v - 1) // (k * (k - 1))
            if expected > MAX_BLOCKS:
                raise ParseError(line_no, f"b={expected} blocks, more than the {MAX_BLOCKS} allowed")
            continue
        v, k = header
        if len(blocks) >= expected:
            raise ParseError(line_no, f"more than b={expected} block lines")
        try:
            pts = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError(line_no, "block line must contain integers") from None
        if len(pts) != k:
            raise ParseError(line_no, f"block must list exactly k={k} points")
        if any(pts[i] >= pts[i + 1] for i in range(k - 1)):
            raise ParseError(line_no, "block points must be strictly increasing")
        if pts[0] < 0 or pts[-1] >= v:
            raise ParseError(line_no, f"point outside 0..{v - 1}")
        blocks.append(pts)
    if header is None:
        raise ParseError(0, "empty design file")
    if len(blocks) != expected:
        raise ParseError(0, f"expected b={expected} blocks, found {len(blocks)}")
    return Design(header[0], header[1], blocks)

