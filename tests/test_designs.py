"""Design construction, validation and serialization."""

import hashlib
import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import steiner_ekr as se
from steiner_ekr.designs import (
    MAX_BLOCKS,
    MAX_LINE_CHARS,
    Design,
    DesignError,
    PairRepeated,
    ParameterMismatch,
    ParseError,
    load_design,
    save_design,
)

FANO_BLOCKS = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


@pytest.mark.parametrize(
    "design, v, k, b, r",
    [
        (se.projective_plane(2), 7, 3, 7, 3),
        (se.projective_plane(3), 13, 4, 13, 4),
        (se.projective_plane(4), 21, 5, 21, 5),
        (se.affine_plane(3), 9, 3, 12, 4),
        (se.affine_plane(4), 16, 4, 20, 5),
        (se.pg3_line_design(2), 15, 3, 35, 7),
        (se.pg3_line_design(3), 40, 4, 130, 13),
        (se.hermitian_unital(2), 9, 3, 12, 4),
        (se.hermitian_unital(3), 28, 4, 63, 9),
        (se.sts13(1), 13, 3, 26, 6),
        (se.sts13(2), 13, 3, 26, 6),
        (se.complete_graph(6), 6, 2, 15, 5),
    ],
)
def test_constructor_parameters(design, v, k, b, r):
    # construction already ran the pair-axiom check; only parameters remain
    assert (design.v, design.k, design.b, design.r) == (v, k, b, r)


def test_sts13_variants_differ():
    a, b = se.sts13(1), se.sts13(2)
    shared = set(a.blocks) & set(b.blocks)
    assert len(set(a.blocks) - shared) == 6
    assert len(set(b.blocks) - shared) == 6
    with pytest.raises(se.DomainError):
        se.sts13(3)


@pytest.mark.parametrize("variant", [True, 1.0, 2.0, "1", 0, 3], ids=repr)
def test_sts13_refuses_a_variant_that_is_not_the_int_1_or_2(variant):
    # True and 1.0 once built designs named sts13:True and sts13:1.0
    with pytest.raises(se.DomainError, match="^variant must be 1 or 2$"):
        se.sts13(variant)


@pytest.mark.parametrize(
    "make",
    [se.projective_plane, se.affine_plane, se.pg3_line_design, se.hermitian_unital, se.complete_graph],
    ids=lambda make: make.__name__,
)
@pytest.mark.parametrize("param", [3.0, 2.5, "3", True, None], ids=repr)
def test_builtin_constructors_refuse_a_parameter_that_is_not_an_int(make, param):
    # 3.0 once failed deep in the construction with a bare TypeError
    with pytest.raises(se.DomainError, match=" is not an int$"):
        make(param)


def test_block_list_is_sorted():
    d = Design(7, 3, list(reversed(FANO_BLOCKS)))
    assert d.blocks[0] == (0, 1, 2)
    assert list(d.blocks) == sorted(FANO_BLOCKS)
    assert all(d.blocks[i] < d.blocks[i + 1] for i in range(d.b - 1))


def test_pair_repeated_is_reported():
    blocks = FANO_BLOCKS[:-1] + [(2, 4, 6)]  # 2,6 already on (2,3,6)
    with pytest.raises(PairRepeated) as exc:
        Design(7, 3, blocks)
    assert exc.value.pair == (2, 6)
    # (2, 3, 6) and (2, 4, 6) sort to indices 5 and 6
    assert exc.value.blocks == (5, 6)


@pytest.mark.parametrize(
    "v, k, blocks",
    [
        (7, 3, FANO_BLOCKS[:-1] + [(2, 4)]),          # wrong arity
        (7, 3, FANO_BLOCKS[:-1] + [(2, 4, 7)]),       # point out of range
        (7, 3, FANO_BLOCKS[:-1] + [(2, 4, 4)]),       # repeated point
        (3, 3, [(0, 1, 2)]),                          # v must exceed k
        (7, 1, [(0,), (1,)]),                         # k must exceed 1
        (7, 3, FANO_BLOCKS[:-1]),                     # b must be v(v-1)/(k(k-1))
    ],
)
def test_structural_rejections(v, k, blocks):
    with pytest.raises(ParameterMismatch):
        Design(v, k, blocks)


@pytest.mark.parametrize("point", [True, 1.0, "1"])
def test_points_must_be_ints(point):
    # (0, True, 2) would build, save as "0 True 2" and fail to load
    with pytest.raises(ParameterMismatch, match="not an int"):
        Design(7, 3, [(0, point, 2), *FANO_BLOCKS[1:]])


# a point substituted into a relabelled Fano plane: equal to an int, out of
# range, or of another type
_SUBSTITUTES = st.one_of(
    st.none(),
    st.integers(-2, 8),
    st.sampled_from([True, False, 1.0, 2.0, "1", 2**70, -(2**70)]),
)


@given(st.permutations(range(7)), st.integers(0, 6), st.integers(0, 2), _SUBSTITUTES)
def test_every_design_that_builds_saves_and_loads_back(perm, bi, pi, point):
    blocks = [sorted(perm[p] for p in bl) for bl in FANO_BLOCKS]
    if point is not None:
        blocks[bi][pi] = point
    try:
        d = Design(7, 3, blocks)
    except DesignError:
        return
    buf = io.StringIO()
    save_design(d, buf)
    back = load_design(io.StringIO(buf.getvalue()))
    assert (back.v, back.k, back.blocks) == (d.v, d.k, d.blocks)


def test_design_repr_names_the_design():
    assert repr(se.projective_plane(2)) == "<projective:2: 2-(7,3,1), b=7>"
    assert repr(Design(7, 3, FANO_BLOCKS)) == "<design: 2-(7,3,1), b=7>"


def test_block_count_is_checked_before_the_pair_scan():
    # the pair scan keeps a v-bit mask per point: about 80 MB at v = 10**7
    tracemalloc.start()
    try:
        with pytest.raises(ParameterMismatch):
            Design(10**7, 3, [(0, 1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_index():
    d = se.projective_plane(2)
    for i, blk in enumerate(d.blocks):
        assert d.block_index(blk) == i
    with pytest.raises(KeyError):
        d.block_index((0, 1, 3))


def test_save_load_round_trip(tmp_path):
    for d in (se.projective_plane(2), se.hermitian_unital(3), se.complete_graph(5)):
        path = tmp_path / "design.txt"
        save_design(d, path)
        back = load_design(path)
        assert back.v == d.v and back.k == d.k and back.blocks == d.blocks


def test_save_load_file_like():
    d = se.affine_plane(3)
    buf = io.StringIO()
    save_design(d, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "9 3"
    assert load_design(io.StringIO(text)).blocks == d.blocks


def test_load_skips_comments_and_blanks():
    text = "# a design\n\n7 3\n" + "\n".join(
        "# inline note\n" + " ".join(map(str, blk)) for blk in FANO_BLOCKS
    ) + "\n"
    assert load_design(io.StringIO(text)).b == 7


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("7 three\n0 1 2\n", 1),
        ("7\n0 1 2\n", 1),
        ("8 3\n0 1 2\n", 1),                # k-1 does not divide v-1
        ("7 3\n0 1 2\n0 x 4\n", 3),
        ("7 3\n0 1 2\n0 3\n", 3),
        ("7 3\n0 1 2\n0 4 3\n", 3),
        ("7 3\n0 1 7\n", 2),                # point outside 0..v-1
        ("3 5\n", 1),                      # not v > k
        ("3 2\n0 1\n0 2\n1 2\n0 1\n", 5),  # one block line past b = 3
        ("", 0),
        # b above MAX_BLOCKS is refused at the header: AG(2, 317) and K_64
        ("100489 317\n", 1),
        ("64 2\n", 1),
        ("63 2\n", 0),                     # K_63 has 1,953 blocks: the count is checked
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as exc:
        load_design(io.StringIO(text))
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("v", [2, 1, 0])
def test_complete_graph_needs_v_above_two(v):
    # Design's own v > k check refuses K_2, K_1 and K_0
    with pytest.raises(ParameterMismatch, match=f"need v > k > 1, got v={v} k=2"):
        se.complete_graph(v)


def test_line_numbers_follow_str_splitlines():
    # form feeds and the other separators of str.splitlines end a line too
    with pytest.raises(ParseError) as exc:
        load_design(io.StringIO("7 3\f0 1 2\x1c\v0 x 4\n"))
    assert exc.value.line_no == 4


def test_long_line_is_refused_as_it_is_read(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("# " + "x" * (5 << 20) + "\n7 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"longer than {MAX_LINE_CHARS} characters") as exc:
            load_design(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line_no == 1
    assert peak < 1 << 20


def test_line_cap_admits_a_line_of_max_line_chars():
    pad = " " * (MAX_LINE_CHARS - len("7 3\n"))
    text = pad + "7 3\n" + "".join(" ".join(map(str, blk)) + "\n" for blk in FANO_BLOCKS)
    assert load_design(io.StringIO(text)).b == 7
    with pytest.raises(ParseError) as exc:
        load_design(io.StringIO(" " + text))
    assert exc.value.line_no == 1


def test_parse_wrong_block_count():
    lines = ["7 3"] + [" ".join(map(str, blk)) for blk in FANO_BLOCKS[:3]]
    with pytest.raises(ParseError) as exc:
        load_design(io.StringIO("\n".join(lines) + "\n"))
    assert exc.value.line_no == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_affine_plane_lines_fall_into_parallel_classes(q):
    # "equal or disjoint" is parallelism: q + 1 classes of q lines, each a
    # partition of the q^2 points
    d = se.affine_plane(q)
    adj = d.intersection_adjacency
    classes = {
        frozenset(j for j in range(d.b) if j == i or not adj[i] >> j & 1)
        for i in range(d.b)
    }
    assert len(classes) == q + 1
    for cls in classes:
        pts = [p for i in cls for p in d.blocks[i]]
        assert sorted(pts) == list(range(q * q))


# -- size guard --------------------------------------------------------------


@pytest.mark.parametrize(
    "maker, param, blocks",
    [
        (se.projective_plane, 997, 997**2 + 997 + 1),
        (se.affine_plane, 1000, 1000**2 + 1000),
        (se.pg3_line_design, 1024, (1024**2 + 1) * (1024**2 + 1024 + 1)),
        (se.hermitian_unital, 256, 256**2 * (256**2 - 256 + 1)),
        (se.hermitian_unital, 10**18, 10**36 * (10**36 - 10**18 + 1)),
        (se.complete_graph, 100000, 100000 * 99999 // 2),
    ],
)
def test_oversized_designs_are_refused_before_building(maker, param, blocks):
    tracemalloc.start()
    try:
        with pytest.raises(DesignError) as exc:
            maker(param)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f":{param} would have {blocks} blocks, more than the {MAX_BLOCKS} allowed" in str(exc.value)
    assert peak < 100_000


def test_block_cap_boundary():
    # K_64 has 2016 edges, K_63 has 1953
    assert se.complete_graph(63).b == 1953 <= MAX_BLOCKS
    with pytest.raises(DesignError, match="kgraph:64 would have 2016 blocks"):
        se.complete_graph(64)


# First 16 hex digits of the sha256 of each design's save_design text,
# recorded before the projective lines, the unital blocks and the affine
# lines shared one secant-line builder.  The projective planes cover every
# non-prime field that a builtin below MAX_BLOCKS reaches; the affine planes
# run from the smallest order to the largest below it.
BUILTIN_DIGESTS = {
    "affine:2": "f854afd3807425e5",
    "affine:3": "ee682aad8a7200b2",
    "affine:4": "5c60a20566c62fd3",
    "affine:5": "34180c2b3864fe9a",
    "affine:7": "5f266452064bb505",
    "affine:8": "5b6e50946c7ae2a8",
    "affine:9": "a7d183f2afc78387",
    "affine:16": "e2a7c27dcd97b9e5",
    "affine:25": "9733632f2ae2f180",
    "affine:27": "a1bfbfed9d8d2ee2",
    "affine:32": "40f4267cdbd404a6",
    "affine:43": "41f3f42941c66ab2",
    "projective:4": "65c93d895905c1b7",
    "projective:8": "7261f8f61e2e7833",
    "projective:9": "37598d5e79bdf2a8",
    "projective:16": "e077c816e1464a02",
    "projective:25": "8a969a857e4db86c",
    "projective:27": "42b69a449355bb0f",
    "projective:32": "1552af9314ad4b28",
    "pg3:2": "a0db1ad5debf96d3",
    "pg3:3": "ac43ed368b2aae45",
    "pg3:4": "a2d35d71a3e5747e",
    "pg3:5": "3c999db1b43e61a2",
    "unital:2": "818ce176af943e84",
    "unital:3": "0f983f61f55a07bc",
    "unital:4": "d09bab758bcc8a6c",
    "unital:5": "187ffa4d0a128d58",
    "sts13:1": "147b198bd6de0737",
    "sts13:2": "29dbbd0bd92bea79",
}

_MAKERS = {
    "affine": se.affine_plane,
    "projective": se.projective_plane,
    "pg3": se.pg3_line_design,
    "unital": se.hermitian_unital,
    "sts13": se.sts13,
}


@pytest.mark.parametrize("spec", sorted(BUILTIN_DIGESTS))
def test_builtin_block_lists_are_unchanged(spec):
    kind, n = spec.split(":")
    buf = io.StringIO()
    save_design(_MAKERS[kind](int(n)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == BUILTIN_DIGESTS[spec]
