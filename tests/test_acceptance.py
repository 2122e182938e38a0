"""Acceptance suite: the headline results this package must reproduce.

One test per guaranteed outcome.  Each test builds what it needs from
scratch, asserts exact values (no tolerances anywhere), and finishes by
asserting its own wall-clock budget, so a pass line certifies both the
result and the runtime.
"""

import time
from fractions import Fraction as F

import steiner_ekr as se


def _census(families):
    sizes = {}
    for fam in families:
        sizes[len(fam)] = sizes.get(len(fam), 0) + 1
    return sizes


def _relabeled_subdesign(design, family):
    """The member blocks of a family, relabeled onto their covered points."""
    points = sorted({p for i in family for p in design.blocks[i]})
    rank = {p: i for i, p in enumerate(points)}
    blocks = [tuple(sorted(rank[p] for p in design.blocks[i])) for i in family]
    return se.Design(len(points), design.k, blocks)


def test_fano_has_a_unique_maximal_family():
    t0 = time.perf_counter()
    design = se.projective_plane(2)
    families = se.enumerate_maximal_ekr(design)
    assert len(families) == 1
    assert len(families[0]) == 7
    assert families[0].indices() == tuple(range(7))
    assert time.perf_counter() - t0 < 1.0


def test_affine_plane_families_are_parallel_class_transversals():
    t0 = time.perf_counter()
    design = se.affine_plane(3)
    families = se.enumerate_maximal_ekr(design)
    assert all(len(f) == 4 for f in families)
    # in an affine plane, "equal or disjoint" is parallelism
    adj = design.intersection_adjacency
    classes = {
        frozenset(j for j in range(design.b) if j == i or not adj[i] >> j & 1)
        for i in range(design.b)
    }
    assert len(classes) == 4
    for fam in families:
        members = set(fam)
        assert all(len(members & cls) == 1 for cls in classes)
    types = se.classify(design, families)
    assert len(types) == 2
    assert time.perf_counter() - t0 < 1.0


def test_sts13_variants_share_three_types_and_both_witnesses():
    t0 = time.perf_counter()
    witness_blocks = [
        [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 3, 9), (2, 4, 5)],
        [(0, 1, 2), (0, 3, 4), (0, 9, 10), (2, 3, 9)],
    ]
    for variant in (1, 2):
        design = se.sts13(variant)
        families = se.enumerate_maximal_ekr(design)
        types = se.classify(design, families)
        assert [t.size for t, _ in types] == [6, 5, 4]
        pencil_type, pencil_count = types[0]
        assert pencil_type.label == "point-pencil"
        assert pencil_count == 13
        assert pencil_type.profile.k_s == 6
        for blocks in witness_blocks:
            fam = se.BlockSet(design, [design.block_index(b) for b in blocks])
            assert se.is_maximal(fam), (variant, blocks)
    assert time.perf_counter() - t0 < 5.0


def test_pg32_extremal_families_are_pencils_or_fano_subplanes():
    t0 = time.perf_counter()
    design = se.pg3_line_design(2)
    assert len(se.max_ekr_size(design)) == 7
    families = se.enumerate_maximal_ekr(design)
    largest = [f for f in families if len(f) == 7]
    types = se.classify(design, largest)
    assert len(types) == 2
    by_label = {t.label: (t, n) for t, n in types}
    pencil_type, pencil_count = by_label.pop("point-pencil")
    assert pencil_count == 15 and pencil_type.profile.k_s == 7
    (other_type, other_count), = by_label.values()
    assert other_count == 15
    assert other_type.profile.covered == 7 and other_type.profile.k_s == 3
    # the non-pencil families really are Fano subplanes: their blocks,
    # relabeled onto the 7 covered points, form a valid 2-(7,3,1) design
    witness = next(f for f in largest if se.cover_profile(f).k_s == 3)
    sub = _relabeled_subdesign(design, witness)
    assert (sub.v, sub.k, sub.b) == (7, 3, 7)
    assert time.perf_counter() - t0 < 30.0


def test_pg33_extremal_families_are_pencils_or_plane_line_sets():
    t0 = time.perf_counter()
    design = se.pg3_line_design(3)
    assert len(se.max_ekr_size(design)) == 13
    families = se.enumerate_maximal_ekr(design, min_size=13)
    assert len(families) == 80
    types = se.classify(design, families)
    assert len(types) == 2
    by_kind = {
        ("pencil" if t.label == "point-pencil" else "plane"): (t, n) for t, n in types
    }
    pencil_type, pencil_count = by_kind["pencil"]
    assert pencil_count == 40 and pencil_type.profile.k_s == 13
    plane_type, plane_count = by_kind["plane"]
    assert plane_count == 40
    assert plane_type.profile.covered == 13 and plane_type.profile.k_s == 4
    # a plane line set relabels to a projective plane of order 3
    witness = next(f for f in families if se.cover_profile(f).k_s == 4)
    sub = _relabeled_subdesign(design, witness)
    assert (sub.v, sub.k, sub.b, sub.r) == (13, 4, 13, 4)
    assert time.perf_counter() - t0 < 600.0


def test_hermitian_unitals_have_only_pencils_and_triangles():
    t0 = time.perf_counter()
    for q in (2, 3):
        design = se.hermitian_unital(q)
        assert se.find_onan(design) is None
        families = se.enumerate_maximal_ekr(design)
        verdict = se.classify_onan_free(design, families)
        assert verdict.confirmed
        assert verdict.pencil_count == design.v  # q^3 + 1 pencils of size q^2
        assert verdict.pencil_count + verdict.triangle_count == len(families)
        assert {len(f) for f in families} <= {q * q, q + 2}
    sizes_q3 = {len(f) for f in se.enumerate_maximal_ekr(se.hermitian_unital(3))}
    assert sizes_q3 == {9, 5}
    assert time.perf_counter() - t0 < 60.0


def test_bound_formulas_reproduce_reference_values():
    rep = se.counting_bound(3, 6, 1)
    assert rep.value == F(5) and rep.active_branch == 1
    rep = se.counting_bound(4, 9, 1)
    assert rep.value == F(8) and rep.active_branch == 1
    rep = se.counting_bound(4, 8, 1)
    assert rep.value == F(8) and rep.active_branch == 1
    assert se.unital_second_max_bound(3).floor_value == 8
    assert se.unital_second_max_bound(4).floor_value == 13


def test_deficit_grid_certifies_with_sharp_caps():
    t0 = time.perf_counter()
    cert = se.sweep_deficit_grid("all")
    assert cert.certified
    assert cert.total_cases == 362
    for k, cap in se.DEFICIT_CAPS.items():
        assert se.sweep_deficit_grid(k).certified
        past = cap + 1
        top = (past * (past - 1)) // (k - 1 - past)
        assert any(
            se.counting_bound_deficit(k, past, b).value >= (k - 1) ** 2 - past
            for b in range(top + 1)
        ), f"cap for k={k} is not sharp"
    assert time.perf_counter() - t0 < 10.0


def test_large_k_inequalities_certify_exactly():
    t0 = time.perf_counter()
    cert = se.sweep_large_k(50)
    assert cert.certified
    assert cert.total_cases == 259
    assert cert.failures == ()
    assert time.perf_counter() - t0 < 60.0


def test_enumerated_families_satisfy_all_closed_form_bounds(suite):
    t0 = time.perf_counter()
    corpus = [
        ("fano", 1), ("proj3", 1), ("affine3", 1), ("sts13a", 1), ("sts13b", 1),
        ("pg32", 1), ("pg33", 13), ("unital2", 1), ("unital3", 1),
    ] + [(f"kgraph{v}", 1) for v in range(4, 13)]
    violations = []
    checked = {"cap": 0, "full-cover": 0, "cover-range": 0, "counting": 0}
    for name, min_size in corpus:
        design, families = suite.pair(name, min_size)
        k, r = design.k, design.r
        for fam in families:
            prof = se.cover_profile(fam)
            if prof.k_s == len(fam):
                continue  # pencils are the extremal case the bounds compare against
            checked["cap"] += 1
            if not (prof.k_s <= k and len(fam) <= se.multiplicity_cap_bound(k, prof.k_s)):
                violations.append(("cap", name, fam.indices()))
            if prof.k_s == k:
                checked["full-cover"] += 1
                if prof.covered != k * k - k + 1:
                    violations.append(("full-cover", name, fam.indices()))
            if k >= 3 and prof.k_s == k - 1:
                shortfall = (k - 1) ** 2 - len(fam)
                if shortfall < k - 1:
                    checked["cover-range"] += 1
                    lo, hi = se.cover_range_submax(k, shortfall)
                    if not lo <= prof.covered <= hi:
                        violations.append(("cover-range", name, fam.indices()))
            if k >= 3 and prof.cover_excess >= 0:
                checked["counting"] += 1
                bound = se.counting_bound(k, r, prof.cover_excess).value
                if len(fam) > bound:
                    violations.append(("counting", name, fam.indices()))
    assert violations == []
    assert checked["cap"] > 2000
    assert checked["full-cover"] > 1500 and checked["counting"] > 1500
    assert time.perf_counter() - t0 < 120.0


def test_complete_graphs_split_into_pencils_and_triangles():
    t0 = time.perf_counter()
    for v in range(4, 13):
        design = se.complete_graph(v)
        families = se.enumerate_maximal_ekr(design)
        types = se.classify(design, families)
        assert len(types) == 2, v
        by_label = {t.label: t for t, _ in types}
        assert by_label["point-pencil"].size == v - 1
        assert by_label["triangle"].size == 3
    assert time.perf_counter() - t0 < 1.0
