"""Per-layer metrics read from the spans of one traced pass."""

from __future__ import annotations

import statistics

from steiner_ekr.designs import Design
from steiner_ekr.errors import BudgetExceeded

from common import LAYERS, tail

BUILDERS = tuple(
    f"designs.{name}"
    for name in (
        "affine_plane",
        "complete_graph",
        "hermitian_unital",
        "load_design",
        "pg3_line_design",
        "projective_plane",
        "sts13",
    )
)
COUNTING = ("bounds.counting_bound", "bounds.counting_bound_deficit")
SWEEPS = ("bounds.sweep_deficit_grid", "bounds.sweep_large_k", "bounds.certify_moment_inequality")
CLASSIFY = ("ekr.classify", "ekr.classification_report")


def _workers(args, kwargs, at: int) -> int:
    return kwargs.get("workers", args[at] if len(args) > at else 1)


def _is_pencil(family) -> bool:
    masks = family.design.block_masks
    common = -1
    for i in family.indices():
        common &= masks[i]
    return common != 0


NOTES = {
    **{name: lambda a, k, out: out.b if isinstance(out, Design) else 0 for name in BUILDERS},
    "ekr.enumerate_maximal_ekr": lambda a, k, out: (
        out.count if isinstance(out, BudgetExceeded) else None,
        len(out) if isinstance(out, list) else 0,
        _workers(a, k, 3),
    ),
    "ekr.maximal_family_sizes": lambda a, k, out: (a[0].v, _workers(a, k, 2)),
    "ekr.classify": lambda a, k, out: len(out) if isinstance(out, list) else 0,
    "ekr.classification_report": lambda a, k, out: len(out["types"]) if isinstance(out, dict) else 0,
    "canon.canonical_code": lambda a, k, out: _is_pencil(a[0]),
    "canon.canonical_set_system": lambda a, k, out: len(a[1]),
    **{name: lambda a, k, out: getattr(out, "total_cases", 0) for name in SWEEPS},
}


def _ms(x):
    return None if x is None else 1e3 * x


def layer_metrics(tr) -> dict:
    """Every per-layer metric of the pass; times in seconds unless named _ms or _us.

    A time is None where the pass made no call into that part of the layer;
    counts are 0 there.
    """
    by_name: dict[str, list[int]] = {}
    for idx in range(len(tr)):
        by_name.setdefault(tr.name(idx), []).append(idx)

    def spans(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names):
        picked = tr.outermost(names)
        return sum(tr.duration(i) for i in picked) if picked else None

    def durations(*names):
        return [tr.duration(i) for i in spans(*names)]

    def p50_ms(values):
        return _ms(statistics.median(values)) if values else None

    own = tr.self_times()
    span_self = dict.fromkeys(LAYERS, 0.0)
    for idx in range(len(tr)):
        layer = tr.name(idx).split(".", 1)[0]
        if layer in span_self:
            span_self[layer] += own[idx]

    m: dict[str, object] = {f"{layer}.span_self_s": span_self[layer] for layer in LAYERS}

    m["geometry.field_s"] = total("geometry.field_for_order", "geometry.field")

    m["designs.build_s"] = total(*BUILDERS, "designs.Design")
    m["designs.blocks"] = sum(tr.notes[i] for i in spans(*BUILDERS))

    m["ekr.adjacency_s"] = total("ekr.intersection_adjacency")
    m["ekr.onan_s"] = total("ekr.find_onan", "ekr.has_onan")
    m["ekr.onan_calls"] = len(spans("ekr.find_onan"))
    enum = spans("ekr.enumerate_maximal_ekr")
    m["ekr.enumerate_s"] = total("ekr.enumerate_maximal_ekr")
    m["ekr.families"] = sum(tr.notes[i][1] for i in enum)
    m["ekr.families_per_s"] = m["ekr.families"] / m["ekr.enumerate_s"] if m["ekr.enumerate_s"] else None
    sizes = spans("ekr.maximal_family_sizes")
    w1 = [i for i in sizes if tr.notes[i][1] == 1]
    w2 = [i for i in sizes if tr.notes[i][1] >= 2]
    m["ekr.sizes_s"] = sum(tr.duration(i) for i in w1) if w1 else None
    m["ekr.enumerate_w2_s"] = sum(tr.duration(i) for i in w2) if w2 else None
    # w1/w2 on the designs enumerated both ways (unital:5 in stream)
    both = {tr.notes[i][0] for i in w2}
    base_w1 = sum(tr.duration(i) for i in w1 if tr.notes[i][0] in both)
    base_w2 = m["ekr.enumerate_w2_s"]
    m["ekr.parallel_speedup"] = base_w1 / base_w2 if base_w2 else None
    m["ekr.parallel_speedup_base"] = (
        {"w1_s": base_w1, "w2_s": base_w2, "design_v": sorted(both)} if base_w2 else None
    )
    budget = [i for i in enum if tr.notes[i][0] is not None]
    m["ekr.budget_s"] = sum(tr.duration(i) for i in budget) if budget else None
    m["ekr.budget_count"] = sum(tr.notes[i][0] for i in budget)
    m["ekr.max_size_s"] = total("ekr.max_ekr_size")

    codes = spans("canon.canonical_code")
    in_classify = [i for i in codes if tr.within(i, CLASSIFY)]
    m["ekr.classify_s"] = total(*CLASSIFY)
    m["ekr.classify_self_s"] = (
        m["ekr.classify_s"] - sum(tr.duration(i) for i in in_classify) if m["ekr.classify_s"] is not None else None
    )
    m["ekr.report_s"] = total("ekr.classification_report")
    m["ekr.onan_free_s"] = total("ekr.classify_onan_free")
    m["ekr.cover_profile_s"] = total("ekr.cover_profile")
    m["ekr.types"] = sum(tr.notes[i] for i in spans(*CLASSIFY))
    m["ekr.types_per_family"] = m["ekr.types"] / len(codes) if codes else None

    code_times = [tr.duration(i) for i in codes]
    m["canon.code_s"] = sum(code_times) if codes else None
    m["canon.code_calls"] = len(codes)
    m["canon.code_p50_ms"] = p50_ms(code_times)
    code_tail, code_pct = tail(code_times)
    m["canon.code_tail_ms"] = _ms(code_tail)
    m["canon.code_tail_pct"] = code_pct
    m["canon.pencil_p50_ms"] = p50_ms([tr.duration(i) for i in codes if tr.notes[i]])
    m["canon.nonpencil_p50_ms"] = p50_ms([tr.duration(i) for i in codes if not tr.notes[i]])
    m["canon.classes"] = sum(tr.notes[i] for i in spans("canon.canonical_set_system"))

    counting = durations(*COUNTING)
    m["bounds.counting_s"] = sum(counting) if counting else None
    m["bounds.counting_calls"] = len(counting)
    m["bounds.counting_us"] = 1e6 * sum(counting) / len(counting) if counting else None
    m["bounds.sweep_s"] = total(*SWEEPS)
    m["bounds.sweep_cases"] = sum(tr.notes[i] for i in tr.outermost(SWEEPS))
    second = durations("bounds.unital_second_max_bound")
    m["bounds.unital_second_s"] = sum(second) if second else None
    m["bounds.unital_second_max_ms"] = _ms(max(second)) if second else None
    locate = durations("bounds.locate_deficit_interval")
    m["bounds.locate_s"] = sum(locate) if locate else None
    m["bounds.locate_max_ms"] = _ms(max(locate)) if locate else None

    direct = [
        tr.duration(i) for i in spans("exactnum.surd_floor") if tr.parent[i] >= 0 and tr.name(tr.parent[i]).startswith("bench.")
    ]
    m["exactnum.surd_floor_s"] = sum(direct) if direct else None
    m["exactnum.surd_floor_max_ms"] = _ms(max(direct)) if direct else None
    m["trace.spans"] = len(tr)
    return m
