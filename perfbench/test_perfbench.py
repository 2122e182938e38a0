"""Tests of the benchmark itself: the checker, the seeded inputs, the oracles, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import steiner_ekr as se  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from common import tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Pass  # noqa: E402

GOLDEN = json.loads((HERE / "golden" / "results.json").read_text())["ops"]
CORPUS = {workloads.cli_key(e["argv"]): e["stdout"] for e in json.loads((HERE / "golden" / "cli_corpus.json").read_text())}


def test_checker_counts_a_wrong_expectation_as_an_error():
    p = Pass(0)
    p.call("sweep:large-k", workloads._cert_summary, se.sweep_large_k, 50)
    p.call("sweep:moments", workloads._cert_summary, se.certify_moment_inequality, *workloads.MOMENT_CASE)
    golden = GOLDEN["exact"]
    assert p.verdict(golden) == (2, 0, [])

    wrong = copy.deepcopy(golden)
    wrong["sweep:large-k"][0]["total_cases"] += 1
    assert p.verdict(wrong) == (2, 1, ["sweep:large-k"])


def test_missing_expectation_and_raised_error_are_failures():
    p = Pass(3)
    p.call("absent", workloads._value_summary, lambda: 1)
    p.call("boom", workloads._value_summary, lambda: 1 // 0)
    golden = {"boom": [1, None]}
    assert p.verdict(golden) == (2, 2, ["absent", "boom"])


def test_a_wrong_grid_digest_fails_every_call_behind_it():
    p = Pass(0)
    args = workloads.grid_args(3)
    p.each("grid:deficit:k=3", workloads._report_summary, se.counting_bound_deficit, args)
    golden = GOLDEN["exact"]
    assert p.verdict(golden) == (len(args), 0, [])
    wrong = {"grid:deficit:k=3": ["0" * 16, golden["grid:deficit:k=3"][1]]}
    assert p.verdict(wrong) == (len(args), len(args), ["grid:deficit:k=3"])


def test_oracle_mismatch_is_an_error():
    p = Pass(5)
    p.call("ladder", workloads._value_summary, se.surd_floor, se.SurdExpr(0, 10**6, 2), oracle=lambda: (1414213, None))
    p.call("off", workloads._value_summary, se.surd_floor, se.SurdExpr(0, 10**6, 2), oracle=lambda: (1414214, None))
    assert p.verdict({}) == (2, 1, ["off"])


def test_failed_check_counts_once():
    p = Pass(0)
    p.check("w1==w2", False)
    p.check("agree", True)
    assert p.verdict({}) == (2, 1, ["w1==w2"])


def test_labelling_extras_are_checked_at_seed_zero_only():
    golden = {"onan": [{"found": True}, {"blocks": [0, 1, 2, 3]}]}
    for seed, failed in ((0, 1), (7, 0)):
        p = Pass(seed)
        p.call("onan", workloads._onan_summary, lambda: (0, 1, 2, 4))
        assert p.verdict(golden)[1] == failed


def test_relabelling_keeps_the_invariant_summaries():
    def invariants(design):
        fams = se.enumerate_maximal_ekr(design)
        return workloads._families_summary(fams)[0], workloads._types_summary(se.classify(design, fams))[0]

    base = se.sts13(2)
    moved = workloads.relabel(base, random.Random(11))
    assert moved.blocks != base.blocks
    assert invariants(moved) == invariants(base)


def test_cli_view_survives_relabelling(tmp_path):
    p = Pass(9)
    argvs = workloads.cli_argvs(p, str(tmp_path))
    for original, argv in zip(workloads.CLI_ARGVS, argvs):
        if original[0] not in ("classify", "onan", "max-size") or original[2] not in ("sts13:1", "unital:3"):
            continue
        assert argv[2].startswith("file:")
        rc, out, err = workloads.run_inprocess(argv)
        assert (rc, err) == (0, "")
        assert workloads.cli_view(original, out) == workloads.cli_view(original, CORPUS[workloads.cli_key(original)])


def test_seed_zero_cli_output_is_byte_identical_to_the_corpus():
    for argv in workloads.CLI_ARGVS:
        if argv[0] in ("bound", "max-size") or argv[:3] == ("classify", "--design", "sts13:1"):
            assert workloads.run_inprocess(argv) == (0, CORPUS[workloads.cli_key(argv)], "")


@pytest.mark.parametrize("q", [*range(5, 70), 1000, 10**6 + 3, 123456789])
def test_unital_floor_oracle_agrees_with_the_package(q):
    assert workloads.unital_second_floor(q) == se.unital_second_max_bound(q).floor_value


def test_window_oracle_agrees_with_the_package():
    for k in (14, 20, 57, 200, 1000):
        for deficit in range(0, k - 1, max(1, k // 40)):
            try:
                want = workloads.window_index(k, deficit)
            except ValueError:
                continue
            assert se.locate_deficit_interval(k, deficit) == want, (k, deficit)


def test_seeded_ladder_values_stay_in_their_decades():
    qs = workloads.ladder(Pass(4), workloads.LADDER_Q_DECADES, workloads.LADDER_Q_TOP)
    assert qs[-1] == workloads.LADDER_Q_TOP
    for e, q in zip(workloads.LADDER_Q_DECADES, qs):
        assert 10 ** (e - 1) < q <= 10**e
    assert workloads.ladder(Pass(0), range(3, 5), 10**5) == [1000, 10000, 10**5]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) == (None, None)
    value, pct = tail(list(range(100)))
    assert (value, pct) == (89, 90)
    assert sum(1 for x in range(100) if x > value) == 10


def test_tracer_nests_spans_and_restores_the_package():
    design = se.sts13(1)
    original = se.classify
    tr = Tracer(layers.NOTES)
    tr.install()
    try:
        fams = se.enumerate_maximal_ekr(design)
        with tr.span("bench.classify"):
            se.classify(design, fams)
    finally:
        tr.uninstall()
    assert se.classify is original
    m = layers.layer_metrics(tr)
    assert m["canon.code_calls"] == len(fams)
    assert m["ekr.families"] == len(fams)
    assert m["ekr.types"] == len(se.classify(design, fams))
    assert 0 <= m["ekr.classify_self_s"] < m["ekr.classify_s"]
    assert m["canon.classes"] == sum(len(se.concurrency_classes(f)[1]) for f in fams)
    busy = sum(m[f"{layer}.span_self_s"] for layer in ("ekr", "canon"))
    outer = [i for i in range(len(tr)) if tr.parent[i] < 0]
    assert busy <= sum(tr.duration(i) for i in outer)


def test_pacer_rescales_each_stretch_by_the_samples_around_it():
    pacer = calib.Pacer()
    pacer.stretches = [1.0, 2.0]
    pacer.refs = [calib.NOMINAL_S, calib.NOMINAL_S, 2 * calib.NOMINAL_S]
    pacer.cpu_stretches = [0.5, 2.0]
    pacer.ref_cpus = [calib.NOMINAL_S / 2, calib.NOMINAL_S / 2, calib.NOMINAL_S]
    assert (pacer.wall_s, pacer.cpu_s) == (3.0, 2.5)
    assert pacer.wall_norm_s == pytest.approx(1.0 + 2.0 / 1.5)
    assert pacer.cpu_norm_s == pytest.approx(1.0 + 2.0 / 0.75)


def test_paced_pass_samples_inside_long_ops_and_keeps_them_out_of_its_times():
    def spin(seconds):
        end = time.process_time() + seconds
        while time.process_time() < end:
            pass
        return 1

    pacer = calib.Pacer(every_s=0.05)
    p = Pass(0, pacer=pacer)
    pacer.start()
    p.call("spin", workloads._value_summary, spin, 0.5)
    pacer.stop()
    assert len(pacer.refs) >= 5  # the timer fired inside the one op
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert p.latencies[0] == pytest.approx(pacer.wall_s, abs=0.05)
    assert pacer.held_s > 0
    assert pacer.cpu_s == pytest.approx(pacer.wall_s, rel=0.2)  # one busy process, no children
    assert pacer.wall_norm_s > 0 and pacer.cpu_norm_s > 0
