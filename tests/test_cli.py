"""CLI behaviour: output formats, exit codes, determinism.

Everything goes through main(argv) so the tests see exactly what a shell
user sees, including stderr diagnostics and exit statuses.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import steiner_ekr
from steiner_ekr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate and generate -----------------------------------------------------


def test_validate_text(capsys):
    code, out, err = run(capsys, "validate", "--design", "unital:3")
    assert code == 0 and err == ""
    assert out == "valid 2-(28,4,1) design: 63 blocks, replication 9\n"


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--design", "projective:2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "source": "projective:2", "v": 7, "k": 3, "b": 7, "r": 3, "valid": True,
    }


def test_validate_csv(capsys):
    code, out, _ = run(capsys, "validate", "--design", "affine:3", "--format", "csv")
    assert code == 0
    assert out == "v,k,b,r,valid\n9,3,12,4,true\n"


def test_generate_round_trip(capsys, tmp_path):
    path = tmp_path / "unital3.txt"
    code, out, err = run(capsys, "generate", "--design", "unital:3", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    lines = path.read_text().splitlines()
    assert lines[0] == "28 4"
    assert len(lines) == 64
    code, out, _ = run(capsys, "validate", "--design", f"file:{path}")
    assert code == 0 and "valid 2-(28,4,1)" in out


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--design", "projective:2")
    assert code == 0
    assert out.splitlines()[0] == "7 3"
    assert len(out.splitlines()) == 8


def test_sts13_defaults_to_first_variant(capsys):
    _, out1, _ = run(capsys, "generate", "--design", "sts13")
    _, out2, _ = run(capsys, "generate", "--design", "sts13:1")
    _, out3, _ = run(capsys, "generate", "--design", "sts13:2")
    assert out1 == out2 != out3


# -- enumeration and classification ---------------------------------------------


def test_enumerate_text_fano(capsys):
    code, out, _ = run(capsys, "enumerate", "--design", "projective:2")
    assert code == 0
    assert out == "maximal families: 1\n  [7] 0 1 2 3 4 5 6\n"


def test_enumerate_json_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--design", "sts13:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 201
    assert payload["min_size"] == 1
    assert len(payload["families"]) == 201
    sizes = sorted({f["size"] for f in payload["families"]})
    assert sizes == [4, 5, 6]


def test_enumerate_size_only(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--design", "sts13:1", "--size-only", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["sizes"] == {"6": 13, "5": 24, "4": 164}


def test_enumerate_size_only_plane_of_order_32(capsys):
    code, out, err = run(capsys, "enumerate", "--design", "projective:32", "--size-only")
    assert (code, err) == (0, "")
    assert "size 1057: 1" in out.splitlines()[-1]


def test_enumerate_min_size_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--design", "sts13:1", "--min-size", "6", "--format", "csv"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "size,blocks"
    assert len(rows) == 14
    assert all(r.startswith("6,") for r in rows[1:])


def test_enumerate_budget_exit(capsys):
    for mode in ((), ("--size-only",)):
        code, out, err = run(
            capsys, "enumerate", "--design", "sts13:1", "--max-count", "10", *mode
        )
        assert code == 1 and out == "", mode
        assert err.startswith("error: 201 maximal families exceed"), mode


def test_enumerate_negative_budget_exit(capsys):
    code, out, err = run(capsys, "enumerate", "--design", "sts13:1", "--max-count", "-1")
    assert (code, out, err) == (1, "", "error: the requested cap -1 is negative\n")


def test_classify_json_sts13(capsys):
    code, out, _ = run(capsys, "classify", "--design", "sts13:1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["design"] == {"source": "sts13:1", "v": 13, "k": 3, "b": 26, "r": 6}
    assert report["family_count"] == 201
    assert [(t["label"], t["size"], t["count"]) for t in report["types"]] == [
        ("point-pencil", 6, 13), ("EKR_5", 5, 24), ("EKR_4", 4, 164),
    ]
    pencil = report["types"][0]
    assert list(pencil) == [
        "label", "size", "count", "covered", "max_multiplicity", "k_hist",
        "canonical_code", "witness",
    ]
    assert (pencil["covered"], pencil["max_multiplicity"]) == (13, 6)
    assert pencil["k_hist"] == {"1": 12, "6": 1}
    # the witness is the first family of its type in enumeration order
    first = json.loads(run(capsys, "enumerate", "--design", "sts13:1", "--format", "json")[1])
    assert pencil["witness"] == first["families"][0]["blocks"]


def test_classify_text_unital(capsys):
    code, out, _ = run(capsys, "classify", "--design", "unital:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "types: 2 (maximal families: 81)"
    assert lines[1].startswith("  point-pencil: size 4, count 9,")
    assert lines[3].startswith("  EKR_4: size 4, count 72,")
    assert lines[2].startswith("    witness: ")


def test_classify_csv_header(capsys):
    code, out, _ = run(capsys, "classify", "--design", "kgraph:5", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "label,size,count,covered,max_multiplicity,witness"
    assert len(rows) == 3


# -- onan and max-size ------------------------------------------------------------


def test_onan_json_fano(capsys):
    code, out, _ = run(capsys, "onan", "--design", "projective:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["blocks"] == [0, 1, 3, 6]


def test_onan_text_unital(capsys):
    code, out, _ = run(capsys, "onan", "--design", "unital:3")
    assert code == 0
    assert out == "o'nan configuration: none\n"


def test_onan_csv(capsys):
    code, out, _ = run(capsys, "onan", "--design", "projective:2", "--format", "csv")
    assert out == "found,blocks\ntrue,0 1 3 6\n"


def test_max_size(capsys):
    code, out, _ = run(capsys, "max-size", "--design", "pg3:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 7
    assert len(payload["witness"]) == 7


# -- bound verb --------------------------------------------------------------------


def test_bound_counting_text(capsys):
    code, out, _ = run(
        capsys, "bound", "--formula", "counting", "--k", "3", "--r", "6", "--excess", "1"
    )
    assert code == 0
    assert out == (
        "formula: counting\n"
        "inputs: k=3 r=6 excess=1\n"
        "value: 5/1\n"
        "floor_value: 5\n"
        "active_branch: 1\n"
    )


def test_bound_unital_second_json(capsys):
    code, out, _ = run(
        capsys, "bound", "--formula", "unital-second", "--q", "5", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["floor_value"] == 22
    assert payload["value"]["radicand"] == 5


def test_bound_unital_second_huge_order(capsys):
    # far past float precision: the floor must gallop, not walk one integer at a time
    q = 10**21
    code, out, _ = run(
        capsys, "bound", "--formula", "unital-second", "--q", str(q), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["floor_value"] == 999999999999999999999000000099999993333334


def test_bound_cover_range(capsys):
    code, out, _ = run(
        capsys, "bound", "--formula", "cover-range", "--k", "4", "--shortfall", "2",
        "--format", "json",
    )
    assert json.loads(out) == {
        "formula": "cover-range",
        "inputs": {"k": 4, "shortfall": 2},
        "low": "12/1",
        "high": "14/1",
    }


def test_bound_near_extremal(capsys):
    code, out, _ = run(
        capsys, "bound", "--formula", "near-extremal", "--k", "4", "--r", "9",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["verdict"] == "classified"
    assert payload["window_low"] == {"a": "6/1", "b": "3/4", "n": 4}
    assert payload["window_high"] == 12


def test_bound_replication_and_pencil(capsys):
    _, out, _ = run(
        capsys, "bound", "--formula", "replication", "--k", "4", "--r", "13",
        "--format", "json",
    )
    assert json.loads(out)["verdict"] == "bound-holds"
    _, out, _ = run(
        capsys, "bound", "--formula", "pencil-uniqueness", "--k", "3", "--v", "19",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["met"] is True and payload["threshold"] == 19


def test_bound_discriminant_uses_excess_as_b(capsys):
    _, out, _ = run(
        capsys, "bound", "--formula", "discriminant", "--k", "14", "--excess", "0",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["value"] == 5005732 and payload["inputs"]["b"] == 0


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--formula", "multiplicity-cap", "--k", "4", "--max-mult", "4",
        "--format", "csv",
    )
    rows = out.splitlines()
    assert rows[0] == "formula,inputs,value,floor_value"
    assert rows[1].startswith("multiplicity-cap,")
    assert rows[1].endswith(",13,13")


@pytest.mark.parametrize(
    "argv, payload",
    [
        (
            ["bound", "--formula", "counting", "--k", "3", "--r", "6", "--excess", "1"],
            {
                "formula": "counting",
                "inputs": {"k": 3, "r": 6, "excess": 1},
                "value": "5/1",
                "floor_value": 5,
                "active_branch": 1,
            },
        ),
        (
            ["bound", "--formula", "unital-second", "--q", "5"],
            {
                "formula": "unital-second",
                "inputs": {"q": 5, "cbrt_bracket_q2": 2, "cbrt_bracket_q": 1},
                "value": {"const": "21/1", "coef_cbrt_sq": "1/1", "coef_cbrt": "-2/3", "radicand": 5},
                "floor_value": 22,
            },
        ),
        (
            ["bound", "--formula", "unital-second", "--q", "27"],
            {
                "formula": "unital-second",
                "inputs": {"q": 27, "cbrt_bracket_q2": 9, "cbrt_bracket_q": 3},
                "value": {"const": "703/1", "coef_cbrt_sq": "1/1", "coef_cbrt": "-2/3", "radicand": 27},
                "floor_value": 710,
            },
        ),
        (
            # a tabulated order: an integer value and no cube-root brackets
            ["bound", "--formula", "unital-second", "--q", "3"],
            {"formula": "unital-second", "inputs": {"q": 3}, "value": 8, "floor_value": 8},
        ),
        (
            # --excess is the discriminant's b
            ["bound", "--formula", "discriminant", "--k", "14", "--excess", "0"],
            {"formula": "discriminant", "inputs": {"k": 14, "b": 0}, "value": 5005732},
        ),
        (
            ["bound", "--formula", "multiplicity-cap", "--k", "4", "--max-mult", "3"],
            {"formula": "multiplicity-cap", "inputs": {"k": 4, "max_mult": 3}, "value": 9, "floor_value": 9},
        ),
        (
            ["sweep", "--check", "deficit-grid", "--k", "4"],
            {
                "check": "deficit-grid",
                "ranges": {"k": 4, "deficit_cap": 1},
                "total_cases": 4,
                "certified": True,
                "failures": [],
            },
        ),
    ],
    ids=[
        "counting",
        "unital-second",
        "unital-second-27",
        "unital-second-tabulated",
        "discriminant",
        "multiplicity-cap",
        "deficit-grid",
    ],
)
def test_json_payload(capsys, argv, payload):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    # the key order is part of the output
    assert list(json.loads(out).items()) == list(payload.items())


# -- sweep verb ---------------------------------------------------------------------


def test_sweep_deficit_grid_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--check", "deficit-grid", "--k", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True and payload["total_cases"] == 4


def test_sweep_deficit_grid_all(capsys):
    code, out, _ = run(
        capsys, "sweep", "--check", "deficit-grid", "--k", "all", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["certified"] is True and payload["total_cases"] == 362


def test_sweep_moments_text(capsys):
    code, out, _ = run(
        capsys, "sweep", "--check", "moments",
        "--l", "2", "--a", "2", "--excess", "1", "--r", "6",
    )
    assert code == 0
    assert "check: moments" in out
    assert "total_cases: 1" in out
    assert "certified: true" in out


def test_sweep_moments_long_vector(capsys):
    # l = 2000 is past the default recursion limit; s2 = 0 admits one vector
    code, out, err = run(
        capsys, "sweep", "--check", "moments",
        "--l", "2000", "--a", "2", "--excess", "0", "--r", "2001",
    )
    assert code == 0 and err == ""
    assert "total_cases: 1" in out
    assert "certified: true" in out


def test_sweep_moments_memory_does_not_grow_with_l():
    # n_i = 0 wherever i(i-1) > sum_ii, so l = 10^9 with sum_ii = 0 needs only
    # the first two counts; an address-space cap turns a list of l counts into
    # a MemoryError instead of 8 GB
    pytest.importorskip("resource")
    src = pathlib.Path(steiner_ekr.__file__).resolve().parents[1]
    probe = (
        "import resource, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1500 << 20}, {1500 << 20}))\n"
        "from steiner_ekr import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.main(['sweep', '--check', 'moments', '--l', '1000000000', '--a', '2',\n"
        "                 '--excess', '0', '--r', '2000000000', '--format', 'json'])\n"
        "print(code, time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload, _, tail = proc.stdout.rstrip("\n").rpartition("\n")
    payload = json.loads(payload)
    assert payload["certified"] is True and payload["total_cases"] == 1
    code, elapsed = tail.split()
    assert code == "0" and float(elapsed) < 1.0


def test_sweep_large_k_caps_runtime(capsys):
    argv = ("sweep", "--check", "large-k", "--k-max", "20", "--format", "json")
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["total_cases"] == 49
    # seven cases for each k in 14..20, counted against --budget before the sweep
    assert run(capsys, *argv, "--budget", "48") == (
        1, "", "error: large-k sweep needs 49 cases, more than 48\n"
    )
    assert json.loads(run(capsys, *argv, "--budget", "49")[1])["total_cases"] == 49
    start = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--check", "large-k", "--k-max", "1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: large-k sweep needs 6999999909 cases, more than 2000000\n"


# -- exit codes and determinism --------------------------------------------------


def test_unknown_design_exits_one(capsys):
    code, out, err = run(capsys, "validate", "--design", "septagon:9")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown design 'septagon'")


def test_bad_parameter_exits_one(capsys):
    for design in ("affine:x", "unital:6", "sts13:3", "affine"):
        code, _, err = run(capsys, "validate", "--design", design)
        assert code == 1 and err.startswith("error: "), design


def test_oversized_design_exits_one(capsys):
    code, out, err = run(capsys, "validate", "--design", "projective:997")
    assert (code, out) == (1, "")
    assert err == "error: projective:997 would have 995007 blocks, more than the 2000 allowed\n"


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--design", f"file:{tmp_path}/absent.txt")
    assert code == 1 and err.startswith("error: ")


def test_corrupt_file_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("7 3\n0 1 2\n")
    code, _, err = run(capsys, "validate", "--design", f"file:{path}")
    assert code == 1 and "error: " in err


def test_binary_file_exits_one(capsys, tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"7 3\n\xd0\xff\x00\n")
    code, out, err = run(capsys, "validate", "--design", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _bounded_cli(*argv):
    """(exit status, stderr, seconds) of main(argv) in a child with a 1 GB address space."""
    pytest.importorskip("resource")
    src = pathlib.Path(steiner_ekr.__file__).resolve().parents[1]
    probe = (
        "import resource, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1000 << 20}, {1000 << 20}))\n"
        "from steiner_ekr import cli\n"
        "start = time.perf_counter()\n"
        f"code = cli.main({list(argv)!r})\n"
        "print(code, time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout, proc.stderr[-500:]
    code, elapsed = proc.stdout.split()
    return int(code), proc.stderr, float(elapsed)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_file_exits_one():
    code, err, elapsed = _bounded_cli("validate", "--design", "file:/dev/zero")
    assert code == 1 and err == "error: line 1: line longer than 65536 characters\n"
    assert elapsed < 1.0


def test_moment_search_past_the_budget_exits_one_at_once():
    # width - 1 = 10^8 - 1 cases at least: refused before 10^8 counts are allocated
    code, err, elapsed = _bounded_cli(
        "sweep", "--check", "moments",
        "--l", "100000000", "--a", "3", "--excess", "0", "--r", "100000010",
    )
    assert code == 1 and err == "error: moment search passed 2000000 cases\n"
    assert elapsed < 1.0


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["--formula", "pencil-uniqueness", "--v", "5"],
        ["--formula", "discriminant", "--excess", "5"],
        ["--formula", "counting", "--r", "5", "--excess", "1", "--format", "json"],
    ],
)
def test_result_past_the_digit_limit_exits_one(capsys, argv):
    code, out, err = run(capsys, "bound", "--k", "1" + "0" * 2000, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: formula ") and err.count("\n") == 1


def test_domain_error_exits_one(capsys):
    code, _, err = run(
        capsys, "bound", "--formula", "counting", "--k", "2", "--r", "3", "--excess", "0"
    )
    assert code == 1 and err.startswith("error: counting bound needs")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "no-such-verb")[0] == 2
    assert run(capsys, "enumerate")[0] == 2  # --design is required
    assert run(capsys, "bound", "--formula", "counting", "--k", "3")[0] == 2
    assert run(capsys, "sweep", "--check", "deficit-grid", "--k", "4.5")[0] == 2
    assert run(capsys, "sweep", "--check", "deficit-grid")[0] == 2


def test_byte_identical_reruns(capsys):
    argv = ("classify", "--design", "sts13:2", "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_bad_worker_env_is_ignored(capsys, monkeypatch):
    # EKR_WORKERS is not read, so no value of it changes anything
    base = run(capsys, "enumerate", "--design", "projective:2")
    for value in ("2", "many"):
        monkeypatch.setenv("EKR_WORKERS", value)
        assert run(capsys, "enumerate", "--design", "projective:2") == base
    assert base[0] == 0


def test_cli_start_does_not_import_the_worker_pool():
    # importing the CLI must not pull in concurrent.futures, and with it
    # multiprocessing and logging, nor dataclasses (which imports inspect) or
    # hashlib: each would cost every CLI start.  The records are plain slotted
    # classes, and ekr imports hashlib only for a type label's digest.
    src = pathlib.Path(steiner_ekr.__file__).resolve().parents[1]
    probe = (
        "import sys, steiner_ekr.cli\n"
        "unwanted = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect', 'hashlib')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


def test_enumerate_imports_no_process_pool():
    # enumeration runs in this process: loading concurrent.futures or
    # multiprocessing would cost every CLI start
    src = pathlib.Path(steiner_ekr.__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys\n"
        "from steiner_ekr import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['enumerate', '--design', 'sts13:1'])\n"
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0 []\n"
