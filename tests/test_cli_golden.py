"""Byte-exact CLI matrix: every argv in tests/golden/cli_matrix.json replays to
the recorded (exit status, stdout, stderr).

``cases`` were recorded before the CLI renderer was rewritten, so any change
of output is caught.  ``changed`` holds argvs whose output was changed on
purpose; each entry keeps the old outcome under ``parent`` and says why.

Re-record ``cases`` (``changed`` is kept as it is) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import pathlib
import sys

import pytest

from steiner_ekr.cli import main

MATRIX = pathlib.Path(__file__).parent / "golden" / "cli_matrix.json"

# argparse wraps usage lines to the terminal width
COLUMNS = "80"
PYTHON = "{}.{}".format(*sys.version_info)


def _argvs():
    formats = ("text", "json", "csv")
    out = []
    for design in ("projective:2", "sts13:1", "kgraph:5", "affine:3"):
        for verb in (
            ["validate"],
            ["enumerate"],
            ["enumerate", "--size-only"],
            ["enumerate", "--min-size", "4"],
            ["classify"],
            ["onan"],
            ["max-size"],
        ):
            for fmt in formats:
                out.append([*verb, "--design", design, "--format", fmt])
        out.append(["generate", "--design", design])
    bound_inputs = {
        "counting": ["--k", "3", "--r", "6", "--excess", "1"],
        "counting-deficit": ["--k", "4", "--deficit", "2", "--excess", "1"],
        "multiplicity-cap": ["--k", "4", "--max-mult", "4"],
        "cover-range": ["--k", "4", "--shortfall", "2"],
        "replication": ["--k", "4", "--r", "13"],
        "near-extremal": ["--k", "4", "--r", "9"],
        "unital-counting": ["--q", "3", "--excess", "1"],
        "unital-second": ["--q", "5"],
        "pencil-uniqueness": ["--k", "3", "--v", "19"],
        "discriminant": ["--k", "14", "--excess", "0"],
    }
    for formula, inputs in bound_inputs.items():
        for fmt in formats:
            out.append(["bound", "--formula", formula, *inputs, "--format", fmt])
    sweep_inputs = {
        "deficit-grid": ["--k", "4"],
        "large-k": ["--k-max", "20"],
        "moments": ["--l", "2", "--a", "2", "--excess", "1", "--r", "6"],
    }
    for check, inputs in sweep_inputs.items():
        for fmt in formats:
            out.append(["sweep", "--check", check, *inputs, "--format", fmt])
    # exit 1: inputs outside each entry's domain
    bound_refused = [
        ["near-extremal", "--k", "-4", "--r", "9"],
        ["near-extremal", "--k", "3", "--r", "9"],
        ["counting-deficit", "--k", "2", "--deficit", "0", "--excess", "0"],
        ["multiplicity-cap", "--k", "4", "--max-mult", "5"],
        ["cover-range", "--k", "4", "--shortfall", "3"],
        ["replication", "--k", "1", "--r", "3"],
        ["pencil-uniqueness", "--k", "1", "--v", "3"],
        ["unital-counting", "--q", "1", "--excess", "0"],
    ]
    sweep_refused = [
        ["deficit-grid", "--k", "14"],
        ["moments", "--l", "1", "--a", "2", "--excess", "1", "--r", "6"],
        ["moments", "--l", "2", "--a", "99", "--excess", "1", "--r", "6"],
        ["moments", "--l", "2", "--a", "2", "--excess", "-1", "--r", "6"],
        ["large-k", "--k-max", "1000000", "--budget", "10"],
    ]
    out += [["bound", "--formula", *a] for a in bound_refused]
    out += [["sweep", "--check", *a] for a in sweep_refused]
    # the tabulated unital orders: no cube-root brackets
    out += [
        ["bound", "--formula", "unital-second", "--q", "3", "--format", "json"],
        ["bound", "--formula", "unital-second", "--q", "4", "--format", "csv"],
    ]
    out += [
        ["sweep", "--check", "deficit-grid", "--k", "all", "--format", "csv"],
        ["enumerate", "--design", "sts13:1", "--size-only", "--max-count", "201"],
        *(
            ["enumerate", "--design", "sts13:1", "--size-only", "--max-count", "1",
             "--format", fmt]
            for fmt in formats
        ),
        # exit 1: domain errors
        ["validate", "--design", "septagon:9"],
        ["validate", "--design", "affine"],
        ["validate", "--design", "affine:x"],
        ["classify", "--design", "unital:6", "--format", "json"],
        ["bound", "--formula", "counting", "--k", "2", "--r", "3", "--excess", "0"],
        ["bound", "--formula", "unital-second", "--q", "1"],
        ["sweep", "--check", "large-k", "--k-max", "12"],
        ["enumerate", "--design", "sts13:1", "--max-count", "10"],
        ["classify", "--design", "sts13:1", "--max-count", "200", "--format", "csv"],
        # exit 2: usage errors
        ["no-such-verb"],
        ["enumerate"],
        ["generate", "--design", "projective:2", "--format", "json"],
        ["bound", "--formula", "counting", "--k", "3"],
        ["bound", "--formula", "unital-second"],
        ["bound", "--formula", "golden-ratio", "--k", "3"],
        ["bound", "--formula", "counting", "--k", "x", "--r", "6", "--excess", "1"],
        ["sweep", "--check", "deficit-grid"],
        ["sweep", "--check", "deficit-grid", "--k", "x"],
        ["sweep", "--check", "deficit-grid", "--k", "4.5"],
        ["sweep", "--check", "moments", "--l", "2", "--a", "2"],
        ["validate", "--design", "projective:2", "--format", "yaml"],
    ]
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _load():
    return json.loads(MATRIX.read_text(encoding="utf-8"))


def pytest_generate_tests(metafunc):
    if "entry" in metafunc.fixturenames:
        data = _load()
        entries = [*data["cases"], *data["changed"]]
        metafunc.parametrize("entry", entries, ids=[" ".join(e["argv"]) for e in entries])


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def _usage_line(stderr):
    return stderr.splitlines()[-1].replace("'", "")


def test_cli_matrix_replays_byte_exact(entry):
    got = _run(entry["argv"])
    want = {k: entry[k] for k in ("rc", "stdout", "stderr")}
    if entry["rc"] == 2 and _load()["python"] != PYTHON:
        # usage layout and choice quoting are argparse's and vary by version
        got["stderr"] = _usage_line(got["stderr"])
        want["stderr"] = _usage_line(want["stderr"])
    assert got == want


def test_every_argv_is_recorded():
    # the replay above only sees what the JSON holds
    data = _load()
    recorded = {tuple(e["argv"]) for e in [*data["cases"], *data["changed"]]}
    assert [a for a in _argvs() if tuple(a) not in recorded] == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    changed = _load()["changed"] if MATRIX.exists() else []
    skip = {tuple(e["argv"]) for e in changed}
    cases = [{"argv": a, **_run(a)} for a in _argvs() if tuple(a) not in skip]
    MATRIX.parent.mkdir(exist_ok=True)
    data = {"python": PYTHON, "cases": cases, "changed": changed}
    MATRIX.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases, {len(changed)} changed -> {MATRIX}")
