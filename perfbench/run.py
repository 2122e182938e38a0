"""Benchmark runner for steiner-ekr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (``passes.py``),
one after another, for about S seconds, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
passes of the run; the pass times are paced, that is, rescaled to a nominal
host speed by reference samples taken during the pass, see ``calib.py``,
and the raw times are in the report); with ``--trace 1`` each round is an
untraced pass and a traced pass of the same inputs, and the metrics are the
per-layer ones.  The line before it is a detailed report: quartiles and
sample counts, the error rate, the seed, and the workload-specific metrics
(``call_p50_us`` on exact, ``cli_p50_ms`` and ``cli_tail_ms`` on census-cli,
and every per-layer metric, None where the workload does not reach that
layer).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from common import LAYERS, ROOT, WORK_COUNTS, WORKLOADS, child_env, tail

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its passes do


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def spawn(cmd, env, deadline: float) -> tuple[int, str, str]:
    """Run a child in its own process group; kill the whole group at the deadline."""
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(0.1, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[-6:])} did not finish within the run's time limit") from None
    return proc.returncode, out, err


def time_setup(env, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to ``import steiner_ekr.cli`` done."""
    t0 = perf_counter()
    rc, _, err = spawn([sys.executable, "-c", "import steiner_ekr.cli"], env, deadline)
    elapsed = perf_counter() - t0
    if rc != 0:
        raise BenchError(f"import steiner_ekr.cli failed: {err.strip()}")
    return elapsed


def import_self_s(stderr: str) -> dict:
    """Self import time per layer module from ``-X importtime`` output."""
    out = dict.fromkeys(LAYERS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:") :].split("|")]
        name = fields[2]
        if name.startswith("steiner_ekr.") and name[len("steiner_ekr.") :] in out and fields[0].isdigit():
            out[name[len("steiner_ekr.") :]] += int(fields[0]) / 1e6
    return out


def run_pass(env, deadline: float, workload: str, seed: int, traced=False, in_process=False, paced=False) -> dict:
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if in_process:
        cmd.append("--in-process")
    if paced:
        cmd.append("--paced")
    rc, out, err = spawn(cmd, env, deadline)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"{workload} pass exited {rc}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if traced:
        result["import_s"] = import_self_s(err)
    return result


def quartiles(values) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def rounds(seconds: float, unit, at_least: int = 1):
    """Run ``unit`` until another round would overrun ``seconds``, and at least ``at_least`` times."""
    done, spent = [], []
    start = monotonic()
    while True:
        t0 = monotonic()
        done.append(unit())
        spent.append(monotonic() - t0)
        if len(done) >= at_least and monotonic() - start + statistics.median(spent) > seconds:
            return done


def end_to_end(env, deadline, args) -> tuple[dict, dict, int, int]:
    # half the set-up samples before the passes and half after, so that they
    # straddle the run rather than catch one moment of a noisy host
    setup = [time_setup(env, deadline) for _ in range(SETUP_SAMPLES // 2)]
    # two passes at least, so that no end-to-end figure rests on one sample;
    # set-up is not paced: rescaling a process spawn by a compute loop made
    # its spread larger, not smaller
    passes = rounds(args.seconds, lambda: run_pass(env, deadline, args.workload, args.seed, paced=True), at_least=2)
    setup += [time_setup(env, deadline) for _ in range(SETUP_SAMPLES - len(setup))]
    lat = [x for p in passes for x in p["latencies"]]
    names = ("wall_norm_s", "cpu_norm_s", "peak_rss_mb", "wall_s", "cpu_s")
    stats = {name: quartiles(p[name] for p in passes) for name in names}
    stats["setup_s"] = quartiles(setup)
    units = {"wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()}
    detail = {"passes": len(passes), "ops_per_pass": len(passes[0]["latencies"]), "metrics": stats}
    if args.workload == "exact":
        detail["call_p50_us"] = 1e6 * statistics.median(lat)
    if args.workload == "census-cli":
        value, pct = tail(lat)
        detail["cli_p50_ms"] = 1e3 * statistics.median(lat)
        detail["cli_tail_ms"] = None if value is None else 1e3 * value
        detail["cli_tail_percentile"] = pct
        detail["cli_invocations"] = len(lat)
    detail["failures"] = sorted({f for p in passes for f in p["failures"]})[:20]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, detail, attempted, failed


def traced_round(env, deadline, args) -> dict:
    """An untraced and a traced pass of the same inputs (census-cli: plus subprocesses)."""
    cli = args.workload == "census-cli"
    plain = run_pass(env, deadline, args.workload, args.seed, in_process=cli)
    traced = run_pass(env, deadline, args.workload, args.seed, traced=True, in_process=cli)
    spawned = run_pass(env, deadline, args.workload, args.seed) if cli else None
    m = dict(traced["layers"])
    for layer in LAYERS:
        m[f"{layer}.import_s"] = traced["import_s"][layer]
        m[f"{layer}.busy_s"] = traced["import_s"][layer] + m[f"{layer}.span_self_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["cli.main_ms"] = 1e3 * statistics.median(plain["latencies"]) if cli else None
    m["cli.spawn_ms"] = (
        1e3 * (statistics.median(spawned["latencies"]) - statistics.median(plain["latencies"])) if cli else None
    )
    done = [plain, traced] + ([spawned] if cli else [])
    m["_attempted"] = sum(p["attempted"] for p in done)
    m["_failed"] = sum(p["failed"] for p in done)
    m["_failures"] = [f for p in done for f in p["failures"]]
    return m


def per_layer(env, deadline, args) -> tuple[dict, dict, int, int]:
    done = rounds(args.seconds, lambda: traced_round(env, deadline, args))
    names = [k for k in done[0] if not k.startswith("_")]
    table = {}
    for name in names:
        values = [r[name] for r in done]
        numeric = all(isinstance(v, (int, float)) for v in values)
        table[name] = quartiles(values) if numeric else values[0]
    metrics = {f"{layer}.busy_s": {"value": table[f"{layer}.busy_s"]["median"], "unit": "s"} for layer in LAYERS}
    for name in WORK_COUNTS:  # equal in every round; a drift is already counted as failed
        metrics[name] = {"value": done[0][name], "unit": "count"}
    metrics["trace.overhead_s"] = {"value": table["trace.overhead_s"]["median"], "unit": "s"}
    detail = {
        "rounds": len(done),
        "layers": table,
        "failures": sorted({f for r in done for f in r["_failures"]})[:20],
    }
    return metrics, detail, sum(r["_attempted"] for r in done), sum(r["_failed"] for r in done)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steiner-ekr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "steiner_ekr" / "__init__.py").is_file():
        sys.stderr.write(f"no steiner_ekr package under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    env = child_env()
    deadline = monotonic() + RUN_LIMIT_S
    try:
        time_setup(env, deadline)  # warm-up: compile bytecode once, as an installed package has it
        if args.trace:
            metrics, detail, attempted, failed = per_layer(env, deadline, args)
        else:
            metrics, detail, attempted, failed = end_to_end(env, deadline, args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": failed / attempted,
        **detail,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
