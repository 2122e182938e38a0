"""One pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/passes.py --workload NAME --seed N [--traced] [--in-process] [--paced]

``run.py`` starts this script once per pass, with ``src`` on PYTHONPATH.
The pass time covers the ops and nothing before them: interpreter start,
imports and input files are set-up.  ``--in-process`` runs the census-cli
argvs through ``cli.main`` instead of subprocesses; the traced census-cli
pass uses it, since spans cannot cross a process boundary.  ``--paced``
takes host-speed reference samples during the pass (``calib.Pacer``) and
adds the pass time rescaled by them; the end-to-end passes use it.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import steiner_ekr
import steiner_ekr.cli  # noqa: F401  (every script pays this import)

import calib
import layers
import workloads
from common import ROOT, WORK_COUNTS, WORKLOADS, child_env
from tracer import Tracer

GOLDEN = Path(__file__).resolve().parent / "golden"
BODIES = {"census-deep": workloads.census_deep, "stream": workloads.stream, "exact": workloads.exact}


def load_golden() -> tuple[dict, dict, dict]:
    """(library summaries per workload, work counts per workload, CLI stdout per argv key)."""
    with open(GOLDEN / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)
    with open(GOLDEN / "cli_corpus.json", encoding="utf-8") as fh:
        corpus = {workloads.cli_key(e["argv"]): e["stdout"] for e in json.load(fh)}
    return results["ops"], results["work_counts"], corpus


def run_pass(workload: str, seed: int, traced: bool, in_process: bool, paced: bool, corpus: dict, workdir: str):
    """Run the workload once; returns (Pass, Tracer or None, wall_s, cpu_s, rescaled or None, peak_rss_mb).

    A paced pass (``calib.Pacer``) leaves the reference samples out of its
    wall and CPU time and also gives both rescaled to the nominal host
    speed, as ``{"wall_norm_s": ..., "cpu_norm_s": ...}``.
    """
    tracer = Tracer(layers.NOTES) if traced else None
    pacer = calib.Pacer() if paced else None
    p = workloads.Pass(seed, tracer, pacer)
    if workload == "census-cli":
        argvs = workloads.cli_argvs(p, workdir)
        body = functools.partial(workloads.census_cli, p, argvs, corpus, None if in_process else child_env())
    else:
        body = functools.partial(BODIES[workload], p)
    if tracer is not None:
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    if pacer is not None:
        pacer.start()
    try:
        body()
    finally:
        if pacer is not None:
            pacer.stop()
        wall = perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            tracer.uninstall()
    cpu = sum(
        getattr(b, f) - getattr(a, f)
        for a, b in ((self0, self1), (kids0, kids1))
        for f in ("ru_utime", "ru_stime")
    )
    norm = None
    if pacer is not None:
        wall, cpu = pacer.wall_s, pacer.cpu_s
        norm = {"wall_norm_s": pacer.wall_norm_s, "cpu_norm_s": pacer.cpu_norm_s}
    # ru_maxrss is in KiB on Linux: this process plus its largest child
    peak_mb = (self1.ru_maxrss + kids1.ru_maxrss) / 1024
    return p, tracer, wall, cpu, norm, peak_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--paced", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(steiner_ekr.__file__).resolve().parents:
        sys.stderr.write(f"steiner_ekr was imported from {steiner_ekr.__file__}, not from {src}\n")
        return 2
    ops_golden, counts_golden, corpus = load_golden()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        p, tracer, wall, cpu, norm, peak_mb = run_pass(
            args.workload, args.seed, args.traced, args.in_process, args.paced, corpus, workdir
        )
    attempted, failed, bad = p.verdict(ops_golden.get(args.workload, {}))
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "in_process": args.in_process,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "latencies": p.latencies,
    }
    if tracer is not None:
        metrics = layers.layer_metrics(tracer)
        want = counts_golden.get(args.workload, {})
        # census-cli work is counted on its in-process pass
        for name in WORK_COUNTS:
            attempted += 1
            if metrics[name] != want.get(name):
                failed += 1
                bad.append(f"work count {name}: {metrics[name]} != {want.get(name)}")
        out["layers"] = metrics
    if norm is not None:
        out.update(norm)
    out.update(attempted=attempted, failed=failed, failures=bad[:20])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
