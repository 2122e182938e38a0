"""Record the golden results the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes ``golden/cli_corpus.json`` (the byte-exact stdout of every census-cli
argv at seed 0, one subprocess each) and ``golden/results.json`` (the seed-0
summaries of every library op, and the work counts of each workload's
traced pass).  Re-record only when a change means to alter results; a
refactor must reproduce these files as they are.
"""

from __future__ import annotations

import json
import sys

import layers
import passes
import workloads
from common import WORK_COUNTS, WORKLOADS, child_env


def main() -> int:
    corpus = []
    env = child_env()
    for argv in workloads.CLI_ARGVS:
        rc, out, err = workloads.run_subprocess(argv, env)
        if rc != 0 or err:
            sys.stderr.write(f"{' '.join(argv)}: exit {rc}: {err}")
            return 1
        corpus.append({"argv": list(argv), "stdout": out})
    by_key = {workloads.cli_key(e["argv"]): e["stdout"] for e in corpus}

    ops, counts = {}, {}
    for name in WORKLOADS:
        p, tracer, *_ = passes.run_pass(name, 0, True, True, by_key, None)
        ops[name] = p.expected()
        metrics = layers.layer_metrics(tracer)
        counts[name] = {k: metrics[k] for k in WORK_COUNTS}
        attempted, failed, bad = p.verdict(ops[name])
        if failed:
            sys.stderr.write(f"{name}: {failed} of {attempted} ops disagree with their oracles: {bad}\n")
            return 1
        print(f"{name}: {attempted} ops recorded")

    with open(passes.GOLDEN / "cli_corpus.json", "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    with open(passes.GOLDEN / "results.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "work_counts": counts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
