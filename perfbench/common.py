"""Names and helpers shared by run.py and the pass runner (no package imports)."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("census-deep", "census-cli", "stream", "exact")
LAYERS = ("geometry", "designs", "ekr", "canon", "bounds", "exactnum", "cli")

# The counts that must repeat exactly on every run and every seed; a drift
# is an error, never noise.
WORK_COUNTS = (
    "designs.blocks",
    "ekr.onan_calls",
    "ekr.families",
    "ekr.budget_count",
    "ekr.types",
    "canon.code_calls",
    "canon.classes",
    "bounds.counting_calls",
    "bounds.sweep_cases",
)


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first, no worker override."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EKR_WORKERS", None)
    return env


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100 * (n - 10) // n
