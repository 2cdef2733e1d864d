"""Paths, the pinned child environment, seeds and sample statistics."""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO = ROOT / "demo"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"

PYTHON = sys.executable

# NumPy here links a threaded OpenBLAS; one thread per process keeps the
# 2-core box from oversubscribing and the timings comparable.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seeds 1..10 were used while tuning the benchmark; this one was not, so a
# later claim can be checked on it.
HELD_OUT_SEED = 7331

DEMO_LABELS = ("LP01", "LP11", "LP21", "LP31", "LP02", "LP12", "LP41")

# Output-check tolerances.  n_eff: the demo agreement bound of acceptance
# criterion 5.  tau, D (ps/km, ps/(km nm)): loose enough for a different
# but equally accurate probe continuation, tight enough for a wrong root.
NEFF_TOL = 1e-9
DELAY_TOL = 1e-3

# A run, every process it starts included, ends within this many seconds
# even when the program hangs: each child's timeout is what is left of it.
HARD_LIMIT_S = 170
_STARTED = time.monotonic()


def time_left():
    return HARD_LIMIT_S - (time.monotonic() - _STARTED)


def child_env(**extra):
    """Environment for every workload process: BLAS pinned, bytecode caching on."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra)
    return env


def rng_for(seed, purpose):
    """Independent deterministic stream per (benchmark seed, purpose)."""
    return random.Random(f"fmf-ttdl-bench/{seed}/{purpose}")


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


def percentile(sorted_values, p):
    """Linear-interpolated p-th percentile of an ascending list."""
    position = (len(sorted_values) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def summarize(samples, better):
    """Median, sample count and the worst-side tail with >= 10 samples beyond it.

    For a metric where higher is better the tail is the low side, so p90 of
    a throughput is the value 90 % of the samples beat.
    """
    values = sorted(samples)
    n = len(values)
    median = percentile(values, 50)
    tail = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            q = p if better == "lower" else 100.0 - p
            tail = {"p": p, "value": percentile(values, q)}
            break
    return {"median": median, "n": n, "tail": tail}
