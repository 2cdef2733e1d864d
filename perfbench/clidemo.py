"""The `cli-demo` workload: one round of the README quick start, a fresh
Python process per stage, and the check of every artifact it writes.

Stages run in sequence in an empty round directory, because each reads the
previous one's files.  A stage fails when it exits non-zero, writes no
artifact or fails its output check, so a no-op entry point cannot pass as a
fast one.  Fixed-input artifacts are compared with perfbench/reference/cli/,
recorded at the commit that introduced this benchmark; the perturbation
report, whose seed comes from the benchmark seed, is checked by its
invariants, against the seed-7 reference when the seed is 7, and for
byte-identity across the rounds of a run.  Standard library only.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import time
from pathlib import Path

from common import (BENCH, DELAY_TOL, DEMO, NEFF_TOL, PYTHON, REFERENCE, child_env,
                    time_left)

CLI_REFERENCE = REFERENCE / "cli"
README_PERTURB_SEED = 7
CURVE_TOL = 1e-9
RF_SAMPLE_STRIDE = 50
STAGE_TIMEOUT_S = 60

STAGE_METRIC = {
    "solve-modes": "solve_modes_s",
    "design": "design_s",
    "evaluate": "evaluate_s",
    "rf-response": "rf_response_s",
    "rf-response-1560": "rf_response_s",
    "perturb": "perturb_s",
}

STAGE_LAUNCHER = (PYTHON, str(BENCH / "stage.py"))


def stages(perturb_seed):
    """(key, argv, artifacts) of one round, in order."""
    modes = str(DEMO / "reference_modes.csv")
    graph = str(DEMO / "four_sample.graph")
    rf = ["rf-response", "--placements", "placements.csv", "--length-km", "2",
          "--f-range", "0:10:0.005"]
    return [
        ("solve-modes", ["solve-modes", "--profile", str(DEMO / "ring_core.prof"),
                         "--lambda-nm", "1550", "--out", "modes.csv"], ["modes.csv"]),
        ("design", ["design", "--modes", modes, "--graph", graph, "--dtau", "100",
                    "--length-km", "1"],
         ["placements.csv", "lpg_positions.csv", "design_report.txt"]),
        ("evaluate", ["evaluate", "--placements", "placements.csv",
                      "--lambda-range", "1540:1560:0.5"], ["delay_curve.csv"]),
        ("rf-response", rf, ["rf_response.csv"]),
        ("rf-response-1560", rf + ["--lambda-nm", "1560", "--out", "rf_1560.csv"],
         ["rf_1560.csv"]),
        ("perturb", ["perturb", "--modes", modes, "--graph", graph, "--dtau", "100",
                     "--sigma", "0.01", "--trials", "100", "--seed", str(perturb_seed)],
         ["perturb_report.csv"]),
    ]


def run_round(round_dir, perturb_seed, trace=False, launcher=STAGE_LAUNCHER, env=None):
    """Run every stage of one round; return per-stage results in order."""
    round_dir.mkdir(parents=True)
    results = []
    for key, argv, artifacts in stages(perturb_seed):
        trace_file = round_dir / f"{key}.trace.json"
        command = list(launcher) + (["--trace", str(trace_file)] if trace else []) + argv
        timeout = min(STAGE_TIMEOUT_S, time_left())
        start = time.perf_counter()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(command, 0)
            proc = subprocess.run(command, cwd=round_dir, env=env or child_env(),
                                  capture_output=True, text=True, timeout=timeout)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, "", f"timed out after {max(timeout, 0):.0f} s"
        wall = time.perf_counter() - start
        results.append({
            "key": key, "wall": wall, "code": code, "stdout": stdout, "stderr": stderr,
            "artifacts": artifacts,
            "trace": json.loads(trace_file.read_text()) if trace and trace_file.exists() else None,
        })
    return results


# --- output checks ----------------------------------------------------------

def _rows(text):
    return [line.split(",") for line in text.splitlines()]


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _check_modes(text):
    want, have = _rows((CLI_REFERENCE / "modes.csv").read_text()), _rows(text)
    if len(want) != len(have) or want[0] != have[0]:
        return ["modes.csv: header or row count differs from the reference"]
    problems = []
    for w, h in zip(want[1:], have[1:]):
        if (len(h) != len(w) or w[:2] != h[:2] or w[5] != h[5]
                or abs(float(w[2]) - float(h[2])) > NEFF_TOL):
            problems.append(f"modes.csv: row {h} vs reference {w} (n_eff within {NEFF_TOL})")
        elif any(abs(float(w[i]) - float(h[i])) > DELAY_TOL for i in (3, 4)):
            problems.append(f"modes.csv: row {h} vs reference {w} (tau/D within {DELAY_TOL})")
    return problems


def _check_curve(text):
    want, have = _rows((CLI_REFERENCE / "delay_curve.csv").read_text()), _rows(text)
    if len(want) != len(have) or want[0] != have[0]:
        return ["delay_curve.csv: header or row count differs from the reference"]
    for w, h in zip(want[1:], have[1:]):
        if len(w) != len(h) or not all(_close(a, b, CURVE_TOL) for a, b in zip(h, w)):
            return [f"delay_curve.csv: row {h} vs reference {w}"]
    return []


def rf_sample(text):
    """Header, row count and every RF_SAMPLE_STRIDE-th row of an RF CSV."""
    lines = text.splitlines()
    return {"header": lines[0], "rows": len(lines) - 1,
            "sample": lines[1::RF_SAMPLE_STRIDE]}


def _check_rf(name, text):
    want = json.loads((CLI_REFERENCE / f"{name}.sample.json").read_text())
    have = rf_sample(text)
    if have["header"] != want["header"] or have["rows"] != want["rows"]:
        return [f"{name}: header or row count differs from the reference"]
    for w, h in zip(want["sample"], have["sample"]):
        w, h = w.split(","), h.split(",")
        mag = math.hypot(float(h[1]), float(h[2]))
        if (w[0] != h[0] or not all(_close(a, b, CURVE_TOL) for a, b in zip(h[1:3], w[1:3]))
                or (mag > 1e-3 and abs(float(h[3]) - 20.0 * math.log10(mag)) > 1e-6)):
            return [f"{name}: row {h} vs reference {w}"]
    return []


def _check_perturb(text, seed, stdout):
    """Invariants of a 100-trial report plus its agreement with the stdout line."""
    lines = text.splitlines()
    if lines[0] != "trial,feasible,max_abs_delta_length,delta_D_ps_per_km_nm":
        return ["perturb_report.csv: bad header"]
    try:
        split = lines.index("[summary]")
        trials = [line.split(",") for line in lines[1:split]]
        summary = dict(line.split(",") for line in lines[split + 2:])
    except ValueError:
        return ["perturb_report.csv: no [summary] block"]
    problems = []
    if [t[0] for t in trials] != [str(i) for i in range(100)]:
        problems.append("perturb_report.csv: expected trials 0..99")
    deltas = []
    for t in trials:
        dl, dd = float(t[2]), float(t[3])
        if t[1] == "1" and 0.0 <= dl <= 1.0 and math.isfinite(dd):
            deltas.append(dl)
        elif not (t[1] == "0" and math.isnan(dl) and math.isnan(dd)):
            problems.append(f"perturb_report.csv: trial {t} breaks the invariants")
            break
    fraction = len(deltas) / 100
    median = statistics.median(deltas) if deltas else math.nan
    if (summary.get("sigma") != "0.01" or summary.get("seed") != str(seed)
            or summary.get("trials") != "100"
            or float(summary.get("feasible_fraction", "nan")) != fraction
            or not _close(summary.get("median_max_abs_delta_length", "nan"), median, 1e-12)):
        problems.append(f"perturb_report.csv: summary {summary} disagrees with the trials")
    line = (f"wrote perturb_report.csv (100 trials; feasible fraction "
            f"{summary.get('feasible_fraction')}, median max |dl| "
            f"{summary.get('median_max_abs_delta_length')})")
    if stdout.strip() != line:
        problems.append(f"perturb: stdout {stdout.strip()!r}, expected {line!r}")
    return problems


def check_stage(stage, round_dir, perturb_seed):
    """Problems with one stage's exit code, artifacts and stdout."""
    key = stage["key"]
    if stage["code"] != 0:
        return [f"{key}: exit code {stage['code']}: {stage['stderr'].strip()[-300:]}"]
    texts = {}
    for name in stage["artifacts"]:
        path = round_dir / name
        if not path.is_file():
            return [f"{key}: wrote no {name}"]
        texts[name] = path.read_text()
    expected_stdout = json.loads((CLI_REFERENCE / "stdout.json").read_text())
    if key == "perturb":
        problems = _check_perturb(texts["perturb_report.csv"], perturb_seed, stage["stdout"])
        if perturb_seed == README_PERTURB_SEED:
            if texts["perturb_report.csv"] != (CLI_REFERENCE / "perturb_report.csv").read_text():
                problems.append("perturb_report.csv: seed-7 report differs from the reference")
            if stage["stdout"] != expected_stdout[key]:
                problems.append(f"perturb: stdout {stage['stdout']!r} differs from the reference")
        return problems
    problems = []
    if stage["stdout"] != expected_stdout[key]:
        problems.append(f"{key}: stdout {stage['stdout']!r}, expected {expected_stdout[key]!r}")
    for name, text in texts.items():
        if name == "modes.csv":
            problems += _check_modes(text)
        elif name == "delay_curve.csv":
            problems += _check_curve(text)
        elif name.startswith("rf_"):
            problems += _check_rf(name, text)
        elif text != (CLI_REFERENCE / name).read_text():
            problems.append(f"{name}: differs from the reference")
    return problems


def check_round(results, round_dir, perturb_seed):
    problems = []
    for stage in results:
        problems += check_stage(stage, round_dir, perturb_seed)
    return problems


def record_reference(round_dir, results):
    """Write perfbench/reference/cli/ from a README round (perturb seed 7)."""
    CLI_REFERENCE.mkdir(parents=True, exist_ok=True)
    for stage in results:
        if stage["code"] != 0:
            raise RuntimeError(f"{stage['key']} failed: {stage['stderr']}")
    for name in ("modes.csv", "placements.csv", "lpg_positions.csv", "design_report.txt",
                 "delay_curve.csv", "perturb_report.csv"):
        (CLI_REFERENCE / name).write_text((round_dir / name).read_text())
    for name in ("rf_response.csv", "rf_1560.csv"):
        sample = rf_sample((round_dir / name).read_text())
        (CLI_REFERENCE / f"{name}.sample.json").write_text(json.dumps(sample, indent=1) + "\n")
    stdout = {stage["key"]: stage["stdout"] for stage in results}
    (CLI_REFERENCE / "stdout.json").write_text(json.dumps(stdout, indent=1) + "\n")


def stage_wall_by_metric(results):
    walls = {}
    for stage in results:
        walls.setdefault(STAGE_METRIC[stage["key"]], []).append(stage["wall"])
    return walls

