"""Self-tests of the benchmark at smoke size: python3 perfbench/run.py --self-test

1. Every workload, with --trace 0 and 1, prints exactly the metrics of
   BENCHMARK.json with their units, and reports no failed operation.
2. The output gate catches deliberately corrupted outputs: one n_eff
   shifted by 1e-6, one placement byte changed, one perturbation-report
   byte changed, in the CLI artifacts and in the in-process results.
3. A no-op entry point (`python -m fmf_ttdl.cli`, which exits 0 and does
   nothing) is reported as failed, not as fast.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import clidemo
from common import BENCH, PINNED_ENV, PYTHON, SRC, WORK, child_env, last_json_line


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, condition, what):
        print(f"{'PASS' if condition else 'FAIL'} {what}", flush=True)
        self.failed += not condition


def _metric_names(checks, spec):
    for workload in ("cli-demo", "mode-solve", "redesign-batch"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [PYTHON, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            try:
                result = last_json_line(proc.stdout)
            except ValueError:
                checks.expect(False, f"{workload} trace={trace}: prints a result line")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            have = {name: value["unit"] for name, value in result["metrics"].items()}
            checks.expect(proc.returncode == 0 and have == want,
                          f"{workload} trace={trace}: every {key} metric with its unit")
            body = proc.stdout.strip().splitlines()[:-1]
            printed = all(any(name in line and f" {unit}" in line for line in body)
                          for name, unit in want.items())
            checks.expect(printed, f"{workload} trace={trace}: metric table names every metric")
            checks.expect(result["correct"] and result["failed"] == 0
                          and result["attempted"] >= 1,
                          f"{workload} trace={trace}: correct, 0 of {result['attempted']} failed")


def _rewrite(path, old, new):
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1))


def _cli_gate(checks, workdir):
    round_dir = workdir / "readme"
    results = clidemo.run_round(round_dir, clidemo.README_PERTURB_SEED)
    by_key = {stage["key"]: stage for stage in results}
    checks.expect(not clidemo.check_round(results, round_dir, clidemo.README_PERTURB_SEED),
                  "cli-demo: the README round passes the gate")

    def caught(key, what):
        problems = clidemo.check_stage(by_key[key], round_dir, clidemo.README_PERTURB_SEED)
        checks.expect(bool(problems), f"cli-demo gate catches {what}: {problems[:1]}")

    modes = round_dir / "modes.csv"
    row = modes.read_text().splitlines()[1].split(",")
    shifted = repr(float(row[2]) + 1e-6)
    _rewrite(modes, f",{row[2]},", f",{shifted},")
    caught("solve-modes", "one n_eff shifted by 1e-6")

    placements = round_dir / "placements.csv"
    data = bytearray(placements.read_bytes())
    data[data.index(b".") + 1] ^= 1  # 0 <-> 1 in the first fraction digit
    placements.write_bytes(bytes(data))
    caught("design", "one placement byte changed")

    report = round_dir / "perturb_report.csv"
    _rewrite(report, "\n1,1,", "\n1,0,")
    caught("perturb", "one perturbation-report byte changed")

    noop = clidemo.run_round(workdir / "noop", clidemo.README_PERTURB_SEED,
                             launcher=(PYTHON, "-m", "fmf_ttdl.cli"),
                             env=child_env(PYTHONPATH=str(SRC)))
    exits = [stage["code"] for stage in noop]
    failed = [clidemo.check_stage(stage, workdir / "noop", 7) for stage in noop]
    checks.expect(exits == [0] * len(noop) and all(failed),
                  f"no-op entry point exits 0 yet all {len(noop)} stages are reported failed")


def _in_process_gate(checks):
    os.environ.update(PINNED_ENV)
    import sys

    sys.path.insert(0, str(SRC))
    import fmf_ttdl
    import worker

    mode_solve = worker.ModeSolve(fmf_ttdl)
    x = mode_solve.inputs(None, None)
    (tables, sweep, curve), _ = mode_solve.run(x)
    checks.expect(not mode_solve.check(x, (tables, sweep, curve), True),
                  "mode-solve: the fixed warm-up operation passes the gate")
    first = tables[0].modes[3]
    bad = dataclasses.replace(tables[0], modes=tables[0].modes[:3]
                              + (dataclasses.replace(first, n_eff=first.n_eff + 1e-6),)
                              + tables[0].modes[4:])
    problems = mode_solve.check(x, ([bad, tables[1]], sweep, curve), True)
    checks.expect(bool(problems), f"mode-solve gate catches one n_eff shifted by 1e-6: "
                                  f"{problems[:1]}")

    redesign = worker.RedesignBatch(fmf_ttdl)
    x = redesign.inputs(None, None)
    (direct, lp), _ = redesign.run(x)
    checks.expect(not redesign.check(x, (direct, lp), True),
                  "redesign-batch: the fixed warm-up operation passes the gate")
    index, trial = next((i, t) for i, t in enumerate(direct.trials) if t.feasible)
    nudged = dataclasses.replace(trial, max_abs_delta_length=trial.max_abs_delta_length * 2)
    bad = dataclasses.replace(direct, trials=direct.trials[:index] + (nudged,)
                              + direct.trials[index + 1:])
    problems = redesign.check(x, (bad, lp), True)
    checks.expect(bool(problems), f"redesign-batch gate catches one changed trial: "
                                  f"{problems[:1]}")
    index, trial = next((i, t) for i, t in enumerate(lp.trials) if t.feasible)
    stretched = dataclasses.replace(trial, max_abs_delta_length=1.5)
    bad = dataclasses.replace(lp, trials=lp.trials[:index] + (stretched,) + lp.trials[index + 1:])
    problems = redesign.check(x, (direct, bad), False)
    checks.expect(bool(problems), f"redesign-batch invariants catch a length change > 1: "
                                  f"{problems[:1]}")


def main(spec):
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    try:
        _cli_gate(checks, workdir)
        _in_process_gate(checks)
        _metric_names(checks, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {checks.failed} failed")
    return 1 if checks.failed else 0
