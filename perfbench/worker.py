"""In-process workloads `mode-solve` and `redesign-batch`, one set-up per process.

    python3 perfbench/worker.py --workload W --seed N --budget SECONDS \
        --first-op K --trace 0|1 --t0 EPOCH

The process imports fmf_ttdl from the checkout's src/, loads the workload's
inputs and runs one untimed warm-up operation on fixed inputs, checked
against perfbench/reference/.  `setup_s` is the wall time from --t0 (taken
by the parent just before it started this process) to the end of that
warm-up.  It then runs timed operations on seed-drawn inputs until --budget
seconds are spent (at least one), checks every output, and prints one JSON
line.  With --trace 1 the public functions are wrapped; operations with an
odd index are traced and the others are not, so the overhead of tracing can
be measured within one run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace

from common import DELAY_TOL, DEMO, DEMO_LABELS, NEFF_TOL, REFERENCE, SRC, rng_for

sys.path.insert(0, str(SRC))

SWEEP_POINTS = 11
SWEEP_STEP_NM = 0.1
ROOT_PROBE = 1e-9      # a reported n_eff must sit inside a sign change this narrow


def _table_rows(table):
    return [[r.l, r.m, r.n_eff, r.tau_ps_per_km, r.dispersion_ps_per_km_nm]
            for r in table.modes]


class ModeSolve:
    """solve_mode_table under both material models, an 11-point sweep and a
    3-wavelength numeric delay curve of the demo design."""

    def __init__(self, fmf):
        from fmf_ttdl.materials import SELLMEIER_BLEND, MaterialModel

        self.fmf = fmf
        profile = fmf.load_profile(DEMO / "ring_core.prof")
        self.profiles = (profile, replace(profile, cladding=MaterialModel(kind=SELLMEIER_BLEND)))
        self.graph = fmf.load_graph(DEMO / "four_sample.graph")
        table = fmf.read_mode_table(DEMO / "reference_modes.csv")
        targets = fmf.DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=table.lambda0_um)
        self.solution = fmf.solve_placements(fmf.assemble_constraints(self.graph, table, targets))

    @staticmethod
    def inputs(seed, op):
        if seed is None:  # the fixed warm-up operation
            return {"lambda_nm": 1550.0, "sweep_start_nm": 1549.5,
                    "curve_nm": [1545.0, 1550.0, 1555.0]}
        rng = rng_for(seed, f"mode-solve/{op}")
        return {
            "lambda_nm": round(rng.uniform(1530.0, 1570.0), 3),
            "sweep_start_nm": round(rng.uniform(1530.0, 1569.0), 2),
            "curve_nm": [round(rng.uniform(lo, lo + 4.0), 2) for lo in (1540.0, 1548.0, 1556.0)],
        }

    def run(self, x):
        fmf = self.fmf
        lam_um = fmf.fileio.um_from_nm(x["lambda_nm"])
        t0 = time.perf_counter()
        tables = [fmf.solve_mode_table(p, lam_um) for p in self.profiles]
        t1 = time.perf_counter()
        start = x["sweep_start_nm"]
        sweep = fmf.sweep_modes(self.profiles[0], start,
                                start + (SWEEP_POINTS - 1) * SWEEP_STEP_NM, SWEEP_STEP_NM)
        t2 = time.perf_counter()
        curve = fmf.delay_curve(self.solution, x["curve_nm"], model="numeric-sweep",
                                graph=self.graph, profile=self.profiles[0])
        t3 = time.perf_counter()
        samples = {
            "mode_tables_per_s": len(tables) / (t1 - t0),
            "sweep_lambdas_per_s": SWEEP_POINTS / (t2 - t1),
            "numeric_curve_lambdas_per_s": len(x["curve_nm"]) / (t3 - t2),
        }
        return (tables, sweep, curve), samples

    def _check_table(self, table, profile, lambda_nm, problems, where):
        lam_um = self.fmf.fileio.um_from_nm(lambda_nm)
        if abs(table.lambda0_um * 1e3 - lambda_nm) > 1e-9:
            problems.append(f"{where}: table at {table.lambda0_um * 1e3} nm, expected {lambda_nm}")
        if sorted(table.labels()) != sorted(DEMO_LABELS):
            problems.append(f"{where}: modes {table.labels()}, expected the 7 demo modes")
        n_clad = profile.cladding_index(lam_um)
        n_max = max(profile.layer_index(j, lam_um) for j in range(len(profile.layers)))
        values = [r.n_eff for r in table.modes]
        if any(not a > b for a, b in zip(values, values[1:])):
            problems.append(f"{where}: n_eff not sorted descending")
        for r in table.modes:
            if not n_clad < r.n_eff < n_max:
                problems.append(f"{where}: {r.label} n_eff {r.n_eff} outside ({n_clad}, {n_max})")
                continue
            below = self.fmf.characteristic_value(profile, r.l, r.n_eff - ROOT_PROBE, lam_um)
            above = self.fmf.characteristic_value(profile, r.l, r.n_eff + ROOT_PROBE, lam_um)
            if not below * above <= 0.0:
                problems.append(f"{where}: {r.label} n_eff {r.n_eff} is not a root")

    def check(self, x, outputs, fixed):
        tables, sweep, curve = outputs
        problems = []
        for profile, table in zip(self.profiles, tables):
            self._check_table(table, profile, x["lambda_nm"], problems, profile.cladding.kind)
            if any(not (math.isfinite(r.tau_ps_per_km) and math.isfinite(r.dispersion_ps_per_km_nm))
                   for r in table.modes):
                problems.append(f"{profile.cladding.kind}: non-finite tau/D")
        if len(sweep) != SWEEP_POINTS:
            problems.append(f"sweep: {len(sweep)} tables, expected {SWEEP_POINTS}")
        for k, table in enumerate(sweep):
            lam = x["sweep_start_nm"] + k * SWEEP_STEP_NM
            self._check_table(table, self.profiles[0], lam, problems, f"sweep {lam:.2f} nm")
        delays = curve.sample_delays_ps_per_km
        if delays.shape != (4, len(x["curve_nm"])) or not all(map(math.isfinite, delays.flat)):
            problems.append(f"numeric curve: bad delays {delays!r}")
        elif any(not a < b for row in curve.differential_delays for a, b in zip(row, row[1:])):
            problems.append("numeric curve: differential delays do not grow with wavelength")
        if fixed and not problems:
            problems += self._compare_reference(tables, sweep, curve)
        return problems

    def _compare_reference(self, tables, sweep, curve):
        want = json.loads((REFERENCE / "mode_solve.json").read_text())
        have = self.record((tables, sweep, curve))
        problems = []
        for want_rows, have_rows in zip(want["tables"], have["tables"]):
            for w, h in zip(want_rows, have_rows):
                if w[:2] != h[:2] or abs(w[2] - h[2]) > NEFF_TOL:
                    problems.append(f"reference: {h} vs {w} (n_eff)")
                elif abs(w[3] - h[3]) > DELAY_TOL or abs(w[4] - h[4]) > DELAY_TOL:
                    problems.append(f"reference: {h} vs {w} (tau/D)")
        for w, h in zip(want["sweep"], have["sweep"]):
            if len(w) != len(h) or any(abs(a - b) > NEFF_TOL for a, b in zip(w, h)):
                problems.append(f"reference: sweep n_eff {h} vs {w}")
        if any(abs(a - b) > DELAY_TOL for w, h in zip(want["curve"], have["curve"])
               for a, b in zip(w, h)):
            problems.append(f"reference: numeric curve {have['curve']} vs {want['curve']}")
        return problems

    @staticmethod
    def record(outputs):
        tables, sweep, curve = outputs
        return {"tables": [_table_rows(t) for t in tables],
                "sweep": [[r.n_eff for r in t.modes] for t in sweep],
                "curve": curve.sample_delays_ps_per_km.tolist()}


class RedesignBatch:
    """perturb_and_redesign on the demo: a block on the direct path, one on the LP path."""

    SIGMA = 0.05
    DIRECT_TRIALS = 1000
    LP_TRIALS = 40
    MIN_FEASIBLE = 0.6   # about 92 % of trials are feasible at this sigma

    def __init__(self, fmf):
        self.fmf = fmf
        self.table = fmf.read_mode_table(DEMO / "reference_modes.csv")
        self.graph = fmf.load_graph(DEMO / "four_sample.graph")
        self.targets = {
            rule: fmf.DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=self.table.lambda0_um,
                                    dispersion_rule=rule)
            for rule in ("maximize", "delays-only")
        }

    @staticmethod
    def inputs(seed, op):
        if seed is None:
            return {"direct_seed": 7, "lp_seed": 7}
        rng = rng_for(seed, f"redesign-batch/{op}")
        return {"direct_seed": rng.randrange(2**31), "lp_seed": rng.randrange(2**31)}

    def run(self, x):
        def block(rule, trials, seed):
            return self.fmf.perturb_and_redesign(
                self.graph, self.table, self.targets[rule], sigma=self.SIGMA,
                trials=trials, seed=seed, workers=1)

        t0 = time.perf_counter()
        direct = block("maximize", self.DIRECT_TRIALS, x["direct_seed"])
        t1 = time.perf_counter()
        lp = block("delays-only", self.LP_TRIALS, x["lp_seed"])
        t2 = time.perf_counter()
        samples = {"direct_trials_per_s": self.DIRECT_TRIALS / (t1 - t0),
                   "lp_trials_per_s": self.LP_TRIALS / (t2 - t1)}
        return (direct, lp), samples

    def check(self, x, outputs, fixed):
        placements = (REFERENCE / "cli" / "placements.csv").read_text()
        digests = json.loads((REFERENCE / "redesign_batch.json").read_text()) if fixed else {}
        problems = []
        for name, report, trials, seed, has_d in (
            ("direct", outputs[0], self.DIRECT_TRIALS, x["direct_seed"], True),
            ("lp", outputs[1], self.LP_TRIALS, x["lp_seed"], False),
        ):
            if [t.trial for t in report.trials] != list(range(trials)) or report.seed != seed:
                problems.append(f"{name}: trials {len(report.trials)} / seed {report.seed}, "
                                f"expected {trials} / {seed}")
            for t in report.trials:
                if t.feasible:
                    bad = not 0.0 <= t.max_abs_delta_length <= 1.0
                    bad |= has_d != math.isfinite(t.delta_d_ps_per_km_nm)
                else:
                    bad = not (math.isnan(t.max_abs_delta_length)
                               and math.isnan(t.delta_d_ps_per_km_nm))
                if bad:
                    problems.append(f"{name}: trial {t} breaks the report invariants")
                    break
            if not self.MIN_FEASIBLE <= report.feasible_fraction <= 1.0:
                problems.append(f"{name}: feasible fraction {report.feasible_fraction}")
            nominal = self.fmf.design.placements_to_csv(report.nominal)
            if name == "direct" and nominal != placements:
                problems.append("direct: nominal design differs from the reference placements")
            if fixed:
                digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
                if digest != digests[name]:
                    problems.append(f"{name}: seed-7 report differs from the reference")
        return problems

    @staticmethod
    def record(outputs):
        return {name: hashlib.sha256(report.to_csv().encode()).hexdigest()
                for name, report in zip(("direct", "lp"), outputs)}


WORKLOADS = {"mode-solve": ModeSolve, "redesign-batch": RedesignBatch}


def _attempt(workload, x, fixed):
    """Run one operation, then check it.

    Returns (samples or None, wall seconds, problems, epoch time at which
    the operation itself ended, before its check).
    """
    start = time.perf_counter()
    try:
        outputs, samples = workload.run(x)
    except Exception as exc:  # an operation that raises counts as failed
        problems = [f"raised {type(exc).__name__}: {exc}"]
        return None, time.perf_counter() - start, problems, time.time()
    wall = time.perf_counter() - start
    ended = time.time()
    try:
        problems = workload.check(x, outputs, fixed)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return (None if problems else samples), wall, problems, ended


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import fmf_ttdl
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True  # trace the input loaders; op None marks set-up
    workload = WORKLOADS[args.workload](fmf_ttdl)
    if tracer:
        tracer.active = False

    problems = []
    _, warm_wall, warm_problems, warm_end = _attempt(workload, workload.inputs(None, None), True)
    problems += [f"warm-up: {p}" for p in warm_problems]
    attempted, failed = 1, int(bool(warm_problems))
    setup_s = warm_end - args.t0

    ops = []
    deadline = time.perf_counter() + args.budget
    expected = warm_wall
    op = args.first_op
    while not ops or time.perf_counter() + expected <= deadline:
        traced = bool(tracer) and op % 2 == 1
        if tracer:
            tracer.op, tracer.active = op, traced
        samples, wall, op_problems, _ = _attempt(workload, workload.inputs(args.seed, op), False)
        if tracer:
            tracer.active = False
        attempted += 1
        failed += int(bool(op_problems))
        problems += [f"op {op}: {p}" for p in op_problems]
        ops.append({"op": op, "traced": traced, "wall": wall, "samples": samples})
        expected = wall
        op += 1

    print(json.dumps({
        "setup_s": setup_s,
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ops": ops,
        "trace": tracer.dump() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
