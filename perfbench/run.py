"""fmf-ttdl benchmark: cold CLI pipeline, mode solving and batched redesign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; paths resolve against the checkout that holds this file.
Workloads (one closed-loop client each, no arrival rate):

  cli-demo        one round of the README quick start, every stage in a
                  fresh Python process through fmf_ttdl.cli.main(argv)
  mode-solve      solve_mode_table under both material models, an 11-point
                  1 nm sweep_modes and a 3-wavelength numeric delay curve
  redesign-batch  perturb_and_redesign: 1000 direct-path trials and 40
                  LP-path trials at sigma 0.05

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics, from a run whose odd
operations are traced and whose even ones are not, so the tracing overhead
is measured too.  The lines before it name every metric with its unit,
median, sample count and tail percentile, plus the workload's own detail
metrics (per CLI stage, per mode-solve part, per design path).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import clidemo
from common import (BENCH, DEMO, HELD_OUT_SEED, PYTHON, ROOT, SRC, WORK, child_env,
                    last_json_line, rng_for, summarize, time_left)
from tracing import layer_metrics

WORKLOADS = ("cli-demo", "mode-solve", "redesign-batch")
WORKER_PROCESSES = 3      # set-ups per in-process run; the timed budget is split
IMPORTS_PER_ROUND = 2     # fresh-process imports (cli-demo set-ups) per timed round
STARTUP_PROBES = 5        # bare-interpreter starts per traced run

# The workload's own detail metrics: (unit, better) by name.
DETAIL_METRICS = {
    "cli-demo": {
        "pipeline_s": ("s", "lower"),
        "solve_modes_s": ("s", "lower"),
        "design_s": ("s", "lower"),
        "evaluate_s": ("s", "lower"),
        "rf_response_s": ("s", "lower"),
        "perturb_s": ("s", "lower"),
    },
    "mode-solve": {
        "mode_tables_per_s": ("1/s", "higher"),
        "sweep_lambdas_per_s": ("1/s", "higher"),
        "numeric_curve_lambdas_per_s": ("1/s", "higher"),
    },
    "redesign-batch": {
        "direct_trials_per_s": ("1/s", "higher"),
        "lp_trials_per_s": ("1/s", "higher"),
    },
}

IMPORT_ONLY = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fmf_ttdl"


def _timed_process(command):
    """Wall time and result of one child; TimeoutExpired once the run's time is up."""
    timeout = time_left()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(command, 0)
    start = time.perf_counter()
    proc = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    return time.perf_counter() - start, proc


def _startup_s():
    return statistics.median(_timed_process([PYTHON, "-c", "pass"])[0]
                             for _ in range(STARTUP_PROBES))


def _probe(workdir, out):
    """Span dump of probe.py: one traced call of every traced function."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    try:
        _, proc = _timed_process([PYTHON, str(BENCH / "probe.py"), str(probe_dir)])
        if proc.returncode == 0:
            return last_json_line(proc.stdout)
        out["problems"].append(f"probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        out["problems"].append(f"probe: {exc}")
    return {"spans": [], "kernel": [0, 0, 0.0]}


def _overhead_pct(traced, untraced):
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def run_cli_demo(args, workdir):
    out = {"samples": {}, "problems": [], "attempted": 0, "failed": 0}
    perturb_seed = rng_for(args.seed, "cli-demo/perturb").randrange(2**31)
    out["seeds"] = {"perturb": perturb_seed}

    def one_round(name, seed, traced):
        round_dir = workdir / name
        start = time.perf_counter()
        results = clidemo.run_round(round_dir, seed, trace=traced)
        wall = time.perf_counter() - start
        problems = clidemo.check_round(results, round_dir, seed)
        out["attempted"] += 1
        out["failed"] += int(bool(problems))
        out["problems"] += [f"{name}: {p}" for p in problems]
        return results, wall, problems

    # untimed README round (seed 7) first, so bytecode caches exist and the
    # fixed-input references are checked once per run
    _, warm_wall, _ = one_round("warm-up", clidemo.README_PERTURB_SEED, False)

    setups = []

    def setup():
        try:
            wall, proc = _timed_process([PYTHON, "-c", IMPORT_ONLY])
        except subprocess.TimeoutExpired:
            out["problems"].append("set-up: the run's time limit was reached")
            return
        if proc.returncode != 0:
            out["problems"].append(f"set-up: import failed: {proc.stderr.strip()[-300:]}")
        setups.append(wall)

    # fresh-process imports before each timed round, so the set-up samples
    # spread over the whole run as the rounds do
    deadline = time.perf_counter() + args.seconds
    reports, rounds = set(), []
    k = 0
    while len(rounds) < (2 if args.trace else 1) or (
            time.perf_counter() + warm_wall <= deadline and time_left() > warm_wall):
        for _ in range(IMPORTS_PER_ROUND):
            setup()
        traced = bool(args.trace) and k % 2 == 1
        results, wall, problems = one_round(f"round-{k}", perturb_seed, traced)
        report = workdir / f"round-{k}" / "perturb_report.csv"
        if report.is_file():
            reports.add(report.read_bytes())
        rounds.append((results, wall, traced, problems))
        k += 1
    out["samples"]["setup_s"] = setups
    if len(reports) > 1:
        out["problems"].append("perturb: reports of one seed differ between rounds")
        out["failed"] += 1

    good = [(r, w) for r, w, traced, p in rounds if not traced and not p]
    out["samples"]["op_s"] = [w for _, w in good]
    out["samples"]["pipeline_s"] = [w for _, w in good]
    for results, _ in good:
        for metric, walls in clidemo.stage_wall_by_metric(results).items():
            out["samples"].setdefault(metric, []).extend(walls)

    if args.trace:
        traced_rounds = [(r, w) for r, w, traced, _ in rounds if traced]
        dumps = [s["trace"] for r, _ in traced_rounds for s in r if s["trace"]]
        startup = _startup_s()
        import_s = statistics.median(d["import_s"] for d in dumps) if dumps else 0.0
        stage_wall = sum(s["wall"] for r, _ in traced_rounds for s in r)
        out["layers"] = layer_metrics(dumps, _probe(workdir, out), len(traced_rounds),
                                      stage_wall, import_s, startup, outside_cli=True)
        out["layers"]["trace.overhead_pct"] = _overhead_pct(
            [w for _, w, t, _ in rounds if t], [w for _, w, t, _ in rounds if not t])
        out["attribution"] = {
            stage["key"]: {"wall_s": stage["wall"],
                           "startup_plus_import_share": (startup + stage["trace"]["import_s"])
                           / stage["wall"] if stage["trace"] else None}
            for stage in traced_rounds[0][0]
        }
    return out


def run_in_process(args, workdir):
    out = {"samples": {"setup_s": []}, "problems": [], "attempted": 0, "failed": 0}
    ops, dumps, imports = [], [], []
    budget = args.seconds / WORKER_PROCESSES
    next_op = 0
    for _ in range(WORKER_PROCESSES):
        if time_left() < 2 * budget:
            out["problems"].append("worker: the run's time limit was reached")
            break
        command = [PYTHON, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--budget", repr(budget),
                   "--first-op", str(next_op), "--trace", str(args.trace)]
        try:
            _, proc = _timed_process(command + ["--t0", repr(time.time())])
            result = last_json_line(proc.stdout) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError) as exc:
            proc, result = None, None
            out["problems"].append(f"worker: {exc}")
        if result is None:
            out["attempted"] += 1
            out["failed"] += 1
            if proc is not None:
                out["problems"].append(
                    f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        out["samples"]["setup_s"].append(result["setup_s"])
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        out["problems"] += result["problems"]
        imports.append(result["import_s"])
        ops += result["ops"]
        if result["trace"]:
            dumps.append(result["trace"])
        next_op = result["ops"][-1]["op"] + 1

    good = [op for op in ops if op["samples"] and not op["traced"]]
    out["samples"]["op_s"] = [op["wall"] for op in good]
    for op in good:
        for metric, value in op["samples"].items():
            out["samples"].setdefault(metric, []).append(value)
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        out["layers"] = layer_metrics(dumps, _probe(workdir, out), len(traced),
                                      sum(op["wall"] for op in traced),
                                      statistics.median(imports) if imports else 0.0,
                                      _startup_s())
        out["layers"]["trace.overhead_pct"] = _overhead_pct(
            [op["wall"] for op in traced], [op["wall"] for op in ops if not op["traced"]])
    out["seeds"] = {"ops": f"inputs of op k drawn from ({args.seed}, k), k < {next_op}"}
    return out


def _environment(args, seeds):
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
        "seed": args.seed, "derived_seeds": seeds, "held_out_seed": HELD_OUT_SEED,
        "pinned_env": {k: v for k, v in child_env().items() if k.endswith("NUM_THREADS")},
        "clients": 1, "workers": 1,
    }


def _fmt_summary(name, unit, better, samples):
    s = summarize(samples, better)
    tail = (f"p{s['tail']['p']:g} {s['tail']['value']:.6g}" if s["tail"]
            else "no tail (< 20 samples)")
    return f"  {name:34s} {s['median']:14.6g} {unit:6s} median, n={s['n']}, {tail}"


def run_workload(args, spec):
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = run_cli_demo if args.workload == "cli-demo" else run_in_process
        out = runner(args, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["samples"]["peak_rss_mb"] = [rss_mb]

    print(f"# fmf-ttdl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(_environment(args, out.get("seeds"))))
    print("# end-to-end metrics (tracing off in the samples below)")
    for m in spec["end_to_end"]:
        print(_fmt_summary(m["name"], m["unit"], m["better"], out["samples"].get(m["name"], [])
                           or [float("nan")]))
    print(f"# {args.workload} detail metrics")
    for name, (unit, better) in DETAIL_METRICS[args.workload].items():
        print(_fmt_summary(name, unit, better, out["samples"].get(name) or [float("nan")]))
    if args.trace:
        print("# per-layer metrics (traced operations)")
        for m in spec["per_layer"]:
            print(f"  {m['name']:40s} {out['layers'][m['name']]:14.6g} {m['unit']}")
        if "attribution" in out:
            print("# cli-demo stage wall time spent in interpreter start-up + package import")
            for key, row in out["attribution"].items():
                share = row["startup_plus_import_share"]
                print(f"  {key:20s} {row['wall_s']:.4f} s, share "
                      f"{'n/a (stage failed)' if share is None else f'{share:.3f}'}")
    print("# samples " + json.dumps(out["samples"]))
    print(f"# operations attempted={out['attempted']} failed={out['failed']}")
    for problem in out["problems"][:20]:
        print(f"# FAILED {problem}")

    correct = out["failed"] == 0 and not out["problems"]
    if args.trace:
        metrics = {m["name"]: {"value": out["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            samples = out["samples"].get(m["name"])
            if samples:
                metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"]}
            else:
                correct = False
    return {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [PYTHON, str(BENCH / "run.py"), "--workload", workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        try:
            result = last_json_line(proc.stdout)
        except ValueError:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "fmf_ttdl" / "__init__.py", DEMO / "ring_core.prof",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(map(str, missing))}; run it from a full "
              f"checkout of fmf-ttdl", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        import selftest

        return selftest.main(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
