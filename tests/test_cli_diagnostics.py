"""Every CLI diagnostic, exit code and resolved RunConfig over a fixed argv corpus.

The corpus puts each flag of each command through non-numeric, non-finite,
negative, zero, empty, out-of-range and boundary values, each file flag
through a missing, unreadable (a directory) and malformed file, and adds
unknown flags and commands, ambiguous abbreviations and a missing command.
tests/data/cli_diagnostics.json holds what `fmf_ttdl.cli.main` answered to
each argv (exit code, stderr and, when the argv is accepted, every RunConfig
field); the stage itself is not run.  Re-record it only when a diagnostic is
meant to change:

    PYTHONPATH=src python tests/test_cli_diagnostics.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from fmf_ttdl import cli

DEMO = Path(__file__).resolve().parent.parent / "demo"
RECORD = Path(__file__).resolve().parent / "data" / "cli_diagnostics.json"

PLACEMENTS = """\
variable,value
l02,0.1702126956702706
l12_1,0.8297873043297289
l12_2,0.37356123567385036
l01_2,0.21695123361358465
l41_2,0.23927483504229394
l12_3,0.1904632903990492
l11_3,0.2546147307939016
l31_3,0.3847092831367783
[summary]
key,value
lambda0_nm,1550.0
reference_mode,LP01
delta_tau_ps_per_km,100.0
delta_D_ps_per_km_nm,5.1022696457604875
tau_eq_1,7882.33
tau_eq_2,7982.33
tau_eq_3,8082.33
tau_eq_4,8182.33
D_eq_1,12.103191062718537
D_eq_2,17.205460708479027
D_eq_3,22.307730354239514
D_eq_4,27.41
"""

# Malformed inputs, by the file flag that reads them.
MALFORMED = {
    "--profile": {
        "empty.prof": "",
        "radii.prof": "[layer]\nradius_um = 5.0\ndelta_percent = 0.3\n"
                      "[layer]\nradius_um = 4.0\ndelta_percent = 0.7\n",
        "model.prof": "material_model = glass\n[layer]\nradius_um = abc\ndelta_percent = 0.3\n",
        "junk.prof": "no equals sign\n[core]\n",
    },
    "--modes": {
        "empty.csv": "",
        "header.csv": "l,m,n_eff\n0,1,1.45\n",
        "nan.csv": "l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm\n"
                   "0,1,1.452726,nan,18.96,1550.0\n1,1,1.451956,3489.08,23.77,-1550\n",
        "order.csv": "l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm\n"
                     "1,1,1.451956,3489.08,23.77,1550.0\n0,1,1.452726,0.0,18.96,1550.0\n",
    },
    "--graph": {
        "empty.graph": "",
        "key.graph": "[sample 1]\nother = 1\nsegment = LP01, a\n",
        "label.graph": "[sample 2]\nsegment = XX, a\nsegment = LP01\n",
        "used.graph": "[sample 1]\nsegment = LP01, a\nsegment = LP11, a\n",
    },
    "--placements": {
        "empty.csv": "",
        "header.csv": "name,value\nl02,0.5\n",
        "range.csv": PLACEMENTS.replace("l02,0.1702126956702706", "l02,1.5"),
        "summary.csv": PLACEMENTS.split("[summary]")[0],
    },
}

# The argv each command accepts; a corpus entry sets one flag of it.
BASES = {
    "solve-modes": ["solve-modes", "--profile", "ring_core.prof"],
    "design": ["design", "--modes", "modes.csv", "--graph", "four.graph", "--dtau", "100"],
    "evaluate": ["evaluate", "--placements", "placements.csv", "--lambda-range",
                 "1540:1560:0.5"],
    "rf-response": ["rf-response", "--placements", "placements.csv", "--length-km", "2",
                    "--f-range", "0:10:0.05"],
    "perturb": ["perturb", "--modes", "modes.csv", "--graph", "four.graph", "--dtau", "100",
                "--sigma", "0.01"],
}

VALUES = ("abc", "nan", "inf", "-inf", "-1", "0", "-0", "", "1e-300", "1e-10", "1.1e-10",
          "0.5", "1", "1e3", "499", "500", "1e400", "1_000")
RANGES = ("1540:1560:0.5", "1560:1540:0.5", "1540:1560:0", "1540:1560:-1", "1540:1540:1",
          "a:b:c", "1540:1560", "1:2:3:4", "nan:1:1", "1:inf:1", ":::", "1540:1560:1e-300",
          "-0:1:1")
EXTRA = {
    "--dispersion-rule": ("maximize", "fixed", "delays-only", "Fixed", "sometimes", " maximize"),
    "--reference-mode": ("LP01", "LP11", "lp02", "LP0", "LP10_1", "LP00", "LP²1", "LP1_²",
                         "XP01", "LP51", "LP1_1", "LP1_0"),
    "--amplitudes": ("1,1,1,1", "1,1,1", "1,-1,1,1", "-1,1", "1,nan,1,1", "1,,1,1", "0,0,0,0",
                     "1e400,1,1,1", "1, 2,3 ,4"),
    "--lambda-range": RANGES,
    "--f-range": RANGES,
    "--scan-points": ("2000", "-5", " 700 "),
    "--trials": ("2", "-5", "0x10"),
    "--seed": ("7", "-5"),
    "--workers": ("2", "-5"),
}
VALUE_FLAGS = {
    "solve-modes": ("--lambda-nm", "--dlambda-nm", "--scan-points"),
    "design": ("--dtau", "--dispersion-rule", "--fixed-dd", "--reference-mode", "--length-km"),
    "evaluate": ("--lambda-range", "--lpg-bandwidth-nm"),
    "rf-response": ("--length-km", "--lambda-nm", "--f-range", "--amplitudes"),
    "perturb": ("--dtau", "--dispersion-rule", "--fixed-dd", "--reference-mode", "--sigma",
                "--trials", "--seed", "--workers"),
}
FILE_FLAGS = {
    "solve-modes": ("--profile",),
    "design": ("--modes", "--graph"),
    "evaluate": ("--placements",),
    "rf-response": ("--placements",),
    "perturb": ("--modes", "--graph"),
}


def with_flag(argv, flag, value):
    """argv with flag set to value (replaced in place if present, else appended)."""
    if value is None:
        if flag not in argv:
            return list(argv)
        at = argv.index(flag)
        return argv[:at] + argv[at + 2:]
    if flag in argv:
        at = argv.index(flag)
        return argv[:at + 1] + [value] + argv[at + 2:]
    return list(argv) + [flag, value]


def corpus():
    """The argv list, in a fixed order."""
    argvs = []
    for command, base in BASES.items():
        argvs.append(list(base))
        for flag in VALUE_FLAGS[command]:
            for value in VALUES + EXTRA.get(flag, ()):
                argvs.append(with_flag(base, flag, value))
        for flag in FILE_FLAGS[command]:
            for path in ("absent.csv", "adir", "", "./" + base[base.index(flag) + 1],
                         *MALFORMED[flag]):
                argvs.append(with_flag(base, flag, path))
            argvs.append(with_flag(base, flag, None))
            argvs.append(base[:1] + [flag])
        argvs.append(base + ["--frobnicate", "1"])
        argvs.append(base + ["--out-dir", "", "--out", ""])
        argvs.append(base + ["stray"])
    design, perturb = BASES["design"], BASES["perturb"]
    for base in (design, perturb):
        fixed = with_flag(base, "--dispersion-rule", "fixed")
        argvs.append(fixed)
        for value in VALUES:
            argvs.append(with_flag(fixed, "--fixed-dd", value))
        argvs.append(with_flag(with_flag(base, "--dispersion-rule", "bogus"), "--fixed-dd", "x"))
        argvs.append(with_flag(base, "--dispersion-rule", "delays-only") + ["--fixed-dd", "2"])
        argvs.append(with_flag(base, "--dtau", None))
    argvs += [
        [], ["--profile", "ring_core.prof"], ["frobnicate"], ["Design"], ["-x"],
        ["solve-modes"], ["design"], ["evaluate"], ["rf-response"], ["perturb"],
        ["solve-modes", "--prof", "ring_core.prof", "--lambda", "1560"],
        ["solve-modes", "--profile", "ring_core.prof", "--dl", "0.2"],
        BASES["rf-response"] + ["--l", "3"],
        BASES["rf-response"] + ["--la", "1560", "--amp", "1,2,3,4"],
        design + ["--out", "x"], design + ["--out-p", "x"], design + ["--o", "x"],
        design + ["--sigma", "0.1"], design + ["--profile", "ring_core.prof"],
        BASES["evaluate"] + ["--l", "3"],
        perturb + ["--s", "1"], perturb + ["--dtau", "200"], perturb + ["--dtau"],
        design + ["--dtau", "-5"], design + ["--dtau", "1e-3", "--length-km", "0"],
        ["design", "--modes", "absent.csv", "--dtau", "-5", "--dispersion-rule", "sometimes"],
        ["design", "--modes", "nan.csv", "--graph", "key.graph", "--dtau", "x",
         "--reference-mode", "LP0", "--length-km", "-1", "--bogus"],
        ["perturb", "--modes", "order.csv", "--graph", "label.graph", "--sigma", "-1",
         "--trials", "0", "--seed", "-1", "--workers", "0", "--dispersion-rule", "fixed"],
        ["solve-modes", "--profile", "radii.prof", "--lambda-nm", "-1", "--dlambda-nm", "0",
         "--scan-points", "499", "--root-tol", "1e-9"],
        ["evaluate", "--placements", "range.csv", "--lpg-bandwidth-nm", "0"],
        ["rf-response", "--placements", "header.csv", "--lambda-nm", "x", "--amplitudes", "-1"],
        ["rf-response", "--placements", "placements.csv", "--lambda-nm", "0",
         "--amplitudes", "-1,1", "--length-km", "x"],
        ["rf-response", "--placements", "absent.csv", "--amplitudes", "1,2"],
        BASES["solve-modes"] + ["--out-dir", "outputs", "--out", "m.csv"],
        design + ["--out-placements", "p.csv", "--out-positions", "", "--out-report", "r.txt"],
        BASES["rf-response"] + ["--lambda-nm", "1560", "--amplitudes", "1,2,3,4"],
        perturb + ["--trials", "3", "--seed", "9", "--workers", "2", "--reference-mode", "LP11"],
    ]
    return argvs


def make_fixtures(directory):
    shutil.copy(DEMO / "ring_core.prof", directory / "ring_core.prof")
    shutil.copy(DEMO / "reference_modes.csv", directory / "modes.csv")
    shutil.copy(DEMO / "four_sample.graph", directory / "four.graph")
    (directory / "placements.csv").write_text(PLACEMENTS)
    (directory / "adir").mkdir()
    for files in MALFORMED.values():
        for name, text in files.items():
            (directory / name).write_text(text)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def outcome(argv):
    """main's exit code, its stderr and the RunConfig it resolved (or None)."""
    resolved = []
    stderr = io.StringIO()
    run_pipeline = cli.run_pipeline
    cli.run_pipeline = resolved.append
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        cli.run_pipeline = run_pipeline
    config = None
    if resolved:
        config = {
            name: (_digest(value) if name in ("profile", "mode_table", "graph", "placements")
                   else repr(value))
            for name, value in (
                (field.name, getattr(resolved[0], field.name))
                for field in dataclasses.fields(resolved[0])
            )
        }
    return {"argv": argv, "code": code, "stderr": stderr.getvalue(), "config": config}


def outcomes(directory):
    cwd = os.getcwd()
    saved = os.environ.pop(cli.OUT_DIR_ENV, None)
    os.chdir(directory)
    try:
        make_fixtures(Path(directory))
        return [outcome(argv) for argv in corpus()]
    finally:
        os.chdir(cwd)
        if saved is not None:
            os.environ[cli.OUT_DIR_ENV] = saved


def test_corpus_is_the_recorded_one():
    recorded = json.loads(RECORD.read_text())
    assert len(recorded) >= 300
    assert [entry["argv"] for entry in recorded] == corpus()


def test_every_diagnostic_matches_the_record(tmp_path):
    recorded = json.loads(RECORD.read_text())
    changed = [
        (expected, actual)
        for expected, actual in zip(recorded, outcomes(tmp_path))
        if expected != actual
    ]
    assert not changed, f"{len(changed)} argv answered differently, first: {changed[0]}"
    assert any(entry["config"] for entry in recorded)
    assert any(entry["code"] == 2 for entry in recorded)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        data = outcomes(scratch)
    RECORD.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(data)} argv to {RECORD}", file=sys.stderr)
