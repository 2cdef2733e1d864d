from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fmf_ttdl.cli import ConfigError, main, parse_config, run_pipeline
from fmf_ttdl.design import (DesignTargets, load_graph, perturb_and_redesign, read_placements,
                              write_placements)
from fmf_ttdl.evaluate import rf_response
from fmf_ttdl.fileio import grid_points
from fmf_ttdl.materials import load_profile
from fmf_ttdl.modes import (
    ModeTable,
    find_modes,
    mode_table_to_csv,
    read_mode_table,
    solve_mode_table,
    sweep_modes,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"
PROFILE = str(DEMO / "ring_core.prof")
GRAPH = str(DEMO / "four_sample.graph")
MODES = str(DEMO / "reference_modes.csv")
TARGETS = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)


def design_args(out_dir):
    return [
        "design", "--modes", MODES, "--graph", GRAPH, "--dtau", "100",
        "--out-dir", str(out_dir),
    ]


# --- parse_config ------------------------------------------------------------------

def test_parse_config_solve_modes_mapping(tmp_path):
    config = parse_config(
        ["solve-modes", "--profile", PROFILE, "--lambda-nm", "1550",
         "--out", "modes.csv", "--out-dir", str(tmp_path)]
    )
    assert config.command == "solve-modes"
    assert config.lambda0_nm == 1550.0
    assert config.profile is not None
    assert config.outputs["modes"] == "modes.csv"


def test_parse_config_missing_required_flag():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["solve-modes", "--lambda-nm", "1550"])
    assert any("--profile is required" in d for d in excinfo.value.diagnostics)


def test_parse_config_collects_every_failure(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(
            ["design", "--modes", str(tmp_path / "absent.csv"),
             "--dtau", "-5", "--dispersion-rule", "sometimes"]
        )
    text = "\n".join(excinfo.value.diagnostics)
    assert "--graph is required" in text
    assert "no such file" in text
    assert "--dtau" in text
    assert "--dispersion-rule" in text


def test_parse_config_unknown_flag():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["solve-modes", "--profile", PROFILE, "--frobnicate", "1"])
    assert any("unknown argument" in d for d in excinfo.value.diagnostics)


def test_parse_config_profile_diagnostics_with_line_numbers(tmp_path):
    bad = tmp_path / "bad.prof"
    bad.write_text(
        "name = x\n[layer]\nradius_um = 5.0\ndelta_percent = 0.3\n"
        "[layer]\nradius_um = 4.0\ndelta_percent = 0.7\n"
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["solve-modes", "--profile", str(bad)])
    joined = "\n".join(excinfo.value.diagnostics)
    assert f"{bad}:6:" in joined
    assert "strictly increasing" in joined


def test_parse_config_lambda_range_validation():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["evaluate", "--placements", "x.csv",
                      "--lambda-range", "1560:1540:0.5"])
    joined = "\n".join(excinfo.value.diagnostics)
    assert "precedes" in joined


def test_parse_config_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FMF_TTDL_OUT", str(tmp_path))
    config = parse_config(["solve-modes", "--profile", PROFILE])
    assert config.out_dir == tmp_path


def test_missing_command_lists_commands():
    with pytest.raises(ConfigError) as excinfo:
        parse_config([])
    assert "missing command" in excinfo.value.diagnostics[0]


# --- end-to-end pipeline --------------------------------------------------------------

def test_main_reports_config_errors(tmp_path, capsys):
    rc = main(["solve-modes"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--profile is required" in captured.err


def test_design_stage_end_to_end(tmp_path, capsys):
    rc = main(design_args(tmp_path))
    captured = capsys.readouterr()
    assert rc == 0
    assert "5.10" in captured.out
    placements = read_placements(tmp_path / "placements.csv")
    assert placements.delta_tau_ps_per_km == 100.0
    assert placements.lengths["l02"] == pytest.approx(0.17, abs=0.015)
    report = (tmp_path / "design_report.txt").read_text()
    assert "100.0 ps/km" in report
    assert "5.1023" in report
    positions = (tmp_path / "lpg_positions.csv").read_text().strip().splitlines()
    assert positions[0] == "junction,from_mode,to_mode,z_km"
    assert len(positions) == 6
    # a delays-only design on a table without D reports no D_eq column values
    config = parse_config(design_args(tmp_path) + ["--dispersion-rule", "delays-only"])
    config.mode_table = ModeTable([replace(record, dispersion_ps_per_km_nm=None)
                                   for record in config.mode_table.modes],
                                  config.mode_table.lambda0_um)
    run_pipeline(config)
    report = (tmp_path / "design_report.txt").read_text().splitlines()
    assert not [line for line in report if line.startswith("dispersion increment")]
    start = report.index("  sample   tau_eq [ps/km]   D_eq [ps/(km nm)]") + 1
    assert [line.split()[-1] for line in report[start:start + 4]] == ["--"] * 4
    assert report[start + 4] == ""


def test_evaluate_stage_end_to_end(tmp_path, capsys):
    assert main(design_args(tmp_path)) == 0
    rc = main(
        ["evaluate", "--placements", str(tmp_path / "placements.csv"),
         "--lambda-range", "1540:1560:0.5", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "delay_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 42  # header + 41 wavelengths
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 1540.0 and last[0] == 1560.0
    assert first[5] == pytest.approx(49.0, abs=1.0)
    assert last[5] == pytest.approx(151.0, abs=1.0)


def test_evaluate_warns_outside_grating_bandwidth(tmp_path, capsys):
    assert main(design_args(tmp_path)) == 0
    rc = main(
        ["evaluate", "--placements", str(tmp_path / "placements.csv"),
         "--lambda-range", "1530:1570:1", "--out-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.out
    assert "bandwidth" in captured.out


def test_rf_stage_end_to_end(tmp_path, capsys):
    assert main(design_args(tmp_path)) == 0
    rc = main(
        ["rf-response", "--placements", str(tmp_path / "placements.csv"),
         "--length-km", "2", "--f-range", "0:10:0.05", "--out-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "FSR 5.0000 GHz" in captured.out
    lines = (tmp_path / "rf_response.csv").read_text().strip().splitlines()
    assert lines[0] == "f_GHz,re,im,mag_db"
    assert lines[1].startswith("0.0,4.0,0.0,")  # four taps of amplitude 1 by default
    assert len(lines) == 202


def test_perturb_stage_zero_sigma_rows_identical(tmp_path):
    rc = main(
        ["perturb", "--modes", MODES, "--graph", GRAPH, "--dtau", "100",
         "--sigma", "0", "--trials", "5", "--seed", "3",
         "--out", "report.csv", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    body = [line.split(",", 1)[1] for line in lines[1:6]]
    assert len(set(body)) == 1


def test_perturb_stage_byte_identical_reports(tmp_path):
    args = ["perturb", "--modes", MODES, "--graph", GRAPH, "--dtau", "100",
            "--sigma", "0.01", "--trials", "25", "--seed", "11"]
    assert main(args + ["--out", "a.csv", "--out-dir", str(tmp_path)]) == 0
    assert main(args + ["--out", "b.csv", "--out-dir", str(tmp_path)]) == 0
    assert main(args + ["--out", "c.csv", "--workers", "4", "--out-dir", str(tmp_path)]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a == (tmp_path / "c.csv").read_bytes()


def test_solve_modes_stage_and_design_from_solver_output(tmp_path):
    rc = main(
        ["solve-modes", "--profile", PROFILE, "--lambda-nm", "1550",
         "--out", "modes.csv", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    table = read_mode_table(tmp_path / "modes.csv")
    assert len(table) == 7
    assert table.labels() == ("LP01", "LP11", "LP21", "LP31", "LP02", "LP12", "LP41")
    rc = main(
        ["design", "--modes", str(tmp_path / "modes.csv"), "--graph", GRAPH,
         "--dtau", "100", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    placements = read_placements(tmp_path / "placements.csv")
    assert np.diff(placements.tau_eq_ps_per_km) == pytest.approx([100.0] * 3, abs=1e-6)


def test_mode_table_csv_write_read_write_is_byte_identical(tmp_path):
    assert main(
        ["solve-modes", "--profile", PROFILE, "--out", "modes.csv",
         "--out-dir", str(tmp_path)]
    ) == 0
    text = (tmp_path / "modes.csv").read_text()
    assert mode_table_to_csv(read_mode_table(tmp_path / "modes.csv")) == text


def test_stage_error_leaves_no_partial_artifact(tmp_path, capsys):
    # unreachable delay step: design fails after parsing, before any write
    rc = main(
        ["design", "--modes", MODES, "--graph", GRAPH, "--dtau", "1e6",
         "--out-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("design:")
    assert not (tmp_path / "placements.csv").exists()
    assert not (tmp_path / "lpg_positions.csv").exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_unknown_reference_mode_is_reported_without_key_error_quotes(tmp_path, capsys):
    rc = main(design_args(tmp_path) + ["--reference-mode", "LP91"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "design: reference mode LP91 is not in the mode table\n"
    assert list(tmp_path.iterdir()) == []


def test_infeasible_design_reports_bound_violations(tmp_path, capsys):
    rc = main(
        ["design", "--modes", MODES, "--graph", GRAPH, "--dtau", "1e6",
         "--out-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "[0, 1]" in captured.err


def test_non_finite_flags_and_file_values_are_config_errors(tmp_path, capsys):
    modes = tmp_path / "modes.csv"
    rows = Path(MODES).read_text().splitlines()
    rows[2] = ",".join(rows[2].split(",")[:3] + ["nan"] + rows[2].split(",")[4:])
    modes.write_text("\n".join(rows) + "\n")
    rc = main(["design", "--modes", str(modes), "--graph", GRAPH, "--dtau", "100",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"{modes}:3:" in capsys.readouterr().err
    rc = main(design_args(tmp_path) + ["--dispersion-rule", "fixed", "--fixed-dd", "nan"])
    assert rc == 2
    assert "--fixed-dd" in capsys.readouterr().err
    assert main(design_args(tmp_path)) == 0
    capsys.readouterr()
    rc = main(["rf-response", "--placements", str(tmp_path / "placements.csv"),
               "--length-km", "2", "--f-range", "0:10:1", "--amplitudes", "1,inf,1,1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--amplitudes" in capsys.readouterr().err


def test_rejected_fixed_dd_is_not_also_missing(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(design_args(tmp_path) + ["--dispersion-rule", "fixed", "--fixed-dd", "nan"])
    assert len(excinfo.value.diagnostics) == 1
    assert excinfo.value.diagnostics[0].startswith("--fixed-dd: expected")
    with pytest.raises(ConfigError, match="--fixed-dd is required"):
        parse_config(design_args(tmp_path) + ["--dispersion-rule", "fixed"])


def test_placements_without_dispersion_entries(tmp_path, capsys):
    assert main(design_args(tmp_path)) == 0
    kept = [
        line for line in (tmp_path / "placements.csv").read_text().splitlines()
        if not line.startswith(("D_eq_", "delta_D"))
    ]
    placements = tmp_path / "no_d.csv"
    placements.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    rc = main(["evaluate", "--placements", str(placements),
               "--lambda-range", "1540:1560:0.5", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("evaluate:") and "D_eq_1..D_eq_4" in err
    rf = ["rf-response", "--placements", str(placements), "--length-km", "2",
          "--f-range", "0:10:0.05", "--out-dir", str(tmp_path)]
    assert main(rf) == 0
    assert "FSR 5.0000 GHz" in capsys.readouterr().out
    assert main(rf + ["--lambda-nm", "1560"]) == 1
    assert capsys.readouterr().err.startswith("rf-response:")


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "fmf_ttdl"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 2
    assert "missing command" in result.stderr


def test_import_leaves_out_optimize_and_constants():
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, fmf_ttdl; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.constants', 'scipy.special') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_BLEND_TABLE_PROBE = """
from fmf_ttdl import FiberProfile, Layer, MaterialModel, solve_mode_table
profile = FiberProfile((Layer(3.0, 0.0021), Layer(10.0, 0.0072)), MaterialModel("sellmeier-blend"))
assert solve_mode_table(profile, 1.55).modes
"""
_BLEND_CLI_PROBE = """
from fmf_ttdl.cli import main
assert main(["solve-modes", "--profile", {profile!r}, "--out", {out!r}]) == 0
"""
_DELAYS_ONLY_PROBE = """
from fmf_ttdl.design import DesignTargets, assemble_constraints, load_graph, solve_placements
from fmf_ttdl.modes import read_mode_table
targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule="delays-only")
solve_placements(assemble_constraints(load_graph({graph!r}), read_mode_table({modes!r}), targets))
"""


@pytest.mark.parametrize("probe, runs_lp", [
    (_BLEND_TABLE_PROBE, False), (_BLEND_CLI_PROBE, False), (_DELAYS_ONLY_PROBE, True),
], ids=["blend-table", "blend-cli", "delays-only"])
def test_no_path_imports_scipy_optimize(probe, runs_lp, tmp_path):
    import os
    import subprocess
    import sys

    blend = tmp_path / "blend.prof"
    blend.write_text(
        Path(PROFILE).read_text().replace("= scaled-silica", "= sellmeier-blend")
    )
    assert "sellmeier-blend" in blend.read_text()
    code = probe.format(profile=str(blend), out=str(tmp_path / "modes.csv"),
                        graph=GRAPH, modes=MODES)
    code += (
        "import sys\n"
        "from fmf_ttdl.materials import _blend_fraction_for_delta\n"
        "print(_blend_fraction_for_delta.cache_info().misses, 'scipy.optimize' in sys.modules,\n"
        "      'scipy.optimize._highspy._core' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    # a blend probe calibrates both layers; the LP probe has no profile, and it
    # loads HiGHS's extension alone
    calibrated = "0" if runs_lp else "2"
    assert result.stdout.splitlines()[-1].split() == [calibrated, "False", str(runs_lp)]


def test_perturb_leaves_numpy_ma_unimported(tmp_path):
    import os
    import subprocess
    import sys

    code = f"""
import sys
from fmf_ttdl.cli import main
assert main(["perturb", "--modes", {MODES!r}, "--graph", {GRAPH!r}, "--dtau", "100",
             "--sigma", "0.2", "--trials", "20", "--seed", "7",
             "--out-dir", {str(tmp_path)!r}]) == 0
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    # the report's median is taken without np.median, whose first call imports it
    assert "median max |dl|" in result.stdout
    assert result.stdout.splitlines()[-1] == "False"


def test_evaluate_and_rf_response_leave_numpy_unimported(tmp_path, reference_solution):
    import os
    import subprocess
    import sys

    placements = str(tmp_path / "placements.csv")
    write_placements(reference_solution, placements)
    rf = ["rf-response", "--placements", placements, "--length-km", "2", "--f-range", "0:10:0.5"]
    stages = [
        ["evaluate", "--placements", placements, "--lambda-range", "1540:1560:0.5"],
        rf,
        rf + ["--lambda-nm", "1560", "--out", "rf_1560.csv"],
        rf + ["--amplitudes", "1,0.5,0.25,0", "--out", "rf_amp.csv"],
    ]
    # the LP path on one worker: its thread pool is the only user of concurrent.futures
    perturb = ["perturb", "--modes", MODES, "--graph", GRAPH, "--dtau", "100", "--sigma", "0.2",
               "--trials", "20", "--seed", "7", "--dispersion-rule", "delays-only",
               "--workers", "1"]
    code = f"""
import sys
import fmf_ttdl
modules = {{"fmf_ttdl." + name for name in ("design", "evaluate", "fileio", "materials", "modes")}}
assert modules <= set(sys.modules), sorted(modules - set(sys.modules))
assert "numpy" not in sys.modules
from fmf_ttdl.cli import main
for argv in {stages!r}:
    assert main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0
print(sorted({{"numpy", "concurrent.futures"}} & set(sys.modules)))
assert main({perturb!r} + ["--out-dir", {str(tmp_path)!r}]) == 0
print("numpy" in sys.modules, "concurrent.futures" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("wrote ") == 5
    *_, before, wrote, after = result.stdout.splitlines()
    assert (before, wrote.split()[0], after) == ("[]", "wrote", "True False")


def test_mode_solving_imports_neither_scipy_special_nor_optimize(tmp_path):
    import os
    import subprocess
    import sys

    code = f"""
import sys
from fmf_ttdl import load_profile, solve_mode_table
from fmf_ttdl.cli import main
assert solve_mode_table(load_profile({PROFILE!r}), 1.55).modes
assert main(["solve-modes", "--profile", {PROFILE!r}, "--out", {str(tmp_path / "modes.csv")!r}]) == 0
print(sorted(m for m in ("scipy.special", "scipy.optimize") if m in sys.modules),
      "scipy.special._special_ufuncs" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    # the Bessel ufuncs are loaded from their file, without their package
    assert result.stdout.splitlines()[-1] == "[] True"


def test_unreadable_text_file_is_a_config_error(tmp_path, capsys):
    binary = tmp_path / "binary.prof"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["solve-modes", "--profile", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("--profile: 'utf-8' codec can't decode")


SOLVE = ["solve-modes", "--profile", PROFILE]
EVALUATE = ["evaluate", "--placements", str(DEMO / "absent.csv")]
RF = ["rf-response", "--placements", str(DEMO / "absent.csv"), "--length-km", "2"]
PERTURB = ["perturb", "--modes", MODES, "--graph", GRAPH, "--dtau", "100", "--sigma", "0.1"]


def _perturb(sigma, trials, seed):
    return perturb_and_redesign(load_graph(GRAPH), read_mode_table(MODES), TARGETS, sigma,
                                trials, seed)


@pytest.mark.parametrize("argv, flag, value, call", [
    (SOLVE, "--scan-points", "400", lambda: find_modes(load_profile(PROFILE), 1.55, 400)),
    (PERTURB, "--dtau", "-5", lambda: DesignTargets(-5.0, 1.55)),
    (PERTURB, "--dispersion-rule", "often", lambda: DesignTargets(100.0, 1.55, "often")),
    (PERTURB, "--sigma", "-1", lambda: _perturb(-1.0, 5, 0)),
    (PERTURB, "--trials", "0", lambda: _perturb(0.1, 0, 0)),
    (PERTURB, "--seed", "-1", lambda: _perturb(0.1, 5, -1)),
    (EVALUATE, "--lambda-range", "1560:1540:1",
     lambda: sweep_modes(load_profile(PROFILE), 1560.0, 1540.0, 1.0)),
    (EVALUATE, "--lambda-range", "1540:1560:0",
     lambda: sweep_modes(load_profile(PROFILE), 1540.0, 1560.0, 0.0)),
    (EVALUATE, "--lambda-range", "1540:1560:1e-300",
     lambda: sweep_modes(load_profile(PROFILE), 1540.0, 1560.0, 1e-300)),
    (RF + ["--f-range", "0:10:1"], "--amplitudes", "1,-1",
     lambda: rf_response([0.0, 5.0], [1.0, -1.0], [0.0])),
])
def test_cli_reports_the_library_rule_text(argv, flag, value, call):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(argv + [flag, value])
    [diagnostic] = [d for d in excinfo.value.diagnostics if d.startswith(flag + ":")]
    with pytest.raises(ValueError) as library:
        call()
    assert str(library.value).endswith(" " + diagnostic[len(flag) + 2:])


def test_solve_modes_passes_its_probe_step_to_the_library_in_um(tmp_path):
    assert main(SOLVE + ["--dlambda-nm", "2", "--out-dir", str(tmp_path)]) == 0
    table = solve_mode_table(load_profile(PROFILE), 1.55, dlambda_um=2e-3)
    assert (tmp_path / "modes.csv").read_text() == mode_table_to_csv(table)


def test_demo_design_report_equals_the_benchmark_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--modes", MODES, "--graph", GRAPH, "--dtau", "100",
                 "--length-km", "1"]) == 0
    reference = DEMO.parent / "perfbench" / "reference" / "cli" / "design_report.txt"
    assert (tmp_path / "design_report.txt").read_bytes() == reference.read_bytes()


def test_parse_config_calls_the_loaders_bound_on_their_modules(monkeypatch):
    from fmf_ttdl import cli, design, modes

    calls = []
    for module, name in ((cli, "load_profile"), (modes, "read_mode_table"),
                         (design, "load_graph"), (design, "read_placements")):
        loader = getattr(module, name)
        monkeypatch.setattr(module, name, lambda path, loader=loader, name=name: (
            calls.append(name), loader(path))[1])
    parse_config(SOLVE)
    parse_config(PERTURB)
    with pytest.raises(ConfigError):
        parse_config(EVALUATE)
    assert calls == ["load_profile", "read_mode_table", "load_graph", "read_placements"]


@pytest.mark.parametrize("span", ["0:1e300:1e-300", "1540:1560:1e-300"])
def test_grid_too_large_to_build_is_a_flag_diagnostic(span, capsys):
    # the first point count overflows to inf, the second is a finite 2e22
    assert main(RF + ["--f-range", span]) == 2
    diagnostic = "--f-range: has more than 1000000 points, got step 1e-300"
    assert diagnostic in capsys.readouterr().err.splitlines()
    with pytest.raises(ValueError, match="^grid has more than 1000000 points"):
        grid_points(*map(float, span.split(":")))
