"""Command-line front end: solve-modes, design, evaluate, rf-response, perturb.

Every command validates its whole flag/file set before computing anything and
reports all failures at once, file diagnostics ordered by (file, line).
Artifacts are written through temp-file renames so a failing stage never
leaves a truncated output behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import evaluate as evaluate_mod
from . import modes as modes_mod
from .fileio import FileFormatError, atomic_write_text, finite_float, fmt_float, um_from_nm
from .materials import MaterialError, load_profile
from .modes import ModeSolverError, parse_mode_label

OUT_DIR_ENV = "FMF_TTDL_OUT"

_COMMANDS = ("solve-modes", "design", "evaluate", "rf-response", "perturb")


class ConfigError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(self.diagnostics))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError([f"{self.prog}: {message}"])


@dataclass
class RunConfig:
    command: str
    out_dir: Path
    lambda0_nm: float = 1550.0
    dlambda_nm: float = 0.5
    scan_points: int = 2000
    root_tol: float = 1e-12
    delta_tau: float | None = None
    dispersion_rule: str = design_mod.MAXIMIZE_DISPERSION
    fixed_delta_d: float | None = None
    reference_mode: tuple = (0, 1)
    length_km: float = 1.0
    lambda_range: tuple | None = None
    f_range: tuple | None = None
    lpg_bandwidth_nm: float = 20.0
    amplitudes: tuple | None = None
    sigma: float = 0.0
    trials: int = 100
    seed: int = 0
    workers: int = 1
    outputs: dict = field(default_factory=dict)
    profile: object = None
    mode_table: object = None
    graph: object = None
    placements: object = None


def _build_parser():
    parser = _Parser(prog="fmf-ttdl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def add(name, *flags):
        p = sub.add_parser(name, add_help=True)
        for flag in flags:
            p.add_argument(flag, type=str)
        p.add_argument("--out-dir", type=str)
        return p

    p = add("solve-modes", "--profile", "--lambda-nm", "--dlambda-nm",
            "--scan-points", "--root-tol")
    p.add_argument("--out", type=str)

    p = add("design", "--modes", "--graph", "--dtau", "--dispersion-rule",
            "--fixed-dd", "--reference-mode", "--length-km")
    p.add_argument("--out-placements", type=str)
    p.add_argument("--out-positions", type=str)
    p.add_argument("--out-report", type=str)

    p = add("evaluate", "--placements", "--lambda-range", "--lpg-bandwidth-nm")
    p.add_argument("--out", type=str)

    p = add("rf-response", "--placements", "--length-km", "--lambda-nm",
            "--f-range", "--amplitudes")
    p.add_argument("--out", type=str)

    p = add("perturb", "--modes", "--graph", "--dtau", "--dispersion-rule",
            "--fixed-dd", "--reference-mode", "--sigma", "--trials", "--seed",
            "--workers")
    p.add_argument("--out", type=str)
    return parser


def _convert(diags, flag, raw, kind, default=None, check=None, describe=""):
    if raw is None:
        return default
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        diags.append(f"{flag}: expected {describe or kind.__name__}, got '{raw}'")
        return default
    if check is not None:
        message = check(value)
        if message:
            diags.append(f"{flag}: {message}")
            return default
    return value


def _parse_triplet(raw):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(raw)
    return tuple(finite_float(p) for p in parts)


def _range_check(label):
    def check(value):
        start, stop, step = value
        if step <= 0.0:
            return f"step must be > 0, got {step}"
        if stop < start:
            return f"stop {stop} precedes start {start}"
        return None

    return check


def _load_file(diags, file_diags, flag, raw, loader, required):
    if raw is None:
        if required:
            diags.append(f"{flag} is required for this command")
        return None
    path = Path(raw)
    try:
        return loader(path)
    except FileNotFoundError:
        diags.append(f"{flag}: no such file: {path}")
    except OSError as exc:
        diags.append(f"{flag}: cannot read {path}: {exc}")
    except FileFormatError as exc:
        file_diags.extend(
            (exc.source, line, message) for line, message in exc.diagnostics
        )
    return None


def parse_config(argv):
    """Validate argv (and every referenced file) into a RunConfig.

    Raises ConfigError carrying every failure, not just the first.
    """
    parser = _build_parser()
    namespace, extras = parser.parse_known_args(argv)
    diags = []
    file_diags = []
    for extra in extras:
        diags.append(f"unknown argument: {extra}")
    command = namespace.command
    if command is None:
        raise ConfigError([f"missing command (expected one of: {', '.join(_COMMANDS)})"])

    out_dir = Path(namespace.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    config = RunConfig(command=command, out_dir=out_dir)
    positive = lambda v: None if v > 0 else f"must be > 0, got {v}"
    non_negative = lambda v: None if v >= 0 else f"must be >= 0, got {v}"

    if command == "solve-modes":
        config.profile = _load_file(diags, file_diags, "--profile", namespace.profile,
                                    load_profile, required=True)
        config.lambda0_nm = _convert(diags, "--lambda-nm", namespace.lambda_nm, finite_float,
                                     1550.0, positive, "a wavelength in nm")
        config.dlambda_nm = _convert(diags, "--dlambda-nm", namespace.dlambda_nm, finite_float,
                                     0.5, positive, "a step in nm")
        config.scan_points = _convert(
            diags, "--scan-points", namespace.scan_points, int, 2000,
            lambda v: None if v >= 500 else f"must be >= 500, got {v}", "an integer")
        config.root_tol = _convert(
            diags, "--root-tol", namespace.root_tol, finite_float, 1e-12,
            lambda v: None if 0 < v <= 1e-10 else f"must be in (0, 1e-10], got {v}",
            "a tolerance")
        config.outputs["modes"] = namespace.out or "modes.csv"

    elif command in ("design", "perturb"):
        config.mode_table = _load_file(diags, file_diags, "--modes", namespace.modes,
                                       modes_mod.read_mode_table, required=True)
        config.graph = _load_file(diags, file_diags, "--graph", namespace.graph,
                                  design_mod.load_graph, required=True)
        if namespace.dtau is None:
            diags.append("--dtau is required for this command")
        config.delta_tau = _convert(diags, "--dtau", namespace.dtau, finite_float, None,
                                    positive, "a delay step in ps/km")
        rule = namespace.dispersion_rule or design_mod.MAXIMIZE_DISPERSION
        if rule not in design_mod.DISPERSION_RULES:
            diags.append(
                f"--dispersion-rule: must be one of {', '.join(design_mod.DISPERSION_RULES)}, "
                f"got '{rule}'"
            )
        else:
            config.dispersion_rule = rule
        config.fixed_delta_d = _convert(diags, "--fixed-dd", namespace.fixed_dd,
                                        finite_float, None, None, "a dispersion step")
        if config.dispersion_rule == design_mod.FIXED_DISPERSION and namespace.fixed_dd is None:
            diags.append("--fixed-dd is required when --dispersion-rule is 'fixed'")
        if namespace.reference_mode is not None:
            try:
                config.reference_mode = parse_mode_label(namespace.reference_mode)
            except ValueError as exc:
                diags.append(f"--reference-mode: {exc}")
        if command == "design":
            config.length_km = _convert(diags, "--length-km", namespace.length_km,
                                        finite_float, 1.0, positive, "a length in km")
            config.outputs["placements"] = namespace.out_placements or "placements.csv"
            config.outputs["positions"] = namespace.out_positions or "lpg_positions.csv"
            config.outputs["report"] = namespace.out_report or "design_report.txt"
        else:
            if namespace.sigma is None:
                diags.append("--sigma is required for this command")
            config.sigma = _convert(diags, "--sigma", namespace.sigma, finite_float, 0.0,
                                    non_negative, "a relative deviation")
            config.trials = _convert(
                diags, "--trials", namespace.trials, int, 100,
                lambda v: None if v >= 1 else f"must be >= 1, got {v}", "an integer")
            config.seed = _convert(diags, "--seed", namespace.seed, int, 0,
                                   non_negative, "an integer")
            config.workers = _convert(
                diags, "--workers", namespace.workers, int, 1,
                lambda v: None if v >= 1 else f"must be >= 1, got {v}", "an integer")
            config.outputs["perturb"] = namespace.out or "perturb_report.csv"

    elif command == "evaluate":
        config.placements = _load_file(diags, file_diags, "--placements",
                                       namespace.placements,
                                       design_mod.read_placements, required=True)
        if namespace.lambda_range is None:
            diags.append("--lambda-range is required for this command (start:stop:step nm)")
        config.lambda_range = _convert(
            diags, "--lambda-range", namespace.lambda_range, _parse_triplet, None,
            _range_check("lambda"), "start:stop:step in nm")
        config.lpg_bandwidth_nm = _convert(
            diags, "--lpg-bandwidth-nm", namespace.lpg_bandwidth_nm, finite_float, 20.0,
            positive, "a bandwidth in nm")
        config.outputs["curve"] = namespace.out or "delay_curve.csv"

    elif command == "rf-response":
        config.placements = _load_file(diags, file_diags, "--placements",
                                       namespace.placements,
                                       design_mod.read_placements, required=True)
        if namespace.length_km is None:
            diags.append("--length-km is required for this command")
        config.length_km = _convert(diags, "--length-km", namespace.length_km,
                                    finite_float, 1.0, positive, "a length in km")
        if namespace.f_range is None:
            diags.append("--f-range is required for this command (start:stop:step GHz)")
        config.f_range = _convert(diags, "--f-range", namespace.f_range,
                                  _parse_triplet, None, _range_check("f"),
                                  "start:stop:step in GHz")
        if namespace.lambda_nm is not None:
            config.lambda0_nm = _convert(diags, "--lambda-nm", namespace.lambda_nm,
                                         finite_float, 1550.0, positive, "a wavelength in nm")
        elif config.placements is not None:
            config.lambda0_nm = config.placements.lambda0_um * 1e3
        if namespace.amplitudes is not None:
            try:
                config.amplitudes = tuple(
                    finite_float(p) for p in namespace.amplitudes.split(","))
            except ValueError:
                diags.append(
                    f"--amplitudes: expected comma-separated finite numbers, got "
                    f"'{namespace.amplitudes}'")
            else:
                if any(a < 0 for a in config.amplitudes):
                    diags.append("--amplitudes: values must be >= 0")
                if (config.placements is not None
                        and len(config.amplitudes) != config.placements.n_samples):
                    diags.append(
                        f"--amplitudes: {len(config.amplitudes)} values for "
                        f"{config.placements.n_samples} samples")
        config.outputs["rf"] = namespace.out or "rf_response.csv"

    file_diags.sort()
    diags.extend(f"{source}:{line}: {message}" for source, line, message in file_diags)
    if diags:
        raise ConfigError(diags)
    return config


def _grid(start, stop, step):
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return np.array([start + k * step for k in range(count)])


def _resolve(config, key):
    path = Path(config.outputs[key])
    return path if path.is_absolute() else config.out_dir / path


def _design_report(config, solution, positions):
    lines = ["delay line design report", "=" * 24, ""]
    lines.append(f"samples              : {solution.n_samples}")
    lines.append(f"center wavelength    : {fmt_float(solution.lambda0_um * 1e3)} nm")
    lines.append(f"delay step           : {fmt_float(solution.delta_tau_ps_per_km)} ps/km")
    if solution.delta_d_ps_per_km_nm is not None:
        lines.append(
            f"dispersion increment : {solution.delta_d_ps_per_km_nm:.4f} ps/(km nm)"
        )
    lines.append("")
    lines.append("normalized segment lengths")
    for name, value in solution.lengths.items():
        lines.append(f"  {name:8s} = {value:.6f}")
    lines.append("")
    reference = modes_mod.format_mode_label(*solution.reference_mode)
    lines.append(f"per-sample equivalents (delays relative to {reference})")
    lines.append("  sample   tau_eq [ps/km]   D_eq [ps/(km nm)]")
    for index in range(solution.n_samples):
        tau = solution.tau_eq_ps_per_km[index]
        if solution.d_eq_ps_per_km_nm is not None:
            disp = f"{solution.d_eq_ps_per_km_nm[index]: 14.4f}"
        else:
            disp = "        --"
        lines.append(f"  {index + 1:>6}   {tau:14.4f}   {disp}")
    lines.append("")
    lines.append(f"grating positions for L = {fmt_float(config.length_km)} km")
    lines.append("  #   conversion     z [km]")
    for entry in positions:
        lines.append(
            f"  {entry.junction:<3} {entry.from_mode}->{entry.to_mode:<6} {entry.z_km:.6f}"
        )
    return "\n".join(lines) + "\n"


def run_pipeline(config):
    """Execute the configured stage and write its artifacts atomically."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.command in ("design", "perturb"):
        targets = design_mod.DesignTargets(
            delta_tau_ps_per_km=config.delta_tau,
            lambda0_um=config.mode_table.lambda0_um,
            dispersion_rule=config.dispersion_rule,
            fixed_delta_d_ps_per_km_nm=config.fixed_delta_d,
            reference_mode=config.reference_mode,
        )
    if config.command == "solve-modes":
        table = modes_mod.solve_mode_table(
            config.profile,
            um_from_nm(config.lambda0_nm),
            dlambda_um=config.dlambda_nm / 1e3,
            scan_points=config.scan_points,
            root_tol=config.root_tol,
        )
        out = _resolve(config, "modes")
        modes_mod.write_mode_table(table, out)
        separations = table.neff_separations()
        gap = f", min n_eff separation {separations.min():.2e}" if len(table) > 1 else ""
        print(f"wrote {out} ({len(table)} modes at {fmt_float(config.lambda0_nm)} nm{gap})")

    elif config.command == "design":
        system = design_mod.assemble_constraints(config.graph, config.mode_table, targets)
        solution = design_mod.solve_placements(system)
        positions = design_mod.lpg_positions(solution, config.graph, config.length_km)
        placements_path = _resolve(config, "placements")
        positions_path = _resolve(config, "positions")
        report_path = _resolve(config, "report")
        design_mod.write_placements(solution, placements_path)
        design_mod.write_positions(positions, positions_path)
        atomic_write_text(report_path, _design_report(config, solution, positions))
        summary = f"delay step {fmt_float(solution.delta_tau_ps_per_km)} ps/km"
        if solution.delta_d_ps_per_km_nm is not None:
            summary += f", dispersion increment {solution.delta_d_ps_per_km_nm:.4f} ps/(km nm)"
        print(f"wrote {placements_path}, {positions_path}, {report_path} ({summary})")

    elif config.command == "evaluate":
        start, stop, step = config.lambda_range
        grid = _grid(start, stop, step)
        curve = evaluate_mod.delay_curve(config.placements, grid)
        out = _resolve(config, "curve")
        evaluate_mod.write_delay_curve(curve, out)
        report = evaluate_mod.tunability_report(
            config.placements, start, stop, config.lpg_bandwidth_nm
        )
        print(
            f"wrote {out} ({len(grid)} wavelengths; differential delay "
            f"{report.min_differential_ps_per_km:.2f} to "
            f"{report.max_differential_ps_per_km:.2f} ps/km)"
        )
        if report.bandwidth_exceeded:
            print(
                f"warning: range [{fmt_float(start)}, {fmt_float(stop)}] nm exceeds the "
                f"{fmt_float(config.lpg_bandwidth_nm)} nm grating bandwidth around "
                f"{fmt_float(config.placements.lambda0_um * 1e3)} nm"
            )

    elif config.command == "rf-response":
        delays = evaluate_mod.tap_delays_ps(
            config.placements, config.length_km, config.lambda0_nm
        )
        amplitudes = (
            np.asarray(config.amplitudes)
            if config.amplitudes is not None
            else np.ones(config.placements.n_samples)
        )
        start, stop, step = config.f_range
        grid = _grid(start, stop, step)
        result = evaluate_mod.rf_response(delays, amplitudes, grid)
        out = _resolve(config, "rf")
        evaluate_mod.write_rf_response(result, out)
        fsr = f"{result.fsr_ghz:.4f} GHz" if result.fsr_ghz is not None else "n/a (non-uniform taps)"
        print(f"wrote {out} ({len(grid)} frequencies; FSR {fsr})")

    elif config.command == "perturb":
        report = design_mod.perturb_and_redesign(
            config.graph, config.mode_table, targets,
            sigma=config.sigma, trials=config.trials, seed=config.seed,
            workers=config.workers,
        )
        out = _resolve(config, "perturb")
        atomic_write_text(out, report.to_csv())
        print(
            f"wrote {out} ({config.trials} trials; feasible fraction "
            f"{fmt_float(report.feasible_fraction)}, median max |dl| "
            f"{fmt_float(report.median_max_abs_delta_length)})"
        )
    else:  # pragma: no cover - parse_config guards the command set
        raise ValueError(f"unknown command '{config.command}'")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except ConfigError as err:
        for diagnostic in err.diagnostics:
            print(diagnostic, file=sys.stderr)
        return 2
    try:
        run_pipeline(config)
    except (design_mod.DesignError, ModeSolverError, MaterialError,
            evaluate_mod.EvaluationError, evaluate_mod.DegenerateFilterError,
            FileFormatError, ValueError, OSError) as err:
        print(f"{config.command}: {err}", file=sys.stderr)
        return 1
    return 0


def console_main():  # pragma: no cover - thin wrapper for the entry point
    sys.exit(main())
