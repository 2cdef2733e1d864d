"""Command-line front end: solve-modes, design, evaluate, rf-response, perturb.

Every flag is declared once, in the table _FLAGS: its RunConfig field and
commands, how its text converts, the range rule it must pass (the library's
own, from fileio, modes or design) and when it is required.  The parser and
parse_config loop over that table; the defaults are RunConfig's.

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
from typing import Callable, NamedTuple

import numpy as np

from . import design as design_mod
from . import evaluate as evaluate_mod
from . import fileio
from . import modes as modes_mod
from .fileio import FileFormatError, atomic_write_text, finite_float, fmt_float, um_from_nm
from .materials import load_profile
from .modes import ModeSolverError, parse_mode_label

OUT_DIR_ENV = "FMF_TTDL_OUT"


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


def _out_dir(raw):
    return Path(raw or os.environ.get(OUT_DIR_ENV, "."))


def _triplet(raw):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(raw)
    return tuple(finite_float(p) for p in parts)


def _always(config):
    return True


class _Flag(NamedTuple):
    """One flag: the RunConfig field it sets, for its commands.

    Text that convert rejects draws "expected <expected>, got '<text>'", or
    convert's own message where expected is empty; a value that rule rejects
    draws the rule's problem; a missing flag draws "is required <when>" where
    required(config) holds.  An output flag maps each command to (outputs key,
    default file name).
    """

    flag: str
    field: str
    commands: tuple | dict
    convert: Callable = finite_float
    expected: str = ""
    rule: Callable | None = None
    required: Callable | None = None
    when: str = "for this command"


_DESIGNS = ("design", "perturb")

# --out-dir comes first: it belongs to every command, in the order they are listed.  File
# loaders are looked up when called, so a wrapper put on a module attribute sees each load.
_FLAGS = (
    _Flag("--out-dir", "out_dir", ("solve-modes", "design", "evaluate", "rf-response", "perturb"),
          _out_dir),
    _Flag("--profile", "profile", ("solve-modes",), lambda raw: load_profile(Path(raw)),
          required=_always),
    _Flag("--modes", "mode_table", _DESIGNS, lambda raw: modes_mod.read_mode_table(Path(raw)),
          required=_always),
    _Flag("--graph", "graph", _DESIGNS, lambda raw: design_mod.load_graph(Path(raw)),
          required=_always),
    _Flag("--dtau", "delta_tau", _DESIGNS, finite_float, "a delay step in ps/km",
          fileio.positive, _always),
    _Flag("--dispersion-rule", "dispersion_rule", _DESIGNS,
          lambda raw: raw or design_mod.MAXIMIZE_DISPERSION, rule=design_mod.dispersion_rule_rule),
    _Flag("--fixed-dd", "fixed_delta_d", _DESIGNS, finite_float, "a dispersion step",
          required=lambda config: config.dispersion_rule == design_mod.FIXED_DISPERSION,
          when="when --dispersion-rule is 'fixed'"),
    _Flag("--reference-mode", "reference_mode", _DESIGNS, parse_mode_label),
    _Flag("--placements", "placements", ("evaluate", "rf-response"),
          lambda raw: design_mod.read_placements(Path(raw)), required=_always),
    _Flag("--lambda-range", "lambda_range", ("evaluate",), _triplet, "start:stop:step in nm",
          fileio.span_rule, _always, "for this command (start:stop:step nm)"),
    _Flag("--lpg-bandwidth-nm", "lpg_bandwidth_nm", ("evaluate",), finite_float,
          "a bandwidth in nm", fileio.positive),
    _Flag("--length-km", "length_km", ("design", "rf-response"), finite_float, "a length in km",
          fileio.positive, lambda config: config.command == "rf-response"),
    _Flag("--f-range", "f_range", ("rf-response",), _triplet, "start:stop:step in GHz",
          fileio.span_rule, _always, "for this command (start:stop:step GHz)"),
    _Flag("--lambda-nm", "lambda0_nm", ("solve-modes", "rf-response"), finite_float,
          "a wavelength in nm", fileio.positive),
    _Flag("--amplitudes", "amplitudes", ("rf-response",),
          lambda raw: tuple(finite_float(p) for p in raw.split(",")),
          "comma-separated finite numbers"),
    _Flag("--dlambda-nm", "dlambda_nm", ("solve-modes",), finite_float, "a step in nm",
          fileio.positive),
    _Flag("--scan-points", "scan_points", ("solve-modes",), int, "an integer",
          modes_mod.scan_points_rule),
    _Flag("--root-tol", "root_tol", ("solve-modes",), finite_float, "a tolerance",
          modes_mod.root_tol_rule),
    _Flag("--sigma", "sigma", ("perturb",), finite_float, "a relative deviation",
          fileio.non_negative, _always),
    _Flag("--trials", "trials", ("perturb",), int, "an integer", design_mod.trials_rule),
    _Flag("--seed", "seed", ("perturb",), int, "an integer", fileio.non_negative),
    _Flag("--workers", "workers", ("perturb",), int, "an integer", fileio.at_least(1)),
    _Flag("--out", "outputs", {"solve-modes": ("modes", "modes.csv"),
                               "evaluate": ("curve", "delay_curve.csv"),
                               "rf-response": ("rf", "rf_response.csv"),
                               "perturb": ("perturb", "perturb_report.csv")}),
    _Flag("--out-placements", "outputs", {"design": ("placements", "placements.csv")}),
    _Flag("--out-positions", "outputs", {"design": ("positions", "lpg_positions.csv")}),
    _Flag("--out-report", "outputs", {"design": ("report", "design_report.txt")}),
)


def _build_parser():
    parser = _Parser(prog="fmf-ttdl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    commands = {name: sub.add_parser(name) for name in _FLAGS[0].commands}
    for spec in _FLAGS:
        for name in spec.commands:
            commands[name].add_argument(spec.flag, type=str)
    return parser


def parse_config(argv):
    """Validate argv (and every referenced file) into a RunConfig.

    Raises ConfigError carrying every failure, not just the first.
    """
    namespace, extras = _build_parser().parse_known_args(argv)
    diags = [f"unknown argument: {extra}" for extra in extras]
    file_diags = []
    command = namespace.command
    if command is None:
        raise ConfigError([f"missing command (expected one of: {', '.join(_FLAGS[0].commands)})"])

    config = RunConfig(command=command, out_dir=_out_dir(None))
    for spec in (spec for spec in _FLAGS if command in spec.commands):
        raw = getattr(namespace, spec.flag[2:].replace("-", "_"))
        if spec.field == "outputs":
            key, default = spec.commands[command]
            config.outputs[key] = raw or default
            continue
        if raw is None:
            if spec.required and spec.required(config):
                diags.append(f"{spec.flag} is required {spec.when}")
            continue
        try:
            value = spec.convert(raw)
        except FileFormatError as exc:
            file_diags.extend((exc.source, line, message) for line, message in exc.diagnostics)
            continue
        except FileNotFoundError:
            diags.append(f"{spec.flag}: no such file: {Path(raw)}")
            continue
        except OSError as exc:
            diags.append(f"{spec.flag}: cannot read {Path(raw)}: {exc}")
            continue
        except ValueError as exc:
            diags.append(f"{spec.flag}: expected {spec.expected}, got '{raw}'" if spec.expected
                         else f"{spec.flag}: {exc}")
            continue
        problem = spec.rule(value) if spec.rule else None
        if problem:
            diags.append(f"{spec.flag}: {problem}")
        else:
            setattr(config, spec.field, value)

    placements = config.placements
    if command == "rf-response" and namespace.lambda_nm is None and placements is not None:
        config.lambda0_nm = placements.lambda0_um * 1e3
    if config.amplitudes is not None:
        n_taps = getattr(placements, "n_samples", None)  # no count check without placements
        diags.extend(f"--amplitudes: {problem}"
                     for problem in evaluate_mod.amplitude_problems(config.amplitudes, n_taps))

    file_diags.sort()
    diags.extend(f"{source}:{line}: {message}" for source, line, message in file_diags)
    if diags:
        raise ConfigError(diags)
    return config


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
        start, stop, _ = config.lambda_range
        grid = np.array(fileio.grid_points(*config.lambda_range))
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
        grid = np.array(fileio.grid_points(*config.f_range))
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
    except (design_mod.DesignError, ModeSolverError, evaluate_mod.EvaluationError,
            ValueError, OSError) as err:  # file, material and filter errors are ValueErrors
        print(f"{config.command}: {err}", file=sys.stderr)
        return 1
    return 0


def console_main():  # pragma: no cover - thin wrapper for the entry point
    sys.exit(main())
