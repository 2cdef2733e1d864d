"""Spans around the public functions of fmf_ttdl, recorded from outside.

`Tracer.install()` wraps each function listed in LAYER_FUNCTIONS and puts
the wrapper under every name in the fmf_ttdl package that binds the
function (for example both `modes.solve_mode_table` and
`evaluate.solve_mode_table`), so calls made inside the package are traced
too.  A span is (name, start, end, parent, tag, error, op); spans stay in
memory and are handed out by `Tracer.dump()` at the end.

The characteristic-function kernel `modes._char_values` runs thousands of
times per solve, so it is counted (calls, trial points, seconds) instead of
being recorded as spans; its time stays inside the self time of the
`modes` span that called it.

`layer_metrics()` turns spans from any number of processes into the
per-layer metrics of BENCHMARK.json.  This module uses the standard
library only.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = ("cli", "fileio", "materials", "modes", "design", "evaluate")

LAYER_FUNCTIONS = {
    "cli": ("main", "parse_config", "run_pipeline"),
    "fileio": ("atomic_write_text",),
    "materials": ("load_profile", "material_index"),
    "modes": ("find_modes", "solve_mode_table", "sweep_modes", "read_mode_table",
              "write_mode_table"),
    "design": ("load_graph", "read_placements", "assemble_constraints",
               "solve_placements", "perturb_and_redesign", "lpg_positions",
               "write_placements", "write_positions"),
    "evaluate": ("delay_curve", "sample_delays_numeric", "tunability_report",
                 "tap_delays_ps", "rf_response", "write_delay_curve",
                 "write_rf_response"),
}

KERNEL = ("modes", "_char_values")


def _solve_path(system):
    """'direct' when the ConstraintSystem is square (one linear solve), else 'lp'."""
    rows, cols = system.matrix.shape
    ncols = len(system.variables) + (1 if system.optimize_dispersion else 0)
    return "direct" if rows == ncols and cols == ncols and rows > 0 else "lp"


def _tag(name, args, kwargs, result):
    if name == "design.solve_placements":
        return _solve_path(args[0] if args else kwargs["system"])
    if name == "fileio.atomic_write_text":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return len(text.encode())
    if name in ("modes.find_modes", "modes.sweep_modes") and result is not None:
        return len(result)  # modes found; wavelengths swept
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self.op = None
        self.kernel_calls = 0
        self.kernel_points = 0
        self.kernel_seconds = 0.0
        self._stack = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                tag = _tag(name, args, kwargs, result)
                self.spans[index] = (name, start, end, parent, tag, error, self.op)

        return wrapper

    def _wrap_kernel(self, fn):
        @functools.wraps(fn)
        def wrapper(geometry, l, n_eff):
            if not self.active:
                return fn(geometry, l, n_eff)
            start = time.perf_counter()
            values = fn(geometry, l, n_eff)
            self.kernel_seconds += time.perf_counter() - start
            self.kernel_calls += 1
            self.kernel_points += len(values)
            return values

        return wrapper

    def install(self):
        """Wrap every listed function under every name that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fmf_ttdl" or n.startswith("fmf_ttdl."))]
        targets = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"fmf_ttdl.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is not None:
                    targets.append((fn, self._wrap(f"{layer}.{name}", fn)))
        kernel = getattr(sys.modules.get(f"fmf_ttdl.{KERNEL[0]}"), KERNEL[1], None)
        if kernel is not None:
            targets.append((kernel, self._wrap_kernel(kernel)))
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self):
        return {
            "spans": [list(span) for span in self.spans if span is not None],
            "kernel": [self.kernel_calls, self.kernel_points, self.kernel_seconds],
        }


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i]
            for i, (name, start, end, *_rest) in enumerate(spans)]


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def _collect(dumps):
    """Spans of several processes grouped by function name."""
    durations, selfs, counted = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    kernel = [0, 0.0]  # trial points, seconds
    for dump in dumps:
        spans = [tuple(span) for span in dump["spans"]]
        for (name, start, end, parent, tag, error, op), self_s in zip(spans, self_times(spans)):
            durations.setdefault(name, []).append((end - start, tag))
            selfs.setdefault(name, []).append(self_s)
            if op is not None:  # counts and shares cover operations, not set-up
                counted.setdefault(name, []).append((tag, error))
                layer_self[name.split(".")[0]] += self_s
        kernel[0] += dump["kernel"][1]
        kernel[1] += dump["kernel"][2]
    return durations, selfs, counted, layer_self, kernel


def layer_metrics(dumps, probe, ops, op_wall_s, import_s, startup_s, outside_cli=False):
    """Per-layer metrics from the span dumps of one or more processes.

    dumps: Tracer.dump() results of the workload; span indices are local to
    each dump.  probe: the dump of probe.py, the source of a per-call time
    of any function the workload never called.
    ops: number of traced operations, the base of every per-op count.
    op_wall_s: summed wall time of those operations, the base of the
    `<layer>.self_share` metrics.  With outside_cli (the CLI workload, where
    op_wall_s sums the stage processes' wall times) the time outside every
    span, interpreter start-up and package import included, counts as `cli`;
    otherwise it is harness time and belongs to no layer.
    import_s / startup_s: measured import and bare-interpreter times.
    """
    durations, selfs, counted, layer_self, kernel = _collect(dumps)
    probe_durations, probe_selfs, _, _, probe_kernel = _collect([probe])
    ops = max(ops, 1)

    def ms(name, path=None):
        def pick(source):
            return [d for d, tag in source.get(name, []) if path in (None, tag)]
        return _median_ms(pick(durations) or pick(probe_durations))

    def self_ms(name):
        return _median_ms(selfs.get(name) or probe_selfs.get(name, []))

    solve = counted.get("design.solve_placements", [])
    written = sum(tag for tag, _ in counted.get("fileio.atomic_write_text", []))
    found = sum(tag or 0 for tag, _ in counted.get("modes.find_modes", []))
    material_calls = len(counted.get("materials.material_index", []))

    metrics = {
        "cli.python_startup_s": startup_s,
        "cli.import_s": import_s,
        "cli.parse_config_ms": ms("cli.parse_config"),
        "cli.run_pipeline_self_ms": self_ms("cli.run_pipeline"),
        "fileio.atomic_write_text_ms": ms("fileio.atomic_write_text"),
        "fileio.bytes_written": written / ops,
        "materials.load_profile_ms": ms("materials.load_profile"),
        "materials.material_index_calls": material_calls / ops,
        "materials.material_index_ms": ms("materials.material_index"),
        "modes.find_modes_ms": ms("modes.find_modes"),
        "modes.solve_mode_table_ms": ms("modes.solve_mode_table"),
        "modes.solve_mode_table_self_ms": self_ms("modes.solve_mode_table"),
        "modes.characteristic_value_us":
            1e6 * (kernel[1] / kernel[0] if kernel[0] else probe_kernel[1] / probe_kernel[0]),
        "modes.sweep_modes_ms_per_lambda": _median_ms(
            [d / count for d, count in durations.get("modes.sweep_modes")
             or probe_durations.get("modes.sweep_modes", []) if count]),
        "modes.modes_found": found / ops,
        "modes.read_mode_table_ms": ms("modes.read_mode_table"),
        "modes.write_mode_table_ms": ms("modes.write_mode_table"),
        "design.load_graph_ms": ms("design.load_graph"),
        "design.read_placements_ms": ms("design.read_placements"),
        "design.assemble_constraints_ms": ms("design.assemble_constraints"),
        "design.solve_placements_direct_ms": ms("design.solve_placements", "direct"),
        "design.solve_placements_lp_ms": ms("design.solve_placements", "lp"),
        "design.solve_placements_calls": len(solve) / ops,
        "design.infeasible_ratio":
            sum(1 for _, error in solve if error) / len(solve) if solve else 0.0,
        "design.perturb_and_redesign_self_ms": self_ms("design.perturb_and_redesign"),
        "design.lpg_positions_ms": ms("design.lpg_positions"),
        "design.write_placements_ms": ms("design.write_placements"),
        "evaluate.delay_curve_ms": ms("evaluate.delay_curve"),
        "evaluate.sample_delays_numeric_self_ms": self_ms("evaluate.sample_delays_numeric"),
        "evaluate.tunability_report_ms": ms("evaluate.tunability_report"),
        "evaluate.rf_response_ms": ms("evaluate.rf_response"),
        "evaluate.write_delay_curve_ms": ms("evaluate.write_delay_curve"),
        "evaluate.write_rf_response_ms": ms("evaluate.write_rf_response"),
    }
    if outside_cli:
        layer_self["cli"] += max(0.0, op_wall_s - sum(layer_self.values()))
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / op_wall_s if op_wall_s else 0.0
    return metrics
