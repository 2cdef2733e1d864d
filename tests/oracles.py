"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's own solution paths: the two-layer
mode relation is the textbook eigenvalue equation (not a transfer matrix),
the placement oracle is a literal hand-built matrix, and the dispersion
maximization oracle is an exhaustive grid search.  Two oracles check
batching instead and reuse the package's kernels: the perturbation oracle
designs each perturbed table alone with the single-design path, and the
per-order mode search scans and bisects one order at one wavelength at a
time, against which the solver's one lockstep bisection per solve must give
the same floats and the same errors.  The per-line profile and graph parsers
read a file one line at a time with a "current section" state machine, and
the package's section-file parsers must give the same values and the same
diagnostics.  The nm -> um conversion that tries the quotient's two
neighbours must give the same double as the package's plain quotient.  The
group index of a mode comes from the Hellmann-Feynman theorem, an integral
over its field with the analytic derivative of the Sellmeier sum, where the
package takes central differences of n_eff(lambda).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import scipy.special as sp
from scipy.optimize import bisect

from fmf_ttdl.design import (
    ConversionGraph,
    DesignError,
    PerturbationTrial,
    RobustnessReport,
    assemble_constraints,
    solve_placements,
    _parse_segment,
)
from fmf_ttdl import materials, modes
from fmf_ttdl.fileio import FileFormatError, finite_float, um_from_nm
from fmf_ttdl.materials import SCALED_SILICA, FiberProfile, Layer, MaterialModel, kind_rule
from fmf_ttdl.modes import ModeRecord, ModeTable


def two_layer_lp_roots(n_core, n_clad, radius_um, wavelength_um, azimuthal,
                       samples=6000):
    """Roots of u J_{l+1}(u) K_l(w) = w K_{l+1}(w) J_l(u), descending n_eff."""
    k0 = 2.0 * np.pi / wavelength_um

    def g(n_eff):
        u = radius_um * k0 * np.sqrt(n_core**2 - n_eff**2)
        w = radius_um * k0 * np.sqrt(n_eff**2 - n_clad**2)
        return (
            u * sp.jv(azimuthal + 1, u) * sp.kv(azimuthal, w)
            - w * sp.kv(azimuthal + 1, w) * sp.jv(azimuthal, u)
        )

    grid = np.linspace(n_clad + 1e-7, n_core - 1e-7, samples)
    values = np.array([g(x) for x in grid])
    roots = []
    for i in range(samples - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            roots.append(float(bisect(g, grid[i], grid[i + 1], xtol=1e-14)))
    return sorted(roots, reverse=True)


def two_layer_lp_modes(n_core, n_clad, radius_um, wavelength_um, max_azimuthal=16):
    """(l, n_eff) pairs for every guided mode of a step-index two-layer fiber."""
    out = []
    for azimuthal in range(max_azimuthal + 1):
        roots = two_layer_lp_roots(n_core, n_clad, radius_um, wavelength_um, azimuthal)
        if not roots:
            break
        out.extend((azimuthal, root) for root in roots)
    return out


# Table of (l, m, tau_rel, D) used by the literal placement oracle; matches
# tests/conftest.REFERENCE_MODE_ROWS.
_TAU = {"01": 0.0, "11": 3489.08, "21": 8182.33, "31": 13022.34,
        "02": 2858.64, "12": 8912.83, "41": 17412.05}
_DISP = {"01": 18.96, "11": 23.77, "21": 27.41, "31": 29.19,
         "02": 17.14, "12": 11.07, "41": 25.24}

PLACEMENT_VARIABLES = (
    "l02", "l12_1", "l12_2", "l01_2", "l41_2", "l12_3", "l11_3", "l31_3",
)


def reference_placement_oracle(delta_tau=100.0):
    """Solve the fully determined placement system written out by hand.

    Unknown order: l02, l12_1, l12_2, l01_2, l41_2, l12_3, l11_3, l31_3, dD.
    Returns (lengths dict, dD).
    """
    t, d = _TAU, _DISP
    a = np.zeros((9, 9))
    b = np.zeros(9)
    a[0, [0, 1]] = 1.0
    b[0] = 1.0
    a[1, [0, 2, 3, 4]] = 1.0
    b[1] = 1.0
    a[2, [0, 5, 6, 7]] = 1.0
    b[2] = 1.0
    # delay ladder between adjacent samples
    a[3, 1] = -t["12"]
    a[3, 2] = t["12"]
    a[3, 3] = t["01"]
    a[3, 4] = t["41"]
    b[3] = delta_tau
    a[4, 2] = -t["12"]
    a[4, 3] = -t["01"]
    a[4, 4] = -t["41"]
    a[4, 5] = t["12"]
    a[4, 6] = t["11"]
    a[4, 7] = t["31"]
    b[4] = delta_tau
    a[5, 0] = -t["02"]
    a[5, 5] = -t["12"]
    a[5, 6] = -t["11"]
    a[5, 7] = -t["31"]
    b[5] = delta_tau - t["21"]
    # equal dispersion increments with the increment as unknown 9
    a[6, 1] = -d["12"]
    a[6, 2] = d["12"]
    a[6, 3] = d["01"]
    a[6, 4] = d["41"]
    a[6, 8] = -1.0
    a[7, 2] = -d["12"]
    a[7, 3] = -d["01"]
    a[7, 4] = -d["41"]
    a[7, 5] = d["12"]
    a[7, 6] = d["11"]
    a[7, 7] = d["31"]
    a[7, 8] = -1.0
    a[8, 0] = -d["02"]
    a[8, 5] = -d["12"]
    a[8, 6] = -d["11"]
    a[8, 7] = -d["31"]
    a[8, 8] = -1.0
    b[8] = -d["21"]
    x = np.linalg.solve(a, b)
    return dict(zip(PLACEMENT_VARIABLES, x[:8])), float(x[8])


def grid_search_two_sample(tau, disp, sample_modes, delta_tau, step=1e-3):
    """Exhaustive dispersion-increment maximization for two-sample graphs.

    sample_modes: ((modes of sample 1), (modes of sample 2)) with the LAST
    variable of each sample eliminated through its normalization row and the
    first sample's leading variables gridded.  Only supports the shapes used
    in the tests: sample 1 with 2 or 3 segments, sample 2 with 2 segments.

    Returns (best dispersion increment, best full length vector) over the
    feasible grid.
    """
    modes1, modes2 = sample_modes
    t1 = np.array([tau[m] for m in modes1])
    d1 = np.array([disp[m] for m in modes1])
    t2 = np.array([tau[m] for m in modes2])
    d2 = np.array([disp[m] for m in modes2])
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    if len(modes1) == 2:
        free = axis[:, None]  # a; b = 1 - a
        first = np.concatenate([free, 1.0 - free], axis=1)
    elif len(modes1) == 3:
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        first = np.stack([aa.ravel(), bb.ravel(), 1.0 - aa.ravel() - bb.ravel()], axis=1)
    else:
        raise ValueError("oracle supports 2 or 3 segments in sample 1")
    # sample 2 has segments (c, d) with c + d = 1; the delay row fixes c:
    # t2[0] c + t2[1] (1 - c) - tau_sample1 = delta_tau
    tau1 = first @ t1
    denominator = t2[0] - t2[1]
    c = (delta_tau + tau1 - t2[1]) / denominator
    d_len = 1.0 - c
    stack = np.concatenate([first, c[:, None], d_len[:, None]], axis=1)
    feasible = np.all((stack >= -1e-9) & (stack <= 1.0 + 1e-9), axis=1)
    if not feasible.any():
        return None, None
    disp1 = first @ d1
    disp2 = c * d2[0] + d_len * d2[1]
    increments = disp2 - disp1
    increments = np.where(feasible, increments, -np.inf)
    best = int(np.argmax(increments))
    return float(increments[best]), stack[best]


def perturb_per_trial(graph, table, targets, sigma, trials, seed):
    """Per-trial reference for design.perturb_and_redesign.

    Trial k rebuilds the mode table record by record, drawing
    standard_normal(2) per mode from default_rng([seed, k]) to scale
    tau - tau_ref and D by (1 + sigma g), and designs that table alone.
    """
    nominal = solve_placements(assemble_constraints(graph, table, targets))
    reference = table.mode(*targets.reference_mode).tau_ps_per_km
    nan = float("nan")
    results = []
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        records = []
        for record in table.modes:
            g_tau, g_disp = rng.standard_normal(2)
            records.append(replace(
                record,
                tau_ps_per_km=(record.tau_ps_per_km - reference) * (1.0 + sigma * g_tau),
                dispersion_ps_per_km_nm=record.dispersion_ps_per_km_nm * (1.0 + sigma * g_disp),
            ))
        perturbed = ModeTable(tuple(records), table.lambda0_um)
        try:
            solution = solve_placements(assemble_constraints(graph, perturbed, targets))
        except DesignError:
            results.append(PerturbationTrial(index, False, nan, nan))
            continue
        deltas = [abs(solution.lengths[name] - nominal.lengths[name]) for name in nominal.lengths]
        delta_d = solution.delta_d_ps_per_km_nm
        results.append(PerturbationTrial(
            index, True, max(deltas, default=0.0), delta_d if delta_d is not None else nan
        ))
    return RobustnessReport(sigma=sigma, seed=seed, trials=tuple(results), nominal=nominal)


# --- per-order mode search ----------------------------------------------------

def _order_values(geometry, l, n_eff):
    """The characteristic function of order l on one geometry (modes._char_values)."""
    n_eff = np.asarray(n_eff, dtype=float)
    points = modes._points([geometry], [n_eff.size])
    return modes._char_values(points, np.full(n_eff.size, l), n_eff)


def _bisect_order(geometry, l, xa, xb, fa, xtol):
    """The brackets of one order bisected in lockstep, scipy.optimize.bisect's arithmetic."""
    roots = np.empty(xa.shape)
    pending = np.arange(xa.size)
    lower, dm = xa, xb - xa
    for _ in range(modes._BISECT_MAXITER):
        dm = dm * 0.5
        xm = xa + dm
        fm = _order_values(geometry, l, xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < xtol + modes._BISECT_RTOL * np.abs(xm))
        roots[pending[done]] = xm[done]
        still = ~done
        pending, xa, dm, fa = pending[still], xa[still], dm[still], fa[still]
        if not pending.size:
            return roots
    raise modes.BracketRefinementError(l, (lower[pending[0]], xb[pending[0]]))


def _grid_roots(geometry, l, grid, start, stop, xtol):
    """Roots bracketed by the cells of grid[start:stop], sorted descending."""
    points = grid[start:stop]
    values = _order_values(geometry, l, points)
    left, right = values[:-1], values[1:]
    roots = list(points[:-1][left == 0.0])
    if stop == len(grid) and values[-1] == 0.0:
        roots.append(points[-1])
    cells = np.flatnonzero(left * right < 0.0)
    if cells.size:
        roots.extend(_bisect_order(geometry, l, points[cells], points[cells + 1],
                                   left[cells], xtol))
    return sorted(map(float, roots), reverse=True)


def _order_roots(geometry, l, scan_points, root_tol):
    grid = modes._scan_grid(geometry, scan_points)
    if not grid.size:
        return []
    return _grid_roots(geometry, l, grid, 0, scan_points, root_tol * modes._REFINE_FACTOR)


def find_modes_per_order(profile, wavelength_um, scan_points=2000, root_tol=1e-12,
                         max_azimuthal=64):
    """modes.find_modes, one order after the other until the first without a root."""
    modes._check_search_params(scan_points, root_tol)
    geometry = modes._geometry(profile, wavelength_um)
    records = []
    if geometry.indices and max(geometry.indices) > geometry.n_clad + 2.0 * modes._EDGE_MARGIN:
        for l in range(max_azimuthal + 1):
            roots = _order_roots(geometry, l, scan_points, root_tol)
            if not roots:
                break
            records += [ModeRecord(l=l, m=m, n_eff=n_eff, lambda0_um=wavelength_um)
                        for m, n_eff in enumerate(roots, start=1)]
        else:
            warnings.warn(f"azimuthal scan stopped at l={max_azimuthal} with modes still guided")
    records.sort(key=lambda record: -record.n_eff)
    return ModeTable(tuple(records), wavelength_um)


def _probe_root(record, probe, root_tol):
    """The record's rank m among the roots of its order in a full scan of the probe's grid."""
    lam, geometry, grid = probe
    roots = []
    if grid.size:
        roots = _grid_roots(geometry, record.l, grid, 0, grid.size,
                            root_tol * modes._REFINE_FACTOR)
    if record.m > len(roots):
        raise modes.ModeContinuationError(f"mode {record.label} not resolvable at "
                                          f"{lam * 1e3} nm (cutoff crossed?)")
    return roots[record.m - 1]


def _probes(profile, lambda0_um, dlambda_um, scan_points):
    """(wavelength, geometry, scan grid) at lambda0 - dlambda, then lambda0 + dlambda."""
    probes = []
    for lam in (lambda0_um - dlambda_um, lambda0_um + dlambda_um):
        geometry = modes._geometry(profile, lam)
        probes.append((lam, geometry, modes._scan_grid(geometry, scan_points)))
    return probes


def _characterize(record, probes, lambda0_um, dlambda_um, root_tol):
    """(tau, D) of one record from its roots at both probes, the minus probe first."""
    n_minus, n_plus = (_probe_root(record, probe, root_tol) for probe in probes)
    return modes._tau_and_dispersion(n_minus, record.n_eff, n_plus, lambda0_um, dlambda_um)


def solve_mode_table_per_order(profile, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                               root_tol=1e-12):
    """modes.solve_mode_table, one mode and one probe at a time."""
    table = find_modes_per_order(profile, lambda0_um, scan_points, root_tol)
    if not table.modes:
        return table
    probes = _probes(profile, lambda0_um, dlambda_um, scan_points)
    filled = []
    for record in table.modes:
        tau, disp = _characterize(record, probes, lambda0_um, dlambda_um, root_tol)
        filled.append(replace(record, tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp))
    return ModeTable(tuple(filled), lambda0_um)


def tau_and_dispersion_per_order(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                                 root_tol=1e-12):
    """(modes.group_delay, modes.dispersion) from a scan of order l alone."""
    modes._check_search_params(scan_points, root_tol)
    roots = _order_roots(modes._geometry(profile, lambda0_um), l, scan_points, root_tol)
    if m > len(roots):
        raise modes.ModeContinuationError(
            f"mode {modes.format_mode_label(l, m)} not guided at {lambda0_um * 1e3} nm")
    probes = _probes(profile, lambda0_um, dlambda_um, scan_points)
    return _characterize(ModeRecord(l, m, roots[m - 1], lambda0_um), probes, lambda0_um,
                         dlambda_um, root_tol)


def sweep_modes_per_order(profile, start_nm, stop_nm, step_nm, scan_points=2000,
                          root_tol=1e-12):
    """modes.sweep_modes, one wavelength after the other."""
    if step_nm <= 0.0:
        raise ValueError(f"step must be > 0 nm, got {step_nm}")
    if stop_nm < start_nm:
        raise ValueError(f"stop {stop_nm} nm precedes start {start_nm} nm")
    count = int(math.floor((stop_nm - start_nm) / step_nm + 1e-9)) + 1
    tables = []
    for k in range(count):
        table = find_modes_per_order(profile, um_from_nm(start_nm + k * step_nm), scan_points,
                                     root_tol)
        modes._warn_lost(tables[-1].modes if tables else (), table)
        tables.append(table)
    return tables


# --- group index by the Hellmann-Feynman theorem ------------------------------

def _dn2_dlambda(sellmeier_terms, wavelength_um):
    """d(n^2)/dlambda of n^2 = 1 + sum B lam^2 / (lam^2 - C^2), per um."""
    lam2 = wavelength_um * wavelength_um
    return -2.0 * wavelength_um * sum(b * c * c / (lam2 - c * c) ** 2 for b, c in sellmeier_terms)


def _layer_dn2_dlambda(profile, position, wavelength_um):
    silica = _dn2_dlambda(materials.SILICA_SELLMEIER, wavelength_um)
    if position is None:
        return silica
    delta = profile.layers[position].delta
    if profile.cladding.kind == SCALED_SILICA:  # n_j = n_clad (1 + delta)
        return (1.0 + delta) ** 2 * silica
    fraction = materials._blend_fraction_for_delta(delta)
    return _dn2_dlambda(materials.terms(fraction), wavelength_um)


def _lommel(r, value, slope, s, l):
    """F(r) with F' = r R^2 for R'' + R'/r + (s - l^2/r^2) R = 0 (Watson, section 5.11)."""
    return 0.5 * r * r * (slope * slope / s + value * value) - l * l * value * value / (2.0 * s)


def group_index_hf(profile, l, n_eff, wavelength_um):
    """(n_g, power fraction of each layer and of the cladding) of the mode (l, n_eff).

    d(beta^2)/dk = <d(k^2 n^2)/dk> over R^2 r dr (Hellmann-Feynman), so
    n_g = sum_j w_j (n_j^2 - (lambda/2) d(n_j^2)/dlambda) / n_eff.  The field
    is the package's regular solution carried across the layers by its
    propagators, with the evanescent factor exp(q dr) that they drop put back;
    the cladding field is the K_l that matches R at the last boundary.  Each
    region's integral of R^2 r is the Lommel closed form at its ends.  A
    region where n_eff equals its index to within the power-law switch is not
    supported: there the 1/s terms of the closed form cancel.
    """
    geometry = modes._geometry(profile, wavelength_um)
    radii, order = geometry.radii, np.array([l])
    s = [geometry.k0**2 * (n * n - n_eff * n_eff) for n in geometry.indices]
    if any(abs(s_j) * r * r < modes._DEGENERATE_X2 for s_j, r in zip(s, radii)):
        raise ValueError(f"n_eff {n_eff} sits on a layer index: the closed form degenerates")
    state = modes._initial_state(order, np.array([s[0]]), radii[0])[0]
    power = [_lommel(radii[0], *state, s[0], l)]  # F(0) = 0
    for j in range(1, len(radii)):
        [[propagator]] = modes._propagator(order, np.array([s[j]]), radii[j - 1:j + 1])
        if s[j] < 0.0:
            propagator = propagator * math.exp(math.sqrt(-s[j]) * (radii[j] - radii[j - 1]))
        outer = propagator @ state
        power.append(_lommel(radii[j], *outer, s[j], l) - _lommel(radii[j - 1], *state, s[j], l))
        state = outer
    w = geometry.k0 * math.sqrt(n_eff * n_eff - geometry.n_clad**2)
    x = w * radii[-1]
    slope = state[0] * w * sp.kvp(l, x) / sp.kv(l, x)
    power.append(-_lommel(radii[-1], state[0], slope, -w * w, l))
    fractions = np.array(power) / sum(power)
    squares = [*(n * n for n in geometry.indices), geometry.n_clad**2]
    slopes = [*(_layer_dn2_dlambda(profile, j, wavelength_um) for j in range(len(radii))),
              _layer_dn2_dlambda(profile, None, wavelength_um)]
    n_g = sum(f * (n2 - 0.5 * wavelength_um * d) for f, n2, d in zip(fractions, squares, slopes))
    return n_g / n_eff, fractions


def tau_and_dispersion_hf(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                          root_tol=1e-12):
    """(tau ps/km, D ps/(km nm)) of LP_lm: tau from group_index_hf at lambda0, D as the
    central difference of that tau at lambda0 -/+ dlambda, each n_eff the m-th root of
    order l in a full scan at its wavelength."""
    def tau(lam):
        roots = _order_roots(modes._geometry(profile, lam), l, scan_points, root_tol)
        return group_index_hf(profile, l, roots[m - 1], lam)[0] * modes._PS_PER_KM_PER_INDEX

    slope = (tau(lambda0_um + dlambda_um) - tau(lambda0_um - dlambda_um)) / (2.0 * dlambda_um)
    return tau(lambda0_um), slope * 1e-3  # per um -> per nm


def iter_config_lines(text):
    """Yield (line_number, kind, payload) from a key=value / [section] file.

    kind is 'section' (payload: section name), 'pair' (payload: (key, value))
    or 'error' (payload: message).  Blank lines and '#' comments are skipped.
    """
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            yield number, "section", line[1:-1].strip()
        elif "=" in line:
            key, _, value = line.partition("=")
            yield number, "pair", (key.strip(), value.strip())
        else:
            yield number, "error", f"expected 'key = value' or '[section]', got {line!r}"


def parse_profile_per_line(text, source="<profile>"):
    """materials.parse_profile as a per-line state machine; a repeated top-level
    key silently overrides the one before it."""
    diagnostics = []
    name = ""
    kind = SCALED_SILICA
    layers, lines = [], []  # lines: the radius_um line of each layer
    current = None
    current_line = 0

    def flush():
        nonlocal current
        if current is None:
            return
        missing = [k for k in ("radius_um", "delta_percent") if k not in current]
        for key in missing:
            diagnostics.append((current_line, f"[layer] is missing '{key}'"))
        if not missing and None not in current.values():
            layers.append(Layer(current["radius_um"], current["delta_percent"] / 100.0))
            lines.append(current["radius_line"])
        current = None

    for number, entry_kind, payload in iter_config_lines(text):
        if entry_kind == "error":
            diagnostics.append((number, payload))
            continue
        if entry_kind == "section":
            if payload == "layer":
                flush()
                current = {}
                current_line = number
            else:
                diagnostics.append((number, f"unknown section '[{payload}]'"))
            continue
        key, value = payload
        if current is None:
            if key == "name":
                name = value
            elif key == "material_model":
                if problem := kind_rule(value):
                    diagnostics.append((number, f"material_model {problem}"))
                else:
                    kind = value
            else:
                diagnostics.append((number, f"unknown key '{key}'"))
        elif key in ("radius_um", "delta_percent"):
            if key in current:
                diagnostics.append((number, f"duplicate '{key}' in [layer]"))
                continue
            try:
                current[key] = finite_float(value)
            except ValueError as exc:
                diagnostics.append((number, f"{key}: {exc}"))
                current[key] = None  # present but rejected: not also "missing"
                continue
            if key == "radius_um":
                current["radius_line"] = number
        else:
            diagnostics.append((number, f"unknown key '{key}' in [layer]"))
    flush()

    diagnostics += [(lines[index], message) for index, message in FiberProfile.problems(layers)]
    if not layers and not diagnostics:
        diagnostics.append((1, "no [layer] sections found"))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    return FiberProfile(layers=tuple(layers), cladding=MaterialModel(kind=kind), name=name)


def parse_graph_per_line(text, source="<graph>"):
    """design.parse_graph as a per-line state machine."""
    diagnostics = []
    samples = []
    header_lines = []
    segment_lines = []
    current = None

    for number, kind, payload in iter_config_lines(text):
        if kind == "error":
            diagnostics.append((number, payload))
            continue
        if kind == "section":
            parts = payload.split()
            if len(parts) == 2 and parts[0] == "sample" and parts[1].isdigit():
                expected = len(samples) + 1
                if parts[1].lstrip("0") != str(expected):  # int() fails on "²", 5000 digits
                    diagnostics.append(
                        (number, f"expected [sample {expected}], got [sample {parts[1]}]")
                    )
                current = []
                samples.append(current)
                header_lines.append(number)
                segment_lines.append([])
            else:
                diagnostics.append((number, f"unknown section '[{payload}]'"))
            continue
        key, value = payload
        if key != "segment":
            diagnostics.append((number, f"unknown key '{key}'"))
            continue
        if current is None:
            diagnostics.append((number, "segment line before any [sample] section"))
            continue
        segment_lines[-1].append(number)
        try:
            current.append(_parse_segment(value))
        except ValueError as exc:
            diagnostics.append((number, str(exc)))
            current.append(None)  # keeps the checks from bridging the gap

    if not samples and not diagnostics:
        diagnostics.append((1, "no [sample] sections found"))
    for index, position, message in ConversionGraph.problems(samples):
        line = header_lines[index] if position is None else segment_lines[index][position]
        diagnostics.append((line, message))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    return ConversionGraph(tuple(samples))


def um_from_nm_with_neighbours(value_nm):
    """nm -> um preferring, among value_nm / 1000 and its two neighbours, one
    that multiplies back to value_nm exactly."""
    base = value_nm / 1000.0
    if base * 1000.0 == value_nm:
        return base
    for candidate in (math.nextafter(base, 0.0), math.nextafter(base, math.inf)):
        if candidate * 1000.0 == value_nm:
            return candidate
    return base
