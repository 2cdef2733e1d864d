"""Guided LP-mode solver for multilayer step/ring fiber profiles.

The scalar (weak-guidance) wave equation is solved per azimuthal order l by
propagating the radial field and its derivative across layer boundaries with
2x2 transfer matrices.  Inside each annulus the basis is J_l/Y_l where the
field oscillates (n_eff below the local index) and I_l/K_l where it is
evanescent; a power-law basis takes over in the narrow window where the
transverse wavenumber underflows, which keeps the characteristic function
continuous across basis switches.  Bessel derivatives come from the
order-lowering recurrences, so each basis function costs one special-function
call at orders l-1 and l.  The innermost region keeps only its regular
solution and the unbounded cladding only K_l; guided effective indices are
the zeros of the resulting boundary-matching determinant.

Roots are found on a uniform n_eff grid over the guided range: every sign
change between neighbouring grid points is a bracket, and all brackets of
one order are bisected in lockstep, one kernel call per step, with the
arithmetic of scipy.optimize.bisect (xtol = root_tol * _REFINE_FACTOR).

Group delay and chromatic dispersion per mode follow from central finite
differences of n_eff(lambda).  Mode identity across the probe wavelengths
lambda0 -/+ dlambda is kept by nearest-n_eff continuation within
_CONTINUATION_WINDOW; each probe scans only the cells of its own grid that
cover that window, which yields the root a scan of the whole grid would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fileio import (
    FileFormatError,
    atomic_write_text,
    csv_text,
    finite_float,
    fmt_float,
    read_csv,
    um_from_nm,
)

_C_M_PER_S = 299_792_458.0  # exact by the SI definition of the metre
_C_KM_PER_S = _C_M_PER_S / 1000.0
_PS_PER_KM_PER_INDEX = 1.0e12 / _C_KM_PER_S   # group index -> ps/km
_DISPERSION_SCALE = 1.0e9 / _C_KM_PER_S       # um * um^-2 curvature -> ps/(km nm)

_EDGE_MARGIN = 1e-7        # stay clear of the K_l / Y_l singular limits
_DEGENERATE_X2 = 1e-12     # (|u| r)^2 below which the power-law basis is used
_REFINE_FACTOR = 0.01      # bisection xtol = root_tol * this
_BISECT_RTOL = 4.0 * np.finfo(float).eps  # scipy.optimize.bisect's default rtol
_BISECT_MAXITER = 100
_CONTINUATION_WINDOW = 2e-4  # largest accepted n_eff jump when tracking a mode

MODE_TABLE_HEADER = "l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm"


class ModeSolverError(RuntimeError):
    """Mode search or continuation failure."""


class BracketRefinementError(ModeSolverError):
    def __init__(self, azimuthal, bracket):
        self.azimuthal = azimuthal
        self.bracket = bracket
        super().__init__(
            f"bisection failed for l={azimuthal} in bracket "
            f"({bracket[0]!r}, {bracket[1]!r})"
        )


class ModeContinuationError(ModeSolverError):
    """A tracked mode disappeared (cutoff crossed) at a probe wavelength."""


def format_mode_label(l, m):
    return f"LP{l}{m}" if l < 10 and m < 10 else f"LP{l}_{m}"


def parse_mode_label(text):
    token = text.strip().upper()
    if not token.startswith("LP"):
        raise ValueError(f"mode label must look like 'LP01', got '{text}'")
    body = token[2:]
    if "_" in body:
        left, _, right = body.partition("_")
    elif len(body) == 2:
        left, right = body[0], body[1]
    else:
        raise ValueError(f"mode label must look like 'LP01' or 'LP10_1', got '{text}'")
    if not (left.isdigit() and right.isdigit()):
        raise ValueError(f"mode label must look like 'LP01', got '{text}'")
    l, m = int(left), int(right)
    if m < 1:
        raise ValueError(f"radial order must be >= 1, got '{text}'")
    return l, m


@dataclass(frozen=True)
class ModeRecord:
    l: int
    m: int
    n_eff: float
    lambda0_um: float
    tau_ps_per_km: float | None = None
    dispersion_ps_per_km_nm: float | None = None

    @property
    def label(self):
        return format_mode_label(self.l, self.m)


@dataclass(frozen=True)
class ModeTable:
    """Guided modes at one wavelength, sorted by strictly descending n_eff."""

    modes: tuple
    lambda0_um: float

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        problems = self.problems(self.modes)
        if problems:
            raise ValueError("; ".join(message for _, message in problems))

    @staticmethod
    def problems(records):
        """Defects of a record sequence as (row index, message), at most one a row.

        A row may name an invalid mode, repeat an earlier mode, or fail to lie
        strictly below the row above it in n_eff.
        """
        problems = []
        seen = set()
        for index, record in enumerate(records):
            above = records[index - 1] if index else None
            if record.l < 0 or record.m < 1:
                problems.append((index, f"invalid mode l = {record.l}, m = {record.m} "
                                        f"(needs l >= 0 and m >= 1)"))
            elif (record.l, record.m) in seen:
                problems.append((index, f"duplicate mode {record.label} in table"))
            elif above is not None and not above.n_eff > record.n_eff:
                problems.append((index, f"modes must be sorted strictly descending in n_eff "
                                        f"({above.label} vs {record.label})"))
            seen.add((record.l, record.m))
        return problems

    def __len__(self):
        return len(self.modes)

    def mode(self, l, m):
        for record in self.modes:
            if record.l == l and record.m == m:
                return record
        raise KeyError(f"mode {format_mode_label(l, m)} not in table")

    def labels(self):
        return tuple(record.label for record in self.modes)

    def neff_separations(self):
        values = np.array([record.n_eff for record in self.modes])
        return -np.diff(values)


@dataclass(frozen=True)
class _Geometry:
    radii: tuple
    indices: tuple
    n_clad: float
    k0: float


def _geometry(profile, wavelength_um):
    n_clad = profile.cladding_index(wavelength_um)
    indices = tuple(
        profile.layer_index(j, wavelength_um) for j in range(len(profile.layers))
    )
    radii = tuple(layer.radius_um for layer in profile.layers)
    return _Geometry(radii, indices, n_clad, 2.0 * math.pi / wavelength_um)


def _renormalize(state):
    scale = np.maximum(np.abs(state[:, 0]), np.abs(state[:, 1]))
    return state / scale[:, None]


def _with_derivative(bessel, l, x, lower_sign=1.0):
    """(f_l(x), f_l'(x)) for x > 0 from `bessel` at orders l and l-1.

    f_l' = lower_sign * f_{l-1} - (l/x) f_l holds with lower_sign = +1 for
    J, Y and I and -1 for K (Abramowitz & Stegun 9.1.27, 9.6.26), also for
    the exp(-/+x) scaled ive/kve since both sides carry the same factor.
    Y is the integer-order yn, which accepts the order -1 that l = 0 needs.
    """
    value = bessel(l, x)
    return value, lower_sign * bessel(l - 1, x) - (l / x) * value


def _initial_state(l, u2, radius):
    """(R, R') of the regular solution at the first boundary, per trial index."""
    import scipy.special as sp  # deferred: ~0.4 s to import; only mode solving needs it

    state = np.empty((u2.shape[0], 2))
    degenerate = np.abs(u2) * radius * radius < _DEGENERATE_X2
    oscillatory = (u2 > 0.0) & ~degenerate
    evanescent = (u2 < 0.0) & ~degenerate
    if oscillatory.any():
        q = np.sqrt(u2[oscillatory])
        j, jp = _with_derivative(sp.jv, l, q * radius)
        state[oscillatory, 0] = j
        state[oscillatory, 1] = q * jp
    if evanescent.any():
        q = np.sqrt(-u2[evanescent])
        i, ip = _with_derivative(sp.ive, l, q * radius)
        state[evanescent, 0] = i
        state[evanescent, 1] = q * ip
    if degenerate.any():
        state[degenerate, 0] = 1.0
        state[degenerate, 1] = l / radius
    return _renormalize(state)


def _propagator(l, u2, r_inner, r_outer):
    """Exact 2x2 propagator of (R, R') across one annulus, per trial index.

    Evanescent matrices carry scaled Bessel functions with the common
    exponential growth factored out; the dropped factor is positive so the
    determinant sign pattern is unaffected.
    """
    import scipy.special as sp  # deferred, as in _initial_state

    out = np.empty((u2.shape[0], 2, 2))
    degenerate = np.abs(u2) * r_outer * r_outer < _DEGENERATE_X2
    oscillatory = (u2 > 0.0) & ~degenerate
    evanescent = (u2 < 0.0) & ~degenerate

    if oscillatory.any():
        q = np.sqrt(u2[oscillatory])
        ends = np.array((q * r_inner, q * r_outer))
        (ja, jb), (jpa, jpb) = _with_derivative(sp.jv, l, ends)
        (ya, yb), (ypa, ypb) = _with_derivative(sp.yn, l, ends)
        # inverse at r_inner from the exact Wronskian: det M = 2 / (pi r)
        half_pi_r = 0.5 * math.pi * r_inner
        i00 = half_pi_r * q * ypa
        i01 = -half_pi_r * ya
        i10 = -half_pi_r * q * jpa
        i11 = half_pi_r * ja
        m00, m01 = jb, yb
        m10, m11 = q * jpb, q * ypb
        out[oscillatory, 0, 0] = m00 * i00 + m01 * i10
        out[oscillatory, 0, 1] = m00 * i01 + m01 * i11
        out[oscillatory, 1, 0] = m10 * i00 + m11 * i10
        out[oscillatory, 1, 1] = m10 * i01 + m11 * i11

    if evanescent.any():
        g = np.sqrt(-u2[evanescent])
        ends = np.array((g * r_inner, g * r_outer))
        (ia, ib), (ipa, ipb) = _with_derivative(sp.ive, l, ends)
        (ka, kb), (kpa, kpb) = _with_derivative(sp.kve, l, ends, -1.0)
        decay = np.exp(-2.0 * g * (r_outer - r_inner))
        # inverse at r_inner in the scaled basis: det = -1/r
        i00 = -r_inner * g * kpa
        i01 = r_inner * ka
        i10 = r_inner * g * ipa
        i11 = -r_inner * ia
        m00, m01 = ib, kb * decay
        m10, m11 = g * ipb, g * kpb * decay
        out[evanescent, 0, 0] = m00 * i00 + m01 * i10
        out[evanescent, 0, 1] = m00 * i01 + m01 * i11
        out[evanescent, 1, 0] = m10 * i00 + m11 * i10
        out[evanescent, 1, 1] = m10 * i01 + m11 * i11

    if degenerate.any():
        if l == 0:
            out[degenerate, 0, 0] = 1.0
            out[degenerate, 0, 1] = r_inner * math.log(r_outer / r_inner)
            out[degenerate, 1, 0] = 0.0
            out[degenerate, 1, 1] = r_inner / r_outer
        else:
            grow = (r_outer / r_inner) ** l
            out[degenerate, 0, 0] = 0.5 * (grow + 1.0 / grow)
            out[degenerate, 0, 1] = r_inner * (grow - 1.0 / grow) / (2.0 * l)
            out[degenerate, 1, 0] = l * (grow - 1.0 / grow) / (2.0 * r_outer)
            out[degenerate, 1, 1] = (r_inner / r_outer) * 0.5 * (grow + 1.0 / grow)
    return out


def _char_values(geometry, l, n_eff):
    import scipy.special as sp  # deferred, as in _initial_state

    n_eff = np.asarray(n_eff, dtype=float)
    k02 = geometry.k0 * geometry.k0
    state = _initial_state(
        l, k02 * (geometry.indices[0] ** 2 - n_eff**2), geometry.radii[0]
    )
    for j in range(1, len(geometry.radii)):
        u2 = k02 * (geometry.indices[j] ** 2 - n_eff**2)
        prop = _propagator(l, u2, geometry.radii[j - 1], geometry.radii[j])
        state = np.einsum("nij,nj->ni", prop, state)
        state = _renormalize(state)
    w = np.sqrt(k02 * (n_eff**2 - geometry.n_clad**2))
    k_val, k_deriv = _with_derivative(sp.kve, l, w * geometry.radii[-1], -1.0)
    a = state[:, 0] * w * k_deriv
    b = state[:, 1] * k_val
    scale = np.abs(a) + np.abs(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(scale > 0.0, (a - b) / np.where(scale > 0.0, scale, 1.0), 0.0)
    return values


def characteristic_value(profile, l, n_eff_trial, wavelength_um):
    """Scale-normalized boundary-matching determinant; zero at guided modes."""
    geometry = _geometry(profile, wavelength_um)
    if not geometry.indices:
        raise ValueError("profile has no layers")
    n_max = max(geometry.indices)
    if not (geometry.n_clad < n_eff_trial < n_max):
        raise ValueError(
            f"trial index {n_eff_trial} outside guided range "
            f"({geometry.n_clad}, {n_max})"
        )
    return float(_char_values(geometry, l, np.asarray([n_eff_trial]))[0])


def _scan_grid(geometry, scan_points):
    """The uniform n_eff grid that brackets every root, or None if nothing is guided."""
    lo = geometry.n_clad + _EDGE_MARGIN
    hi = max(geometry.indices) - _EDGE_MARGIN
    return np.linspace(lo, hi, scan_points) if hi > lo else None


def _bisect(geometry, l, xa, xb, fa, xtol):
    """Roots in the brackets [xa, xb], f(xa) = fa, all bisected in lockstep.

    Each bracket follows the arithmetic of scipy.optimize.bisect step for
    step (halve dm, xm = xa + dm, keep xa while fm*fa >= 0, stop at fm == 0
    or |dm| < xtol + rtol*|xm|), so the roots are the same to the bit; one
    kernel call per step evaluates every bracket still open.
    """
    roots = np.empty(xa.shape)
    pending = np.arange(xa.size)
    lower, dm = xa, xb - xa
    for _ in range(_BISECT_MAXITER):
        dm = dm * 0.5
        xm = xa + dm
        fm = _char_values(geometry, l, xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < xtol + _BISECT_RTOL * np.abs(xm))
        roots[pending[done]] = xm[done]
        still = ~done
        pending, xa, dm, fa = pending[still], xa[still], dm[still], fa[still]
        if not pending.size:
            return roots
    raise BracketRefinementError(l, (lower[pending[0]], xb[pending[0]]))


def _grid_roots(geometry, l, grid, start, stop, xtol):
    """Roots bracketed by the cells of grid[start:stop], sorted descending.

    A grid point where the function is exactly zero is a root of the cell
    it starts (the last grid point counts on its own); every sign change
    between neighbours is bisected.
    """
    points = grid[start:stop]
    values = _char_values(geometry, l, points)
    left, right = values[:-1], values[1:]
    roots = list(points[:-1][left == 0.0])
    if stop == len(grid) and values[-1] == 0.0:
        roots.append(points[-1])
    cells = np.flatnonzero(left * right < 0.0)
    if cells.size:
        roots.extend(_bisect(geometry, l, points[cells], points[cells + 1], left[cells], xtol))
    return sorted(map(float, roots), reverse=True)


def _bracket_roots(geometry, l, scan_points, root_tol):
    """Every root of order l: scan the whole grid, bisect its sign changes."""
    grid = _scan_grid(geometry, scan_points)
    if grid is None:
        return []
    return _grid_roots(geometry, l, grid, 0, scan_points, root_tol * _REFINE_FACTOR)


def _check_search_params(scan_points, root_tol):
    if scan_points < 500:
        raise ValueError(f"scan_points must be >= 500, got {scan_points}")
    if not 0.0 < root_tol <= 1e-10:
        raise ValueError(f"root_tol must be in (0, 1e-10], got {root_tol}")


def find_modes(profile, wavelength_um, scan_points=2000, root_tol=1e-12,
               max_azimuthal=64):
    """All guided LP modes at one wavelength (effective indices only)."""
    _check_search_params(scan_points, root_tol)
    geometry = _geometry(profile, wavelength_um)
    records = []
    if geometry.indices and max(geometry.indices) > geometry.n_clad + 2.0 * _EDGE_MARGIN:
        for l in range(max_azimuthal + 1):
            roots = _bracket_roots(geometry, l, scan_points, root_tol)
            if not roots:
                break
            for m, n_eff in enumerate(roots, start=1):
                records.append(
                    ModeRecord(l=l, m=m, n_eff=n_eff, lambda0_um=wavelength_um)
                )
        else:
            warnings.warn(
                f"azimuthal scan stopped at l={max_azimuthal} with modes still guided"
            )
    records.sort(key=lambda record: -record.n_eff)
    return ModeTable(tuple(records), wavelength_um)


def _nearest_root(roots, n_reference, l, m, wavelength_um):
    if roots:
        candidate = min(roots, key=lambda value: abs(value - n_reference))
        if abs(candidate - n_reference) <= _CONTINUATION_WINDOW:
            return candidate
    raise ModeContinuationError(
        f"mode {format_mode_label(l, m)} not resolvable at "
        f"{wavelength_um * 1e3} nm (cutoff crossed?)"
    )


def _tau_and_dispersion(n_minus, n_center, n_plus, lambda0_um, dlambda_um):
    """(group delay ps/km, dispersion ps/(km nm)) from central differences."""
    slope = (n_plus - n_minus) / (2.0 * dlambda_um)
    curvature = (n_plus - 2.0 * n_center + n_minus) / (dlambda_um * dlambda_um)
    return (
        (n_center - lambda0_um * slope) * _PS_PER_KM_PER_INDEX,
        -lambda0_um * curvature * _DISPERSION_SCALE,
    )


def _probe_scans(profile, lambda0_um, dlambda_um, scan_points):
    """(wavelength, geometry, scan grid) at the probes lambda0 -/+ dlambda."""
    probes = []
    for lam in (lambda0_um - dlambda_um, lambda0_um + dlambda_um):
        geometry = _geometry(profile, lam)
        probes.append((lam, geometry, _scan_grid(geometry, scan_points)))
    return probes


def _probe_root(n_center, probe, l, m, root_tol):
    """The root of order l nearest n_center at one probe wavelength.

    Only the cells of the probe's own scan grid that cover
    n_center +/- _CONTINUATION_WINDOW, one more cell on each side, are
    scanned: _nearest_root accepts no root outside that window, so it picks
    the same root a scan of the whole grid would give.
    """
    lam, geometry, grid = probe
    roots = []
    if grid is not None:
        start = max(int(np.searchsorted(grid, n_center - _CONTINUATION_WINDOW)) - 2, 0)
        stop = min(int(np.searchsorted(grid, n_center + _CONTINUATION_WINDOW)) + 2, len(grid))
        roots = _grid_roots(geometry, l, grid, start, stop, root_tol * _REFINE_FACTOR)
    return _nearest_root(roots, n_center, l, m, lam)


def _characterize(n_center, probes, l, m, lambda0_um, dlambda_um, root_tol):
    """(tau, D) of mode (l, m), continued from n_center to both probe roots."""
    n_minus, n_plus = (_probe_root(n_center, probe, l, m, root_tol) for probe in probes)
    return _tau_and_dispersion(n_minus, n_center, n_plus, lambda0_um, dlambda_um)


def _mode_tau_and_dispersion(profile, l, m, lambda0_um, dlambda_um, scan_points,
                             root_tol):
    """(tau, D) of one mode: a scan of its order, then the two probe windows."""
    _check_search_params(scan_points, root_tol)
    center_roots = _bracket_roots(_geometry(profile, lambda0_um), l, scan_points, root_tol)
    if m > len(center_roots):
        raise ModeContinuationError(
            f"mode {format_mode_label(l, m)} not guided at {lambda0_um * 1e3} nm"
        )
    probes = _probe_scans(profile, lambda0_um, dlambda_um, scan_points)
    return _characterize(center_roots[m - 1], probes, l, m, lambda0_um, dlambda_um, root_tol)


def group_delay(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                root_tol=1e-12):
    """Absolute group delay per unit length, ps/km."""
    return _mode_tau_and_dispersion(
        profile, l, m, lambda0_um, dlambda_um, scan_points, root_tol
    )[0]


def dispersion(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
               root_tol=1e-12):
    """Chromatic dispersion, ps/(km nm)."""
    return _mode_tau_and_dispersion(
        profile, l, m, lambda0_um, dlambda_um, scan_points, root_tol
    )[1]


def solve_mode_table(profile, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                     root_tol=1e-12):
    """Full mode table with tau and D filled for every guided mode."""
    table = find_modes(profile, lambda0_um, scan_points, root_tol)
    if not table.modes:
        return table
    probes = _probe_scans(profile, lambda0_um, dlambda_um, scan_points)
    filled = []
    for record in table.modes:
        tau, disp = _characterize(
            record.n_eff, probes, record.l, record.m, lambda0_um, dlambda_um, root_tol
        )
        filled.append(replace(record, tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp))
    return ModeTable(tuple(filled), lambda0_um)


def _relabel(table, previous):
    """Carry radial indices from the previous sweep step by position within each order."""
    relabeled = []
    orders = sorted(
        {record.l for record in table.modes} | {record.l for record in previous.modes}
    )
    for l in orders:
        current = [record for record in table.modes if record.l == l]
        prior = [record for record in previous.modes if record.l == l]
        for position, record in enumerate(current):
            if position < len(prior):
                relabeled.append(replace(record, m=prior[position].m))
            else:
                relabeled.append(record)
        for lost in prior[len(current):]:
            warnings.warn(
                f"mode {lost.label} lost at {table.lambda0_um * 1e3} nm (cutoff)"
            )
    relabeled.sort(key=lambda record: -record.n_eff)
    return ModeTable(tuple(relabeled), table.lambda0_um)


def sweep_modes(profile, start_nm, stop_nm, step_nm, scan_points=2000,
                root_tol=1e-12):
    """One ModeTable per wavelength with mode identity carried between steps."""
    if step_nm <= 0.0:
        raise ValueError(f"step must be > 0 nm, got {step_nm}")
    if stop_nm < start_nm:
        raise ValueError(f"stop {stop_nm} nm precedes start {start_nm} nm")
    count = int(math.floor((stop_nm - start_nm) / step_nm + 1e-9)) + 1
    tables = []
    previous = None
    for k in range(count):
        lam_nm = start_nm + k * step_nm
        table = find_modes(profile, um_from_nm(lam_nm), scan_points, root_tol)
        if previous is not None:
            table = _relabel(table, previous)
        tables.append(table)
        previous = table
    return tables


def mode_table_to_csv(table):
    lambda_nm = fmt_float(table.lambda0_um * 1e3)
    for record in table.modes:
        if record.tau_ps_per_km is None or record.dispersion_ps_per_km_nm is None:
            raise ValueError(
                f"mode {record.label} lacks tau/D; characterize the table before export"
            )
    return csv_text(MODE_TABLE_HEADER, (
        (str(r.l), str(r.m), fmt_float(r.n_eff), fmt_float(r.tau_ps_per_km),
         fmt_float(r.dispersion_ps_per_km_nm), lambda_nm)
        for r in table.modes
    ))


def write_mode_table(table, path):
    atomic_write_text(path, mode_table_to_csv(table))


def parse_mode_table_csv(text, source="<modes>"):
    rows, summary = read_csv(text, MODE_TABLE_HEADER, source)
    diagnostics = [(number, "a mode table has no summary block") for number, _ in summary]
    records, lines = [], []
    lambda_nm = None
    for number, fields in rows:
        if len(fields) != 6:
            diagnostics.append((number, f"expected 6 columns, got {len(fields)}"))
            continue
        try:
            l, m = int(fields[0]), int(fields[1])
            n_eff, tau, disp, lam = (finite_float(field) for field in fields[2:])
        except ValueError as exc:
            diagnostics.append((number, f"malformed row: {','.join(fields)!r} ({exc})"))
            continue
        if lambda_nm is None:
            lambda_nm, lambda0_um = lam, um_from_nm(lam)
        elif lam != lambda_nm:
            diagnostics.append(
                (number, f"lambda0_nm {lam} differs from first row ({lambda_nm})")
            )
            continue
        records.append(ModeRecord(l, m, n_eff, lambda0_um, tau, disp))
        lines.append(number)
    diagnostics += [(lines[index], message) for index, message in ModeTable.problems(records)]
    if lambda_nm is None and not diagnostics:
        diagnostics.append((2, "no mode rows found"))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    return ModeTable(records, lambda0_um)


def read_mode_table(path):
    return parse_mode_table_csv(Path(path).read_text(), source=str(path))
