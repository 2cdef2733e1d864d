"""Guided LP-mode solver for multilayer step/ring fiber profiles.

The scalar (weak-guidance) wave equation is solved per azimuthal order l by
propagating the radial field and its derivative across layer boundaries with
2x2 transfer matrices.  Inside each annulus the basis is J_l/Y_l where the
field oscillates (n_eff below the local index) and I_l/K_l where it is
evanescent; a power-law basis takes over in the narrow window where the
transverse wavenumber underflows, which keeps the characteristic function
continuous across basis switches.  The innermost region keeps only its
regular solution and the unbounded cladding only K_l; guided effective
indices are the zeros of the resulting boundary-matching determinant,
located by uniform-grid bracketing plus bisection.

Group delay and chromatic dispersion per mode follow from central finite
differences of n_eff(lambda), with mode identity across the probe
wavelengths maintained by nearest-n_eff continuation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.special as sp
from scipy.constants import c as _C_M_PER_S
from scipy.optimize import bisect

from .fileio import FileFormatError, atomic_write_text, finite_float, fmt_float, um_from_nm

_C_KM_PER_S = _C_M_PER_S / 1000.0
_PS_PER_KM_PER_INDEX = 1.0e12 / _C_KM_PER_S   # group index -> ps/km
_DISPERSION_SCALE = 1.0e9 / _C_KM_PER_S       # um * um^-2 curvature -> ps/(km nm)

_EDGE_MARGIN = 1e-7        # stay clear of the K_l / Y_l singular limits
_DEGENERATE_X2 = 1e-12     # (|u| r)^2 below which the power-law basis is used
_REFINE_FACTOR = 0.01      # bisection xtol = root_tol * this
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
        seen = set()
        for record in self.modes:
            if (record.l, record.m) in seen:
                raise ValueError(f"duplicate mode {record.label} in table")
            seen.add((record.l, record.m))
        for above, below in zip(self.modes, self.modes[1:]):
            if not above.n_eff > below.n_eff:
                raise ValueError(
                    f"modes must be sorted strictly descending in n_eff "
                    f"({above.label} vs {below.label})"
                )

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


def _initial_state(l, u2, radius):
    """(R, R') of the regular solution at the first boundary, per trial index."""
    state = np.empty((u2.shape[0], 2))
    degenerate = np.abs(u2) * radius * radius < _DEGENERATE_X2
    oscillatory = (u2 > 0.0) & ~degenerate
    evanescent = (u2 < 0.0) & ~degenerate
    if oscillatory.any():
        q = np.sqrt(u2[oscillatory])
        x = q * radius
        state[oscillatory, 0] = sp.jv(l, x)
        state[oscillatory, 1] = q * sp.jvp(l, x)
    if evanescent.any():
        q = np.sqrt(-u2[evanescent])
        x = q * radius
        state[evanescent, 0] = sp.ive(l, x)
        state[evanescent, 1] = q * 0.5 * (sp.ive(l - 1, x) + sp.ive(l + 1, x))
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
    out = np.empty((u2.shape[0], 2, 2))
    degenerate = np.abs(u2) * r_outer * r_outer < _DEGENERATE_X2
    oscillatory = (u2 > 0.0) & ~degenerate
    evanescent = (u2 < 0.0) & ~degenerate

    if oscillatory.any():
        q = np.sqrt(u2[oscillatory])
        xa, xb = q * r_inner, q * r_outer
        ja, ya = sp.jv(l, xa), sp.yv(l, xa)
        jpa, ypa = sp.jvp(l, xa), sp.yvp(l, xa)
        jb, yb = sp.jv(l, xb), sp.yv(l, xb)
        jpb, ypb = sp.jvp(l, xb), sp.yvp(l, xb)
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
        xa, xb = g * r_inner, g * r_outer
        ia, ka = sp.ive(l, xa), sp.kve(l, xa)
        ipa = 0.5 * (sp.ive(l - 1, xa) + sp.ive(l + 1, xa))
        kpa = -0.5 * (sp.kve(l - 1, xa) + sp.kve(l + 1, xa))
        ib, kb = sp.ive(l, xb), sp.kve(l, xb)
        ipb = 0.5 * (sp.ive(l - 1, xb) + sp.ive(l + 1, xb))
        kpb = -0.5 * (sp.kve(l - 1, xb) + sp.kve(l + 1, xb))
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
    x = w * geometry.radii[-1]
    k_val = sp.kve(l, x)
    k_deriv = -0.5 * (sp.kve(l - 1, x) + sp.kve(l + 1, x))
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


def _bracket_roots(geometry, l, scan_points, root_tol):
    """Scan n_eff, bracket sign changes and bisect; roots sorted descending."""
    n_max = max(geometry.indices)
    lo = geometry.n_clad + _EDGE_MARGIN
    hi = n_max - _EDGE_MARGIN
    if hi <= lo:
        return []
    grid = np.linspace(lo, hi, scan_points)
    values = _char_values(geometry, l, grid)

    def scalar(x):
        return float(_char_values(geometry, l, np.asarray([x]))[0])

    xtol = root_tol * _REFINE_FACTOR
    roots = []
    for i in range(scan_points - 1):
        va, vb = values[i], values[i + 1]
        if va == 0.0:
            roots.append(float(grid[i]))
            continue
        if va * vb < 0.0:
            try:
                roots.append(float(bisect(scalar, grid[i], grid[i + 1], xtol=xtol)))
            except Exception as exc:
                raise BracketRefinementError(l, (grid[i], grid[i + 1])) from exc
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots, reverse=True)


def _check_search_params(scan_points, root_tol):
    if scan_points < 500:
        raise ValueError(f"scan_points must be >= 500, got {scan_points}")
    if root_tol > 1e-10:
        raise ValueError(f"root_tol must be <= 1e-10, got {root_tol}")


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


def _probe_roots(profile, l, lambda0_um, dlambda_um, scan_points, root_tol):
    """Roots of order l at the two probe wavelengths lambda0 -/+ dlambda."""
    return tuple(
        (lam, _bracket_roots(_geometry(profile, lam), l, scan_points, root_tol))
        for lam in (lambda0_um - dlambda_um, lambda0_um + dlambda_um)
    )


def _characterize(n_center, probes, l, m, lambda0_um, dlambda_um):
    """(tau, D) of mode (l, m), continued from n_center to both probe roots."""
    n_minus, n_plus = (_nearest_root(roots, n_center, l, m, lam) for lam, roots in probes)
    return _tau_and_dispersion(n_minus, n_center, n_plus, lambda0_um, dlambda_um)


def _mode_tau_and_dispersion(profile, l, m, lambda0_um, dlambda_um, scan_points,
                             root_tol):
    """(tau, D) of one mode from three scans of its azimuthal order."""
    _check_search_params(scan_points, root_tol)
    center_roots = _bracket_roots(_geometry(profile, lambda0_um), l, scan_points, root_tol)
    if m > len(center_roots):
        raise ModeContinuationError(
            f"mode {format_mode_label(l, m)} not guided at {lambda0_um * 1e3} nm"
        )
    probes = _probe_roots(profile, l, lambda0_um, dlambda_um, scan_points, root_tol)
    return _characterize(center_roots[m - 1], probes, l, m, lambda0_um, dlambda_um)


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
    probes = {
        l: _probe_roots(profile, l, lambda0_um, dlambda_um, scan_points, root_tol)
        for l in sorted({record.l for record in table.modes})
    }
    filled = []
    for record in table.modes:
        tau, disp = _characterize(
            record.n_eff, probes[record.l], record.l, record.m, lambda0_um, dlambda_um
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
    lines = [MODE_TABLE_HEADER]
    lambda_nm = table.lambda0_um * 1e3
    for record in table.modes:
        if record.tau_ps_per_km is None or record.dispersion_ps_per_km_nm is None:
            raise ValueError(
                f"mode {record.label} lacks tau/D; characterize the table before export"
            )
        lines.append(
            ",".join(
                (
                    str(record.l),
                    str(record.m),
                    fmt_float(record.n_eff),
                    fmt_float(record.tau_ps_per_km),
                    fmt_float(record.dispersion_ps_per_km_nm),
                    fmt_float(lambda_nm),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_mode_table(table, path):
    atomic_write_text(path, mode_table_to_csv(table))


def parse_mode_table_csv(text, source="<modes>"):
    lines = text.splitlines()
    diagnostics = []
    if not lines or lines[0].strip() != MODE_TABLE_HEADER:
        raise FileFormatError(
            source, [(1, f"expected header '{MODE_TABLE_HEADER}'")]
        )
    rows = []
    lambda_nm = None
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 6:
            diagnostics.append((number, f"expected 6 columns, got {len(fields)}"))
            continue
        try:
            l, m = int(fields[0]), int(fields[1])
            n_eff, tau, disp, lam = (finite_float(field) for field in fields[2:])
        except ValueError as exc:
            diagnostics.append((number, f"malformed row: {line!r} ({exc})"))
            continue
        if lambda_nm is None:
            lambda_nm = lam
        elif lam != lambda_nm:
            diagnostics.append(
                (number, f"lambda0_nm {lam} differs from first row ({lambda_nm})")
            )
            continue
        rows.append((l, m, n_eff, tau, disp))
    if lambda_nm is None and not diagnostics:
        diagnostics.append((2, "no mode rows found"))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    lambda0_um = um_from_nm(lambda_nm)
    try:
        return ModeTable(
            tuple(
                ModeRecord(
                    l=l,
                    m=m,
                    n_eff=n_eff,
                    lambda0_um=lambda0_um,
                    tau_ps_per_km=tau,
                    dispersion_ps_per_km_nm=disp,
                )
                for l, m, n_eff, tau, disp in rows
            ),
            lambda0_um,
        )
    except ValueError as exc:
        raise FileFormatError(source, [(2, str(exc))]) from exc


def read_mode_table(path):
    return parse_mode_table_csv(Path(path).read_text(), source=str(path))
