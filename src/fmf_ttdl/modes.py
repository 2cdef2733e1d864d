"""Guided LP-mode solver for multilayer step/ring fiber profiles.

The scalar (weak-guidance) wave equation is solved per azimuthal order l by
propagating the radial field and its derivative across layer boundaries with
2x2 transfer matrices.  In an annulus of index n, u2 = k0^2 (n^2 - n_eff^2):

    basis (_bases)  sign  q          regular  irregular  Wronskian scale 1/det M
    oscillatory      +1   sqrt(u2)   J_l      Y_l        pi r_inner / 2
    evanescent       -1   sqrt(-u2)  I_l      K_l        -r_inner

sign is also the lower_sign of the irregular function (_with_derivative).
I/K are the scaled ive/kve, so the irregular column carries the decay
exp(-2 q (r_outer - r_inner)), 1.0 for J/Y; the dropped growth factor is
positive.  A power-law basis takes over where q r underflows, which keeps the
characteristic function continuous across basis switches.  Bessel
derivatives come from the order-lowering recurrences, so each basis function
costs one special-function call at orders l-1 and l.  The innermost region
keeps only its regular solution and the unbounded cladding only K_l; guided
effective indices are the zeros of the resulting boundary-matching
determinant.  The kernel takes an order and a wavelength per trial point.

Roots are found by count on a uniform n_eff grid over the guided range.  The
mode count N_l(n), the number of guided modes of order l above n_eff = n, is
the number of zeros of the regular radial solution (oscillation theorem;
Courant & Hilbert, Methods of Mathematical Physics I, ch. VI).  A k-ary
search over grid indices by count, batched over orders and wavelengths,
isolates each root in its cell; one wavelength is searched first, and its
cells seed the search at the others.  One kernel call scans the cells, padded
by a cell on each side, for the sign changes, exact zeros and f(lower) that a
scan of the whole grid would give.  Each solve (all orders at all
wavelengths of a sweep or of a table and its probes) collects its brackets
first and bisects them all in lockstep, one kernel call per step, with the
arithmetic of scipy.optimize.bisect (xtol = root_tol * _REFINE_FACTOR).  The
count also certifies the scan: an order whose scanned roots differ in number
from its count, as where two roots share a cell, raises ModeSolverError.

Labels are ranks.  For fixed l the radial equation is a Sturm-Liouville
problem: LP_lm, its m-th root from the top, has m - 1 radial zeros, and roots
of one order never cross as lambda varies (oscillation theorem; Snyder & Love,
Optical Waveguide Theory, 1983); a sweep warns of each (l, m) a step loses.

Group delay and chromatic dispersion per mode follow from central finite
differences of n_eff(lambda).  A table is solved with its probes lambda0 -/+
dlambda as one sweep anchored on lambda0, and LP_lm at a probe is by rank
the m-th root of order l there; a mode without one raises
ModeContinuationError.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fileio import (
    FileFormatError,
    at_least,
    atomic_write_text,
    check,
    csv_text,
    finite_float,
    fmt_float,
    grid_points,
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
_SPLIT = 16                # grid indices counted per open range and call of the root search
_SEED_REACH = 1            # cells around another wavelength's root cell that a search counts first

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
    """A mode is not guided at lambda0, or its order has fewer than m roots at a probe."""


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
    try:  # int() also refuses more digits than sys.get_int_max_str_digits()
        if not (left.isdecimal() and right.isdecimal()):
            raise ValueError
        l, m = int(left), int(right)
    except ValueError:
        raise ValueError(f"mode label must look like 'LP01', got '{text}'") from None
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


_Geometry = namedtuple("_Geometry", "radii indices n_clad k0")


def _geometry(profile, wavelength_um):
    n_clad = profile.cladding_index(wavelength_um)
    indices = tuple(profile.layer_index(j, wavelength_um) for j in range(len(profile.layers)))
    radii = tuple(layer.radius_um for layer in profile.layers)
    return _Geometry(radii, indices, n_clad, 2.0 * math.pi / wavelength_um)


def _points(geometries, counts):
    """Kernel input (radii, rows) for counts[i] trial points on geometries[i].

    All geometries are of one profile.  A point's row holds k0^2, n_clad^2
    and each layer's index^2 of its geometry as Python floats, because
    Python's x ** 2 and NumPy's x * x can differ in the last bit.
    """
    scalars = [(g.k0 * g.k0, g.n_clad ** 2, *(n ** 2 for n in g.indices)) for g in geometries]
    return geometries[0].radii, np.repeat(np.array(scalars), counts, axis=0)


def _renormalize(state):
    scale = np.maximum(np.abs(state[:, 0]), np.abs(state[:, 1]))
    return state / scale[:, None]


def _with_derivative(bessel, l, x, lower_sign=1.0):
    """(f_l(x), f_l'(x)) for x > 0 from `bessel` at orders l and l-1.

    f_l' = lower_sign * f_{l-1} - (l/x) f_l holds with lower_sign = +1 for
    J, Y and I and -1 for K (Abramowitz & Stegun 9.1.27, 9.6.26), also for
    the exp(-/+x) scaled ive/kve since both sides carry the same factor.
    Y is the integer-order yn, which accepts the order -1 that l = 0 needs;
    an integer array l keeps yn on that loop.
    """
    value = bessel(l, x)
    return value, lower_sign * bessel(l - 1, x) - (l / x) * value


def _bases(u2, degenerate):
    """The (rows, sign, regular, irregular, Wronskian scale / r_inner) of each basis; see above."""
    import scipy.special as sp  # deferred: ~0.4 s to import; only mode solving needs it

    return (((u2 > 0.0) & ~degenerate, 1.0, sp.jv, sp.yn, 0.5 * math.pi),
            ((u2 < 0.0) & ~degenerate, -1.0, sp.ive, sp.kve, -1.0))


def _initial_state(l, u2, radius):
    """(R, R') of the regular solution at the first boundary, per trial point."""
    state = np.empty((u2.shape[0], 2))
    degenerate = np.abs(u2) * radius * radius < _DEGENERATE_X2
    for rows, sign, regular, _, _ in _bases(u2, degenerate):
        if rows.any():
            q = np.sqrt(sign * u2[rows])
            value, derivative = _with_derivative(regular, l[rows], q * radius)
            state[rows, 0] = value
            state[rows, 1] = q * derivative
    if degenerate.any():
        state[degenerate, 0] = 1.0
        state[degenerate, 1] = l[degenerate] / radius
    return _renormalize(state)


def _propagator(l, u2, edges):
    """Exact 2x2 propagator of (R, R') across each step edges[k] -> edges[k + 1], per trial point.

    It is M(r_outer) M(r_inner)^-1 with M = ((f, g), (q f', q g')) for the
    regular f and irregular g; the inverse comes from the exact Wronskian.
    Each basis is evaluated once at every edge, on the rows that use it at
    the last step; a row on the power-law basis at a step is also on it at
    every earlier step, and is overwritten there.
    """
    edges = np.asarray(edges, dtype=float)
    steps = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    out = np.empty((len(steps), u2.shape[0], 2, 2))
    degenerate = np.abs(u2) * edges[1:, None] * edges[1:, None] < _DEGENERATE_X2
    for rows, sign, regular, irregular, wronskian in _bases(u2, degenerate[-1]):
        if rows.any():
            q = np.sqrt(sign * u2[rows])
            f, fp = _with_derivative(regular, l[rows], q * edges[:, None])
            g, gp = _with_derivative(irregular, l[rows], q * edges[:, None], sign)
            for k, (r_inner, r_outer) in enumerate(steps):
                scale = wronskian * r_inner
                decay = np.exp(-2.0 * q * (r_outer - r_inner)) if sign < 0.0 else 1.0
                inverse = ((scale * q * gp[k], -scale * g[k]), (-scale * q * fp[k], scale * f[k]))
                outer = ((f[k + 1], g[k + 1] * decay), (q * fp[k + 1], q * gp[k + 1] * decay))
                for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    out[k, rows, i, j] = outer[i][0] * inverse[0][j] + outer[i][1] * inverse[1][j]

    # power-law basis r^l, r^-l (1, log r for l = 0), in Python floats per order
    for k, (r_inner, r_outer) in enumerate(steps):
        for order in np.unique(l[degenerate[k]]).tolist():
            rows = degenerate[k] & (l == order)
            if order == 0:
                out[k, rows] = ((1.0, r_inner * math.log(r_outer / r_inner)),
                                (0.0, r_inner / r_outer))
                continue
            grow = (r_outer / r_inner) ** order
            out[k, rows] = ((0.5 * (grow + 1.0 / grow),
                             r_inner * (grow - 1.0 / grow) / (2.0 * order)),
                            (order * (grow - 1.0 / grow) / (2.0 * r_outer),
                             (r_inner / r_outer) * 0.5 * (grow + 1.0 / grow)))
    return out


def _determinant(points, l, n_eff, state):
    """Scale-normalized a - b of the state at the last boundary against the cladding's K_l."""
    import scipy.special as sp  # deferred, as in _bases

    radii, rows = points
    w = np.sqrt(rows[:, 0] * (n_eff**2 - rows[:, 1]))
    k_val, k_deriv = _with_derivative(sp.kve, l, w * radii[-1], -1.0)
    a = state[:, 0] * w * k_deriv
    b = state[:, 1] * k_val
    scale = np.abs(a) + np.abs(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale > 0.0, (a - b) / np.where(scale > 0.0, scale, 1.0), 0.0)


def _char_values(points, l, n_eff):
    """Scale-normalized determinant at n_eff[i] for order l[i] on row i of points."""
    n_eff = np.asarray(n_eff, dtype=float)
    radii, rows = points
    k02 = rows[:, 0]
    state = _initial_state(l, k02 * (rows[:, 2] - n_eff**2), radii[0])
    for j in range(1, len(radii)):
        [propagator] = _propagator(l, k02 * (rows[:, 2 + j] - n_eff**2), radii[j - 1:j + 1])
        state = _renormalize(np.einsum("nij,nj->ni", propagator, state))
    return _determinant(points, l, n_eff, state)


def _steps(lengths_in_bounds):
    """The fewest equal steps, at least one, that keep every row's step within its bound."""
    return max(1, math.ceil(float(np.max(lengths_in_bounds))))


def _mode_counts(points, l, n_eff):
    """N_l(n_eff[i]), the guided modes of order l[i] above n_eff[i], on row i of points.

    By the oscillation theorem this is the number of zeros on (0, inf) of the
    regular radial solution R at n_eff.  They are counted as sign changes of R
    between radii close enough that each step holds at most one zero:
    - innermost region, J_l(q r): q h <= 2.3 for l = 0 (j_0,1 = 2.405, later
      zeros of J_0 lie more than 3.1 apart) and 0.9 pi for l >= 1 (zeros of
      J_l lie more than pi apart, the first beyond 3.8);
    - annulus, A J_l + B Y_l: h sqrt(q^2 + 1/(4 r_inner^2)) <= 0.9 pi for
      l = 0 and q h <= 0.9 pi for l >= 1, as zeros of sqrt(r) R lie farther
      apart than pi over the root of its largest coefficient (Sturm
      comparison); A I_l + B K_l and the power-law pair have at most one zero;
    - cladding, C K_l + D I_l: one zero exactly when R(r_N) and D differ in
      sign, and the determinant a - b is -D / r_N times a positive factor.
    Each region takes the largest step count any row needs.
    """
    n_eff = np.asarray(n_eff, dtype=float)
    radii, rows = points
    k02 = rows[:, 0]
    u2 = k02 * (rows[:, 2] - n_eff**2)
    q = np.sqrt(np.maximum(u2, 0.0))
    zeros = np.zeros(l.shape, dtype=int)
    value = np.ones(l.shape)  # J_l, I_l and r^l are positive near r = 0
    spacing = np.where(l == 0, 2.3, 0.9 * math.pi)
    for r in np.linspace(0.0, radii[0], _steps(q * radii[0] / spacing) + 1)[1:].tolist():
        state = _initial_state(l, u2, r)
        zeros += value * state[:, 0] < 0.0
        value = state[:, 0]
    for j in range(1, len(radii)):
        u2 = k02 * (rows[:, 2 + j] - n_eff**2)
        rate = np.sqrt(np.maximum(u2, 0.0) + np.where(l == 0, 0.25 / radii[j - 1] ** 2, 0.0))
        edges = np.linspace(radii[j - 1], radii[j],
                            _steps(rate * (radii[j] - radii[j - 1]) / (0.9 * math.pi)) + 1)
        for propagator in _propagator(l, u2, edges):
            state = _renormalize(np.einsum("nij,nj->ni", propagator, state))
            zeros += value * state[:, 0] < 0.0
            value = state[:, 0]
    return zeros + (value * _determinant(points, l, n_eff, state) > 0.0)


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
    return float(_char_values(_points([geometry], [1]), np.array([l]), np.array([n_eff_trial]))[0])


def _scan_grid(geometry, scan_points):
    """The uniform n_eff grid that brackets every root; empty if nothing is guided."""
    lo = geometry.n_clad + _EDGE_MARGIN
    hi = max(geometry.indices, default=geometry.n_clad) - _EDGE_MARGIN
    return np.linspace(lo, hi, scan_points) if hi > lo else np.empty(0)


# A scan's exact grid zeros and its sign-change cells [lower, upper], f_lower = f(lower)
_Brackets = namedtuple("_Brackets", "geometry l zeros lower upper f_lower")


def _scan(scans):
    """The _Brackets of each scan (geometry, l, points, closed), from one kernel call.

    A point where the function is exactly zero is a root of the cell it starts;
    the last point counts on its own only where it closes the grid (closed).
    Scans without points (nothing guided, or no layers) make no kernel call.
    """
    geometries, orders, grids, _ = zip(*scans)
    counts = [len(points) for points in grids]
    values = _char_values(_points(geometries, counts), np.repeat(orders, counts),
                          np.concatenate(grids)) if sum(counts) else np.empty(0)
    found = []
    for (geometry, l, points, closed), f in zip(scans, np.split(values, np.cumsum(counts)[:-1])):
        last = len(f) if closed else len(f) - 1
        cells = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        found.append(_Brackets(geometry, l, points[:last][f[:last] == 0.0],
                               points[cells], points[cells + 1], f[cells]))
    return found


def _bisect(points, l, xa, xb, fa, xtol):
    """Roots in the brackets [xa, xb], f(xa) = fa, all bisected in lockstep.

    Bracket i has order l[i] and the geometry of row i of points.  Each
    follows the arithmetic of scipy.optimize.bisect step for step (halve dm,
    xm = xa + dm, keep xa while fm*fa >= 0, stop at fm == 0 or
    |dm| < xtol + rtol*|xm|), so the roots are the same to the bit; one
    kernel call per step evaluates every bracket still open.  A bracket still
    open after _BISECT_MAXITER steps gets nan.
    """
    roots = np.full(xa.shape, np.nan)
    pending = np.arange(xa.size)
    dm = xb - xa
    for _ in range(_BISECT_MAXITER):
        dm = dm * 0.5
        xm = xa + dm
        fm = _char_values(points, l, xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < xtol + _BISECT_RTOL * np.abs(xm))
        roots[pending[done]] = xm[done]
        still = ~done
        pending, xa, dm, fa, l = pending[still], xa[still], dm[still], fa[still], l[still]
        if not pending.size:
            break
        points = points[0], points[1][still]
    return roots


def _roots(found, xtol):
    """The roots of each _Brackets in turn, sorted descending.

    One lockstep bisection refines every bracket.  A set with a bracket
    still open raises BracketRefinementError when its turn comes, so errors
    arrive in the order in which a loop over the sets would raise them.
    """
    counts = [brackets.lower.size for brackets in found]
    refined = np.empty(0)
    if sum(counts):
        geometries, orders, _, lower, upper, f_lower = zip(*found)
        refined = _bisect(_points(geometries, counts), np.repeat(orders, counts),
                          np.concatenate(lower), np.concatenate(upper),
                          np.concatenate(f_lower), xtol)
    for brackets, roots in zip(found, np.split(refined, np.cumsum(counts)[:-1])):
        if np.isnan(roots).any():
            k = np.isnan(roots).argmax()
            raise BracketRefinementError(brackets.l, (brackets.lower[k], brackets.upper[k]))
        yield sorted(map(float, (*brackets.zeros, *roots)), reverse=True)


def _search(cases, seeds=None):
    """(_Brackets, cells) of each case (geometry, l, grid): its roots isolated by count.

    The first call counts N_l at both grid ends and at the case's seeds, if
    any: grid indices near which its roots are expected.  The count alone
    decides each span, so a seed that misses costs only more counts.  Then a
    k-ary search over grid indices counts up to _SPLIT points inside each open
    range, one call for all, and keeps the parts across which the count
    drops.  A cell (x, drop) is a one-cell part (grid[x], grid[x + 1]] holding
    drop roots; a case's cells come sorted.  One kernel call then scans each
    cell padded by a cell on each side (windows that meet are merged), so the
    brackets, exact grid zeros and f_lower are those of a whole-grid scan.
    """
    cells = [[] for _ in cases]
    owners = range(len(cases))
    cuts = [sorted({0, grid.size - 1, *(min(max(x, 0), grid.size - 1) for x in seed)})
            for (_, _, grid), seed in zip(cases, seeds or [()] * len(cases))]
    while cuts:
        sizes = [len(cut) for cut in cuts]
        geometries, orders, grids = zip(*(cases[i] for i in owners))
        counts = _mode_counts(_points(geometries, sizes), np.repeat(orders, sizes),
                              np.concatenate([grid[cut] for grid, cut in zip(grids, cuts)]))
        spans = []
        for i, cut, level in zip(owners, cuts, np.split(counts, np.cumsum(sizes)[:-1])):
            for x, y, drop in zip(cut, cut[1:], (level[:-1] - level[1:]).tolist()):
                if drop > 0 and y == x + 1:
                    cells[i].append((x, drop))
                elif drop > 0:
                    spans.append((i, x, y))
        owners, cuts = [i for i, _, _ in spans], []
        for _, x, y in spans:
            n = min(y - x, _SPLIT + 1)
            cuts.append([x + (y - x) * k // n for k in range(n + 1)])
    scans, owners = [], []
    for i, ((geometry, l, grid), found) in enumerate(zip(cases, cells)):
        found.sort()
        windows = []
        for x, _ in found:
            start, stop = max(x - 1, 0), min(x + 2, grid.size - 1)
            if windows and start <= windows[-1][1]:
                windows[-1][1] = stop
            else:
                windows.append([start, stop])
        scans += [(geometry, l, grid[start:stop + 1], stop == grid.size - 1)
                  for start, stop in windows]
        owners += [i] * len(windows)
    scanned = [[] for _ in cases]
    for i, brackets in zip(owners, _scan(scans) if scans else ()):
        scanned[i].append(brackets)
    return [(_Brackets(geometry, l, *(np.concatenate([np.empty(0), *(part[k] for part in mine)])
                                      for k in range(2, 6))), found)
            for (geometry, l, _), mine, found in zip(cases, scanned, cells)]


def _certify(grid, l, wavelength_um, brackets, cells):
    """Raise ModeSolverError unless the window scan found every root the count gives."""
    by_count, by_scan = sum(drop for _, drop in cells), brackets.zeros.size + brackets.lower.size
    if by_scan != by_count:
        x, _ = max(cells, key=lambda cell: cell[1])
        raise ModeSolverError(
            f"root search lost track of l={l} at {wavelength_um * 1e3} nm: the mode count "
            f"gives {by_count} roots and the window scan found {by_scan}, near the cell "
            f"({grid[x]!r}, {grid[x + 1]!r}] (a larger scan_points may separate them)")


scan_points_rule = at_least(500)


def root_tol_rule(root_tol):
    return None if 0.0 < root_tol <= 1e-10 else f"must be in (0, 1e-10], got {root_tol}"


def _check_search_params(scan_points, root_tol):
    check("scan_points", scan_points_rule, scan_points)
    check("root_tol", root_tol_rule, root_tol)


def _cutoff_order(geometry, n_low):
    """The least order l with no guided mode above n_low: from l^2 >= (Q r_N)^2 + 1/4 on,
    Q^2 = k0^2 (n_max^2 - n_low^2), sqrt(r) R has a coefficient q^2 - (l^2 - 1/4) / r^2
    that is nowhere positive, so it keeps growing from r = 0 and has no zero."""
    reach = geometry.k0 * geometry.radii[-1] * math.sqrt(max(geometry.indices) ** 2 - n_low**2)
    return math.ceil(math.hypot(reach, 0.5))


def _find_tables(profile, wavelengths_um, scan_points, root_tol, max_azimuthal, anchor=None):
    """The ModeTable (n_eff only) at each wavelength, in turn.

    Every order below _cutoff_order (and up to max_azimuthal) is searched at
    the anchor wavelength, the middle one by default, then at all others in
    one _search seeded near the anchor's cells of the same order.  A table
    takes the orders before the first without a root on its grid.  One
    lockstep bisection refines the brackets of all tables, then each table's
    orders are certified.  Tables, warnings and errors come in wavelength order.
    """
    geometries = [_geometry(profile, lam) for lam in wavelengths_um]
    grids = [_scan_grid(geometry, scan_points) for geometry in geometries]
    cases = [[(geometry, l, grid) for l in range(
              min(max_azimuthal, _cutoff_order(geometry, grid[0])) + 1 if grid.size else 0)]
             for geometry, grid in zip(geometries, grids)]
    anchor = len(cases) // 2 if anchor is None else anchor
    first = _search(cases[anchor])
    near = {l: cells for (_, l, _), (_, cells) in zip(cases[anchor], first)}
    others = [case for k, own in enumerate(cases) if k != anchor for case in own]
    rest = iter(_search(others, [[x + d for x, _ in near.get(l, ())
                                  for d in range(-_SEED_REACH, _SEED_REACH + 2)]
                                 for _, l, _ in others]))
    tables = []
    for k, own in enumerate(cases):
        orders = first if k == anchor else [next(rest) for _ in own]
        tables.append(orders[:next((l for l, (_, cells) in enumerate(orders) if not cells),
                                   len(orders))])
    roots = _roots([brackets for orders in tables for brackets, _ in orders],
                   root_tol * _REFINE_FACTOR)
    for lam, grid, orders in zip(wavelengths_um, grids, tables):
        by_order = [next(roots) for _ in orders]
        for l, (brackets, cells) in enumerate(orders):
            _certify(grid, l, lam, brackets, cells)
        records = [ModeRecord(l=l, m=m, n_eff=n_eff, lambda0_um=lam)
                   for l, order_roots in enumerate(by_order)
                   for m, n_eff in enumerate(order_roots, start=1)]
        if len(orders) > max_azimuthal:
            warnings.warn(f"azimuthal scan stopped at l={max_azimuthal} with modes still guided")
        records.sort(key=lambda record: -record.n_eff)
        yield ModeTable(tuple(records), lam)


def find_modes(profile, wavelength_um, scan_points=2000, root_tol=1e-12,
               max_azimuthal=64):
    """All guided LP modes at one wavelength (effective indices only)."""
    _check_search_params(scan_points, root_tol)
    return next(_find_tables(profile, [wavelength_um], scan_points, root_tol, max_azimuthal))


def _tau_and_dispersion(n_minus, n_center, n_plus, lambda0_um, dlambda_um):
    """(group delay ps/km, dispersion ps/(km nm)) from central differences."""
    slope = (n_plus - n_minus) / (2.0 * dlambda_um)
    curvature = (n_plus - 2.0 * n_center + n_minus) / (dlambda_um * dlambda_um)
    return ((n_center - lambda0_um * slope) * _PS_PER_KM_PER_INDEX,
            -lambda0_um * curvature * _DISPERSION_SCALE)


def _probed(profile, lambda0_um, dlambda_um, scan_points, root_tol):
    """(table, characterize): the ModeTable at lambda0 and the (tau, D) of its records.

    One sweep anchored on the center solves lambda0, lambda0 - dlambda and
    lambda0 + dlambda, so the center's errors come first.  A record's n_eff
    at each probe is its rank m in its order there, the minus probe first:
    LP_lm is the m-th root of order l at every wavelength.
    """
    _check_search_params(scan_points, root_tol)
    wavelengths = (lambda0_um, lambda0_um - dlambda_um, lambda0_um + dlambda_um)
    table, *probes = _find_tables(profile, wavelengths, scan_points, root_tol, 64, anchor=0)

    def characterize(record):
        n_eff = []
        for probe in probes:
            try:
                n_eff.append(probe.mode(record.l, record.m).n_eff)
            except KeyError:
                lost = f"mode {record.label} not resolvable at {probe.lambda0_um * 1e3} nm"
                raise ModeContinuationError(f"{lost} (cutoff crossed?)") from None
        return _tau_and_dispersion(n_eff[0], record.n_eff, n_eff[1], lambda0_um, dlambda_um)

    return table, characterize


def _mode_tau_and_dispersion(profile, l, m, lambda0_um, dlambda_um, scan_points,
                             root_tol):
    """(tau, D) of one mode."""
    table, characterize = _probed(profile, lambda0_um, dlambda_um, scan_points, root_tol)
    try:
        record = table.mode(l, m)
    except KeyError:
        raise ModeContinuationError(
            f"mode {format_mode_label(l, m)} not guided at {lambda0_um * 1e3} nm") from None
    return characterize(record)


def group_delay(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                root_tol=1e-12):
    """Absolute group delay per unit length, ps/km."""
    return _mode_tau_and_dispersion(profile, l, m, lambda0_um, dlambda_um, scan_points, root_tol)[0]


def dispersion(profile, l, m, lambda0_um, dlambda_um=5e-4, scan_points=2000,
               root_tol=1e-12):
    """Chromatic dispersion, ps/(km nm)."""
    return _mode_tau_and_dispersion(profile, l, m, lambda0_um, dlambda_um, scan_points, root_tol)[1]


def solve_mode_table(profile, lambda0_um, dlambda_um=5e-4, scan_points=2000,
                     root_tol=1e-12):
    """Full mode table with tau and D filled for every guided mode."""
    table, characterize = _probed(profile, lambda0_um, dlambda_um, scan_points, root_tol)
    filled = [replace(record, tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp)
              for record in table.modes for tau, disp in [characterize(record)]]
    return ModeTable(tuple(filled), lambda0_um)


def _warn_lost(previous_modes, table):
    """Warn of each (l, m) of previous_modes that table lacks, in (l, m) order."""
    kept = {(record.l, record.m) for record in table.modes}
    for l, m in sorted({(record.l, record.m) for record in previous_modes} - kept):
        warnings.warn(f"mode {format_mode_label(l, m)} lost at {table.lambda0_um * 1e3} nm "
                      f"(cutoff)")


def sweep_modes(profile, start_nm, stop_nm, step_nm, scan_points=2000,
                root_tol=1e-12):
    """One ModeTable per wavelength, each mode labelled by its rank in its order."""
    wavelengths = [um_from_nm(nm) for nm in grid_points(start_nm, stop_nm, step_nm)]
    _check_search_params(scan_points, root_tol)
    tables = []
    for table in _find_tables(profile, wavelengths, scan_points, root_tol, 64):
        _warn_lost(tables[-1].modes if tables else (), table)
        tables.append(table)
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
            if not lam > 0.0:
                raise ValueError(f"lambda0_nm must be > 0, got {fields[5]}")
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
