"""Delay-line evaluation: wavelength-dependent delays and RF filter response.

Two delay models are available.  The first-order model extrapolates each
sample's equivalent delay linearly in wavelength with its equivalent
dispersion (exact within the design's Taylor window).  The numeric model
re-solves the fiber modes at the requested wavelengths, all in one solve,
and recombines the per-segment delays, capturing effects beyond first order.

Delays are reported per unit length (ps/km) relative to the design's
reference mode; the RF tap delays are the absolute per-sample delays for a
given link length.  The first-order rule, H(f) and the CSV emitters compute in
Python floats, so the evaluate and rf-response stages import no numpy; H(f) sums
the taps in tap order, with no BLAS.  Results store tuples and build their
ndarrays when read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .design import modal_weights, path_sum
from .fileio import (atomic_write_text, check, csv_text, finite, fmt_float, np, order_rule,
                     positive, um_from_nm)
from .modes import ModeSolverError, _probed, format_mode_label

FIRST_ORDER = "first-order"
NUMERIC_SWEEP = "numeric-sweep"

_UNIFORM_SPACING_RTOL = 1e-6
_PHASE = -2.0j * math.pi * 1e-3  # -j 2 pi per cycle, at 1e-3 cycles per GHz ps


class EvaluationError(RuntimeError):
    """Delay evaluation failed (for example a mode cutoff at the wavelength)."""


class DegenerateFilterError(ValueError):
    """Fewer than two taps cannot form a delay-line filter."""


def _floats(name, values):
    """values, a number or a sequence of numbers, as a tuple of floats that must be finite."""
    try:
        values = tuple(map(float, values))
    except TypeError:
        values = (float(values),)
    for value in values:
        check(name, finite, value)
    return values


def _array(values, dtype=float):
    return np.array(list(values), dtype=dtype)


def _first_order(solution, wavelengths_nm):
    """Per-sample delays (ps/km) as one list per sample: tau_eq + (lambda - lambda0) * D_eq."""
    lam = _floats("wavelengths_nm", wavelengths_nm)
    lambda0_nm = solution.lambda0_um * 1e3
    tau_eq, d_eq = solution.tau_eq_ps_per_km, solution.d_eq_ps_per_km_nm
    if d_eq is None and any(value != lambda0_nm for value in lam):
        raise EvaluationError(
            f"placements lack D_eq_1..D_eq_{len(tau_eq)}; the first-order delay "
            f"away from {fmt_float(lambda0_nm)} nm needs them"
        )
    return [[tau + (value - lambda0_nm) * d for value in lam]
            for tau, d in zip(tau_eq, d_eq or [0.0] * len(tau_eq))]


def sample_delays_first_order(solution, wavelengths_nm):
    """Per-sample delay per unit length at the given wavelength(s), ps/km.

    Scalar input yields shape (n_samples,), a grid yields
    (n_samples, n_wavelengths).
    """
    delays = np.array(_first_order(solution, wavelengths_nm))
    return delays[:, 0] if np.ndim(wavelengths_nm) == 0 else delays


def sample_delays_numeric(solution, graph, profile, wavelengths_nm):
    """Per-sample delay per unit length, in graph order, from one fresh mode solve of every
    wavelength with solve_mode_table's default settings: the bits and errors of a solve per
    wavelength, in turn.  A scalar yields (n_samples,), a grid (n_samples, n_wavelengths)."""
    lam = np.asarray(wavelengths_nm, dtype=float)
    grid = np.atleast_1d(lam).tolist()
    delays = np.empty((len(graph.samples), len(grid)))
    tables = _probed(profile, [um_from_nm(value) for value in grid])
    for j, value in enumerate(grid):
        try:
            tau, _ = modal_weights(next(tables), solution.reference_mode)
        except ModeSolverError as exc:
            raise EvaluationError(str(exc)) from exc
        except KeyError:
            raise EvaluationError(f"reference mode {format_mode_label(*solution.reference_mode)} "
                                  f"not guided at {value} nm") from None
        for mode in graph.modes():
            if mode not in tau:
                raise EvaluationError(f"mode {format_mode_label(*mode)} not guided at {value} nm")
        delays[:, j] = [path_sum(sample, tau, solution.lengths) for sample in graph.samples]
    return delays[:, 0] if lam.ndim == 0 else delays


@dataclass(frozen=True)
class DelayCurve:
    """Sampled per-sample delays (ps/km) over a wavelength grid (nm), one tuple per sample."""

    wavelengths: tuple
    delays: tuple
    model: str
    lambda0_nm: float

    wavelengths_nm = property(lambda self: _array(self.wavelengths))
    sample_delays_ps_per_km = property(lambda self: _array(self.delays))

    @property
    def differential_delays(self):
        """Adjacent-sample delay differences, shape (n_samples - 1, n_points)."""
        delays = self.sample_delays_ps_per_km
        return delays[1:] - delays[:-1]


def delay_curve(solution, wavelengths_nm, model=FIRST_ORDER, graph=None, profile=None):
    lam = _floats("wavelengths_nm", wavelengths_nm)
    if model == FIRST_ORDER:
        delays = _first_order(solution, lam)
    elif model == NUMERIC_SWEEP:
        if graph is None or profile is None:
            raise ValueError("numeric-sweep model needs graph and profile")
        delays = sample_delays_numeric(solution, graph, profile, lam).tolist()
    else:
        raise ValueError(f"model must be '{FIRST_ORDER}' or '{NUMERIC_SWEEP}', got '{model}'")
    return DelayCurve(wavelengths=lam, delays=tuple(map(tuple, delays)), model=model,
                      lambda0_nm=solution.lambda0_um * 1e3)


@dataclass(frozen=True)
class TunabilityReport:
    """Differential-delay extremes over a wavelength range."""

    lambda_start_nm: float
    lambda_stop_nm: float
    min_differential_ps_per_km: float
    max_differential_ps_per_km: float
    delta_d_ps_per_km_nm: float | None
    bandwidth_exceeded: bool


def tunability_report(solution, lambda_start_nm, lambda_stop_nm,
                      lpg_bandwidth_nm=20.0):
    check("lambda_start_nm", finite, lambda_start_nm)
    check("lambda_stop_nm", finite, lambda_stop_nm)
    check("wavelength range", order_rule, (lambda_start_nm, lambda_stop_nm))
    check("lpg_bandwidth_nm", positive, lpg_bandwidth_nm)
    delays = _first_order(solution, (lambda_start_nm, lambda_stop_nm))
    differentials = [b - a for low, high in zip(delays, delays[1:]) for a, b in zip(low, high)]
    lambda0_nm = solution.lambda0_um * 1e3
    half = lpg_bandwidth_nm / 2.0
    exceeded = (
        lambda_start_nm < lambda0_nm - half - 1e-9
        or lambda_stop_nm > lambda0_nm + half + 1e-9
    )
    return TunabilityReport(
        lambda_start_nm=float(lambda_start_nm),
        lambda_stop_nm=float(lambda_stop_nm),
        min_differential_ps_per_km=min(differentials),
        max_differential_ps_per_km=max(differentials),
        delta_d_ps_per_km_nm=solution.delta_d_ps_per_km_nm,
        bandwidth_exceeded=bool(exceeded),
    )


def _taps(solution, length_km, wavelength_nm=None):
    check("length", positive, length_km)
    if wavelength_nm is None:
        wavelength_nm = solution.lambda0_um * 1e3
    check("wavelength_nm", finite, wavelength_nm)
    return tuple(row[0] * length_km for row in _first_order(solution, wavelength_nm))


def tap_delays_ps(solution, length_km, wavelength_nm=None):
    """Absolute per-sample tap delays (ps) for a link of the given length."""
    return _array(_taps(solution, length_km, wavelength_nm))


def _db(h):
    return 20.0 * math.log10(abs(h)) if h else -math.inf


@dataclass(frozen=True)
class RfResponse:
    """Complex N-tap delay-line filter response over an RF frequency grid, as tuples."""

    frequencies: tuple
    h: tuple
    delays: tuple
    amplitudes: tuple
    fsr_ghz: float | None

    frequencies_ghz = property(lambda self: _array(self.frequencies))
    response = property(lambda self: _array(self.h, complex))
    tap_delays_ps = property(lambda self: _array(self.delays))
    tap_amplitudes = property(lambda self: _array(self.amplitudes))
    magnitude = property(lambda self: _array(map(abs, self.h)))
    magnitude_db = property(lambda self: _array(map(_db, self.h)))


def amplitude_problems(amplitudes, n_taps=None):
    """What is wrong with tap amplitudes: a value < 0, or not one value per tap."""
    problems = ["values must be >= 0"] if any(value < 0.0 for value in amplitudes) else []
    if n_taps is not None and len(amplitudes) != n_taps:
        problems.append(f"{len(amplitudes)} values for {n_taps} samples")
    return problems


def rf_response(tap_delays, tap_amplitudes, frequencies_ghz):
    """H(f) = sum_i a_i exp(-j 2 pi f tau_i) with f in GHz and tau in ps, summed in tap order."""
    delays = _floats("tap_delays", tap_delays)
    amplitudes = _floats("tap_amplitudes", tap_amplitudes)
    frequencies = _floats("frequencies_ghz", frequencies_ghz)
    if len(delays) < 2:
        raise DegenerateFilterError(f"need at least 2 taps, got {len(delays)}")
    if problems := amplitude_problems(amplitudes, len(delays)):
        raise ValueError("amplitudes: " + "; ".join(problems))
    spacings = [b - a for a, b in zip(delays, delays[1:])]
    if min(spacings) <= 0.0:
        raise ValueError("tap delays must be sorted strictly ascending")
    response = [0j] * len(frequencies)
    for a, tau in zip(amplitudes, delays):  # each H(f) gains one tap at a time, in tap order
        response = [h + a * cmath.exp(_PHASE * (f * tau)) for h, f in zip(response, frequencies)]
    mean_spacing = math.fsum(spacings) / len(spacings)
    uniform = max(abs(s - mean_spacing) for s in spacings) <= _UNIFORM_SPACING_RTOL * mean_spacing
    fsr = 1e3 / mean_spacing if uniform else None  # ps -> GHz
    return RfResponse(frequencies=frequencies, h=tuple(response), delays=delays,
                      amplitudes=amplitudes, fsr_ghz=fsr)


# --- CSV emitters -----------------------------------------------------------

def delay_curve_to_csv(curve):
    n_samples = len(curve.delays)
    header = ["lambda_nm"]
    header += [f"tau{i}" for i in range(1, n_samples + 1)]
    header += [f"dtau{i + 1}{i}" for i in range(1, n_samples)]
    delays = curve.delays
    differences = ([b - a for a, b in zip(low, high)] for low, high in zip(delays, delays[1:]))
    columns = [*delays, *differences]
    return csv_text(",".join(header), (
        [fmt_float(lam), *(fmt_float(column[j]) for column in columns)]
        for j, lam in enumerate(curve.wavelengths)
    ))


def write_delay_curve(curve, path):
    atomic_write_text(path, delay_curve_to_csv(curve))


def rf_response_to_csv(result):
    return csv_text("f_GHz,re,im,mag_db", (
        map(fmt_float, (f, h.real, h.imag, _db(h)))
        for f, h in zip(result.frequencies, result.h)
    ))


def write_rf_response(result, path):
    atomic_write_text(path, rf_response_to_csv(result))
