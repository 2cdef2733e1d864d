"""Delay-line evaluation: wavelength-dependent delays and RF filter response.

Two delay models are available.  The first-order model extrapolates each
sample's equivalent delay linearly in wavelength with its equivalent
dispersion (exact within the design's Taylor window).  The numeric model
re-solves the fiber modes at the requested wavelengths, all in one solve,
and recombines the per-segment delays, capturing effects beyond first order.

Delays are reported per unit length (ps/km) relative to the design's
reference mode; the RF tap delays are the absolute per-sample delays for a
given link length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import modal_weights, path_sum
from .fileio import atomic_write_text, check, csv_text, fmt_float, order_rule, positive, um_from_nm
from .modes import ModeSolverError, _probed, format_mode_label

FIRST_ORDER = "first-order"
NUMERIC_SWEEP = "numeric-sweep"

_UNIFORM_SPACING_RTOL = 1e-6


class EvaluationError(RuntimeError):
    """Delay evaluation failed (for example a mode cutoff at the wavelength)."""


class DegenerateFilterError(ValueError):
    """Fewer than two taps cannot form a delay-line filter."""


def sample_delays_first_order(solution, wavelengths_nm):
    """Per-sample delay per unit length at the given wavelength(s), ps/km.

    Scalar input yields shape (n_samples,), a grid yields
    (n_samples, n_wavelengths).
    """
    lam = np.asarray(wavelengths_nm, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    lambda0_nm = solution.lambda0_um * 1e3
    tau_eq = np.asarray(solution.tau_eq_ps_per_km)
    if solution.d_eq_ps_per_km_nm is not None:
        d_eq = np.asarray(solution.d_eq_ps_per_km_nm)
    elif np.all(lam == lambda0_nm):
        d_eq = np.zeros_like(tau_eq)
    else:
        raise EvaluationError(
            f"placements lack D_eq_1..D_eq_{len(tau_eq)}; the first-order delay "
            f"away from {fmt_float(lambda0_nm)} nm needs them"
        )
    delays = tau_eq[:, None] + (lam[None, :] - lambda0_nm) * d_eq[:, None]
    return delays[:, 0] if scalar else delays


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
    """Sampled per-sample delays (ps/km) over a wavelength grid (nm)."""

    wavelengths_nm: np.ndarray
    sample_delays_ps_per_km: np.ndarray
    model: str
    lambda0_nm: float

    @property
    def differential_delays(self):
        """Adjacent-sample delay differences, shape (n_samples - 1, n_points)."""
        return np.diff(self.sample_delays_ps_per_km, axis=0)


def delay_curve(solution, wavelengths_nm, model=FIRST_ORDER, graph=None, profile=None):
    lam = np.atleast_1d(np.asarray(wavelengths_nm, dtype=float))
    if model == FIRST_ORDER:
        delays = sample_delays_first_order(solution, lam)
    elif model == NUMERIC_SWEEP:
        if graph is None or profile is None:
            raise ValueError("numeric-sweep model needs graph and profile")
        delays = sample_delays_numeric(solution, graph, profile, lam)
    else:
        raise ValueError(f"model must be '{FIRST_ORDER}' or '{NUMERIC_SWEEP}', got '{model}'")
    return DelayCurve(
        wavelengths_nm=lam,
        sample_delays_ps_per_km=delays,
        model=model,
        lambda0_nm=solution.lambda0_um * 1e3,
    )


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
    check("wavelength range", order_rule, (lambda_start_nm, lambda_stop_nm))
    check("lpg_bandwidth_nm", positive, lpg_bandwidth_nm)
    endpoints = np.array([lambda_start_nm, lambda_stop_nm])
    delays = sample_delays_first_order(solution, endpoints)
    differentials = np.diff(delays, axis=0)
    lambda0_nm = solution.lambda0_um * 1e3
    half = lpg_bandwidth_nm / 2.0
    exceeded = (
        lambda_start_nm < lambda0_nm - half - 1e-9
        or lambda_stop_nm > lambda0_nm + half + 1e-9
    )
    return TunabilityReport(
        lambda_start_nm=float(lambda_start_nm),
        lambda_stop_nm=float(lambda_stop_nm),
        min_differential_ps_per_km=float(differentials.min()),
        max_differential_ps_per_km=float(differentials.max()),
        delta_d_ps_per_km_nm=solution.delta_d_ps_per_km_nm,
        bandwidth_exceeded=bool(exceeded),
    )


def tap_delays_ps(solution, length_km, wavelength_nm=None):
    """Absolute per-sample tap delays (ps) for a link of the given length."""
    check("length", positive, length_km)
    if wavelength_nm is None:
        wavelength_nm = solution.lambda0_um * 1e3
    per_km = sample_delays_first_order(solution, float(wavelength_nm))
    return per_km * length_km


@dataclass(frozen=True)
class RfResponse:
    """Complex N-tap delay-line filter response over an RF frequency grid."""

    frequencies_ghz: np.ndarray
    response: np.ndarray
    tap_delays_ps: np.ndarray
    tap_amplitudes: np.ndarray
    fsr_ghz: float | None

    @property
    def magnitude(self):
        return np.abs(self.response)

    @property
    def magnitude_db(self):
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(self.magnitude)


def amplitude_problems(amplitudes, n_taps=None):
    """What is wrong with tap amplitudes: a value < 0, or not one value per tap."""
    problems = ["values must be >= 0"] if np.any(np.asarray(amplitudes) < 0.0) else []
    if n_taps is not None and np.shape(amplitudes) != (n_taps,):
        problems.append(f"{np.size(amplitudes)} values for {n_taps} samples")
    return problems


def rf_response(tap_delays, tap_amplitudes, frequencies_ghz):
    """H(f) = sum_i a_i exp(-j 2 pi f tau_i) with f in GHz and tau in ps."""
    delays = np.asarray(tap_delays, dtype=float)
    amplitudes = np.asarray(tap_amplitudes, dtype=float)
    frequencies = np.atleast_1d(np.asarray(frequencies_ghz, dtype=float))
    if delays.size < 2:
        raise DegenerateFilterError(f"need at least 2 taps, got {delays.size}")
    if problems := amplitude_problems(amplitudes, delays.size):
        raise ValueError("amplitudes: " + "; ".join(problems))
    if np.any(np.diff(delays) <= 0.0):
        raise ValueError("tap delays must be sorted strictly ascending")
    phase = -2.0j * np.pi * 1e-3 * np.outer(frequencies, delays)  # GHz * ps -> cycles
    response = np.exp(phase) @ amplitudes
    spacings = np.diff(delays)
    mean_spacing = float(spacings.mean())
    fsr = None
    if np.max(np.abs(spacings - mean_spacing)) <= _UNIFORM_SPACING_RTOL * mean_spacing:
        fsr = 1e3 / mean_spacing  # ps -> GHz
    return RfResponse(
        frequencies_ghz=frequencies,
        response=response,
        tap_delays_ps=delays,
        tap_amplitudes=amplitudes,
        fsr_ghz=fsr,
    )


# --- CSV emitters -----------------------------------------------------------

def delay_curve_to_csv(curve):
    n_samples = curve.sample_delays_ps_per_km.shape[0]
    header = ["lambda_nm"]
    header += [f"tau{i}" for i in range(1, n_samples + 1)]
    header += [f"dtau{i + 1}{i}" for i in range(1, n_samples)]
    columns = np.vstack([curve.sample_delays_ps_per_km, curve.differential_delays])
    return csv_text(",".join(header), (
        [fmt_float(lam), *map(fmt_float, columns[:, j])]
        for j, lam in enumerate(curve.wavelengths_nm)
    ))


def write_delay_curve(curve, path):
    atomic_write_text(path, delay_curve_to_csv(curve))


def rf_response_to_csv(result):
    return csv_text("f_GHz,re,im,mag_db", (
        map(fmt_float, (f, h.real, h.imag, db))
        for f, h, db in zip(result.frequencies_ghz, result.response, result.magnitude_db)
    ))


def write_rf_response(result, path):
    atomic_write_text(path, rf_response_to_csv(result))
