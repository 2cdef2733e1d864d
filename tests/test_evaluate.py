import math
import warnings

import numpy as np
import pytest

import oracles
from fmf_ttdl.design import PlacementSolution, parse_graph
from fmf_ttdl.evaluate import (
    DegenerateFilterError,
    EvaluationError,
    delay_curve,
    delay_curve_to_csv,
    rf_response,
    rf_response_to_csv,
    sample_delays_first_order,
    sample_delays_numeric,
    tap_delays_ps,
    tunability_report,
)
from fmf_ttdl.fileio import grid_points, order_rule, span_rule
from fmf_ttdl.materials import FiberProfile, Layer, WavelengthRangeError


def test_differential_delays_at_center_wavelength(reference_solution):
    delays = sample_delays_first_order(reference_solution, 1550.0)
    assert np.diff(delays) == pytest.approx([100.0, 100.0, 100.0], abs=1e-6)


def test_differential_delays_at_band_edges(reference_solution):
    low = np.diff(sample_delays_first_order(reference_solution, 1540.0))
    high = np.diff(sample_delays_first_order(reference_solution, 1560.0))
    delta_d = reference_solution.delta_d_ps_per_km_nm
    assert low == pytest.approx([100.0 - 10.0 * delta_d] * 3, abs=1e-9)
    assert high == pytest.approx([100.0 + 10.0 * delta_d] * 3, abs=1e-9)
    assert low == pytest.approx([49.0] * 3, abs=1.0)
    assert high == pytest.approx([151.0] * 3, abs=1.0)


def test_pair_curves_affine_and_coincident(reference_solution):
    grid = np.linspace(1540.0, 1560.0, 41)
    curve = delay_curve(reference_solution, grid)
    assert curve.lambda0_nm == 1550.0
    differentials = curve.differential_delays
    # all three pair curves collapse onto one line
    assert np.max(np.abs(differentials - differentials[0])) < 1e-9
    # affine in wavelength: vanishing second differences, slope = delta D
    second = np.diff(differentials, n=2, axis=1)
    assert np.max(np.abs(second)) < 1e-9
    slope = np.diff(differentials, axis=1) / np.diff(grid)
    assert slope == pytest.approx(
        reference_solution.delta_d_ps_per_km_nm * np.ones_like(slope), abs=1e-9
    )


def test_differential_delay_monotone_when_dispersion_positive(reference_solution):
    grid = np.linspace(1540.0, 1560.0, 11)
    differentials = delay_curve(reference_solution, grid).differential_delays
    assert reference_solution.delta_d_ps_per_km_nm > 0
    assert np.all(np.diff(differentials, axis=1) > 0)


def test_numeric_matches_first_order_at_center(
    solver_solution_blend, four_sample_graph, ring_profile_blend
):
    numeric = sample_delays_numeric(
        solver_solution_blend, four_sample_graph, ring_profile_blend, 1550.0
    )
    first_order = sample_delays_first_order(solver_solution_blend, 1550.0)
    assert numeric == pytest.approx(first_order, abs=1e-9)


def test_numeric_second_order_residual_is_small(
    solver_solution_blend, four_sample_graph, ring_profile_blend
):
    for lam in (1540.0, 1560.0):
        numeric = np.diff(
            sample_delays_numeric(
                solver_solution_blend, four_sample_graph, ring_profile_blend, lam
            )
        )
        first_order = np.diff(sample_delays_first_order(solver_solution_blend, lam))
        assert np.max(np.abs(numeric - first_order)) < 5.0


def test_numeric_full_length_sample_is_single_mode_delay(
    solver_solution_blend, four_sample_graph, ring_profile_blend, solver_table_blend
):
    numeric = sample_delays_numeric(
        solver_solution_blend, four_sample_graph, ring_profile_blend, 1550.0
    )
    tau21 = solver_table_blend.mode(2, 1).tau_ps_per_km
    tau01 = solver_table_blend.mode(0, 1).tau_ps_per_km
    assert numeric[3] == pytest.approx(tau21 - tau01, abs=1e-9)


def test_numeric_curve_agrees_with_first_order_and_with_each_numeric_solve(
    solver_solution_blend, four_sample_graph, ring_profile_blend
):
    grid = [1545.0, 1550.0, 1555.0]
    curve = delay_curve(solver_solution_blend, grid, model="numeric-sweep",
                        graph=four_sample_graph, profile=ring_profile_blend)
    assert curve.sample_delays_ps_per_km.shape == (4, 3)
    first_order = delay_curve(solver_solution_blend, [1550.0]).sample_delays_ps_per_km[:, 0]
    assert curve.sample_delays_ps_per_km[:, 1] == pytest.approx(first_order, abs=1e-9)
    for column, lam in zip(curve.sample_delays_ps_per_km.T, grid):
        assert np.array_equal(column, sample_delays_numeric(
            solver_solution_blend, four_sample_graph, ring_profile_blend, lam
        ))


@pytest.mark.parametrize("blend", [False, True])
def test_numeric_curve_matches_a_solve_per_wavelength_bit_for_bit(
    blend, solver_solution_blend, four_sample_graph, ring_profile, ring_profile_blend
):
    profile = ring_profile_blend if blend else ring_profile
    for grid in ([1545.0, 1550.0, 1555.0], grid_points(1540.0, 1560.0, 0.5)):
        curve = delay_curve(solver_solution_blend, grid, model="numeric-sweep",
                            graph=four_sample_graph, profile=profile)
        assert np.array_equal(curve.sample_delays_ps_per_km, oracles.sample_delays_per_wavelength(
            solver_solution_blend, four_sample_graph, profile, grid))


def test_numeric_curve_needs_graph_and_profile(
    solver_solution_blend, four_sample_graph, ring_profile_blend
):
    with pytest.raises(ValueError, match="numeric-sweep model needs graph and profile"):
        delay_curve(solver_solution_blend, [1550.0], model="numeric-sweep",
                    graph=four_sample_graph)
    # an empty grid gives no columns under either model
    for model in ("first-order", "numeric-sweep"):
        curve = delay_curve(solver_solution_blend, [], model=model, graph=four_sample_graph,
                            profile=ring_profile_blend)
        assert curve.sample_delays_ps_per_km.shape == (4, 0)


@pytest.mark.parametrize("reference, wavelength_nm, message", [
    # the +0.5 nm probe of a solve at 1557.999 nm lies past LP11's cutoff
    ((0, 1), 1557.999, "mode LP11 not resolvable at 1558.499 nm (cutoff crossed?)"),
    ((0, 2), 1550.0, "reference mode LP02 not guided at 1550.0 nm"),
    ((0, 1), 1560.0, "mode LP11 not guided at 1560.0 nm"),
    # on a grid, each wavelength's errors come before anything about a later one
    ((0, 1), [1550, 1557.999, 1560], "mode LP11 not resolvable at 1558.499 nm (cutoff crossed?)"),
    ((0, 1), [1550, 1560, 2500], "mode LP11 not guided at 1560.0 nm"),
    ((0, 1), [1550, 2500, 1560],
     WavelengthRangeError("wavelength 2.5 um outside supported range [0.5, 2.0] um")),
])
def test_numeric_delays_need_every_mode_guided(reference, wavelength_nm, message):
    # a weak step whose LP11 cuts off near 1558.20 nm; sample 2 rides LP11
    profile = FiberProfile(layers=(Layer(7.3, 0.0016),))
    graph = parse_graph("[sample 1]\nsegment = LP01, fixed\n[sample 2]\nsegment = LP11, fixed\n")
    solution = PlacementSolution(lengths={}, tau_eq_ps_per_km=(0.0, 1.0), d_eq_ps_per_km_nm=None,
                                 delta_tau_ps_per_km=1.0, delta_d_ps_per_km_nm=None,
                                 lambda0_um=1.55, reference_mode=reference)
    expected = message if isinstance(message, Exception) else EvaluationError(message)
    with pytest.raises(type(expected)) as excinfo:
        sample_delays_numeric(solution, graph, profile, wavelength_nm)
    assert str(excinfo.value) == str(expected)


def test_tunability_report(reference_solution):
    report = tunability_report(reference_solution, 1540.0, 1560.0)
    assert report.min_differential_ps_per_km == pytest.approx(49.0, abs=1.0)
    assert report.max_differential_ps_per_km == pytest.approx(151.0, abs=1.0)
    assert report.delta_d_ps_per_km_nm == pytest.approx(5.10, abs=0.01)
    assert not report.bandwidth_exceeded


def test_tunability_zero_width_range(reference_solution):
    report = tunability_report(reference_solution, 1550.0, 1550.0)
    assert report.min_differential_ps_per_km == pytest.approx(100.0, abs=1e-6)
    assert report.max_differential_ps_per_km == pytest.approx(100.0, abs=1e-6)


def test_tunability_reversed_range_uses_the_shared_order_rule(reference_solution):
    with pytest.raises(ValueError) as excinfo:
        tunability_report(reference_solution, 1560.0, 1540.0)
    assert str(excinfo.value) == "wavelength range stop 1540.0 precedes start 1560.0"
    assert span_rule((1560.0, 1540.0, 1.0)) == order_rule((1560.0, 1540.0))


def test_tunability_bandwidth_warning(reference_solution):
    report = tunability_report(reference_solution, 1535.0, 1565.0, lpg_bandwidth_nm=20.0)
    assert report.bandwidth_exceeded
    wide = tunability_report(reference_solution, 1535.0, 1565.0, lpg_bandwidth_nm=40.0)
    assert not wide.bandwidth_exceeded
    # one side past the grating band is enough, on either side
    assert tunability_report(reference_solution, 1535.0, 1550.0).bandwidth_exceeded
    assert tunability_report(reference_solution, 1550.0, 1565.0).bandwidth_exceeded


def test_tunability_rejects_a_bandwidth_the_cli_rejects(reference_solution):
    for bandwidth in (-4.0, float("nan")):
        with pytest.raises(ValueError) as excinfo:
            tunability_report(reference_solution, 1545.0, 1555.0, lpg_bandwidth_nm=bandwidth)
        assert str(excinfo.value) == f"lpg_bandwidth_nm must be > 0, got {bandwidth}"


def test_delay_curve_csv_header_and_rows(reference_solution):
    grid = np.linspace(1540.0, 1560.0, 41)
    text = delay_curve_to_csv(delay_curve(reference_solution, grid))
    lines = text.strip().splitlines()
    assert lines[0] == "lambda_nm,tau1,tau2,tau3,tau4,dtau21,dtau32,dtau43"
    assert len(lines) == 42
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1540.0
    assert first[5] == pytest.approx(49.0, abs=1.0)


# --- RF response -----------------------------------------------------------------

def test_tap_delays_scale_with_length(reference_solution):
    taps = tap_delays_ps(reference_solution, 2.0)
    assert np.diff(taps) == pytest.approx([200.0, 200.0, 200.0], abs=1e-6)
    taps_tuned = tap_delays_ps(reference_solution, 2.0, 1560.0)
    expected = (100.0 + 10.0 * reference_solution.delta_d_ps_per_km_nm) * 2.0
    assert np.diff(taps_tuned) == pytest.approx([expected] * 3, abs=1e-9)


def test_rf_response_reference_design(reference_solution):
    taps = tap_delays_ps(reference_solution, 2.0)
    grid = np.arange(0.0, 10.0 + 1e-9, 0.05)
    result = rf_response(taps, np.ones(4), grid)
    assert result.fsr_ghz == pytest.approx(5.0, abs=1e-6)
    assert abs(result.response[0]) == pytest.approx(4.0, abs=1e-9)
    for null_ghz in (1.25, 2.5, 3.75):
        index = int(round(null_ghz / 0.05))
        assert grid[index] == pytest.approx(null_ghz, abs=1e-12)
        assert abs(result.response[index]) < 1e-9


def test_rf_fsr_delay_reciprocity(reference_solution):
    taps = tap_delays_ps(reference_solution, 2.0)
    result = rf_response(taps, np.ones(4), np.linspace(0.0, 5.0, 11))
    spacing = np.diff(taps).mean()
    assert result.fsr_ghz * spacing * 1e-3 == pytest.approx(1.0, rel=1e-9)


def test_rf_conjugate_symmetry():
    taps = np.array([0.0, 130.0, 260.0])
    amplitudes = np.array([1.0, 0.5, 0.25])
    grid = np.linspace(-4.0, 4.0, 81)
    result = rf_response(taps, amplitudes, grid)
    assert np.allclose(result.response[::-1], np.conj(result.response))


def test_rf_dc_value_is_amplitude_sum():
    result = rf_response([0.0, 100.0], [0.75, 1.5], [0.0])
    assert abs(result.response[0]) == pytest.approx(2.25, rel=1e-12)


def test_rf_zero_amplitude_tap_is_a_silent_tap():
    result = rf_response([0.0, 100.0, 200.0], [1.0, 0.0, 0.5], [0.0, 2.5])
    assert result.response == pytest.approx([1.5, 1.0 + 0.5 * np.exp(-1j * np.pi)], abs=1e-12)


def test_rf_nonuniform_taps_have_no_fsr():
    result = rf_response([0.0, 100.0, 250.0], np.ones(3), np.linspace(0, 5, 6))
    assert result.fsr_ghz is None


def test_rf_validation():
    with pytest.raises(DegenerateFilterError):
        rf_response([0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        rf_response([0.0, -5.0], [1.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        rf_response([0.0, 5.0], [1.0, -1.0], [0.0])
    with pytest.raises(ValueError):
        rf_response([0.0, 5.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="^amplitudes: values must be >= 0; 1 values for 2 samples$"):
        rf_response([0.0, 5.0], [-1.0], [0.0])


def test_rf_response_csv_parses(reference_solution):
    taps = tap_delays_ps(reference_solution, 2.0)
    result = rf_response(taps, np.ones(4), np.linspace(0.0, 5.0, 6))
    lines = rf_response_to_csv(result).strip().splitlines()
    assert lines[0] == "f_GHz,re,im,mag_db"
    values = [float(v) for v in lines[1].split(",")]
    assert values[1] == pytest.approx(4.0)
    assert values[3] == pytest.approx(20.0 * np.log10(4.0))


def test_delay_curve_model_validation(reference_solution):
    with pytest.raises(ValueError):
        delay_curve(reference_solution, [1550.0], model="quadratic")
    with pytest.raises(ValueError):
        delay_curve(reference_solution, [1550.0], model="numeric-sweep")


def test_first_order_delays_without_dispersion_entries(reference_solution):
    from dataclasses import replace

    no_d = replace(reference_solution, d_eq_ps_per_km_nm=None)
    assert sample_delays_first_order(no_d, 1550.0).tolist() == list(
        reference_solution.tau_eq_ps_per_km
    )
    with pytest.raises(EvaluationError, match="D_eq_1..D_eq_4"):
        sample_delays_first_order(no_d, [1550.0, 1551.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda s: rf_response([0.0, 100.0], [1.0, NAN], [0.0, 1.0]),
     "tap_amplitudes must be finite, got nan"),
    (lambda s: rf_response([0.0, 100.0], [INF, 1.0], [0.0]),
     "tap_amplitudes must be finite, got inf"),
    (lambda s: rf_response([0.0, NAN], [1.0, 1.0], [0.0]), "tap_delays must be finite, got nan"),
    (lambda s: rf_response([0.0, INF], [1.0, 1.0], [0.0]), "tap_delays must be finite, got inf"),
    (lambda s: rf_response([0.0, 100.0], [1.0, 1.0], [0.0, NAN]),
     "frequencies_ghz must be finite, got nan"),
    (lambda s: rf_response([0.0, 100.0], [1.0, 1.0], -INF),
     "frequencies_ghz must be finite, got -inf"),
    (lambda s: tap_delays_ps(s, INF), "length must be finite, got inf"),
    (lambda s: tap_delays_ps(s, 2.0, NAN), "wavelength_nm must be finite, got nan"),
    (lambda s: tap_delays_ps(s, 2.0, INF), "wavelength_nm must be finite, got inf"),
    (lambda s: tap_delays_ps(s, 2.0, -INF), "wavelength_nm must be finite, got -inf"),
    (lambda s: delay_curve(s, [NAN]), "wavelengths_nm must be finite, got nan"),
    (lambda s: delay_curve(s, [1550.0, INF]), "wavelengths_nm must be finite, got inf"),
    (lambda s: sample_delays_first_order(s, np.array(NAN)),
     "wavelengths_nm must be finite, got nan"),
    (lambda s: tunability_report(s, NAN, 1560.0), "lambda_start_nm must be finite, got nan"),
    (lambda s: tunability_report(s, INF, 1560.0), "lambda_start_nm must be finite, got inf"),
    (lambda s: tunability_report(s, -INF, 1560.0), "lambda_start_nm must be finite, got -inf"),
    (lambda s: tunability_report(s, 1540.0, NAN), "lambda_stop_nm must be finite, got nan"),
    (lambda s: tunability_report(s, 1540.0, INF), "lambda_stop_nm must be finite, got inf"),
    # positive lets inf through, where the CLI's finite_float does not
    (lambda s: tunability_report(s, 1000.0, 2000.0, lpg_bandwidth_nm=INF),
     "lpg_bandwidth_nm must be finite, got inf"),
])
def test_non_finite_inputs_are_rejected_by_name(call, message, reference_solution):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ValueError) as excinfo:
            call(reference_solution)
    assert str(excinfo.value) == message


def test_rf_response_is_the_tap_order_sum(reference_solution):
    grid = grid_points(0.0, 10.0, 0.005)
    for wavelength_nm, amplitudes in ((1550.0, [1.0] * 4), (1560.0, [1.0, 0.5, 0.25, 0.0]),
                                      (1543.7, [0.3, 1.7, 0.9, 2.2])):
        taps = tap_delays_ps(reference_solution, 2.0, wavelength_nm)
        result = rf_response(taps, amplitudes, grid)
        # the same complex numbers as one scalar sum per frequency, bit for bit
        assert list(result.h) == oracles.rf_response_tap_order(taps, amplitudes, grid)
        # and numpy's matmul of the phase terms, which may sum in another order, to rounding
        old = np.exp(-2.0j * np.pi * 1e-3 * np.outer(grid, taps)) @ np.array(amplitudes)
        assert np.max(np.abs(result.response - old)) <= 1e-12 * sum(amplitudes)


def test_results_store_tuples_and_build_arrays_when_read(reference_solution):
    curve = delay_curve(reference_solution, [1545.0, 1550.0])
    assert isinstance(curve.delays, tuple) and isinstance(curve.wavelengths, tuple)
    assert curve.sample_delays_ps_per_km.shape == (4, 2)
    assert np.array_equal(curve.wavelengths_nm, [1545.0, 1550.0])
    assert np.array_equal(curve.sample_delays_ps_per_km,
                          sample_delays_first_order(reference_solution, [1545.0, 1550.0]))
    result = rf_response([0.0, 100.0], [1.0, 1.0], [0.0, 2.5, 5.0])
    assert isinstance(result.h, tuple)
    assert result.response.dtype == complex and result.response.shape == (3,)
    assert np.array_equal(result.tap_delays_ps, [0.0, 100.0])
    assert np.array_equal(result.tap_amplitudes, [1.0, 1.0])
    assert np.array_equal(result.frequencies_ghz, [0.0, 2.5, 5.0])
    assert np.array_equal(result.magnitude, np.abs(result.response))
    assert result.magnitude_db.tolist() == [20.0 * math.log10(m) for m in result.magnitude]
    silent = rf_response([0.0, 100.0], [0.0, 0.0], [1.0])
    assert silent.magnitude_db.tolist() == [-np.inf]
    assert rf_response_to_csv(silent).splitlines()[1] == "1.0,0.0,0.0,-inf"


def test_rf_taps_must_ascend_and_near_uniform_taps_have_an_fsr():
    with pytest.raises(ValueError, match="^tap delays must be sorted strictly ascending$"):
        rf_response([0.0, 0.0], [1.0, 1.0], [0.0])
    assert rf_response([0.0, 0.5], [1.0, 1.0], [0.0]).fsr_ghz == 2000.0
    # spacings within 1e-6 of their mean, relative, are uniform
    assert rf_response([0.0, 100.0, 200.00001], np.ones(3), [0.0]).fsr_ghz == pytest.approx(10.0)
    assert rf_response([0.0, 100.0, 200.001], np.ones(3), [0.0]).fsr_ghz is None
