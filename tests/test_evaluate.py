import numpy as np
import pytest

from fmf_ttdl.evaluate import (
    DegenerateFilterError,
    delay_curve,
    delay_curve_to_csv,
    rf_response,
    rf_response_to_csv,
    sample_delays_first_order,
    sample_delays_numeric,
    tap_delays_ps,
    tunability_report,
)
from fmf_ttdl.fileio import order_rule, span_rule


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


def test_numeric_curve_needs_graph_and_profile(solver_solution_blend, four_sample_graph):
    with pytest.raises(ValueError, match="numeric-sweep model needs graph and profile"):
        delay_curve(solver_solution_blend, [1550.0], model="numeric-sweep",
                    graph=four_sample_graph)


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

    from fmf_ttdl.evaluate import EvaluationError

    no_d = replace(reference_solution, d_eq_ps_per_km_nm=None)
    assert sample_delays_first_order(no_d, 1550.0).tolist() == list(
        reference_solution.tau_eq_ps_per_km
    )
    with pytest.raises(EvaluationError, match="D_eq_1..D_eq_4"):
        sample_delays_first_order(no_d, [1550.0, 1551.0])
