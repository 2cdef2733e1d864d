import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp

import oracles
from oracles import two_layer_lp_modes, two_layer_lp_roots

from fmf_ttdl.fileio import FileFormatError
from fmf_ttdl.materials import FiberProfile, Layer
from fmf_ttdl.modes import (
    ModeContinuationError,
    ModeSolverError,
    ModeRecord,
    ModeTable,
    characteristic_value,
    dispersion,
    find_modes,
    format_mode_label,
    group_delay,
    mode_table_to_csv,
    parse_mode_label,
    parse_mode_table_csv,
    read_mode_table,
    solve_mode_table,
    sweep_modes,
    write_mode_table,
)

EXPECTED_ORDER = ("LP01", "LP11", "LP21", "LP31", "LP02", "LP12", "LP41")


# --- cylinder-function accuracy ----------------------------------------------

def test_scipy_cylinder_functions_match_high_precision_reference():
    path = Path(__file__).parent / "data" / "bessel_reference.csv"
    evaluators = {"J": sp.jv, "Y": sp.yv, "I": sp.iv, "K": sp.kv}
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        value = evaluators[row["function"]](int(row["order"]), float(row["x"]))
        reference = float(row["value"])
        assert value == pytest.approx(reference, rel=1e-10), row


# --- mode labels --------------------------------------------------------------

def test_mode_label_round_trip():
    assert parse_mode_label("LP02") == (0, 2)
    assert parse_mode_label("lp41") == (4, 1)
    assert parse_mode_label("LP10_1") == (10, 1)
    assert format_mode_label(0, 2) == "LP02"
    assert format_mode_label(10, 1) == "LP10_1"
    for bad in ("LP", "LP0", "L01", "LP0x", "LP00"):
        with pytest.raises(ValueError):
            parse_mode_label(bad)
    for bad in ("LP²1", "LP1_²", "LP" + "1" * 5000 + "_1"):  # digits that int() does not read
        with pytest.raises(ValueError, match="must look like"):
            parse_mode_label(bad)


# --- characteristic function ---------------------------------------------------

def test_characteristic_value_zero_at_eigenvalue(ring_profile):
    table = find_modes(ring_profile, 1.55)
    for record in table.modes:
        assert abs(characteristic_value(ring_profile, record.l, record.n_eff, 1.55)) < 1e-8


def test_characteristic_value_domain_error(ring_profile):
    n_clad = ring_profile.cladding_index(1.55)
    with pytest.raises(ValueError):
        characteristic_value(ring_profile, 0, n_clad - 1e-4, 1.55)
    with pytest.raises(ValueError):
        characteristic_value(ring_profile, 0, 1.47, 1.55)


def test_characteristic_value_continuous_across_basis_switch(ring_profile):
    # inner-layer index is a basis-switch point; values must not jump there
    n_switch = ring_profile.layer_index(0, 1.55)
    for l in (0, 1, 3):
        at = characteristic_value(ring_profile, l, n_switch, 1.55)
        below = characteristic_value(ring_profile, l, n_switch - 1e-9, 1.55)
        above = characteristic_value(ring_profile, l, n_switch + 1e-9, 1.55)
        assert at == pytest.approx(below, abs=1e-6)
        assert at == pytest.approx(above, abs=1e-6)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("l", [0, 1, 2, 4])
def test_power_law_propagator_meets_the_bessel_one_at_the_switch(l, sign):
    from fmf_ttdl import modes

    r_inner, r_outer = 3.0, 10.0
    switch = modes._DEGENERATE_X2 / r_outer**2  # |u^2| where the basis changes

    def unit(u2):
        [[prop]] = modes._propagator(np.array([l]), np.array([sign * u2]), (r_inner, r_outer))
        return prop / np.linalg.norm(prop)

    assert np.max(np.abs(unit(0.999 * switch) - unit(1.001 * switch))) <= 5e-14


def test_single_sign_change_for_l2(ring_profile):
    n_clad = ring_profile.cladding_index(1.55)
    n_max = ring_profile.layer_index(1, 1.55)
    grid = np.linspace(n_clad + 1e-7, n_max - 1e-7, 2000)
    values = np.array([characteristic_value(ring_profile, 2, x, 1.55) for x in grid])
    assert int(np.sum(values[:-1] * values[1:] < 0)) == 1


def test_two_layer_agreement_with_classical_relation():
    profile = FiberProfile(layers=(Layer(10.0, 0.0072),))
    n_core = profile.layer_index(0, 1.55)
    n_clad = profile.cladding_index(1.55)
    table = find_modes(profile, 1.55)
    orders = sorted({record.l for record in table.modes})
    assert orders == list(range(len(orders))) and len(orders) > 1
    assert not two_layer_lp_roots(n_core, n_clad, 10.0, 1.55, len(orders))
    for l in orders:
        oracle = two_layer_lp_roots(n_core, n_clad, 10.0, 1.55, l)
        mine = [record.n_eff for record in table.modes if record.l == l]
        assert len(oracle) == len(mine)
        for got, expected in zip(mine, oracle):
            assert abs(got - expected) < 1e-9


# --- find_modes ----------------------------------------------------------------

def test_reference_profile_mode_set(ring_profile):
    table = find_modes(ring_profile, 1.55)
    assert table.labels() == EXPECTED_ORDER
    assert table.neff_separations().min() > 5e-4


def test_no_contrast_profile_yields_empty_table():
    profile = FiberProfile(layers=(Layer(3.0, 0.0), Layer(10.0, 0.0)))
    table = find_modes(profile, 1.55)
    assert len(table) == 0


def test_find_modes_parameter_preconditions(ring_profile):
    with pytest.raises(ValueError):
        find_modes(ring_profile, 1.55, scan_points=400)
    with pytest.raises(ValueError):
        find_modes(ring_profile, 1.55, root_tol=1e-9)


def test_grid_independence(ring_profile):
    coarse = find_modes(ring_profile, 1.55, scan_points=2000, root_tol=1e-12)
    fine = find_modes(ring_profile, 1.55, scan_points=4096, root_tol=1e-12)
    assert coarse.labels() == fine.labels()
    for a, b in zip(coarse.modes, fine.modes):
        assert abs(a.n_eff - b.n_eff) <= 1e-12


def test_ring_degeneracy_collapses_to_two_layer():
    degenerate = FiberProfile(layers=(Layer(3.0, 0.0072), Layer(10.0, 0.0072)))
    table = find_modes(degenerate, 1.55)
    n_core = degenerate.layer_index(1, 1.55)
    n_clad = degenerate.cladding_index(1.55)
    oracle = two_layer_lp_modes(n_core, n_clad, 10.0, 1.55)
    assert len(table) == len(oracle)
    mine = sorted(((r.l, r.n_eff) for r in table.modes), key=lambda t: (t[0], -t[1]))
    reference = sorted(oracle, key=lambda t: (t[0], -t[1]))
    for (l_a, n_a), (l_b, n_b) in zip(mine, reference):
        assert l_a == l_b
        assert abs(n_a - n_b) < 1e-9


def test_mode_count_monotone_in_ring_contrast(ring_profile):
    table = find_modes(ring_profile, 1.55)
    boosted = FiberProfile(layers=(Layer(3.0, 0.0021), Layer(10.0, 0.0072 * 1.2)))
    assert len(find_modes(boosted, 1.55)) >= len(table)


# --- group delay and dispersion -------------------------------------------------

def test_relative_delays_against_reference(ring_profile_blend, solver_table_blend):
    reference = {
        "LP11": 3489.08,
        "LP21": 8182.33,
        "LP31": 13022.34,
        "LP02": 2858.64,
        "LP12": 8912.83,
        "LP41": 17412.05,
    }
    tau01 = solver_table_blend.mode(0, 1).tau_ps_per_km
    for label, expected in reference.items():
        record = next(r for r in solver_table_blend.modes if r.label == label)
        assert record.tau_ps_per_km - tau01 == pytest.approx(expected, rel=0.05)


def test_dispersion_against_reference(ring_profile_blend, solver_table_blend):
    assert solver_table_blend.mode(0, 1).dispersion_ps_per_km_nm == pytest.approx(
        18.96, rel=0.15
    )
    smallest = min(r.dispersion_ps_per_km_nm for r in solver_table_blend.modes)
    assert solver_table_blend.mode(1, 2).dispersion_ps_per_km_nm == smallest


@pytest.mark.parametrize("blend", [False, True])
def test_tau_and_dispersion_match_the_hellmann_feynman_group_index(ring_profile,
                                                                   ring_profile_blend, blend):
    # an independent tau: a field integral, not differences of n_eff across the probes
    profile = ring_profile_blend if blend else ring_profile
    table = solve_mode_table(profile, 1.55)
    assert table.labels() == EXPECTED_ORDER
    for r in table.modes:
        _, fractions = oracles.group_index_hf(profile, r.l, r.n_eff, 1.55)
        assert fractions.min() >= 0.0 and abs(fractions.sum() - 1.0) < 1e-12, r.label
        tau, disp = oracles.tau_and_dispersion_hf(profile, r.l, r.m, 1.55)
        assert abs(r.tau_ps_per_km - tau) < 1e-2, r.label
        assert abs(r.dispersion_ps_per_km_nm - disp) < 2e-3, r.label


def test_group_delay_half_step_convergence(ring_profile):
    full = group_delay(ring_profile, 1, 1, 1.55, dlambda_um=5e-4)
    half = group_delay(ring_profile, 1, 1, 1.55, dlambda_um=2.5e-4)
    assert abs(full - half) < 0.1


def test_dispersion_half_step_convergence(ring_profile):
    full = dispersion(ring_profile, 2, 1, 1.55, dlambda_um=5e-4)
    half = dispersion(ring_profile, 2, 1, 1.55, dlambda_um=2.5e-4)
    assert abs(full - half) < 0.05


def test_continuation_error_when_mode_lost():
    # near-cutoff LP11 on a weak two-layer profile; a huge probe step kills it
    profile = FiberProfile(layers=(Layer(7.3, 0.0016),))
    table = find_modes(profile, 1.50)
    assert table.labels() == ("LP01", "LP11")
    with pytest.raises(ModeContinuationError):
        group_delay(profile, 1, 1, 1.50, dlambda_um=0.2)


def test_group_delay_for_unguided_mode_raises(ring_profile):
    with pytest.raises(ModeContinuationError):
        group_delay(ring_profile, 0, 3, 1.55)


@pytest.mark.parametrize("layers", [(), (Layer(3.0, 0.0),)])
def test_profile_that_guides_nothing_has_no_group_delay(layers):
    profile = FiberProfile(layers=layers)
    assert len(find_modes(profile, 1.55)) == 0
    for quantity in (group_delay, dispersion):
        with pytest.raises(ModeContinuationError, match="mode LP01 not guided at 1550.0 nm"):
            quantity(profile, 0, 1, 1.55)


def test_bracket_error_names_order_and_bracket():
    from fmf_ttdl.modes import BracketRefinementError

    error = BracketRefinementError(3, (1.4441, 1.4442))
    assert "l=3" in str(error)
    assert "1.4441" in str(error)


def test_solve_mode_table_matches_per_mode_operations(ring_profile):
    table = solve_mode_table(ring_profile, 1.55)
    record = table.mode(2, 1)
    assert record.tau_ps_per_km == pytest.approx(
        group_delay(ring_profile, 2, 1, 1.55), abs=1e-9
    )
    assert record.dispersion_ps_per_km_nm == pytest.approx(
        dispersion(ring_profile, 2, 1, 1.55), abs=1e-9
    )


# --- sweeps ---------------------------------------------------------------------

def test_sweep_keeps_seven_modes_and_monotone_neff(ring_profile):
    tables = sweep_modes(ring_profile, 1540.0, 1560.0, 2.5)
    assert len(tables) == 9
    for table in tables:
        assert table.labels() == EXPECTED_ORDER
    for label in EXPECTED_ORDER:
        l, m = parse_mode_label(label)
        trace = [table.mode(l, m).n_eff for table in tables]
        assert all(a > b for a, b in zip(trace, trace[1:]))


def test_sweep_matches_independent_solves(ring_profile):
    tables = sweep_modes(ring_profile, 1548.0, 1552.0, 2.0)
    for table in tables:
        fresh = find_modes(ring_profile, table.lambda0_um)
        assert fresh.labels() == table.labels()
        for a, b in zip(fresh.modes, table.modes):
            assert a.n_eff == b.n_eff


def test_single_wavelength_sweep_equals_find_modes(ring_profile):
    tables = sweep_modes(ring_profile, 1550.0, 1550.0, 0.5)
    assert len(tables) == 1
    direct = find_modes(ring_profile, tables[0].lambda0_um)
    assert tables[0].labels() == direct.labels()
    for a, b in zip(tables[0].modes, direct.modes):
        assert a.n_eff == b.n_eff


def test_sweep_warns_when_mode_cuts_off():
    profile = FiberProfile(layers=(Layer(7.3, 0.0016),))
    with pytest.warns(UserWarning, match="LP11 lost"):
        tables = sweep_modes(profile, 1300.0, 1900.0, 100.0)
    assert len(tables[0]) > len(tables[-1])


def test_sweep_range_validation(ring_profile):
    with pytest.raises(ValueError):
        sweep_modes(ring_profile, 1550.0, 1560.0, 0.0)
    with pytest.raises(ValueError):
        sweep_modes(ring_profile, 1560.0, 1550.0, 1.0)


# --- table container and CSV ----------------------------------------------------

def test_mode_table_rejects_duplicates_and_bad_order():
    record = ModeRecord(l=0, m=1, n_eff=1.45, lambda0_um=1.55)
    with pytest.raises(ValueError):
        ModeTable((record, record), 1.55)
    other = ModeRecord(l=1, m=1, n_eff=1.46, lambda0_um=1.55)
    with pytest.raises(ValueError):
        ModeTable((record, other), 1.55)


def test_mode_table_csv_round_trip(tmp_path, reference_table):
    path = tmp_path / "modes.csv"
    write_mode_table(reference_table, path)
    text = path.read_text()
    again = parse_mode_table_csv(text)
    assert mode_table_to_csv(again) == text
    assert again.lambda0_um == reference_table.lambda0_um
    for a, b in zip(again.modes, reference_table.modes):
        assert (a.l, a.m, a.n_eff, a.tau_ps_per_km) == (b.l, b.m, b.n_eff, b.tau_ps_per_km)


def test_mode_table_csv_full_precision(tmp_path, ring_profile):
    table = solve_mode_table(ring_profile, 1.55)
    path = tmp_path / "modes.csv"
    write_mode_table(table, path)
    again = read_mode_table(path)
    for a, b in zip(again.modes, table.modes):
        assert a.n_eff == b.n_eff
        assert a.tau_ps_per_km == b.tau_ps_per_km
        assert a.dispersion_ps_per_km_nm == b.dispersion_ps_per_km_nm


def test_mode_table_csv_diagnostics():
    with pytest.raises(FileFormatError):
        parse_mode_table_csv("wrong,header\n1,2\n")
    bad_rows = (
        "l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm\n"
        "0,1,1.45,0.0,18.9,1550.0\n"
        "1,1,1.44,3489.0,23.7,1310.0\n"
    )
    with pytest.raises(FileFormatError, match="differs"):
        parse_mode_table_csv(bad_rows)
    header = bad_rows.splitlines(keepends=True)[0]
    with pytest.raises(FileFormatError) as excinfo:
        parse_mode_table_csv(header + "0,1,1.45,0.0,18.9\n0,2,1.44,2858.6,17.1,1550.0,7\n")
    assert excinfo.value.diagnostics == (
        (2, "expected 6 columns, got 5"),
        (3, "expected 6 columns, got 7"),
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_mode_table_csv(header + "\n")
    assert excinfo.value.diagnostics == ((2, "no mode rows found"),)


def test_mode_table_csv_rejects_non_finite_values():
    text = (
        "l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm\n"
        "0,1,1.45,nan,18.9,1550.0\n"
        "1,1,inf,3489.0,23.7,1550.0\n"
        "0,2,1.44,2858.6,17.1,1550.0\n"
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_mode_table_csv(text, source="bad.csv")
    assert [line for line, _ in excinfo.value.diagnostics] == [2, 3]
    assert all("finite" in message for _, message in excinfo.value.diagnostics)


def test_mode_table_reader_rejects_non_positive_wavelength_at_its_line():
    demo = (Path(__file__).resolve().parent.parent / "demo" / "reference_modes.csv")
    text = demo.read_text()
    assert text.count("1550.0") == 7
    with pytest.raises(FileFormatError) as excinfo:
        parse_mode_table_csv(text.replace("1550.0", "-1550.0"), source="m.csv")
    assert [line for line, _ in excinfo.value.diagnostics] == list(range(2, 9))
    assert all("lambda0_nm must be > 0, got -1550.0" in message
               for _, message in excinfo.value.diagnostics)
    lines = text.splitlines()
    lines[3] = lines[3].replace("1550.0", "0.0")
    with pytest.raises(FileFormatError) as excinfo:
        parse_mode_table_csv("\n".join(lines) + "\n", source="m.csv")
    assert [line for line, _ in excinfo.value.diagnostics] == [4]


def test_mode_table_reader_reports_each_bad_row_at_its_line():
    demo = (Path(__file__).resolve().parent.parent / "demo" / "reference_modes.csv")
    lines = demo.read_text().splitlines()
    assert lines[3].startswith("2,1,") and lines[5].startswith("0,2,")

    def diagnostics(rows):
        with pytest.raises(FileFormatError) as excinfo:
            parse_mode_table_csv("\n".join(rows) + "\n", source="m.csv")
        return excinfo.value.diagnostics

    assert diagnostics(lines + ["", lines[3]]) == ((10, "duplicate mode LP21 in table"),)
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    assert diagnostics(swapped) == (
        (7, "modes must be sorted strictly descending in n_eff (LP12 vs LP02)"),
    )
    invalid = lines[:1] + ["-1,1,1.46,0.0,1.0,1550.0", "1,0,1.459,0.0,1.0,1550.0"] + lines[1:]
    assert diagnostics(invalid) == (
        (2, "invalid mode l = -1, m = 1 (needs l >= 0 and m >= 1)"),
        (3, "invalid mode l = 1, m = 0 (needs l >= 0 and m >= 1)"),
    )
    with pytest.raises(ValueError, match="invalid mode"):
        ModeTable((ModeRecord(l=0, m=0, n_eff=1.45, lambda0_um=1.55),), 1.55)


# --- root-finding internals -----------------------------------------------------

def test_lockstep_bisection_matches_scipy_bisect_bit_for_bit(ring_profile):
    from scipy.optimize import bisect

    from fmf_ttdl import modes

    geometry = modes._geometry(ring_profile, 1.55)
    grid = modes._scan_grid(geometry, 2000)
    xtol = 1e-12 * modes._REFINE_FACTOR

    def kernel(l, x):
        x = np.atleast_1d(x)
        return modes._char_values(modes._points([geometry], [x.size]), np.full(x.size, l), x)

    brackets = []
    for l in range(6):
        values = kernel(l, grid)
        cells = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        brackets += [(l, cell, values[cell]) for cell in cells]
    assert len(brackets) == len(EXPECTED_ORDER)
    orders, cells, f_lower = (np.array(column) for column in zip(*brackets))
    # all seven brackets, of five orders, in one lockstep bisection
    lockstep = modes._bisect(modes._points([geometry], [len(brackets)]), orders,
                             grid[cells], grid[cells + 1], f_lower, xtol)
    expected = [bisect(lambda x, l=l: float(kernel(l, x)[0]), grid[i], grid[i + 1], xtol=xtol)
                for l, i in zip(orders.tolist(), cells)]
    assert lockstep.tolist() == expected


def _probe_outcome(solve):
    try:
        return solve()
    except ModeContinuationError:
        return "lost"


@pytest.mark.parametrize(
    "layers, lam, dlambda",
    [
        (((3.0, 0.0021), (10.0, 0.0072)), 1.55, 5e-4),
        (((7.3, 0.0016),), 1.50, 5e-4),   # LP11 window clipped at the cladding edge
        (((25.0, 0.0016),), 1.55, 5e-4),  # LP01 window clipped at the core edge
        (((7.3, 0.0016),), 1.50, 0.2),    # LP11 cut off at the long probe
        (((3.0, 0.0021), (10.0, 0.0072)), 1.55, 0.05),  # roots move 14-91 cells
    ],
)
def test_windowed_probe_matches_full_scan_bit_for_bit(layers, lam, dlambda, monkeypatch):
    # the probe root of LP_lm is the m-th root of order l in a scan of the whole grid
    from fmf_ttdl import modes

    central = modes._tau_and_dispersion
    seen = []
    monkeypatch.setattr(modes, "_tau_and_dispersion",
                        lambda *args: seen.append(args[:3]) or central(*args))
    profile = FiberProfile(layers=tuple(Layer(r, d) for r, d in layers))
    table, characterize = modes._probed(profile, lam, dlambda, 2000, 1e-12)
    assert table.modes
    for r in table.modes:
        expected = []
        for probe_lam in (lam - dlambda, lam + dlambda):
            full = oracles._order_roots(modes._geometry(profile, probe_lam), r.l, 2000, 1e-12)
            expected.append(full[r.m - 1] if r.m <= len(full) else "lost")
        if "lost" in expected:
            assert _probe_outcome(lambda: characterize(r)) == "lost", r.label
        else:
            characterize(r)
            assert seen[-1] == (expected[0], r.n_eff, expected[1]), r.label


def test_probes_by_rank_resolve_where_the_continuation_window_raised(ring_profile):
    # at 50 nm from the center LP01 moves by more than the 2e-4 window the probes
    # used to accept, and every table there raised ModeContinuationError
    profile = ring_profile
    table = solve_mode_table(profile, 1.55, 0.05)
    assert table.labels() == EXPECTED_ORDER
    assert table == oracles.solve_mode_table_per_order(profile, 1.55, 0.05)
    shifted = find_modes(profile, 1.50).mode(0, 1).n_eff - table.mode(0, 1).n_eff
    assert shifted > 2e-4


@pytest.mark.parametrize("l", [0, 1, 2, 5, 9])
def test_recurrence_derivatives_match_scipy(l):
    from fmf_ttdl.modes import _with_derivative

    x = np.linspace(0.05, 60.0, 4001)
    cases = (
        (sp.jv, sp.jvp, 1.0),
        (sp.yn, sp.yvp, 1.0),
        (sp.ive, lambda l, x: sp.ivp(l, x) * np.exp(-x), 1.0),
        (sp.kve, lambda l, x: sp.kvp(l, x) * np.exp(x), -1.0),
    )
    for bessel, reference, sign in cases:
        value, derivative = _with_derivative(bessel, l, x, sign)
        expected = reference(l, x)
        # away from the zeros of f_l', where the two recurrence terms cancel
        away = np.abs(expected) > 1e-2 * np.maximum(np.abs(value), np.abs(bessel(l - 1, x)))
        assert away.mean() > 0.99
        assert np.all(value == bessel(l, x))
        np.testing.assert_allclose(derivative[away], expected[away], rtol=1e-12, atol=0.0)


# --- lockstep solves against the per-order search -------------------------------

def _solver_outcome(solve):
    """(result or (error type, message), warning texts) of one solve."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve()
        except ModeSolverError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def _assert_same_solves(profile, lam, dlambda, sweep):
    from fmf_ttdl import modes

    cases = [
        (lambda: find_modes(profile, lam), lambda: oracles.find_modes_per_order(profile, lam)),
        (lambda: solve_mode_table(profile, lam, dlambda),
         lambda: oracles.solve_mode_table_per_order(profile, lam, dlambda)),
        (lambda: sweep_modes(profile, *sweep),
         lambda: oracles.sweep_modes_per_order(profile, *sweep)),
        (lambda: modes._mode_tau_and_dispersion(profile, 1, 1, lam, dlambda, 2000, 1e-12),
         lambda: oracles.tau_and_dispersion_per_order(profile, 1, 1, lam, dlambda)),
    ]
    for lockstep, per_order in cases:
        assert _solver_outcome(lockstep) == _solver_outcome(per_order)


@pytest.mark.parametrize("blend", [False, True])
def test_lockstep_solves_match_per_order_search_on_demo(ring_profile, ring_profile_blend, blend):
    profile = ring_profile_blend if blend else ring_profile
    _assert_same_solves(profile, 1.55, 5e-4, (1549.0, 1551.0, 1.0))
    stopped = _solver_outcome(lambda: find_modes(profile, 1.55, max_azimuthal=2))
    assert stopped[1] == ["azimuthal scan stopped at l=2 with modes still guided"]
    assert stopped == _solver_outcome(
        lambda: oracles.find_modes_per_order(profile, 1.55, max_azimuthal=2))


DEMO_TABLE_CSV = """\
l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm
0,1,1.4526445389262397,4915313.897838449,21.407399703562465,1550.0
1,1,1.451865942422838,4918851.05746139,26.276282538974396,1550.0
2,1,1.4502102241634427,4923488.726008999,29.66560954821462,1550.0
3,1,1.4480386555829488,4928247.4705807,30.958165931955744,1550.0
0,2,1.447505022137939,4917775.173563486,18.254799973354192,1550.0
1,2,1.4460230567601438,4923715.088833443,10.293134085134428,1550.0
4,1,1.4455052006061948,4932487.143421976,25.861684909686904,1550.0
"""


def test_demo_table_keeps_its_bits(ring_profile):
    # the kernel's scalars per point keep the arithmetic of the scalar code
    assert mode_table_to_csv(solve_mode_table(ring_profile, 1.55)) == DEMO_TABLE_CSV


def test_lockstep_solves_match_per_order_search_where_lp11_is_lost():
    profile = FiberProfile(layers=(Layer(7.3, 0.0016),))
    outcome, _ = _solver_outcome(lambda: solve_mode_table(profile, 1.50, 0.2))
    assert outcome[0] == "ModeContinuationError"
    _assert_same_solves(profile, 1.50, 0.2, (1400.0, 1700.0, 100.0))


@pytest.mark.parametrize("seed", range(8))
def test_lockstep_solves_match_per_order_search_on_random_profiles(seed):
    rng = np.random.default_rng([2026, seed])
    count = int(rng.integers(1, 4))
    radii = np.cumsum(rng.uniform(2.0, 5.5, count))
    deltas = rng.uniform(-0.003, 0.007, count)
    deltas[rng.integers(count)] = rng.uniform(0.002, 0.007)  # one layer that guides
    profile = FiberProfile(layers=tuple(Layer(float(r), float(d)) for r, d in zip(radii, deltas)))
    lam = float(rng.uniform(1.3, 1.7))
    dlambda = float(rng.choice([5e-4, 5e-3, 0.05]))
    start = float(rng.uniform(1300.0, 1650.0))
    _assert_same_solves(profile, lam, dlambda, (start, start + 40.0, 20.0))


def test_bracket_error_names_the_failing_brackets_own_order(ring_profile, monkeypatch):
    from fmf_ttdl import modes

    kernel = modes._char_values

    def order_zero_settles(points, l, n_eff):
        values = kernel(points, l, n_eff)
        if len(values) < 100:  # a bisection step, not a scan
            values[l == 0] = 0.0
        return values

    monkeypatch.setattr(modes, "_BISECT_MAXITER", 5)
    monkeypatch.setattr(modes, "_char_values", order_zero_settles)
    for lockstep, per_order in (
        (lambda: find_modes(ring_profile, 1.55),
         lambda: oracles.find_modes_per_order(ring_profile, 1.55)),
        (lambda: sweep_modes(ring_profile, 1550.0, 1550.2, 0.1),
         lambda: oracles.sweep_modes_per_order(ring_profile, 1550.0, 1550.2, 0.1)),
    ):
        with pytest.raises(modes.BracketRefinementError) as excinfo:
            lockstep()
        # the batch starts with the LP01 and LP02 brackets, which settle at once
        assert excinfo.value.azimuthal == 1
        assert _solver_outcome(lockstep) == _solver_outcome(per_order)
    monkeypatch.setattr(modes, "_char_values", kernel)
    outcome = _solver_outcome(lambda: solve_mode_table(ring_profile, 1.55))
    assert outcome[0][0] == "BracketRefinementError" and "l=0" in outcome[0][1]
    assert outcome == _solver_outcome(
        lambda: oracles.solve_mode_table_per_order(ring_profile, 1.55))


def test_kernel_call_budget(ring_profile, monkeypatch):
    from fmf_ttdl import modes

    kernel = modes._char_values
    calls = []

    def counting(points, l, n_eff):
        calls.append(len(n_eff))
        return kernel(points, l, n_eff)

    monkeypatch.setattr(modes, "_char_values", counting)
    solve_mode_table(ring_profile, 1.55)  # two scans and one lockstep bisection
    assert 0 < len(calls) <= 40
    calls.clear()
    assert len(sweep_modes(ring_profile, 1549.5, 1550.5, 0.1)) == 11
    assert 0 < len(calls) <= 40


def test_kernel_point_and_mode_count_budget(ring_profile, monkeypatch):
    # a scan of the whole grid per order took 13,742 points per table, 134,233 per sweep;
    # probe windows of +/-2e-4 took 1,770 points per table, unseeded counts 3,190 rows per sweep
    from fmf_ttdl import modes

    kernel, count = modes._char_values, modes._mode_counts
    points, counts = [], []
    monkeypatch.setattr(modes, "_char_values",
                        lambda p, l, n_eff: points.append(len(n_eff)) or kernel(p, l, n_eff))
    monkeypatch.setattr(modes, "_mode_counts",
                        lambda p, l, n_eff: counts.append(len(n_eff)) or count(p, l, n_eff))
    solve_mode_table(ring_profile, 1.55)
    assert 0 < sum(points) <= 1000
    assert 0 < sum(counts) <= 600
    points.clear()
    counts.clear()
    assert len(sweep_modes(ring_profile, 1549.5, 1550.5, 0.1)) == 11
    assert 0 < sum(points) <= 10_000
    assert 0 < sum(counts) <= 1600


def _drop_first_bracket(scan):
    def scan_one_short(scans):
        found = scan(scans)
        first = found[0]  # the window of LP02, the lowest root of l = 0
        found[0] = first._replace(lower=first.lower[1:], upper=first.upper[1:],
                                  f_lower=first.f_lower[1:])
        return found
    return scan_one_short


def _one_more_at_the_low_end(count):
    def count_one_more(points, l, n_eff):
        n_clad = np.sqrt(points[1][:, 1])
        return count(points, l, n_eff) + ((l == 0) & (n_eff - n_clad < 2e-7))
    return count_one_more


@pytest.mark.parametrize("layers", [
    ((25.0, 0.0072),),                             # J_0 has five zeros in the core
    ((3.0, 0.0021), (25.0, 0.0072)),               # a wide ring: many steps per annulus
    ((8.0, 0.0072), (9.0, -0.003), (20.0, 0.005)),
])
def test_count_and_search_match_the_per_order_scan_on_wide_profiles(layers):
    from fmf_ttdl import modes

    profile = FiberProfile(layers=tuple(Layer(r, d) for r, d in layers))
    table = find_modes(profile, 1.55)
    assert len(table) >= 20
    assert table == oracles.find_modes_per_order(profile, 1.55)
    geometry = modes._geometry(profile, 1.55)
    orders = np.arange(max(record.l for record in table.modes) + 3)
    low = modes._scan_grid(geometry, 2000)[0]
    counts = modes._mode_counts(modes._points([geometry], [orders.size]), orders,
                                np.full(orders.size, low))
    assert counts.tolist() == [sum(r.l == l for r in table.modes) for l in orders.tolist()]


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_window_padding_absorbs_a_count_one_cell_off(ring_profile, monkeypatch, shift):
    # a root within rounding of a grid point may fall in the count's cell or the next
    from fmf_ttdl import modes

    expected = mode_table_to_csv(solve_mode_table(ring_profile, 1.55))
    grid = modes._scan_grid(modes._geometry(ring_profile, 1.55), 2000)
    count = modes._mode_counts

    def shifted(points, l, n_eff):
        return count(points, l, np.clip(n_eff + shift * (grid[1] - grid[0]), grid[0], grid[-1]))

    monkeypatch.setattr(modes, "_mode_counts", shifted)
    assert mode_table_to_csv(solve_mode_table(ring_profile, 1.55)) == expected


_MISSES = {  # patched function, its wrapper, l = 0 roots by count and by scan
    "scan drops a bracket": ("_scan", _drop_first_bracket, 2, 1),
    "count gives one more": ("_mode_counts", _one_more_at_the_low_end, 3, 2),
}


@pytest.mark.parametrize("miss", sorted(_MISSES))
@pytest.mark.parametrize("solve", [
    lambda profile: find_modes(profile, 1.55),
    lambda profile: solve_mode_table(profile, 1.55),
    lambda profile: sweep_modes(profile, 1550.0, 1550.2, 0.1),
])
def test_a_root_the_scan_misses_fails_the_mode_count_certificate(ring_profile, monkeypatch,
                                                                 miss, solve):
    from fmf_ttdl import modes

    name, wrap, by_count, by_scan = _MISSES[miss]
    monkeypatch.setattr(modes, name, wrap(getattr(modes, name)))
    with pytest.raises(ModeSolverError, match=rf"l=0 at 1550\.0 nm: the mode count gives "
                                              rf"{by_count} roots and the window scan found {by_scan},"):
        solve(ring_profile)
