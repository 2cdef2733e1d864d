import csv
import inspect
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp

import oracles
from conftest import run_python
from oracles import two_layer_lp_modes, two_layer_lp_roots

from fmf_ttdl.fileio import FileFormatError, grid_points, um_from_nm
from fmf_ttdl.materials import FiberProfile, Layer
from fmf_ttdl.modes import (
    ModeContinuationError,
    ModeSolverError,
    ModeRecord,
    ModeTable,
    characteristic_value,
    find_modes,
    format_mode_label,
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
    with pytest.raises(ValueError, match="profile has no layers"):
        characteristic_value(FiberProfile(layers=()), 0, 1.45, 1.55)


def test_characteristic_value_continuous_across_basis_switch(ring_profile):
    # inner-layer index is a basis-switch point; values must not jump there
    n_switch = ring_profile.layer_index(0, 1.55)
    for l in (0, 1, 3):
        at = characteristic_value(ring_profile, l, n_switch, 1.55)
        below = characteristic_value(ring_profile, l, n_switch - 1e-9, 1.55)
        above = characteristic_value(ring_profile, l, n_switch + 1e-9, 1.55)
        assert at == pytest.approx(below, abs=1e-6)
        assert at == pytest.approx(above, abs=1e-6)


def test_characteristic_value_is_the_normalized_step_index_determinant():
    # one layer: R = J_l(q r) up to a positive factor, so the value is a - b over
    # |a| + |b| with a = R w K_l'(w r1) and b = R' K_l(w r1), whatever R's scale
    profile = FiberProfile(layers=(Layer(10.0, 0.0072),))
    n_core, n_clad = profile.layer_index(0, 1.55), profile.cladding_index(1.55)
    k0 = 2.0 * np.pi / 1.55
    for l in (0, 1, 3):
        for n_eff in np.linspace(n_clad + 1e-6, n_core - 1e-6, 40).tolist():
            q, w = k0 * np.sqrt(n_core**2 - n_eff**2), k0 * np.sqrt(n_eff**2 - n_clad**2)
            a = sp.jv(l, q * 10.0) * w * sp.kvp(l, w * 10.0)
            b = q * sp.jvp(l, q * 10.0) * sp.kv(l, w * 10.0)
            assert characteristic_value(profile, l, n_eff, 1.55) == pytest.approx(
                (a - b) / (abs(a) + abs(b)), rel=1e-9, abs=1e-9)


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


@pytest.mark.parametrize("settings, message", [
    ({"scan_points": 2000.5}, "scan_points must be an integer, got 2000.5"),
    ({"scan_points": True}, "scan_points must be an integer, got True"),
    ({"dlambda_um": 0.0}, "dlambda_um must be > 0, got 0.0"),
    ({"dlambda_um": math.nan}, "dlambda_um must be > 0, got nan"),
    ({"dlambda_um": math.inf}, "dlambda_um must be finite, got inf"),
])
def test_solve_mode_table_rejects_settings_the_cli_rejects_by_name(ring_profile, settings,
                                                                   message):
    # before, a fractional count failed in range() and a zero step divided by zero
    with pytest.raises(ValueError) as excinfo:
        solve_mode_table(ring_profile, 1.55, **settings)
    assert str(excinfo.value) == message


def test_grid_independence(ring_profile):
    coarse = find_modes(ring_profile, 1.55, scan_points=2000)
    fine = find_modes(ring_profile, 1.55, scan_points=4096)
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
    full, half = (solve_mode_table(ring_profile, 1.55, dlambda_um=step).mode(1, 1).tau_ps_per_km
                  for step in (5e-4, 2.5e-4))
    assert abs(full - half) < 0.1


def test_dispersion_half_step_convergence(ring_profile):
    full, half = (solve_mode_table(ring_profile, 1.55, dlambda_um=step).mode(2, 1)
                  .dispersion_ps_per_km_nm for step in (5e-4, 2.5e-4))
    assert abs(full - half) < 0.05


def test_continuation_error_when_mode_lost():
    # near-cutoff LP11 on a weak two-layer profile; a huge probe step kills it
    profile = FiberProfile(layers=(Layer(7.3, 0.0016),))
    table = find_modes(profile, 1.50)
    assert table.labels() == ("LP01", "LP11")
    with pytest.raises(ModeContinuationError):
        solve_mode_table(profile, 1.50, dlambda_um=0.2)


@pytest.mark.parametrize("layers", [(), (Layer(3.0, 0.0),)])
def test_profile_that_guides_nothing_has_no_group_delay(layers):
    profile = FiberProfile(layers=layers)
    assert len(find_modes(profile, 1.55)) == 0
    assert solve_mode_table(profile, 1.55) == ModeTable((), 1.55)


def test_bracket_error_names_order_and_bracket():
    from fmf_ttdl.modes import BracketRefinementError

    for still_open, cause in ((True, "still open"), (False, "not finite")):
        error = BracketRefinementError(3, (1.4441, 1.4442), still_open)
        assert "l=3" in str(error)
        assert "1.4441" in str(error)
        assert cause in str(error)


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
    bare = ModeTable([replace(r, tau_ps_per_km=None) for r in reference_table.modes],
                     reference_table.lambda0_um)
    with pytest.raises(ValueError, match="mode LP01 lacks tau/D; characterize the table"):
        mode_table_to_csv(bare)


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

def test_lockstep_itp_matches_the_scalar_itp_bit_for_bit(ring_profile):
    from fmf_ttdl import modes

    geometry = modes._geometry(ring_profile, 1.55)
    grid = modes._scan_grid(geometry, 2000)
    brackets = []
    for l in range(6):
        values = oracles._order_values(geometry, l, grid)
        cells = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        brackets += [(l, grid[i], grid[i + 1], values[i], values[i + 1]) for i in cells]
    assert len(brackets) == len(EXPECTED_ORDER)
    orders, lower, upper, f_lower, f_upper = (np.array(column) for column in zip(*brackets))
    # all seven brackets, of five orders, in one lockstep ITP
    lockstep = modes._refine(modes._points([geometry], [len(brackets)]), orders,
                             lower, upper, f_lower, f_upper)
    expected = [oracles._itp_root(geometry, *bracket)
                for bracket in zip(*(column.tolist() for column in
                                     (orders, lower, upper, f_lower, f_upper)))]
    assert lockstep.tolist() == expected


def test_itp_closes_flat_roots_where_rounding_overruns_n_max(ring_profile, monkeypatch):
    # on f = (x - c)^9 regula falsi lands near an end, the projection uses all of
    # ITP's slack, and rounding can leave 2 eps and an ulp after n_max steps
    from fmf_ttdl import modes

    rng = np.random.default_rng(2020)
    count = 200
    lower = 1.44 + 0.01 * rng.random(count)
    upper = lower + 10.0 ** rng.uniform(-9.0, -4.0, count)
    centres = lower + (upper - lower) * rng.random(count)
    monkeypatch.setattr(modes, "_char_values",
                        lambda points, l, n_eff: (np.asarray(n_eff) - centres[l]) ** 9)
    geometry = modes._geometry(ring_profile, 1.55)
    orders = np.arange(count)
    ends = lower, upper, (lower - centres) ** 9, (upper - centres) ** 9
    roots = modes._refine(modes._points([geometry], [count]), orders, *ends)
    eps = modes._REFINE_RTOL * lower
    assert (np.abs(roots - centres) <= eps + np.spacing(centres)).all()
    assert roots.tolist() == [oracles._itp_root(geometry, *bracket) for bracket in
                              zip(orders.tolist(), *(end.tolist() for end in ends))]


def test_brackets_already_2_eps_wide_give_their_midpoints_with_no_kernel_call(monkeypatch):
    from fmf_ttdl import modes

    monkeypatch.setattr(modes, "_char_values", None)  # a kernel call would raise
    # at 0x1.1c37937e08p+0, 2 eps = 8e-16 |a| is 4 ulp exactly: the widest bracket that is closed
    lower = np.array([float.fromhex("0x1.1c37937e08p+0"), 1.5, 1.25])
    ulp = np.spacing(lower)  # 2^-52 at each, so the widths and midpoints below are exact
    upper = lower + [4.0, 4.0, 2.0] * ulp
    assert upper[0] - lower[0] == 2.0 * modes._REFINE_RTOL * lower[0]
    assert (upper - lower <= 2.0 * modes._REFINE_RTOL * lower).all()  # 2 eps: 4, 5.4, 4.5 ulp
    roots = modes._refine((None, np.zeros((3, 3))), np.zeros(3, dtype=int), lower, upper,
                          np.array([-1.0, 1.0, -1.0]), np.array([1.0, -1.0, 1.0]))
    assert roots.tolist() == (lower + [2.0, 2.0, 1.0] * ulp).tolist()


@pytest.mark.parametrize("blend", [False, True])
@pytest.mark.parametrize("lam", [1.537, 1.55, 1.561])
def test_demo_roots_lie_within_8_ulp_of_a_sign_change(ring_profile, ring_profile_blend,
                                                      blend, lam):
    # 8 ulp is 1.8e-15 at these n_eff: an eps of 4e-16 n_eff leaves the roots to rounding
    profile = ring_profile_blend if blend else ring_profile
    table = find_modes(profile, lam)
    assert table.labels() == EXPECTED_ORDER
    assert oracles.roots_without_sign_change(profile, table, 8) == []


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

    central, find_tables = modes._tau_and_dispersion, modes._find_tables
    seen, solved = [], []
    monkeypatch.setattr(modes, "_tau_and_dispersion",
                        lambda *args: seen.append(args[:3]) or central(*args))
    monkeypatch.setattr(modes, "_find_tables",
                        lambda *args: (solved.append(t) or t for t in find_tables(*args)))
    profile = FiberProfile(layers=tuple(Layer(r, d) for r, d in layers))
    outcome = _probe_outcome(lambda: next(modes._probed(profile, [lam], dlambda, 2000)))
    table, *probes = solved
    assert table.modes
    expected = []
    for r in table.modes:
        roots = []
        for probe_lam, probe in zip((lam - dlambda, lam + dlambda), probes):
            full = oracles._order_roots(modes._geometry(profile, probe_lam), r.l, 2000)
            roots.append(full[r.m - 1] if r.m <= len(full) else "lost")
            ranked = {(p.l, p.m): p.n_eff for p in probe.modes}
            assert ranked.get((r.l, r.m), "lost") == roots[-1], r.label
        expected.append((roots[0], r.n_eff, roots[1]))
    # the table is filled in order up to its first record lost at a probe, which raises
    lost = next((k for k, roots in enumerate(expected) if "lost" in roots), None)
    assert seen == expected[:lost]
    if lost is None:
        assert outcome.modes == tuple(
            replace(r, tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp)
            for r, (tau, disp) in zip(table.modes, (central(*e, lam, dlambda) for e in expected)))
    else:
        assert outcome == "lost"


def test_a_numeric_curve_solves_with_the_defaults_of_solve_mode_table():
    # evaluate.sample_delays_numeric calls _probed with its defaults; the curve oracle
    # does not pin them, as 2,001 scan points give the test curves the same bits
    from fmf_ttdl import modes

    def defaults(function):
        return {name: parameter.default
                for name, parameter in inspect.signature(function).parameters.items()
                if parameter.default is not inspect.Parameter.empty}

    assert defaults(modes._probed) == defaults(solve_mode_table) == {
        "dlambda_um": 5e-4, "scan_points": 2000}


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
    from fmf_ttdl.modes import _bessel, _with_derivative

    x = np.linspace(0.05, 60.0, 4001)
    j, y, i, k = _bessel()
    cases = (
        (j, sp.jv, sp.jvp, 1.0),
        (y, sp.yn, sp.yvp, 1.0),
        (i, sp.ive, lambda l, x: sp.ivp(l, x) * np.exp(-x), 1.0),
        (k, sp.kve, lambda l, x: sp.kvp(l, x) * np.exp(x), -1.0),
    )
    for orders, bessel, reference, sign in cases:
        value, derivative = _with_derivative(orders, l, x, sign)
        expected = reference(l, x)
        # away from the zeros of f_l', where the two recurrence terms cancel
        away = np.abs(expected) > 1e-2 * np.maximum(np.abs(value), np.abs(bessel(l - 1, x)))
        assert away.mean() > 0.99
        assert np.all(value == bessel(l, x))
        np.testing.assert_allclose(derivative[away], expected[away], rtol=1e-12, atol=0.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_yn_port_equals_scipy_yn_bit_for_bit_at_both_orders():
    from fmf_ttdl.modes import _bessel

    _, y, _, _ = _bessel()
    x = np.concatenate([[0.0, -0.0, -1.0, 5e-324, 1e-300, np.nan, np.inf],
                        np.geomspace(1e-8, 1e3, 3001)])
    orders = np.arange(65)
    # every order at every x, laid out as _propagator passes them: edges by rows
    grid = np.broadcast_to(x[:, None], (x.size, orders.size))
    value, lower = y(orders, grid)
    assert (_bits(value) == _bits(sp.yn(orders, grid))).all()
    assert (_bits(lower) == _bits(sp.yn(orders - 1, grid))).all()
    # x = 0 and overflow part way up the recurrence, where cephes stops at -inf
    assert np.isneginf(value[:2]).all()
    assert (np.isneginf(value) & np.isfinite(lower)).sum() >= 60
    # one call of mixed orders: every point runs the recurrence to the highest
    mixed = np.random.default_rng(3).integers(0, 65, x.size)
    value, lower = y(mixed, x)
    assert (_bits(value) == _bits(sp.yn(mixed, x))).all()
    assert (_bits(lower) == _bits(sp.yn(mixed - 1, x))).all()
    # the shortest stacks, top order 0 to 3, where cephes stops at once
    stops = np.array([0.0, -0.0, -1.0, 5e-324, np.nan])
    for top in range(4):
        orders = np.arange(top + 1)
        grid = np.broadcast_to(stops[:, None], (stops.size, orders.size))
        value, lower = y(orders, grid)
        assert (_bits(value) == _bits(sp.yn(orders, grid))).all()
        assert (_bits(lower) == _bits(sp.yn(orders - 1, grid))).all()


SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent
_DEMO_SOLVE = f"""
import sys
from fmf_ttdl import load_profile, solve_mode_table
profile = load_profile({str(TESTS.parent / "demo" / "ring_core.prof")!r})
table = solve_mode_table(profile, 1.55)
"""


def test_scipy_special_imported_after_a_solve_shares_its_ufuncs():
    code = _DEMO_SOLVE + """
loaded = sys.modules["scipy.special._special_ufuncs"]
assert "scipy.special" not in sys.modules
import scipy.special
from scipy.special import _special_ufuncs
assert _special_ufuncs is loaded and scipy.special.jv is loaded.jv
assert solve_mode_table(profile, 1.55) == table
print("ok")
"""
    result = run_python(code, SRC)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_ufuncs_imported_by_scipy_special_are_not_loaded_again():
    code = "import scipy.special, sys\n" + _DEMO_SOLVE + """
assert sys.modules["scipy.special._special_ufuncs"] is scipy.special._special_ufuncs
print(",".join(table.labels()))
"""
    result = run_python(code, SRC)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ",".join(EXPECTED_ORDER) + "\n"


def test_missing_special_ufuncs_is_an_import_error_naming_the_folder(tmp_path):
    # a scipy without its special folder; numpy stays the real one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("__version__ = '0.0.stub'\n")
    result = run_python(_DEMO_SOLVE, tmp_path, SRC)
    folder = tmp_path / "scipy" / "special"
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        f"ImportError: scipy 0.0.stub has no Bessel ufunc extension _special_ufuncs in {folder}"
    )


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
    cases = [
        (lambda: find_modes(profile, lam), lambda: oracles.find_modes_per_order(profile, lam)),
        (lambda: solve_mode_table(profile, lam, dlambda),
         lambda: oracles.solve_mode_table_per_order(profile, lam, dlambda)),
        (lambda: sweep_modes(profile, *sweep),
         lambda: oracles.sweep_modes_per_order(profile, *sweep)),
    ]
    for lockstep, per_order in cases:
        assert _solver_outcome(lockstep) == _solver_outcome(per_order)


@pytest.mark.parametrize("blend", [False, True])
def test_lockstep_solves_match_per_order_search_on_demo(ring_profile, ring_profile_blend, blend):
    profile = ring_profile_blend if blend else ring_profile
    _assert_same_solves(profile, 1.55, 5e-4, (1549.0, 1551.0, 1.0))


DEMO_TABLE_CSV = """\
l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm
0,1,1.4526445389262452,4915313.897861429,21.407638492693803,1550.0
1,1,1.4518659424228435,4918851.057459113,26.27640193354007,1550.0
2,1,1.4502102241634498,4923488.7260227995,29.66616060005617,1550.0
3,1,1.4480386555829559,4928247.470523322,30.958588405034266,1550.0
0,2,1.4475050221379417,4917775.173645005,18.254960696807977,1550.0
1,2,1.4460230567601373,4923715.088778316,10.293033058963477,1550.0
4,1,1.445505200606195,4932487.143446085,25.861707870180304,1550.0
"""


def test_demo_table_keeps_its_bits(ring_profile):
    # the kernel's scalars per point keep the arithmetic of the scalar code
    assert mode_table_to_csv(solve_mode_table(ring_profile, 1.55)) == DEMO_TABLE_CSV


# the same demo profile under the sellmeier-blend model, its layers calibrated by
# bisection: the blend fraction is the float where the index first reaches the target
DEMO_BLEND_TABLE_CSV = {
    1537.0: """\
l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm
0,1,1.4528151206660729,4913222.434869483,18.292977615224416,1537.0
1,1,1.4520518043074595,4916671.409214045,23.071636483756958,1537.0
2,1,1.4504216385844524,4921287.47045411,26.725150206719054,1537.0
3,1,1.4482803979504228,4926093.622014474,28.62924059042772,1537.0
0,2,1.447725966745673,4916119.348292102,16.673358750128713,1537.0
1,2,1.4462714122206872,4922118.5473270165,10.77102099017147,1537.0
4,1,1.4457792201782493,4930504.242990152,25.08257216956472,1537.0
""",
    1550.0: """\
l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm
0,1,1.4526445389262452,4913465.810856675,19.14751773296405,1550.0
1,1,1.4518659424228435,4916976.9532052195,23.932952951170332,1550.0
2,1,1.4502102241634498,4921640.212356973,27.540367910902017,1550.0
3,1,1.4480386555829559,4926470.185954002,29.300170335292222,1550.0
0,2,1.4475050221379417,4916341.272082761,17.4649727767594,1550.0
1,2,1.4460230567601373,4922255.70372493,10.310620796906337,1550.0
4,1,1.445505200606195,4930830.664030679,25.12339483657324,1550.0
""",
    1561.0: """\
l,m,n_eff,tau_ps_per_km,D_ps_per_km_nm,lambda0_nm
0,1,1.452499712625091,4913680.3680885,19.86157255793685,1561.0
1,1,1.4517080645502096,4917244.1762846215,24.651565164481998,1561.0
2,1,1.450030632712756,4921946.89734684,28.218864320436236,1561.0
3,1,1.4478333568887338,4926795.534605357,29.8516658328293,1561.0
0,2,1.447317624006371,4916536.9883973375,18.117131082848367,1561.0
1,2,1.445812646006063,4922366.540777112,9.82656431545128,1561.0
4,1,1.4452726963403788,4931106.924855294,25.095951412013168,1561.0
""",
}


@pytest.mark.parametrize("nm", sorted(DEMO_BLEND_TABLE_CSV))
def test_demo_blend_tables_keep_their_bits(ring_profile_blend, nm):
    table = solve_mode_table(ring_profile_blend, um_from_nm(nm))
    assert mode_table_to_csv(table) == DEMO_BLEND_TABLE_CSV[nm]


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
    wavelengths = [1.55, 1.55 - 5e-4, 1.55 + 5e-4,  # a table and its probes, and a sweep
                   *(um_from_nm(nm) for nm in grid_points(1550.0, 1550.2, 0.1))]
    on_grid = {x for lam in wavelengths
               for x in modes._scan_grid(modes._geometry(ring_profile, lam), 2000).tolist()}

    def order_one_fails_off_the_grid(points, l, n_eff):
        values = kernel(points, l, n_eff)
        off_grid = np.array([x not in on_grid for x in n_eff.tolist()], dtype=bool)
        values[(l == 1) & off_grid] = np.nan  # in refinement calls only
        return values

    monkeypatch.setattr(modes, "_char_values", order_one_fails_off_the_grid)
    for lockstep, per_order in (
        (lambda: find_modes(ring_profile, 1.55),
         lambda: oracles.find_modes_per_order(ring_profile, 1.55)),
        (lambda: solve_mode_table(ring_profile, 1.55),
         lambda: oracles.solve_mode_table_per_order(ring_profile, 1.55)),
        (lambda: sweep_modes(ring_profile, 1550.0, 1550.2, 0.1),
         lambda: oracles.sweep_modes_per_order(ring_profile, 1550.0, 1550.2, 0.1)),
    ):
        with pytest.raises(modes.BracketRefinementError,
                           match="characteristic function is not finite") as excinfo:
            lockstep()
        # the batch starts with the LP01 and LP02 brackets, which refine as usual
        assert excinfo.value.azimuthal == 1
        assert _solver_outcome(lockstep) == _solver_outcome(per_order)


def test_a_bracket_still_open_after_n_max_plus_one_steps_is_an_error(ring_profile,
                                                                      monkeypatch):
    # at eps = 1e-300 |a|, far below the spacing of the floats, no bracket can close,
    # and each ends at the step cap
    from fmf_ttdl import modes

    monkeypatch.setattr(modes, "_REFINE_RTOL", 1e-300)

    def lockstep():
        return find_modes(ring_profile, 1.55)

    with pytest.raises(modes.BracketRefinementError, match="still open after") as excinfo:
        lockstep()
    assert excinfo.value.azimuthal == 0
    assert _solver_outcome(lockstep) == _solver_outcome(
        lambda: oracles.find_modes_per_order(ring_profile, 1.55))


def test_kernel_call_budget(ring_profile, reference_solution, four_sample_graph, monkeypatch):
    from fmf_ttdl import modes
    from fmf_ttdl.evaluate import delay_curve

    kernel, count = modes._char_values, modes._mode_counts
    calls, count_calls = [], []
    monkeypatch.setattr(modes, "_char_values",
                        lambda p, l, n_eff: calls.append(len(n_eff)) or kernel(p, l, n_eff))
    monkeypatch.setattr(modes, "_mode_counts",
                        lambda p, l, n_eff: count_calls.append(len(n_eff)) or count(p, l, n_eff))
    solve_mode_table(ring_profile, 1.55)  # two scans and one lockstep ITP
    assert 0 < len(calls) <= 15
    calls.clear()
    assert len(sweep_modes(ring_profile, 1549.5, 1550.5, 0.1)) == 11
    assert 0 < len(calls) <= 15
    calls.clear()
    count_calls.clear()
    # one solve for the whole curve; a solve per point took 33 kernel and 15 count calls
    delay_curve(reference_solution, [1545.0, 1550.0, 1555.0], model="numeric-sweep",
                graph=four_sample_graph, profile=ring_profile)
    assert 0 < len(calls) <= 12
    assert 0 < len(count_calls) <= 6


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
                                  f_lower=first.f_lower[1:], f_upper=first.f_upper[1:])
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


def test_every_solve_stops_its_azimuthal_scan_at_order_64_with_a_warning():
    # a thin ring 36-38 um across guides orders beyond 64 at 520 nm
    profile = FiberProfile(layers=(Layer(36.0, 0.0), Layer(38.0, 0.008)))
    stopped = "azimuthal scan stopped at l=64 with modes still guided"
    for solve, tables in ((lambda: find_modes(profile, 0.52), 1),
                          (lambda: solve_mode_table(profile, 0.52), 3),  # and its two probes
                          (lambda: sweep_modes(profile, 520.0, 520.0, 1.0)[0], 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = solve()
        assert [str(w.message) for w in caught] == [stopped] * tables
        assert max(record.l for record in table.modes) == 64
    # at 580 nm the top guided order is 63: the scan ends below the stop, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = find_modes(profile, 0.58)
    assert max(record.l for record in table.modes) == 63


def test_l0_count_in_a_wide_core_steps_over_no_zero_of_j0():
    # q r1 reaches 10.6 here; where it lies in [8.65, 9.2], one step of 4.6/q would
    # hold both j_0,2 = 5.52 and j_0,3 = 8.65, which the count's 2.3/q keeps apart
    from fmf_ttdl import modes

    profile = FiberProfile(layers=(Layer(15.0, 0.0072),))
    table = find_modes(profile, 1.55)
    assert table == oracles.find_modes_per_order(profile, 1.55)
    roots = [record.n_eff for record in table.modes if record.l == 0]
    assert len(roots) >= 3
    geometry = modes._geometry(profile, 1.55)
    points = modes._points([geometry], [1])
    for n_eff in modes._scan_grid(geometry, 2000)[::4].tolist():  # one a call: its own steps
        [count] = modes._mode_counts(points, np.zeros(1, dtype=int), np.array([n_eff]))
        assert count == sum(root > n_eff for root in roots), n_eff


def test_top_order_root_in_the_lowest_grid_cell_is_found():
    # the ring's index step is set so that LP41, the top order, has its only root
    # between the first two grid points, where the order bound is evaluated
    from fmf_ttdl import modes

    profile = FiberProfile(layers=(Layer(3.0, 0.0021), Layer(10.0, 0.00592578125)))
    table = find_modes(profile, 1.55)
    assert table == oracles.find_modes_per_order(profile, 1.55)
    assert max(record.l for record in table.modes) == 4
    grid = modes._scan_grid(modes._geometry(profile, 1.55), 2000)
    assert grid[0] < table.mode(4, 1).n_eff < grid[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_determinant_of_an_exactly_zero_state_is_zero(ring_profile):
    # a zero state row has a zero scale; the determinant is then 0.0, not a NaN of 0 / 0
    from fmf_ttdl import modes

    geometry = modes._geometry(ring_profile, 1.55)
    n_eff = modes._scan_grid(geometry, 2000)[[500, 1500]]
    values = modes._determinant(modes._points([geometry], [2]), np.array([1, 1]), n_eff,
                                np.array([[0.0, 0.0], [1.0, -1.0]]))
    assert values[0] == 0.0 and 0.0 < abs(values[1]) <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_window_padding_absorbs_a_count_one_cell_off(ring_profile, monkeypatch, shift):
    # a root within rounding of a grid point may fall in the count's cell or the next
    from fmf_ttdl import modes

    expected = mode_table_to_csv(solve_mode_table(ring_profile, 1.55))
    count = modes._mode_counts

    def shifted(points, l, n_eff):
        # each row keeps to the guided range of its own wavelength's grid (the
        # probe wavelengths' rows too), with that grid's cell width
        _, rows = points
        low = np.sqrt(rows[:, 1]) + modes._EDGE_MARGIN
        high = np.sqrt(rows[:, 2:].max(axis=1)) - modes._EDGE_MARGIN
        cell = (high - low) / (2000 - 1)
        return count(points, l, np.clip(n_eff + shift * cell, low, high))

    monkeypatch.setattr(modes, "_mode_counts", shifted)
    assert mode_table_to_csv(solve_mode_table(ring_profile, 1.55)) == expected


def test_an_exact_zero_at_a_grid_point_is_one_root(ring_profile, monkeypatch):
    # f is exactly 0 where LP01's cell starts, with its sign bit against its
    # neighbours', as a computed zero may have it: the root is that point, once
    from fmf_ttdl import modes

    grid = modes._scan_grid(modes._geometry(ring_profile, 1.55), 2000)
    start = grid[np.searchsorted(grid, find_modes(ring_profile, 1.55).mode(0, 1).n_eff) - 1]
    kernel = modes._char_values

    def zero_at_start(points, l, n_eff):
        values = kernel(points, l, n_eff)
        values[(l == 0) & (n_eff == start)] *= -0.0
        return values

    monkeypatch.setattr(modes, "_char_values", zero_at_start)
    table = find_modes(ring_profile, 1.55)
    assert table.labels() == EXPECTED_ORDER
    assert table.mode(0, 1).n_eff == start
    assert table == oracles.find_modes_per_order(ring_profile, 1.55)


def test_windows_of_nearby_roots_merge_into_one_scan(monkeypatch):
    # a core and a ring 12 um apart: LP01 and LP02 lie 3 cells apart on a 500-point
    # grid, so their padded windows meet and are scanned as one of 7 points
    from fmf_ttdl import modes

    profile = FiberProfile(layers=(Layer(4.0, 0.005), Layer(16.0, 0.0), Layer(17.5, 0.01)))
    scan, windows = modes._scan, []
    monkeypatch.setattr(modes, "_scan", lambda scans: windows.extend(
        (l, len(points)) for _, l, points, _ in scans) or scan(scans))
    table = find_modes(profile, 1.55, scan_points=500)
    assert table.labels()[:2] == ("LP01", "LP02")
    assert (0, 7) in windows
    assert table == oracles.find_modes_per_order(profile, 1.55, scan_points=500)


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
    cell = r"\(1\.\d+, 1\.\d+\]"  # two plain floats, not np.float64(...)
    with pytest.raises(ModeSolverError, match=rf"l=0 at 1550\.0 nm: the mode count gives "
                                              rf"{by_count} roots and the window scan found "
                                              rf"{by_scan}, near the cell {cell} \(a larger "
                                              rf"scan_points may separate them\)$"):
        solve(ring_profile)
