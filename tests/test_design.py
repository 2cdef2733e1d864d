from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    PLACEMENT_VARIABLES,
    grid_search_two_sample,
    perturb_per_trial,
    reference_placement_oracle,
)

from fmf_ttdl import design
from fmf_ttdl.design import (
    DELAYS_ONLY,
    ConversionGraph,
    DesignError,
    DesignTargets,
    InfeasibleConstantError,
    InfeasibleDesignError,
    Segment,
    UnknownModeError,
    assemble_constraints,
    load_graph,
    lpg_positions,
    parse_graph,
    perturb_and_redesign,
    placements_to_csv,
    parse_placements_csv,
    read_placements,
    solve_placements,
    write_placements,
)
from fmf_ttdl.fileio import FileFormatError
from fmf_ttdl.modes import ModeRecord, ModeTable

# Rounded published placements for the bundled four-sample design.
ROUNDED_PLACEMENTS = {
    "l02": 0.17,
    "l41_2": 0.24,
    "l01_2": 0.22,
    "l12_2": 0.37,
    "l31_3": 0.39,
    "l11_3": 0.26,
    "l12_3": 0.19,
}


def make_toy_table(rows):
    records = tuple(
        ModeRecord(
            l=l, m=m, n_eff=n, lambda0_um=1.55,
            tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp,
        )
        for l, m, n, tau, disp in rows
    )
    return ModeTable(records, 1.55)


# --- graph structure ------------------------------------------------------------

def test_graph_variables_in_first_appearance_order(four_sample_graph):
    assert four_sample_graph.variables() == PLACEMENT_VARIABLES


def test_graph_rejects_noop_junction():
    with pytest.raises(ValueError, match="converts nothing"):
        ConversionGraph(((Segment((0, 1), "a"), Segment((0, 1), "b")),))


def test_graph_rejects_variable_reuse_in_one_sample():
    with pytest.raises(ValueError, match="used twice"):
        ConversionGraph(
            ((Segment((0, 1), "a"), Segment((1, 1), "b"), Segment((0, 1), "a")),)
        )


def test_graph_rejects_inconsistent_shared_prefix():
    with pytest.raises(ValueError, match="shared"):
        ConversionGraph(
            (
                (Segment((0, 2), "l02"), Segment((1, 2), "tail1")),
                (Segment((0, 1), "l02"), Segment((1, 2), "tail2")),
            )
        )


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment((0, 1), "not an identifier")
    with pytest.raises(ValueError):
        Segment((0, 1), 1.5)
    with pytest.raises(ValueError):
        Segment((0, 1), 0.0)


# --- constraint assembly ---------------------------------------------------------

def test_reference_system_shape(four_sample_graph, reference_table, reference_targets):
    system = assemble_constraints(four_sample_graph, reference_table, reference_targets)
    assert len(system.variables) == 8
    assert system.matrix.shape == (9, 9)
    assert system.optimize_dispersion
    labels = system.row_labels
    assert sum(1 for label in labels if label.startswith("normalization")) == 3
    assert sum(1 for label in labels if label.startswith("delay")) == 3
    assert sum(1 for label in labels if label.startswith("dispersion")) == 3
    steps = ("1->2", "2->3", "3->4")
    assert labels == (*(f"normalization[sample {k}]" for k in (1, 2, 3)),
                      *(f"delay[sample {step}]" for step in steps),
                      *(f"dispersion[sample {step}]" for step in steps))


def test_single_sample_graph_is_empty_system(reference_table):
    graph = ConversionGraph(((Segment((2, 1), 1.0),),))
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    system = assemble_constraints(graph, reference_table, targets)
    assert system.variables == ()
    assert system.matrix.shape[0] == 0
    solution = solve_placements(system)
    assert solution.lengths == {}
    assert solution.tau_eq_ps_per_km == (8182.33,)
    assert solution.delta_d_ps_per_km_nm is None


def test_delays_only_drops_dispersion_rows(four_sample_graph, reference_table):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    assert system.matrix.shape == (6, 8)
    assert not system.optimize_dispersion
    assert all(not label.startswith("dispersion") for label in system.row_labels)


def test_unknown_mode_is_reported(reference_table):
    graph = ConversionGraph(
        ((Segment((5, 1), "a"), Segment((0, 1), "b")),
         (Segment((2, 1), 1.0),))
    )
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    with pytest.raises(UnknownModeError, match="LP51"):
        assemble_constraints(graph, reference_table, targets)


def test_unknown_reference_mode_is_reported(four_sample_graph, reference_table):
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55, reference_mode=(9, 1))
    with pytest.raises(UnknownModeError) as excinfo:
        assemble_constraints(four_sample_graph, reference_table, targets)
    assert str(excinfo.value) == "reference mode LP91 is not in the mode table"
    assert excinfo.value.__suppress_context__


def test_graph_needs_a_sample():
    with pytest.raises(ValueError, match="graph needs at least one sample"):
        ConversionGraph(())


def _without(table, field):
    return ModeTable(tuple(replace(r, **{field: None}) for r in table.modes), table.lambda0_um)


def test_table_without_group_delays_is_rejected(
    four_sample_graph, reference_table, reference_targets
):
    table = _without(reference_table, "tau_ps_per_km")
    with pytest.raises(DesignError, match="lacks group delays; characterize it first"):
        assemble_constraints(four_sample_graph, table, reference_targets)


def test_table_without_dispersion_serves_only_delays_only_designs(
    four_sample_graph, reference_table, reference_targets
):
    table = _without(reference_table, "dispersion_ps_per_km_nm")
    with pytest.raises(DesignError, match="lacks dispersion values; characterize it first"):
        assemble_constraints(four_sample_graph, table, reference_targets)
    delays_only = replace(reference_targets, dispersion_rule=DELAYS_ONLY)
    system = assemble_constraints(four_sample_graph, table, delays_only)
    full = assemble_constraints(four_sample_graph, reference_table, delays_only)
    assert system.row_labels == full.row_labels
    assert np.array_equal(system.matrix, full.matrix)
    assert np.array_equal(system.rhs, full.rhs)


def test_fixed_segment_counts_in_every_row_by_its_length(reference_table):
    graph = ConversionGraph(
        ((Segment((0, 1), "a"), Segment((1, 1), 0.25)),
         (Segment((2, 1), 0.4), Segment((0, 2), "b")))
    )
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    system = assemble_constraints(graph, reference_table, targets)
    tau = {(r.l, r.m): r.tau_ps_per_km for r in reference_table.modes}
    assert system.row_labels[:3] == ("normalization[sample 1]", "normalization[sample 2]",
                                     "delay[sample 1->2]")
    assert system.rhs[:3] == pytest.approx(
        [0.75, 0.6, 100.0 - 0.4 * tau[(2, 1)] + 0.25 * tau[(1, 1)]], rel=1e-12)


def test_fixed_constant_sample_must_total_one(reference_table):
    graph = ConversionGraph(
        ((Segment((0, 1), 0.5), Segment((1, 1), 0.3)),
         (Segment((2, 1), 1.0),))
    )
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    with pytest.raises(InfeasibleConstantError):
        assemble_constraints(graph, reference_table, targets)


# --- solving ---------------------------------------------------------------------

def test_reference_solution_matches_hand_built_oracle(reference_solution):
    oracle_lengths, oracle_delta_d = reference_placement_oracle()
    for name, expected in oracle_lengths.items():
        assert reference_solution.lengths[name] == pytest.approx(expected, abs=1e-11)
    assert reference_solution.delta_d_ps_per_km_nm == pytest.approx(
        oracle_delta_d, abs=1e-11
    )


def test_reference_solution_matches_published_rounding(reference_solution):
    for name, expected in ROUNDED_PLACEMENTS.items():
        assert abs(reference_solution.lengths[name] - expected) <= 0.015


def test_reference_equivalent_delays_and_dispersions(reference_solution):
    assert reference_solution.tau_eq_ps_per_km == pytest.approx(
        (7882.3, 7982.3, 8082.3, 8182.3), abs=1.0
    )
    assert reference_solution.d_eq_ps_per_km_nm == pytest.approx(
        (12.10, 17.20, 22.30, 27.40), abs=0.02
    )
    assert reference_solution.delta_d_ps_per_km_nm == pytest.approx(5.10, abs=0.01)


def test_solution_feasibility_residuals(
    four_sample_graph, reference_table, reference_targets, reference_solution
):
    system = assemble_constraints(four_sample_graph, reference_table, reference_targets)
    x = np.array(
        [reference_solution.lengths[name] for name in system.variables]
        + [reference_solution.delta_d_ps_per_km_nm]
    )
    residual = np.abs(system.matrix @ x - system.rhs)
    scale = np.maximum(
        1.0, np.maximum(np.abs(system.rhs), np.abs(system.matrix).max(axis=1))
    )
    assert np.all(residual < 1e-9 * scale)
    sums = {}
    for sample in four_sample_graph.samples:
        total = sum(
            reference_solution.lengths[s.length] if isinstance(s.length, str) else s.length
            for s in sample
        )
        assert total == pytest.approx(1.0, abs=1e-9)
    increments = np.diff(reference_solution.tau_eq_ps_per_km)
    assert np.all(np.abs(increments - 100.0) < 1e-6)
    d_increments = np.diff(reference_solution.d_eq_ps_per_km_nm)
    assert np.max(np.abs(d_increments - d_increments[0])) < 1e-9


def test_length_total_check_names_its_sample(four_sample_graph, reference_table,
                                            reference_targets, reference_solution):
    system = assemble_constraints(four_sample_graph, reference_table, reference_targets)
    x = np.array([[reference_solution.lengths[name] for name in system.variables]
                  + [reference_solution.delta_d_ps_per_km_nm]])
    x[0, system.variables.index("l01_2")] += 1e-6  # a variable of sample 2 alone
    checks = design._solution_checks(system, system.matrix[None], system.rhs[None],
                                     system.weights, x)[0]
    totals = [message(0) for failed, _, message in checks
              if failed[0] and "lengths total" in message(0)]
    assert len(totals) == 1
    assert totals[0].startswith("sample 2 lengths total 1.00000")
    assert totals[0].endswith(", expected 1 within 1e-9")


def test_unreachable_delay_step_is_infeasible(four_sample_graph, reference_table):
    targets = DesignTargets(delta_tau_ps_per_km=1e6, lambda0_um=1.55)
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    with pytest.raises(InfeasibleDesignError):
        solve_placements(system)


def test_delays_only_family_contains_full_solution(
    four_sample_graph, reference_table, reference_solution
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    rank = np.linalg.matrix_rank(system.matrix)
    assert system.matrix.shape[1] - rank == 2  # two-parameter solution family
    x = np.array([reference_solution.lengths[name] for name in system.variables])
    assert np.allclose(system.matrix @ x, system.rhs, atol=1e-9)


def test_fixed_dispersion_rule_reproduces_natural_increment(
    four_sample_graph, reference_table, reference_solution
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0,
        lambda0_um=1.55,
        dispersion_rule="fixed",
        fixed_delta_d_ps_per_km_nm=reference_solution.delta_d_ps_per_km_nm,
    )
    solution = solve_placements(
        assemble_constraints(four_sample_graph, reference_table, targets)
    )
    for name, value in reference_solution.lengths.items():
        assert solution.lengths[name] == pytest.approx(value, abs=1e-9)
    assert solution.delta_d_ps_per_km_nm == reference_solution.delta_d_ps_per_km_nm


def test_fixed_dispersion_rule_infeasible_when_overconstrained(
    four_sample_graph, reference_table
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0,
        lambda0_um=1.55,
        dispersion_rule="fixed",
        fixed_delta_d_ps_per_km_nm=6.0,
    )
    with pytest.raises(InfeasibleDesignError):
        solve_placements(assemble_constraints(four_sample_graph, reference_table, targets))


def test_fixed_dispersion_rule_requires_value():
    with pytest.raises(ValueError):
        DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule="fixed")


def test_fixed_dispersion_consumes_slack_deterministically():
    table = make_toy_table(
        (
            (0, 1, 1.452, 0.0, 10.0),
            (1, 1, 1.451, 1000.0, 20.0),
            (2, 1, 1.450, 2000.0, 5.0),
            (0, 2, 1.449, 3000.0, 30.0),
        )
    )
    graph = ConversionGraph(
        (
            (Segment((0, 1), "a"), Segment((1, 1), "b")),
            (Segment((2, 1), "c"), Segment((0, 2), "d")),
        )
    )
    targets = DesignTargets(
        delta_tau_ps_per_km=1500.0, lambda0_um=1.55,
        dispersion_rule="fixed", fixed_delta_d_ps_per_km_nm=-3.0,
    )
    solution = solve_placements(assemble_constraints(graph, table, targets))
    # dispersion increment is -2.5 - 15 a on the delay-feasible family
    assert solution.lengths["a"] == pytest.approx(0.5 / 15.0, abs=1e-9)
    assert solution.delta_d_ps_per_km_nm == -3.0


# --- dispersion-maximization oracle ----------------------------------------------

TOY_ROWS_A = (
    (0, 1, 1.452, 0.0, 10.0),
    (1, 1, 1.451, 1000.0, 20.0),
    (2, 1, 1.450, 2000.0, 5.0),
    (0, 2, 1.449, 3000.0, 30.0),
)

TOY_ROWS_B = (
    (0, 1, 1.452, 0.0, 10.0),
    (1, 1, 1.451, 1000.0, 20.0),
    (2, 1, 1.450, 2000.0, 5.0),
    (0, 2, 1.449, 3000.0, 30.0),
    (1, 2, 1.448, 1500.0, 25.0),
)


def test_lp_matches_grid_search_one_free_variable():
    table = make_toy_table(TOY_ROWS_A)
    graph = ConversionGraph(
        (
            (Segment((0, 1), "a"), Segment((1, 1), "b")),
            (Segment((2, 1), "c"), Segment((0, 2), "d")),
        )
    )
    targets = DesignTargets(delta_tau_ps_per_km=1500.0, lambda0_um=1.55)
    solution = solve_placements(assemble_constraints(graph, table, targets))
    tau = {(0, 1): 0.0, (1, 1): 1000.0, (2, 1): 2000.0, (0, 2): 3000.0}
    disp = {(0, 1): 10.0, (1, 1): 20.0, (2, 1): 5.0, (0, 2): 30.0}
    best, best_x = grid_search_two_sample(
        tau, disp, (((0, 1), (1, 1)), ((2, 1), (0, 2))), 1500.0
    )
    assert abs(solution.delta_d_ps_per_km_nm - best) <= 2e-3
    got = [solution.lengths[name] for name in ("a", "b", "c", "d")]
    assert np.max(np.abs(np.array(got) - best_x)) <= 2e-3


def test_lp_matches_grid_search_two_free_variables():
    table = make_toy_table(TOY_ROWS_B)
    graph = ConversionGraph(
        (
            (Segment((0, 1), "a"), Segment((1, 1), "b"), Segment((2, 1), "c")),
            (Segment((0, 2), "d"), Segment((1, 2), "e")),
        )
    )
    targets = DesignTargets(delta_tau_ps_per_km=1000.0, lambda0_um=1.55)
    solution = solve_placements(assemble_constraints(graph, table, targets))
    tau = {(0, 1): 0.0, (1, 1): 1000.0, (2, 1): 2000.0, (0, 2): 3000.0, (1, 2): 1500.0}
    disp = {(0, 1): 10.0, (1, 1): 20.0, (2, 1): 5.0, (0, 2): 30.0, (1, 2): 25.0}
    best, best_x = grid_search_two_sample(
        tau, disp, (((0, 1), (1, 1), (2, 1)), ((0, 2), (1, 2))), 1000.0
    )
    assert abs(solution.delta_d_ps_per_km_nm - best) <= 2e-3
    got = [solution.lengths[name] for name in ("a", "b", "c", "d", "e")]
    assert np.max(np.abs(np.array(got) - best_x)) <= 2e-3


# --- grating positions -------------------------------------------------------------

def test_lpg_positions_for_reference_design(reference_solution, four_sample_graph):
    positions = lpg_positions(reference_solution, four_sample_graph, 1.0)
    assert len(positions) == 5
    lengths = reference_solution.lengths
    expected = sorted(
        (
            ("LP02", "LP12", lengths["l02"]),
            ("LP12", "LP01", lengths["l02"] + lengths["l12_2"]),
            ("LP01", "LP41", 1.0 - lengths["l41_2"]),
            ("LP12", "LP11", lengths["l02"] + lengths["l12_3"]),
            ("LP11", "LP31", 1.0 - lengths["l31_3"]),
        ),
        key=lambda item: item[2],
    )
    for entry, (from_mode, to_mode, z) in zip(positions, expected):
        assert (entry.from_mode, entry.to_mode) == (from_mode, to_mode)
        assert entry.z_km == pytest.approx(z, abs=1e-9)
    assert positions[0].z_km == pytest.approx(1.0 - lengths["l12_1"], abs=1e-9)
    assert positions[0].z_km == pytest.approx(0.170, abs=0.015)


def test_lpg_positions_scale_linearly(reference_solution, four_sample_graph):
    base = lpg_positions(reference_solution, four_sample_graph, 1.0)
    doubled = lpg_positions(reference_solution, four_sample_graph, 2.0)
    for a, b in zip(base, doubled):
        assert b.z_km == pytest.approx(2.0 * a.z_km, rel=1e-12)


def test_lpg_positions_need_positive_length(reference_solution, four_sample_graph):
    with pytest.raises(ValueError):
        lpg_positions(reference_solution, four_sample_graph, 0.0)


# --- perturbation robustness --------------------------------------------------------

def test_zero_sigma_reproduces_nominal(four_sample_graph, reference_table, reference_targets):
    report = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets,
        sigma=0.0, trials=4, seed=7,
    )
    assert all(t.feasible for t in report.trials)
    assert all(t.max_abs_delta_length == 0.0 for t in report.trials)
    assert report.median_max_abs_delta_length == 0.0


def test_perturb_reports_are_reproducible(four_sample_graph, reference_table, reference_targets):
    kwargs = dict(sigma=0.01, trials=20, seed=42)
    first = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets, **kwargs
    )
    second = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets, **kwargs
    )
    assert first.to_csv() == second.to_csv()


def test_perturb_serial_matches_parallel(four_sample_graph, reference_table, reference_targets):
    serial = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets,
        sigma=0.02, trials=16, seed=3, workers=1,
    )
    parallel = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets,
        sigma=0.02, trials=16, seed=3, workers=4,
    )
    assert serial.to_csv() == parallel.to_csv()


def test_perturb_regression_snapshot(four_sample_graph, reference_table, reference_targets):
    # frozen from the first run of this configuration
    report = perturb_and_redesign(
        four_sample_graph, reference_table, reference_targets,
        sigma=0.01, trials=100, seed=20240601,
    )
    assert report.feasible_fraction == 1.0
    assert report.median_max_abs_delta_length > 0.0
    assert report.median_max_abs_delta_length == pytest.approx(
        0.02031935842873385, abs=1e-12
    )


def test_perturb_validates_parameters(four_sample_graph, reference_table, reference_targets):
    with pytest.raises(ValueError):
        perturb_and_redesign(four_sample_graph, reference_table, reference_targets,
                             sigma=-0.1, trials=5, seed=0)
    with pytest.raises(ValueError):
        perturb_and_redesign(four_sample_graph, reference_table, reference_targets,
                             sigma=0.1, trials=0, seed=0)


def test_perturb_rejects_non_finite_sigma(four_sample_graph, reference_table, reference_targets):
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            perturb_and_redesign(four_sample_graph, reference_table, reference_targets,
                                 sigma=sigma, trials=5, seed=0)


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.05, 0.2])
def test_batched_perturbation_matches_per_trial_oracle(
    sigma, four_sample_graph, reference_table, reference_targets
):
    trials = design._TRIAL_BLOCK + 44  # a full block and a partial one
    args = (four_sample_graph, reference_table, reference_targets, sigma, trials, 11)
    report = perturb_and_redesign(*args)
    assert report.to_csv() == perturb_per_trial(*args).to_csv()
    if sigma == 0.2:
        assert 0 < sum(t.feasible for t in report.trials) < trials


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.05, 0.2])
def test_non_square_perturbation_matches_per_trial_oracle(
    sigma, four_sample_graph, reference_table, reference_solution
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule="fixed",
        fixed_delta_d_ps_per_km_nm=reference_solution.delta_d_ps_per_km_nm,
    )
    args = (four_sample_graph, reference_table, targets, sigma, 3, 5)
    assert assemble_constraints(four_sample_graph, reference_table, targets).matrix.shape == (9, 8)
    report = perturb_and_redesign(*args, workers=2)
    assert report.to_csv() == perturb_per_trial(*args).to_csv()


def test_delays_only_perturbation_needs_no_dispersion(four_sample_graph, reference_table):
    from dataclasses import replace

    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    no_d = ModeTable(
        tuple(replace(r, dispersion_ps_per_km_nm=None) for r in reference_table.modes), 1.55
    )
    without = perturb_and_redesign(four_sample_graph, no_d, targets, 0.05, 3, 7)
    with_d = perturb_and_redesign(four_sample_graph, reference_table, targets, 0.05, 3, 7)
    assert without.to_csv() == with_d.to_csv()


def _count_linprog(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.05, 0.2])
def test_singular_direct_system_falls_back_to_lp(sigma, monkeypatch):
    # LP11 and LP21 share tau and D, so the square system's a and b columns
    # are equal and every direct solve at sigma = 0 is singular
    table = make_toy_table(
        (
            (0, 1, 1.452, 0.0, 10.0),
            (1, 1, 1.451, 1024.0, 16.0),
            (2, 1, 1.450, 1024.0, 16.0),
            (0, 2, 1.449, 1536.0, 40.0),
        )
    )
    graph = ConversionGraph(
        ((Segment((1, 1), "a"), Segment((2, 1), "b")), (Segment((0, 2), 1.0),))
    )
    targets = DesignTargets(delta_tau_ps_per_km=512.0, lambda0_um=1.55)
    system = assemble_constraints(graph, table, targets)
    assert system.matrix.shape == (3, 3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(system.matrix, system.rhs)
    calls = _count_linprog(monkeypatch)
    args = (graph, table, targets, sigma, 6, 2)
    report = perturb_and_redesign(*args)
    assert report.nominal.lengths == {"a": 0.0, "b": 1.0}
    assert report.nominal.delta_d_ps_per_km_nm == 24.0
    if sigma == 0.0:
        assert len(calls) == 3 * 7  # the nominal design and each trial take the LP path
        assert all(t.feasible and t.max_abs_delta_length == 0.0 for t in report.trials)
    assert report.to_csv() == perturb_per_trial(*args).to_csv()


def test_rank_deficient_square_system_takes_the_lp_path(
    four_sample_graph, reference_table, reference_targets
):
    # LP11 and LP31 share tau and D, so the 9x9 system loses a rank but stays
    # consistent, and np.linalg.solve returns a point outside the bounds
    from dataclasses import replace

    tau, disp = 9225.66042032218, 27.031451578803704
    table = ModeTable(tuple(
        replace(r, tau_ps_per_km=tau, dispersion_ps_per_km_nm=disp)
        if (r.l, r.m) in ((1, 1), (3, 1)) else r
        for r in reference_table.modes
    ), 1.55)
    system = assemble_constraints(four_sample_graph, table, reference_targets)
    assert system.matrix.shape == (9, 9)
    assert np.linalg.matrix_rank(system.matrix) == 8
    direct = dict(zip(system.variables, np.linalg.solve(system.matrix, system.rhs)))
    assert direct["l11_3"] < -1.0 and direct["l31_3"] > 1.0
    solution = solve_placements(system)
    assert solution.lengths["l11_3"] == pytest.approx(0.0, abs=1e-12)
    assert solution.lengths["l31_3"] == pytest.approx(0.6393240139306796, abs=1e-12)
    report = perturb_and_redesign(four_sample_graph, table, reference_targets, 0.0, 3, 1)
    assert all(t.feasible and t.max_abs_delta_length == 0.0 for t in report.trials)


def test_lp_count_per_dispersion_rule(monkeypatch, four_sample_graph, reference_table):
    calls = _count_linprog(monkeypatch)
    toy = make_toy_table(TOY_ROWS_A)
    graph = ConversionGraph(
        (
            (Segment((0, 1), "a"), Segment((1, 1), "b")),
            (Segment((2, 1), "c"), Segment((0, 2), "d")),
        )
    )
    targets = DesignTargets(delta_tau_ps_per_km=1500.0, lambda0_um=1.55)
    solve_placements(assemble_constraints(graph, toy, targets))
    assert len(calls) == 1 + 4  # the dispersion LP, then one tie-break LP per length

    calls.clear()
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    solve_placements(assemble_constraints(four_sample_graph, reference_table, targets))
    assert len(calls) == 8  # the tie-break LPs alone; the first decides feasibility

    calls.clear()
    targets = DesignTargets(
        delta_tau_ps_per_km=1e6, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    with pytest.raises(InfeasibleDesignError) as info:
        solve_placements(system)
    assert str(info.value) == design._infeasibility_report(system)
    assert str(info.value).startswith("no placement satisfies")
    assert len(calls) == 1


# --- graph and placement files -------------------------------------------------------

GRAPH_TEXT = """[sample 1]
segment = LP02, l02
segment = LP12, l12_1
[sample 2]
segment = LP02, l02
segment = LP12, l12_2
segment = LP01, l01_2
segment = LP41, l41_2
[sample 3]
segment = LP02, l02
segment = LP12, l12_3
segment = LP11, l11_3
segment = LP31, l31_3
[sample 4]
segment = LP21, fixed
"""


def test_parse_graph_matches_reference_topology(four_sample_graph):
    graph = parse_graph(GRAPH_TEXT)
    assert graph == four_sample_graph


def test_parse_graph_diagnostics_with_line_numbers():
    text = "\n".join(
        (
            "[sample 1]",
            "segment = LP02, l02",
            "segment = LP02, l12",
            "segment = XP01, a",
            "segment = LP11, 9bad",
            "[sample 3]",
            "what = no",
            "[sample 3]",
            "segment = LP01, x",
            "segment = LP11, y",
            "segment = LP01, x",
            "segment = LP01, x",
        )
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(text, source="bad.graph")
    lines = [line for line, _ in excinfo.value.diagnostics]
    assert lines == [3, 4, 5, 6, 6, 7, 11, 12]
    assert "converts nothing" in excinfo.value.diagnostics[0][1]
    at_header = [message for line, message in excinfo.value.diagnostics if line == 6]
    assert "sample 2 has no segments" in at_header
    # the second use of x is reported, and the last segment (a repeated mode
    # that also reuses x) gets one diagnostic, not three
    assert "variable 'x' used twice" in excinfo.value.diagnostics[6][1]
    assert "converts nothing" in excinfo.value.diagnostics[7][1]
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph("[sample 1]\nsegment = LP01, fixed\n[sample 2]\n")
    assert excinfo.value.diagnostics == ((3, "sample 2 has no segments"),)


def test_parse_graph_shared_prefix_diagnostic():
    text = "\n".join(
        (
            "[sample 1]",
            "segment = LP02, l02",
            "segment = LP12, tail1",
            "[sample 2]",
            "segment = LP01, l02",
            "segment = LP12, tail2",
        )
    )
    with pytest.raises(FileFormatError, match="shared prefix"):
        parse_graph(text, source="bad.graph")


def test_parse_graph_checks_do_not_bridge_a_rejected_segment():
    text = "[sample 1]\nsegment = LP01, a\nsegment = LP11, 9bad\nsegment = LP01, c\n"
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(text, source="bad.graph")
    assert [line for line, _ in excinfo.value.diagnostics] == [3]
    assert "9bad" in excinfo.value.diagnostics[0][1]
    # a prefix that holds a rejected segment is not compared with other samples
    text = (
        "[sample 1]\nsegment = LP02, a\nsegment = LP12, b\n"
        "[sample 2]\nsegment = LX02, a\nsegment = LP12, b\n"
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(text, source="bad.graph")
    assert [line for line, _ in excinfo.value.diagnostics] == [5]


def test_load_graph_demo_file():
    graph = load_graph("demo/four_sample.graph")
    assert len(graph.samples) == 4
    assert graph.variables() == PLACEMENT_VARIABLES


def test_placements_csv_round_trip(tmp_path, reference_solution):
    path = tmp_path / "placements.csv"
    write_placements(reference_solution, path)
    text = path.read_text()
    again = read_placements(path)
    assert placements_to_csv(again) == text
    assert again.lengths == reference_solution.lengths
    assert again.tau_eq_ps_per_km == reference_solution.tau_eq_ps_per_km
    assert again.d_eq_ps_per_km_nm == reference_solution.d_eq_ps_per_km_nm
    assert again.lambda0_um == reference_solution.lambda0_um
    assert again.reference_mode == reference_solution.reference_mode


def test_placements_csv_diagnostics():
    with pytest.raises(FileFormatError):
        parse_placements_csv("nope\n")
    bad = "variable,value\nl02,abc\n[summary]\nkey,value\nlambda0_nm,1550.0\n"
    with pytest.raises(FileFormatError):
        parse_placements_csv(bad)


def test_placements_csv_rejects_non_finite_values(reference_solution):
    lines = placements_to_csv(reference_solution).splitlines()
    length_line = 2
    summary_line = next(
        number for number, line in enumerate(lines, start=1) if line.startswith("tau_eq_2,")
    )
    lines[length_line - 1] = lines[length_line - 1].split(",")[0] + ",nan"
    lines[summary_line - 1] = "tau_eq_2,inf"
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(lines) + "\n", source="bad.csv")
    finite = [line for line, message in excinfo.value.diagnostics if "finite" in message]
    assert finite == [length_line, summary_line]


def test_placements_reader_rejects_repeats_and_out_of_range_values(reference_solution):
    lines = placements_to_csv(reference_solution).splitlines()
    assert lines[1].startswith("l02,")
    lines[1] = "l02,1.5"
    lines.insert(2, "l02,0.9")
    lines = [
        "lambda0_nm,0" if line.startswith("lambda0_nm,")
        else "delta_tau_ps_per_km,-100.0" if line.startswith("delta_tau_ps_per_km,")
        else line
        for line in lines
    ]
    lines.append("tau_eq_1,1.0")
    number = {line: index for index, line in enumerate(lines, start=1)}
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(lines) + "\n", source="bad.csv")
    first_tau = next(n for line, n in number.items() if line.startswith("tau_eq_1,"))
    assert excinfo.value.diagnostics == (
        (2, "bad length value for 'l02': must lie in [0, 1], got 1.5"),
        (3, "repeated length variable 'l02' (first on line 2)"),
        (number["lambda0_nm,0"], "bad value for 'lambda0_nm': must be > 0, got 0"),
        (number["delta_tau_ps_per_km,-100.0"],
         "bad value for 'delta_tau_ps_per_km': must be > 0, got -100.0"),
        (len(lines), f"repeated summary key 'tau_eq_1' (first on line {first_tau})"),
    )


def test_placements_reader_reports_unknown_summary_keys(reference_solution):
    lines = placements_to_csv(reference_solution).splitlines()
    number = {line.split(",")[0]: index for index, line in enumerate(lines, start=1)}
    renamed = [line.replace("delta_D_ps_per_km_nm,", "delta_D_ps_per_km,") for line in lines]
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(renamed) + "\n", source="bad.csv")
    assert excinfo.value.diagnostics == (
        (number["delta_D_ps_per_km_nm"], "unknown summary key 'delta_D_ps_per_km'"),
    )
    # a gap in the numbering: tau_eq_1, tau_eq_3, ... and D_eq_1, D_eq_3, ...
    gapped = [line for line in lines if not line.startswith(("tau_eq_2,", "D_eq_2,"))]
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(gapped) + "\n", source="bad.csv")
    later = [key for key in number if key[-1] in "34" and key.startswith(("tau_eq_", "D_eq_"))]
    assert later == ["tau_eq_3", "tau_eq_4", "D_eq_3", "D_eq_4"]
    assert excinfo.value.diagnostics == tuple(
        (number[key] - (1 if key.startswith("tau") else 2), f"unknown summary key '{key}'")
        for key in later
    )


def test_rejected_tau_eq_is_not_also_a_count_mismatch(reference_solution):
    lines = placements_to_csv(reference_solution).splitlines()
    assert any(line.startswith("D_eq_4,") for line in lines)
    summary_line = next(
        number for number, line in enumerate(lines, start=1) if line.startswith("tau_eq_2,")
    )
    lines[summary_line - 1] = "tau_eq_2,nan"
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(lines) + "\n", source="bad.csv")
    assert [line for line, _ in excinfo.value.diagnostics] == [summary_line]
