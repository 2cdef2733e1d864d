import math
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from oracles import (
    PLACEMENT_VARIABLES,
    grid_search_two_sample,
    highs_lp_verdict,
    linprog_highs,
    lp_chain_linprog,
    perturb_per_trial,
    reference_placement_oracle,
    solve_lp_verdict,
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


def test_fixed_total_may_miss_one_by_at_most_1e_12(reference_table):
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)

    def fixed_pair(second):
        return ConversionGraph(((Segment((0, 1), 0.5), Segment((1, 1), second)),))

    with pytest.raises(InfeasibleConstantError, match="fixed total length"):
        assemble_constraints(fixed_pair(0.5 + 1.5e-12), reference_table, targets)
    system = assemble_constraints(fixed_pair(0.5 + 0.5e-12), reference_table, targets)
    assert system.matrix.shape[0] == 0


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


def test_solution_checks_fire_just_past_each_tolerance():
    table = make_toy_table(((0, 1, 1.452, 0.0, 10.0), (1, 1, 1.451, 100.0, 15.0)))
    graph = ConversionGraph(((Segment((0, 1), "a"),), (Segment((1, 1), "b"),)))
    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    system = assemble_constraints(graph, table, targets)  # solved by a = b = 1, step 5
    x = np.array([
        [1 - 1.5e-9, 1, 5], [1 - 0.5e-9, 1, 5],  # sample 1's total (and the D step)
        [1, 1 - 1.5e-8, 5], [1, 1 - 0.5e-8, 5],  # the delay step 100 b
        [1, 1, 5 + 1.5e-9], [1, 1, 5 + 0.5e-9],  # the dispersion step
        [1, 1 + 0.5e-9, 5],                      # inside the bound slack
        [1 - 1e-6, 1 - 5e-8, 5],                 # residuals 1e-6 of 1 and 5e-6 of 100
    ])
    trials = len(x)
    checks, lengths, *_ = design._solution_checks(
        system, np.repeat(system.matrix[None], trials, 0),
        np.repeat(system.rhs[None], trials, 0), system.weights, x)
    failed = [[message(t) for fails, _, message in checks if fails[t]] for t in range(trials)]
    assert [[" ".join(message.split()[:2]) for message in messages] for messages in failed] == [
        ["solver left", "sample 1", "dispersion increment"], ["dispersion increment"],
        ["solver left", "sample 2", "delay increment", "dispersion increment"],
        ["solver left", "sample 2", "dispersion increment"],
        ["dispersion increment"], [], [],
        ["solver left", "sample 1", "sample 2", "delay increment", "dispersion increment"],
    ]
    assert np.array_equal(lengths[6], [1.0, 1.0])  # clipped into [0, 1]
    assert failed[7][0].endswith(" on normalization[sample 1]")  # the worst relative one


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


@pytest.mark.parametrize("call, message", [
    (lambda solution, graph: DesignTargets(100.0, math.nan), "lambda0_um must be > 0, got nan"),
    (lambda solution, graph: DesignTargets(100.0, -1.55), "lambda0_um must be > 0, got -1.55"),
    (lambda solution, graph: DesignTargets(100.0, math.inf), "lambda0_um must be finite, got inf"),
    (lambda solution, graph: DesignTargets(math.inf, 1.55), "delay step must be finite, got inf"),
    (lambda solution, graph: DesignTargets(100.0, 1.55, "fixed", math.nan),
     "fixed_delta_d_ps_per_km_nm must be finite, got nan"),
    (lambda solution, graph: DesignTargets(100.0, 1.55, "delays-only", -math.inf),
     "fixed_delta_d_ps_per_km_nm must be finite, got -inf"),
    (lambda solution, graph: lpg_positions(solution, graph, math.inf),
     "length must be finite, got inf"),
])
def test_targets_and_link_lengths_the_cli_rejects_are_rejected_by_name(
    call, message, reference_solution, four_sample_graph
):
    # before, these solved into placements that read_placements rejects, or failed
    # as an infeasible system or an escaping junction instead of naming the value
    with pytest.raises(ValueError) as excinfo:
        call(reference_solution, four_sample_graph)
    assert str(excinfo.value) == message


def test_lpg_positions_at_the_ends_and_the_merge_distance(reference_solution):
    def positions(lengths, *samples):
        graph = ConversionGraph(tuple(
            tuple(Segment((l, 1), name) for l, name in enumerate(sample)) for sample in samples))
        return lpg_positions(replace(reference_solution, lengths=lengths), graph, 0.5)

    # a last segment of length 0 puts its junction exactly at the far end
    assert [entry.z_km for entry in positions({"a": 1.0, "b": 0.0}, "ab")] == [0.5]
    # same-label junctions 1.5e-9 L apart are two gratings, not one
    pair = positions({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5 + 1.5e-9}, "ab", "cd")
    assert [entry[:3] for entry in pair] == [(1, "LP01", "LP11"), (2, "LP01", "LP11")]
    assert pair[1].z_km - pair[0].z_km == pytest.approx(0.75e-9, rel=1e-6)
    # a downstream sum of 1 + 1.5e-9 puts a junction 1.5e-9 L before the start
    with pytest.raises(DesignError, match=r"junction position .* escapes \[0, 0.5\] km"):
        positions({"a": 0.0, "b": 0.5, "c": 0.5 + 1.5e-9}, "abc")


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
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        perturb_and_redesign(four_sample_graph, reference_table, reference_targets,
                             sigma=0.1, trials=5, seed=0, workers=0)


@pytest.mark.parametrize("count, value", [
    ("workers", 2.5), ("workers", 2.0), ("workers", True), ("workers", "2"),
    ("trials", 2.5), ("trials", True), ("seed", 1.5), ("seed", np.float64(7.0)),
])
def test_perturb_rejects_a_count_that_is_not_an_integer(
    count, value, four_sample_graph, reference_table, reference_targets
):
    # the CLI's --workers, --trials and --seed are "expected an integer"; a bool is no count
    kwargs = {"sigma": 0.1, "trials": 5, "seed": 0, count: value}
    with pytest.raises(ValueError) as excinfo:
        perturb_and_redesign(four_sample_graph, reference_table, reference_targets, **kwargs)
    assert str(excinfo.value) == f"{count} must be an integer, got {value!r}"


def test_perturb_takes_a_numpy_integer_worker_count(
    four_sample_graph, reference_table, reference_targets
):
    args = (four_sample_graph, reference_table, reference_targets)
    kwargs = dict(sigma=0.2, trials=8, seed=7)
    report = perturb_and_redesign(*args, workers=np.int64(2), **kwargs)
    assert report.to_csv() == perturb_and_redesign(*args, workers=1, **kwargs).to_csv()


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


def test_lp_path_on_two_threads_matches_one_thread_and_the_per_trial_oracle(
    four_sample_graph, reference_table
):
    # each worker thread solves its trials' LP chains on a HiGHS solver of its own
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    args = (four_sample_graph, reference_table, targets, 0.2, 40, 7)
    report = perturb_and_redesign(*args, workers=2)
    assert report.to_csv() == perturb_and_redesign(*args, workers=1).to_csv()
    assert report.to_csv() == perturb_per_trial(*args).to_csv()
    assert 0 < sum(t.feasible for t in report.trials) < 40


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


def test_median_shift_is_numpys_median_for_odd_and_even_counts(reference_solution):
    from fmf_ttdl.design import PerturbationTrial, RobustnessReport

    rng, nan = np.random.default_rng(3), float("nan")
    for count in [*range(1, 12), 98, 99, 399]:
        shifts = [float(value) for value in rng.random(count) * 10.0 ** rng.integers(-9, 1)]
        # infeasible trials carry NaN and are left out of the median
        trials = [PerturbationTrial(i, True, shift, nan) for i, shift in enumerate(shifts)]
        trials.insert(count // 2, PerturbationTrial(count, False, nan, nan))
        report = RobustnessReport(0.1, 1, tuple(trials), reference_solution)
        median = report.median_max_abs_delta_length
        assert type(median) is float and median == float(np.median(shifts))
    none = RobustnessReport(0.1, 1, (PerturbationTrial(0, False, nan, nan),), reference_solution)
    assert math.isnan(none.median_max_abs_delta_length)


def _record_lps(monkeypatch):
    """Every LP the design's chains meet from here on, solved or skipped, as
    ((cost, a_eq, b_eq, lower, upper), (x, failure), solved)."""
    calls = []

    def recording(lp, x, failure, solved):
        calls.append((tuple(np.copy(arg) for arg in lp), (x, failure), solved))
        return x, failure

    monkeypatch.setattr(design, "_LP_SEAM", recording)
    return calls


def _assert_like_linprog(lp, result, solved):
    """A solved LP has linprog's verdict and x, bit for bit; at linprog's optimum
    of a skipped one, the length it minimizes is exactly 0.0."""
    if solved:
        assert highs_lp_verdict(result) == linprog_highs(*lp)
    else:
        x, verdict = linprog_highs(*lp)
        length = np.frombuffer(x)[np.flatnonzero(lp[0])[0]]
        assert verdict == "optimal" and length == 0.0 and not np.signbit(length)


@pytest.mark.parametrize("rule", ["maximize", "fixed", DELAYS_ONLY])
def test_highs_lp_matches_linprog_on_the_demo_chains(
    rule, monkeypatch, four_sample_graph, reference_table, reference_solution
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=rule,
        fixed_delta_d_ps_per_km_nm=reference_solution.delta_d_ps_per_km_nm,
    )
    calls = _record_lps(monkeypatch)
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    # the whole chain, also where the direct path would take the system
    design._solve_lp(system, system.matrix, system.rhs)
    report = perturb_and_redesign(four_sample_graph, reference_table, targets, 0.2, 12, 3)
    assert len(calls) >= 8
    if rule == DELAYS_ONLY:
        assert not all(t.feasible for t in report.trials)
        assert {failure for _, (x, failure), _ in calls} == {None, "infeasible"}
        assert {solved for *_, solved in calls} == {True, False}
    for lp, result, solved in calls:
        _assert_like_linprog(lp, result, solved)


@pytest.mark.parametrize("rule", ["maximize", "fixed", DELAYS_ONLY])
def test_demo_chain_gives_the_bits_of_every_lp_solved_by_linprog(
    rule, four_sample_graph, reference_table, reference_solution
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=rule,
        fixed_delta_d_ps_per_km_nm=reference_solution.delta_d_ps_per_km_nm,
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    x = design._solve_lp(system, system.matrix, system.rhs)
    assert solve_lp_verdict(x) == lp_chain_linprog(system, system.matrix, system.rhs)


# seed 4 at sigma = 0.2 holds a chain that a solver restarted by clearSolver
# alone gets wrong in the last bits: HiGHS keeps the scale factors of its last run
@pytest.mark.parametrize("sigma, seed, workers", [(0.05, 7, 1), (0.2, 7, 2), (0.2, 4, 1)])
def test_lp_path_trials_give_the_bits_of_every_lp_solved_by_linprog(
    sigma, seed, workers, monkeypatch, four_sample_graph, reference_table
):
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    chains, solve_lp = [], design._solve_lp

    def recording(system, matrix, rhs):
        try:
            outcome = solve_lp(system, matrix, rhs)
        except DesignError as error:
            outcome = error
        chains.append(((system, np.copy(matrix), np.copy(rhs)), outcome))
        if isinstance(outcome, DesignError):
            raise outcome
        return outcome

    monkeypatch.setattr(design, "_solve_lp", recording)
    perturb_and_redesign(four_sample_graph, reference_table, targets, sigma, 40, seed,
                         workers=workers)
    assert len(chains) == 41  # the nominal design and every trial take the LP path
    for args, outcome in chains:
        assert solve_lp_verdict(outcome) == lp_chain_linprog(*args)


def test_skipped_tie_breaks_save_an_eighth_of_the_highs_solves(
    monkeypatch, four_sample_graph, reference_table
):
    # the 40 LP-path trials of the redesign benchmark, counted exactly
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    calls, run, solves = _record_lps(monkeypatch), design._run, []
    monkeypatch.setattr(design, "_run", lambda *args: solves.append(1) or run(*args))
    perturb_and_redesign(four_sample_graph, reference_table, targets, 0.05, 40, 7)
    skipped = sum(not solved for *_, solved in calls)
    # 8 LPs a chain, or 1 where the first LP is infeasible (3 of the 41 chains)
    assert (len(calls), skipped, len(solves)) == (307, 37, 307 - 37)


@pytest.mark.parametrize("first_lp_passes, prefix", [
    (False, "linear program failed"), (True, "tie-break solve failed"),
], ids=["first-lp", "tie-break"])
def test_optimal_solution_off_its_constraints_is_status_4(
    first_lp_passes, prefix, monkeypatch, four_sample_graph, reference_table
):
    # with a negative tolerance no solution HiGHS calls optimal passes linprog's check
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)

    def tolerance_fails_after_first(lp, x, failure, solved):
        monkeypatch.setattr(design, "_LP_TOLERANCE", -1.0)
        return x, failure

    if first_lp_passes:
        monkeypatch.setattr(design, "_LP_SEAM", tolerance_fails_after_first)
    else:
        monkeypatch.setattr(design, "_LP_TOLERANCE", -1.0)
    message = (f"{prefix}: the solution HiGHS calls optimal misses a bound or an equality "
               "by more than -1.00E+00")
    with pytest.raises(DesignError) as excinfo:
        solve_placements(system)
    assert str(excinfo.value) == message


def test_check_of_an_optimal_solution_is_inclusive_and_needs_both_parts(monkeypatch):
    # x = (0, 1) lies exactly on its bounds and meets x0 + x1 = 1 exactly, so
    # it passes with no tolerance at all
    monkeypatch.setattr(design, "_LP_TOLERANCE", 0.0)
    cost = np.array([1.0, 0.0])
    x, failure = design._highs_lp(cost, np.array([[1.0, 1.0]]), np.array([1.0]),
                                  np.zeros(2), np.ones(2))
    assert failure is None and x.tolist() == [0.0, 1.0]
    # free variables pass every bound check, so the equalities alone fail this one
    monkeypatch.setattr(design, "_LP_TOLERANCE", -1.0)
    free = design._highs_lp(cost, np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]),
                            np.full(2, -np.inf), np.full(2, np.inf))
    assert free == (None, "the solution HiGHS calls optimal misses a bound or an equality "
                          "by more than -1.00E+00")


@pytest.mark.parametrize("rule", ["maximize", DELAYS_ONLY])
def test_polish_brings_a_point_off_the_equalities_back_to_rounding(
    rule, monkeypatch, four_sample_graph, reference_table
):
    system = assemble_constraints(four_sample_graph, reference_table, DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=rule))
    matrix, rhs = system.matrix, system.rhs
    calls = []

    def last_lp_moved(lp, x, failure, solved):
        calls.append(solved)
        if len(calls) == matrix.shape[1]:  # the last tie-break LP: one LP per unknown
            x = x + 1e-9 * np.eye(len(x))[1]  # off every equality that holds length 1
        return x, failure

    monkeypatch.setattr(design, "_LP_SEAM", last_lp_moved)
    x = design._solve_lp(system, matrix, rhs)
    assert len(calls) == matrix.shape[1] and calls[-1]  # the last LP is always solved
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), np.abs(matrix).max(axis=1)))
    assert (np.abs(matrix @ x - rhs) <= 8 * np.finfo(float).eps * scale).all()


def test_last_tie_break_is_solved_though_its_length_is_zero(
    monkeypatch, four_sample_graph, reference_table
):
    # the final lengths are the last LP's point, which no earlier point stands for
    system = assemble_constraints(four_sample_graph, reference_table, DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY))
    calls, last = _record_lps(monkeypatch), system.matrix.shape[1] - 1
    recording = design._LP_SEAM

    def last_length_zeroed(lp, x, failure, solved):
        if len(calls) == last - 1:  # the point the last LP's skip test reads
            x = np.where(np.arange(len(x)) == last, 0.0, x)
        return recording(lp, x, failure, solved)

    monkeypatch.setattr(design, "_LP_SEAM", last_length_zeroed)
    design._solve_lp(system, system.matrix, system.rhs)
    assert len(calls) == last + 1 and calls[-2][1][0][last] == 0.0
    lp, result, solved = calls[-1]
    assert solved and highs_lp_verdict(result) == linprog_highs(*lp)


def _on_a_new_thread(*lps):
    """design._highs_lp of each LP in turn, on a new thread and so on a new solver."""
    results = []
    thread = threading.Thread(target=lambda: results.extend(design._highs_lp(*lp) for lp in lps))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(results) == len(lps)
    return results


def test_a_reused_solver_forgets_the_lps_before(four_sample_graph, reference_table):
    def delays_only(delta_tau):
        return assemble_constraints(four_sample_graph, reference_table, DesignTargets(
            delta_tau_ps_per_km=delta_tau, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY))

    system, too_far = delays_only(100.0), delays_only(1000.0)
    cols = system.matrix.shape[1]
    box = (np.zeros(cols), np.ones(cols))
    demo = (np.eye(cols)[0], system.matrix, system.rhs, *box)  # the LP of _DEMO_LP
    infeasible = (np.eye(cols)[0], too_far.matrix, too_far.rhs, *box)
    model_error = (np.eye(cols)[0], np.where(system.matrix == 1.0, np.inf, system.matrix),
                   system.rhs, *box)  # passModel refuses an infinite coefficient
    other_shape = (np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                   np.zeros(2), np.ones(2))
    lps = (demo, infeasible, model_error, other_shape, demo)
    results = _on_a_new_thread(*lps)
    assert [failure for _, failure in results] == [None, "infeasible", "infeasible", None, None]
    assert results[-1][0].tobytes() == results[0][0].tobytes()
    for lp, result in zip(lps, results):
        if lp is model_error:
            # linprog refuses the input, so a fresh solver is the reference
            [fresh] = _on_a_new_thread(lp)
            assert result == fresh
            continue
        assert highs_lp_verdict(result) == linprog_highs(*lp)


TESTS = Path(__file__).resolve().parent
DEMO = TESTS.parent / "demo"
# the first LP of a delays-only design of the demo: the smallest first length
_DEMO_LP = f"""
import sys
import numpy as np
from fmf_ttdl import design
from fmf_ttdl.design import DesignTargets, assemble_constraints, load_graph
from fmf_ttdl.modes import read_mode_table
targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule="delays-only")
system = assemble_constraints(load_graph({str(DEMO / "four_sample.graph")!r}),
                              read_mode_table({str(DEMO / "reference_modes.csv")!r}), targets)
cols = system.matrix.shape[1]
lp = (np.eye(cols)[0], system.matrix, system.rhs, np.zeros(cols), np.ones(cols))
"""
_SAME_AS_LINPROG = """
from oracles import highs_lp_verdict, linprog_highs
result = design._highs_lp(*lp)
assert result[1] is None, result
assert highs_lp_verdict(result) == linprog_highs(*lp)
"""


def test_scipy_optimize_imported_after_an_lp_shares_its_highs_module():
    code = _DEMO_LP + """
first, failure = design._highs_lp(*lp)
assert failure is None and "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core
assert _core is design._highs()
assert design._highs_lp(*lp)[0].tobytes() == first.tobytes()
""" + _SAME_AS_LINPROG + "print('ok')"
    result = run_python(code, TESTS.parent / "src", TESTS)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_highs_imported_by_scipy_optimize_is_not_loaded_again():
    code = """
import scipy.optimize
from scipy.optimize._highspy import _core
""" + _DEMO_LP + """
assert design._highs() is _core
""" + _SAME_AS_LINPROG + "print('ok')"
    result = run_python(code, TESTS.parent / "src", TESTS)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_missing_highs_extension_is_an_import_error_naming_the_folder(tmp_path):
    # a scipy without its optimize folder; numpy stays the real one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("__version__ = '0.0.stub'\n")
    code = _DEMO_LP + "design.solve_placements(system)\n"
    result = run_python(code, tmp_path, TESTS.parent / "src")
    folder = tmp_path / "scipy" / "optimize" / "_highspy"
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        f"ImportError: scipy 0.0.stub has no HiGHS extension _core in {folder}"
    )


def test_a_failed_highs_load_leaves_nothing_behind():
    code = _DEMO_LP + """
import scipy
from importlib.machinery import ExtensionFileLoader
exec_module = ExtensionFileLoader.exec_module

def fail(loader, module):
    raise ImportError("the extension failed to initialise")

ExtensionFileLoader.exec_module = fail
try:
    design._highs()
    raise AssertionError("the failed load returned a module")
except ImportError as error:
    assert str(error) == "the extension failed to initialise"
assert design._HIGHS_MODULE not in sys.modules
ExtensionFileLoader.exec_module = exec_module
""" + _SAME_AS_LINPROG + "print('ok')"
    result = run_python(code, TESTS.parent / "src", TESTS)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_singular_stack_is_solved_one_trial_at_a_time(
    monkeypatch, four_sample_graph, reference_table, reference_targets
):
    system = assemble_constraints(four_sample_graph, reference_table, reference_targets)
    rng = np.random.default_rng(5)
    matrix = system.matrix * (1.0 + 0.01 * rng.standard_normal((5, *system.matrix.shape)))
    matrix[2, :, 0] = matrix[2, :, 1]  # rank-deficient: left to the LP
    rhs = np.repeat(system.rhs[None], 5, axis=0)
    stacked_x, stacked_accepted = design._solve_direct(matrix, rhs)
    assert stacked_accepted.tolist() == [True, True, False, True, True]
    solve, sizes, failing = np.linalg.solve, [], []

    def singular_stack(a, b):
        sizes.append(len(a))
        if len(a) > 1 or any(np.array_equal(a[0], matrix[t]) for t in failing):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_stack)
    x, accepted = design._solve_direct(matrix, rhs)
    assert sizes == [4, 1, 1, 1, 1]
    assert x.tobytes() == stacked_x.tobytes()
    assert accepted.tolist() == stacked_accepted.tolist()
    # a trial whose own solve fails too is left to the LP; the others keep their bits
    failing.append(3)
    x, accepted = design._solve_direct(matrix, rhs)
    assert np.isnan(x[3]).all() and accepted.tolist() == [True, True, False, False, True]
    keep = [0, 1, 4]
    assert x[keep].tobytes() == stacked_x[keep].tobytes()


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
    calls = _record_lps(monkeypatch)
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
    calls = _record_lps(monkeypatch)
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
    # each LP of the chain has a unit cost: max d, then min of each length in turn
    costs = [lp[0] for lp, _, _ in calls]
    assert np.array_equal(costs, np.r_[-np.eye(5)[4:], np.eye(5)[:4]])

    calls.clear()
    targets = DesignTargets(
        delta_tau_ps_per_km=100.0, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    solve_placements(assemble_constraints(four_sample_graph, reference_table, targets))
    assert len(calls) == 8  # the tie-break LPs alone; the first decides feasibility
    assert np.array_equal([lp[0] for lp, _, _ in calls], np.eye(8))
    # one length is 0.0 before its own LP, which is not solved
    assert [solved for *_, solved in calls].count(False) == 1

    calls.clear()
    targets = DesignTargets(
        delta_tau_ps_per_km=1e6, lambda0_um=1.55, dispersion_rule=DELAYS_ONLY
    )
    system = assemble_constraints(four_sample_graph, reference_table, targets)
    with pytest.raises(InfeasibleDesignError) as info:
        solve_placements(system)
    assert str(info.value) == design._infeasibility_report(system, system.matrix, system.rhs)
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


def test_parse_graph_reports_headers_other_than_sample_n():
    text = "[sample 1]\nsegment = LP01, fixed\n[samples 1]\n[foo]\n"
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(text, source="bad.graph")
    assert excinfo.value.diagnostics == (
        (3, "unknown section '[samples 1]'"), (4, "unknown section '[foo]'"))


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
    lines.insert(3, "l12_1,0.8,0.2")
    lines = [
        "lambda0_nm,0" if line.startswith("lambda0_nm,")
        else "delta_tau_ps_per_km,-100.0" if line.startswith("delta_tau_ps_per_km,")
        else "reference_mode,LP0x" if line.startswith("reference_mode,")
        else line
        for line in lines
        if not line.startswith("D_eq_4,")
    ]
    lines.append("tau_eq_1,1.0")
    number = {line: index for index, line in enumerate(lines, start=1)}
    with pytest.raises(FileFormatError) as excinfo:
        parse_placements_csv("\n".join(lines) + "\n", source="bad.csv")
    first_tau = next(n for line, n in number.items() if line.startswith("tau_eq_1,"))
    assert excinfo.value.diagnostics == (
        (2, "bad length value for 'l02': must lie in [0, 1], got 1.5"),
        (3, "repeated length variable 'l02' (first on line 2)"),
        (4, "expected 'name,value', got 'l12_1,0.8,0.2'"),
        (number["lambda0_nm,0"], "bad value for 'lambda0_nm': must be > 0, got 0"),
        (number["reference_mode,LP0x"], "mode label must look like 'LP01', got 'LP0x'"),
        (number["delta_tau_ps_per_km,-100.0"],
         "bad value for 'delta_tau_ps_per_km': must be > 0, got -100.0"),
        (len(lines), "3 D_eq entries for 4 tau_eq entries"),
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
