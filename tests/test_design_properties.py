"""Property tests of the placement solver on random mode tables.

The tables keep the demo graph's modes and n_eff ordering but draw every
group delay and dispersion at random, so the direct path (maximize, a 9x9
solve) and the LP path (delays-only, 6 equations in 8 lengths) meet both
feasible and rejected systems.  An accepted placement must total 1 along
every sample, step the delay ladder by dtau and keep every length in [0, 1];
a rejected one must raise a DesignError.  Small equality LPs drawn at random,
feasible or not, bounded or not, must get linprog's verdict and x from the
HiGHS call of the LP path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_MODE_ROWS, make_four_sample_graph
from oracles import highs_lp_verdict, linprog_highs
from fmf_ttdl import design
from fmf_ttdl.design import (
    DELAYS_ONLY,
    MAXIMIZE_DISPERSION,
    DesignError,
    DesignTargets,
    assemble_constraints,
    modal_weights,
    path_sum,
    solve_placements,
)
from fmf_ttdl.modes import ModeRecord, ModeTable

GRAPH = make_four_sample_graph()

# Each table scales the reference table's delays and dispersions mode by mode:
# mostly by up to 10 % (about half of those designs are feasible), otherwise
# by anything in [-2, 2] or by exactly 0 or 1 (mostly rejected).
NEAR = st.floats(0.9, 1.1)
WILD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0]))


@st.composite
def tables(draw):
    factor = draw(st.sampled_from([NEAR, NEAR, NEAR, WILD]))
    records = tuple(
        ModeRecord(l, m, n_eff, 1.55, tau * draw(factor), disp * draw(factor))
        for l, m, n_eff, tau, disp in REFERENCE_MODE_ROWS
    )
    return ModeTable(records, 1.55)


def check_design(table, delta_tau, rule):
    targets = DesignTargets(delta_tau_ps_per_km=delta_tau, lambda0_um=1.55,
                            dispersion_rule=rule)
    try:
        solution = solve_placements(assemble_constraints(GRAPH, table, targets))
    except DesignError:
        return
    lengths = solution.lengths
    assert all(0.0 <= value <= 1.0 for value in lengths.values())
    ones = {(record.l, record.m): 1.0 for record in table.modes}
    for sample in GRAPH.samples:
        assert abs(path_sum(sample, ones, lengths) - 1.0) <= 1e-9
    tau, _ = modal_weights(table, targets.reference_mode)
    delays = [path_sum(sample, tau, lengths) for sample in GRAPH.samples]
    assert np.allclose(np.diff(delays), delta_tau, rtol=0.0, atol=1e-6)


@settings(max_examples=150, deadline=None)
@given(tables(), st.floats(20.0, 200.0))
def test_direct_path_designs_hold_the_placement_rules(table, delta_tau):
    check_design(table, delta_tau, MAXIMIZE_DISPERSION)


@settings(max_examples=40, deadline=None)
@given(tables(), st.floats(20.0, 200.0))
def test_lp_path_designs_hold_the_placement_rules(table, delta_tau):
    check_design(table, delta_tau, DELAYS_ONLY)


# Entries are mostly small integers, so rows repeat, cancel or vanish; a free
# column (bounds +-inf) with a cost can make the LP unbounded.
ENTRY = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0]), st.floats(-3.0, 3.0))


@st.composite
def equality_lps(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def vector(size, elements=ENTRY):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    a_eq = vector(rows * cols).reshape(rows, cols)
    free = vector(cols, st.booleans())
    lower, upper = np.where(free, -np.inf, 0.0), np.where(free, np.inf, 1.0)
    return vector(cols), a_eq, vector(rows), lower, upper


def lp(cost, a_eq, b_eq, free):
    free = np.array(free)
    return (np.array(cost, dtype=float), np.array(a_eq, dtype=float),
            np.array(b_eq, dtype=float), np.where(free, -np.inf, 0.0), np.where(free, np.inf, 1.0))


INFEASIBLE = lp([1.0, 0.0], [[1.0, 1.0]], [3.0], [False, False])
UNBOUNDED = lp([1.0, 0.0], [[1.0, -1.0]], [0.0], [True, True])


def check_against_linprog(problem):
    """design._highs_lp's outcome, once it has been checked against linprog's."""
    result = design._highs_lp(*problem)
    assert highs_lp_verdict(result) == linprog_highs(*problem)
    return result


# linprog's status 2 is the verdict "infeasible", and status 3 some other failure
@pytest.mark.parametrize("problem, status", [(INFEASIBLE, 2), (UNBOUNDED, 3)])
def test_highs_lp_reports_infeasible_and_unbounded_lps_as_linprog_does(problem, status):
    x, failure = check_against_linprog(problem)
    assert x is None and (failure == "infeasible") == (status == 2)


@settings(max_examples=300, deadline=None)
@given(equality_lps())
def test_highs_lp_matches_linprog_on_small_equality_lps(problem):
    check_against_linprog(problem)
