"""Property tests of the placement solver on random mode tables.

The tables keep the demo graph's modes and n_eff ordering but draw every
group delay and dispersion at random, so the direct path (maximize, a 9x9
solve) and the LP path (delays-only, 6 equations in 8 lengths) meet both
feasible and rejected systems.  An accepted placement must total 1 along
every sample, step the delay ladder by dtau and keep every length in [0, 1];
a rejected one must raise a DesignError.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_MODE_ROWS, make_four_sample_graph
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
