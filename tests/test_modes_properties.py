"""Property tests of the mode solver on random 1-3 layer profiles.

Each profile has one layer raised by 0.05-0.8 % so that something is guided;
the others may be raised or depressed.  For fixed l the radial equation is a
Sturm-Liouville problem, so LP_lm is the m-th root of order l from the top:
a table must number each order 1..k in descending n_eff, keep every n_eff in
the guided range (n_clad, n_max), and a sweep must label by rank at every
step and warn of exactly the (l, m) a step loses.  Roots of one order are
checked to lie at least one scan cell apart, the separation below which the
scan could hold two roots in one cell and miss both.  The mode count N_l(n)
must give, at the grid's low end, the number of roots of every order, and
step down by exactly one across each root.  Seeds only choose where the
search counts first, so any seeds give the same brackets and cells as none.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fmf_ttdl.fileio import um_from_nm
from fmf_ttdl.materials import FiberProfile, Layer
from fmf_ttdl.modes import (
    _geometry,
    _mode_counts,
    _points,
    _scan_grid,
    _search,
    find_modes,
    format_mode_label,
    sweep_modes,
)

SCAN_POINTS = 2000


@st.composite
def profiles(draw):
    count = draw(st.integers(1, 3))
    widths = draw(st.lists(st.floats(1.0, 6.0), min_size=count, max_size=count))
    deltas = draw(st.lists(st.floats(-0.003, 0.008), min_size=count, max_size=count))
    deltas[draw(st.integers(0, count - 1))] = draw(st.floats(0.0005, 0.008))
    radii = np.cumsum(widths)
    return FiberProfile(layers=tuple(Layer(float(r), d) for r, d in zip(radii, deltas)))


def _by_order(table):
    orders = {}
    for record in table.modes:  # descending n_eff
        orders.setdefault(record.l, []).append(record)
    return orders


def _check_table(profile, table, lam):
    geometry = _geometry(profile, lam)
    n_max = max(geometry.indices)
    grid = _scan_grid(geometry, SCAN_POINTS)
    cell = grid[1] - grid[0] if grid.size > 1 else 0.0
    for l, records in _by_order(table).items():
        assert [record.m for record in records] == list(range(1, len(records) + 1)), l
        n_effs = [record.n_eff for record in records]
        assert all(a > b for a, b in zip(n_effs, n_effs[1:])), l
        assert all(geometry.n_clad < n < n_max for n in n_effs), l
        assert all(a - b >= cell for a, b in zip(n_effs, n_effs[1:])), (l, n_effs, cell)


@settings(max_examples=40, deadline=None)
@given(profiles(), st.floats(1.3, 1.7))
def test_tables_number_each_order_by_rank_inside_the_guided_range(profile, lam):
    _check_table(profile, find_modes(profile, lam, SCAN_POINTS), lam)


@settings(max_examples=40, deadline=None)
@given(profiles(), st.floats(1.3, 1.7))
def test_mode_count_gives_the_roots_of_every_order_and_steps_by_one_at_each(profile, lam):
    table = find_modes(profile, lam, SCAN_POINTS)
    geometry = _geometry(profile, lam)
    low = _scan_grid(geometry, SCAN_POINTS)[0]
    by_order = _by_order(table)
    orders = np.arange(len(by_order) + 2)  # through one past the first order without a root
    counts = _mode_counts(_points([geometry], [orders.size]), orders, np.full(orders.size, low))
    assert counts.tolist() == [len(by_order.get(l, ())) for l in orders.tolist()]
    for record in table.modes:
        around = np.array([record.n_eff - 1e-9, record.n_eff + 1e-9])
        counts = _mode_counts(_points([geometry], [2]), np.full(2, record.l), around)
        assert counts.tolist() == [record.m, record.m - 1], record.label


@settings(max_examples=15, deadline=None)
@given(profiles(), st.floats(1300.0, 1600.0), st.floats(5.0, 50.0))
def test_sweeps_label_by_rank_and_warn_of_each_lost_mode(profile, start_nm, step_nm):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tables = sweep_modes(profile, start_nm, start_nm + 2.0 * step_nm, step_nm, SCAN_POINTS)
    assert len(tables) == 3
    expected = []
    for index, table in enumerate(tables):
        lam = table.lambda0_um
        assert lam == um_from_nm(start_nm + index * step_nm)
        assert table == find_modes(profile, lam, SCAN_POINTS)  # rank labels, no relabelling
        _check_table(profile, table, lam)
        if index:
            lost = ({(r.l, r.m) for r in tables[index - 1].modes}
                    - {(r.l, r.m) for r in table.modes})
            expected += [f"mode {format_mode_label(l, m)} lost at {lam * 1e3} nm (cutoff)"
                         for l, m in sorted(lost)]
    assert [str(w.message) for w in caught] == expected


@settings(max_examples=30, deadline=None)
@given(profiles(), st.floats(1.3, 1.7), st.data())
def test_search_gives_the_same_brackets_and_cells_whatever_its_seeds(profile, lam, data):
    geometry = _geometry(profile, lam)
    grid = _scan_grid(geometry, SCAN_POINTS)
    assume(grid.size)
    cases = [(geometry, l, grid) for l in range(4)]  # the last orders may have no root
    plain = _search(cases)
    near_roots = [x + d for _, cells in plain for x, _ in cells for d in (-2, 0, 1, 3)]
    anywhere = st.integers(-3, grid.size + 3)  # mostly far from every root
    ends = st.sampled_from([-1, 0, 1, grid.size - 2, grid.size - 1, grid.size])
    index = st.one_of(anywhere, ends, *([st.sampled_from(near_roots)] if near_roots else []))
    seeds = [data.draw(st.lists(index, max_size=12).map(lambda xs: xs + xs[:2]))  # repeats
             for _ in cases]
    for (brackets, cells), (again, seeded_cells) in zip(plain, _search(cases, seeds)):
        assert seeded_cells == cells
        for field in ("zeros", "lower", "upper", "f_lower"):
            assert getattr(again, field).tobytes() == getattr(brackets, field).tobytes(), field
