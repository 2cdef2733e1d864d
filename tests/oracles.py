"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's own solution paths: the two-layer
mode relation is the textbook eigenvalue equation (not a transfer matrix),
the placement oracle is a literal hand-built matrix, and the dispersion
maximization oracle is an exhaustive grid search.  The perturbation oracle
is the one exception: it checks the batching of perturb_and_redesign, so it
designs each perturbed table alone with the package's single-design path.
"""

from dataclasses import replace

import numpy as np
import scipy.special as sp
from scipy.optimize import bisect

from fmf_ttdl.design import (
    DesignError,
    PerturbationTrial,
    RobustnessReport,
    assemble_constraints,
    solve_placements,
)
from fmf_ttdl.modes import ModeTable


def two_layer_lp_roots(n_core, n_clad, radius_um, wavelength_um, azimuthal,
                       samples=6000):
    """Roots of u J_{l+1}(u) K_l(w) = w K_{l+1}(w) J_l(u), descending n_eff."""
    k0 = 2.0 * np.pi / wavelength_um

    def g(n_eff):
        u = radius_um * k0 * np.sqrt(n_core**2 - n_eff**2)
        w = radius_um * k0 * np.sqrt(n_eff**2 - n_clad**2)
        return (
            u * sp.jv(azimuthal + 1, u) * sp.kv(azimuthal, w)
            - w * sp.kv(azimuthal + 1, w) * sp.jv(azimuthal, u)
        )

    grid = np.linspace(n_clad + 1e-7, n_core - 1e-7, samples)
    values = np.array([g(x) for x in grid])
    roots = []
    for i in range(samples - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            roots.append(float(bisect(g, grid[i], grid[i + 1], xtol=1e-14)))
    return sorted(roots, reverse=True)


def two_layer_lp_modes(n_core, n_clad, radius_um, wavelength_um, max_azimuthal=16):
    """(l, n_eff) pairs for every guided mode of a step-index two-layer fiber."""
    out = []
    for azimuthal in range(max_azimuthal + 1):
        roots = two_layer_lp_roots(n_core, n_clad, radius_um, wavelength_um, azimuthal)
        if not roots:
            break
        out.extend((azimuthal, root) for root in roots)
    return out


# Table of (l, m, tau_rel, D) used by the literal placement oracle; matches
# tests/conftest.REFERENCE_MODE_ROWS.
_TAU = {"01": 0.0, "11": 3489.08, "21": 8182.33, "31": 13022.34,
        "02": 2858.64, "12": 8912.83, "41": 17412.05}
_DISP = {"01": 18.96, "11": 23.77, "21": 27.41, "31": 29.19,
         "02": 17.14, "12": 11.07, "41": 25.24}

PLACEMENT_VARIABLES = (
    "l02", "l12_1", "l12_2", "l01_2", "l41_2", "l12_3", "l11_3", "l31_3",
)


def reference_placement_oracle(delta_tau=100.0):
    """Solve the fully determined placement system written out by hand.

    Unknown order: l02, l12_1, l12_2, l01_2, l41_2, l12_3, l11_3, l31_3, dD.
    Returns (lengths dict, dD).
    """
    t, d = _TAU, _DISP
    a = np.zeros((9, 9))
    b = np.zeros(9)
    a[0, [0, 1]] = 1.0
    b[0] = 1.0
    a[1, [0, 2, 3, 4]] = 1.0
    b[1] = 1.0
    a[2, [0, 5, 6, 7]] = 1.0
    b[2] = 1.0
    # delay ladder between adjacent samples
    a[3, 1] = -t["12"]
    a[3, 2] = t["12"]
    a[3, 3] = t["01"]
    a[3, 4] = t["41"]
    b[3] = delta_tau
    a[4, 2] = -t["12"]
    a[4, 3] = -t["01"]
    a[4, 4] = -t["41"]
    a[4, 5] = t["12"]
    a[4, 6] = t["11"]
    a[4, 7] = t["31"]
    b[4] = delta_tau
    a[5, 0] = -t["02"]
    a[5, 5] = -t["12"]
    a[5, 6] = -t["11"]
    a[5, 7] = -t["31"]
    b[5] = delta_tau - t["21"]
    # equal dispersion increments with the increment as unknown 9
    a[6, 1] = -d["12"]
    a[6, 2] = d["12"]
    a[6, 3] = d["01"]
    a[6, 4] = d["41"]
    a[6, 8] = -1.0
    a[7, 2] = -d["12"]
    a[7, 3] = -d["01"]
    a[7, 4] = -d["41"]
    a[7, 5] = d["12"]
    a[7, 6] = d["11"]
    a[7, 7] = d["31"]
    a[7, 8] = -1.0
    a[8, 0] = -d["02"]
    a[8, 5] = -d["12"]
    a[8, 6] = -d["11"]
    a[8, 7] = -d["31"]
    a[8, 8] = -1.0
    b[8] = -d["21"]
    x = np.linalg.solve(a, b)
    return dict(zip(PLACEMENT_VARIABLES, x[:8])), float(x[8])


def grid_search_two_sample(tau, disp, sample_modes, delta_tau, step=1e-3):
    """Exhaustive dispersion-increment maximization for two-sample graphs.

    sample_modes: ((modes of sample 1), (modes of sample 2)) with the LAST
    variable of each sample eliminated through its normalization row and the
    first sample's leading variables gridded.  Only supports the shapes used
    in the tests: sample 1 with 2 or 3 segments, sample 2 with 2 segments.

    Returns (best dispersion increment, best full length vector) over the
    feasible grid.
    """
    modes1, modes2 = sample_modes
    t1 = np.array([tau[m] for m in modes1])
    d1 = np.array([disp[m] for m in modes1])
    t2 = np.array([tau[m] for m in modes2])
    d2 = np.array([disp[m] for m in modes2])
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    if len(modes1) == 2:
        free = axis[:, None]  # a; b = 1 - a
        first = np.concatenate([free, 1.0 - free], axis=1)
    elif len(modes1) == 3:
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        first = np.stack([aa.ravel(), bb.ravel(), 1.0 - aa.ravel() - bb.ravel()], axis=1)
    else:
        raise ValueError("oracle supports 2 or 3 segments in sample 1")
    # sample 2 has segments (c, d) with c + d = 1; the delay row fixes c:
    # t2[0] c + t2[1] (1 - c) - tau_sample1 = delta_tau
    tau1 = first @ t1
    denominator = t2[0] - t2[1]
    c = (delta_tau + tau1 - t2[1]) / denominator
    d_len = 1.0 - c
    stack = np.concatenate([first, c[:, None], d_len[:, None]], axis=1)
    feasible = np.all((stack >= -1e-9) & (stack <= 1.0 + 1e-9), axis=1)
    if not feasible.any():
        return None, None
    disp1 = first @ d1
    disp2 = c * d2[0] + d_len * d2[1]
    increments = disp2 - disp1
    increments = np.where(feasible, increments, -np.inf)
    best = int(np.argmax(increments))
    return float(increments[best]), stack[best]


def perturb_per_trial(graph, table, targets, sigma, trials, seed):
    """Per-trial reference for design.perturb_and_redesign.

    Trial k rebuilds the mode table record by record, drawing
    standard_normal(2) per mode from default_rng([seed, k]) to scale
    tau - tau_ref and D by (1 + sigma g), and designs that table alone.
    """
    nominal = solve_placements(assemble_constraints(graph, table, targets))
    reference = table.mode(*targets.reference_mode).tau_ps_per_km
    nan = float("nan")
    results = []
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        records = []
        for record in table.modes:
            g_tau, g_disp = rng.standard_normal(2)
            records.append(replace(
                record,
                tau_ps_per_km=(record.tau_ps_per_km - reference) * (1.0 + sigma * g_tau),
                dispersion_ps_per_km_nm=record.dispersion_ps_per_km_nm * (1.0 + sigma * g_disp),
            ))
        perturbed = ModeTable(tuple(records), table.lambda0_um)
        try:
            solution = solve_placements(assemble_constraints(graph, perturbed, targets))
        except DesignError:
            results.append(PerturbationTrial(index, False, nan, nan))
            continue
        deltas = [abs(solution.lengths[name] - nominal.lengths[name]) for name in nominal.lengths]
        delta_d = solution.delta_d_ps_per_km_nm
        results.append(PerturbationTrial(
            index, True, max(deltas, default=0.0), delta_d if delta_d is not None else nan
        ))
    return RobustnessReport(sigma=sigma, seed=seed, trials=tuple(results), nominal=nominal)
