"""Mode-conversion topology, placement constraints, solving and robustness.

A delay-line design is a set of samples, each created by riding an ordered
sequence of fiber modes; gratings inscribed along the fiber convert one mode
into the next.  Normalized segment lengths are the unknowns.  The linear
constraint system forces

* each sample's segment lengths to total the full (normalized) link,
* adjacent samples (listed in ladder order) to differ by the delay step, and
* adjacent dispersion increments to be one shared constant, either
  fixed or left as an extra unknown to be maximized.

The resulting problem is a small dense linear program over box-bounded
lengths; fully determined systems (the usual case for hand-built
topologies) collapse to a single linear solve.

Assembly, solving and the checks of a solution work on stacks of T
systems that share one graph.  _design_stack makes the one decision
between the paths: a full-rank square system whose direct solution meets
the residual budget is accepted, and every other system is solved alone by
the LP.  A single design (solve_placements) is the stack with T = 1; the
robustness trials of perturb_and_redesign run blocks of perturbed systems
through the same function, so each trial gets the bits its own design would.

The placements and the perturbation report are written and read through
the table-file codec of fileio (csv_text, read_csv).
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .fileio import (
    FileFormatError,
    at_least,
    atomic_write_text,
    check,
    csv_text,
    finite,
    finite_float,
    fmt_float,
    futures,
    integer,
    non_negative,
    np,
    positive,
    read_csv,
    read_sections,
    scipy_extension,
    um_from_nm,
)
from .modes import format_mode_label, parse_mode_label

MAXIMIZE_DISPERSION = "maximize"
FIXED_DISPERSION = "fixed"
DELAYS_ONLY = "delays-only"
DISPERSION_RULES = (MAXIMIZE_DISPERSION, FIXED_DISPERSION, DELAYS_ONLY)

trials_rule = at_least(1)


def dispersion_rule_rule(rule):
    known = ", ".join(DISPERSION_RULES)
    return None if rule in DISPERSION_RULES else f"must be one of {known}, got '{rule}'"


_FEASIBILITY_RTOL = 1e-9
_BOUND_SLACK = 1e-9

PLACEMENTS_HEADER = "variable,value"
POSITIONS_HEADER = "junction,from_mode,to_mode,z_km"


class DesignError(RuntimeError):
    """Constraint assembly or solving failure."""


class UnknownModeError(DesignError):
    """The topology names a mode absent from the mode table."""


class InfeasibleConstantError(DesignError):
    """A sample with no free lengths does not total the full link."""


class InfeasibleDesignError(DesignError):
    """No placement satisfies the constraints within [0, 1]."""


@dataclass(frozen=True)
class Segment:
    """One span of a sample's path: the mode ridden and its length.

    length is either a variable name (str) or a fixed normalized constant.
    """

    mode: tuple
    length: object

    def __post_init__(self):
        object.__setattr__(self, "mode", (int(self.mode[0]), int(self.mode[1])))
        if isinstance(self.length, str):
            if not self.length.isidentifier():
                raise ValueError(f"length variable '{self.length}' is not an identifier")
        else:
            value = float(self.length)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"fixed segment length must lie in (0, 1], got {value}")
            object.__setattr__(self, "length", value)

    def resolve(self, lengths):
        """Normalized length: the variable's value in lengths, or the constant."""
        return lengths[self.length] if isinstance(self.length, str) else self.length


def path_sum(sample, weights, lengths):
    """Length-weighted sum of weights[mode] along a sample's path, in path order.

    Weights and lengths may be floats or arrays with one value per trial.
    """
    total = 0.0
    for segment in sample:
        total += weights[segment.mode] * segment.resolve(lengths)
    return total


@dataclass(frozen=True)
class ConversionGraph:
    """Ordered per-sample mode paths; shared variables name shared prefixes."""

    samples: tuple

    def __post_init__(self):
        samples = tuple(tuple(segment for segment in sample) for sample in self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ValueError("graph needs at least one sample")
        problems = self.problems(samples)
        if problems:
            raise ValueError("; ".join(message for _, _, message in problems))

    @staticmethod
    def problems(samples):
        """Structural defects as (sample index, segment position, message).

        The position is None for an empty sample; a segment gets at most one.
        A None segment stands for a line the parser rejected: no check that
        would need it (the junction before the next segment, a prefix that
        contains it) is made.
        """
        problems = []
        shared_prefix = {}
        for index, sample in enumerate(samples):
            number = index + 1
            if not sample:
                problems.append((index, None, f"sample {number} has no segments"))
            seen_vars = set()
            for position, segment in enumerate(sample):
                if segment is None:
                    continue
                name = segment.length
                previous = sample[position - 1] if position else None
                if previous is not None and previous.mode == segment.mode:
                    message = (
                        f"sample {number}: consecutive segments both ride "
                        f"{format_mode_label(*segment.mode)} (junction converts nothing)"
                    )
                elif not isinstance(name, str):
                    continue
                elif name in seen_vars:
                    message = f"sample {number}: variable '{name}' used twice"
                else:
                    seen_vars.add(name)
                    if None in sample[:position]:
                        continue
                    prefix = tuple((s.mode, s.length) for s in sample[: position + 1])
                    first, known = shared_prefix.setdefault(name, (number, prefix))
                    if known == prefix:
                        continue
                    message = (
                        f"variable '{name}' is shared but does not label the same "
                        f"physical prefix in every sample (shared prefix first "
                        f"used in sample {first})"
                    )
                problems.append((index, position, message))
        return problems

    def variables(self):
        segments = (segment for sample in self.samples for segment in sample)
        return tuple(dict.fromkeys(s.length for s in segments if isinstance(s.length, str)))

    def modes(self):
        return tuple(dict.fromkeys(segment.mode for sample in self.samples for segment in sample))


@dataclass(frozen=True)
class DesignTargets:
    """Delay step, center wavelength and dispersion handling for a design."""

    delta_tau_ps_per_km: float
    lambda0_um: float
    dispersion_rule: str = MAXIMIZE_DISPERSION
    fixed_delta_d_ps_per_km_nm: float | None = None
    reference_mode: tuple = (0, 1)

    def __post_init__(self):
        check("delay step", positive, self.delta_tau_ps_per_km)
        check("lambda0_um", positive, self.lambda0_um)
        check("dispersion_rule", dispersion_rule_rule, self.dispersion_rule)
        if self.fixed_delta_d_ps_per_km_nm is not None:
            check("fixed_delta_d_ps_per_km_nm", finite, self.fixed_delta_d_ps_per_km_nm)
        elif self.dispersion_rule == FIXED_DISPERSION:
            raise ValueError("fixed dispersion rule needs fixed_delta_d_ps_per_km_nm")
        object.__setattr__(
            self, "reference_mode",
            (int(self.reference_mode[0]), int(self.reference_mode[1])),
        )


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality system over normalized lengths (plus the dispersion unknown).

    weights holds the modal_weights maps (tau - tau_ref, D) the rows were
    built from; a mode's D is None where the mode table lacks it.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    variables: tuple
    optimize_dispersion: bool
    row_labels: tuple
    graph: ConversionGraph
    weights: tuple
    targets: DesignTargets


def _needs_dispersion(graph, targets):
    return targets.dispersion_rule != DELAYS_ONLY and len(graph.samples) >= 2


def modal_weights(table, reference_mode):
    """Per-mode path-sum weights: (tau minus the reference mode's tau, D)."""
    reference = table.mode(*reference_mode).tau_ps_per_km
    tau = {(r.l, r.m): r.tau_ps_per_km - reference for r in table.modes}
    disp = {(r.l, r.m): r.dispersion_ps_per_km_nm for r in table.modes}
    return tau, disp


def assemble_constraints(graph, table, targets):
    """Build the equality matrix/rhs for the placement problem."""
    try:
        table.mode(*targets.reference_mode)
    except KeyError:
        label = format_mode_label(*targets.reference_mode)
        raise UnknownModeError(f"reference mode {label} is not in the mode table") from None
    if any(record.tau_ps_per_km is None for record in table.modes):
        raise DesignError("mode table lacks group delays; characterize it first")
    tau, disp = modal_weights(table, targets.reference_mode)
    for mode in graph.modes():
        if mode not in tau:
            raise UnknownModeError(
                f"mode {format_mode_label(*mode)} is not in the mode table"
            )

    need_dispersion = _needs_dispersion(graph, targets)
    if need_dispersion and any(disp[mode] is None for mode in graph.modes()):
        raise DesignError("mode table lacks dispersion values; characterize it first")
    optimize = targets.dispersion_rule == MAXIMIZE_DISPERSION and need_dispersion
    matrix, rhs, labels = _assemble(graph, targets, optimize, (tau, disp), 1)
    return ConstraintSystem(
        matrix=matrix[0],
        rhs=rhs[0],
        variables=graph.variables(),
        optimize_dispersion=optimize,
        row_labels=labels,
        graph=graph,
        weights=(tau, disp),
        targets=targets,
    )


def _assemble(graph, targets, optimize, weights, trials):
    """Equality rows of `trials` designs at once: (T, rows, cols) matrix, (T, rows) rhs.

    weights maps each mode to a float or to one value per trial.  Every
    coefficient is accumulated in path order, so trial t gets the bits a
    design of its own weights alone would get.
    """
    tau, disp = weights
    variables = graph.variables()
    column = {name: i for i, name in enumerate(variables)}
    ncols = len(variables) + (1 if optimize else 0)

    def sample_terms(weights):
        terms = []
        for sample in graph.samples:
            coeffs = np.zeros((trials, ncols))
            const = 0.0
            for segment in sample:
                weight = weights[segment.mode]
                if isinstance(segment.length, str):
                    coeffs[:, column[segment.length]] += weight
                else:
                    const += weight * segment.length
            terms.append((coeffs, const))
        return terms

    rows, rhs, labels = [], [], []
    for index, (coeffs, const) in enumerate(sample_terms({mode: 1.0 for mode in tau})):
        if coeffs.any():
            rows.append(coeffs)
            rhs.append(1.0 - const)
            labels.append(f"normalization[sample {index + 1}]")
        elif abs(const - 1.0) > 1e-12:
            raise InfeasibleConstantError(
                f"sample {index + 1} has fixed total length {const}, expected 1"
            )

    # listing order is ladder order; a maximized dispersion step is the last column
    ladders = [("delay", tau, targets.delta_tau_ps_per_km)]
    if _needs_dispersion(graph, targets):
        step = 0.0 if optimize else targets.fixed_delta_d_ps_per_km_nm
        ladders.append(("dispersion", disp, step))
    for name, by_mode, step in ladders:
        terms = sample_terms(by_mode)
        for low, ((c_low, k_low), (c_high, k_high)) in enumerate(zip(terms, terms[1:]), 1):
            row = c_high - c_low
            if optimize and name == "dispersion":
                row[:, -1] = -1.0
            rows.append(row)
            rhs.append(step - k_high + k_low)
            labels.append(f"{name}[sample {low}->{low + 1}]")

    matrix = np.stack(rows, axis=1) if rows else np.zeros((trials, 0, ncols))
    values = np.empty((trials, len(rhs)))
    for row, value in enumerate(rhs):
        values[:, row] = value
    return matrix, values, tuple(labels)


@dataclass(frozen=True)
class PlacementSolution:
    """Solved normalized lengths plus per-sample equivalent delay/dispersion.

    Delays are relative to the declared reference mode; tau_eq/d_eq follow
    the graph's sample order, which is the delay ladder (smallest delay first).
    """

    lengths: dict
    tau_eq_ps_per_km: tuple
    d_eq_ps_per_km_nm: tuple | None
    delta_tau_ps_per_km: float
    delta_d_ps_per_km_nm: float | None
    lambda0_um: float
    reference_mode: tuple

    @property
    def n_samples(self):
        return len(self.tau_eq_ps_per_km)


def _out_of_bounds(values):
    return (values < -_BOUND_SLACK) | (values > 1.0 + _BOUND_SLACK)


def _bound_violations(variables, values):
    return [
        f"{name} = {value}"
        for name, value, outside in zip(variables, values, _out_of_bounds(values))
        if outside
    ]


def _residuals(matrix, rhs, x):
    """|A x - b| per row and each row's scale, for a (T, rows, cols) stack."""
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), np.abs(matrix).max(axis=-1)))
    return np.abs(np.matmul(matrix, x[..., None])[..., 0] - rhs), scale


def _solve_direct(matrix, rhs):
    """One stacked solve of T square systems: (x, accepted per trial).

    Only a full-rank system whose solution meets the residual budget is
    accepted: a rank-deficient one has a family of solutions, of which the
    LP finds one inside the bounds if there is any.
    """
    x = np.full(rhs.shape, np.nan)
    full = np.flatnonzero(np.linalg.matrix_rank(matrix) == matrix.shape[-1])
    try:
        x[full] = np.linalg.solve(matrix[full], rhs[full, :, None])[..., 0]
    except np.linalg.LinAlgError:
        # an exactly singular pivot fails the whole stack; solve one by one
        for t in full:
            try:
                x[t] = np.linalg.solve(matrix[t:t + 1], rhs[t:t + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
    residual, scale = _residuals(matrix, rhs, x)
    return x, np.all(residual <= _FEASIBILITY_RTOL * scale, axis=-1)


def _infeasibility_report(system, matrix, rhs):
    """Why no placement solves the matrix and rhs of system, or of one of its trials."""
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    residuals = matrix @ solution - rhs
    budget = 1e-6 * max(1.0, np.abs(rhs).max())
    bad_rows = [
        f"{label} (residual {value})"
        for label, value in zip(system.row_labels, residuals)
        if abs(value) > budget
    ]
    if bad_rows:
        return "equality constraints are mutually inconsistent: " + "; ".join(bad_rows)
    nvar = len(system.variables)
    violations = _bound_violations(system.variables, solution[:nvar])
    if violations:
        return (
            "no placement satisfies the constraints with lengths in [0, 1]; "
            "unconstrained solve gives " + "; ".join(violations)
        )
    return "constraint system is infeasible"


_LP_TOLERANCE = math.sqrt(1e-9) * 10  # linprog's check of a solution HiGHS calls optimal
_HIGHS_MODULE = "scipy.optimize._highspy._core"


@cache
def _highs():
    """scipy's compiled HiGHS bindings, loaded from their file (scipy_extension)
    unless scipy.optimize has imported them: importing them as a package first
    runs scipy.optimize's __init__, 321 scipy modules in scipy 1.17 (0.64-0.70 s
    on 2 vCPUs, against 0.025 s for the file alone) that the LPs never use."""
    return scipy_extension(_HIGHS_MODULE, "HiGHS extension")


_THREAD = threading.local()  # .solver: the HiGHS solver of this thread
_LP_SEAM = None  # tests: f((cost, a_eq, b_eq, lower, upper), x, failure, solved) -> (x, failure)


def _solver():
    """This thread's HiGHS solver, with the 7 options linprog(method="highs") sets;
    passModel resets it, so each LP passed whole gets a fresh solver's bits."""
    if not hasattr(_THREAD, "solver"):
        highs = _highs()
        options = highs.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
        # 1e-10 is the tightest feasibility HiGHS accepts; a least-squares
        # polish after the solve brings residuals down to machine precision
        options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
        options.log_to_console = options.output_flag = False
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _THREAD.solver = highs._Highs()
        _THREAD.solver.passOptions(options)
    return _THREAD.solver


def _highs_lp(cost, a_eq, b_eq, lower, upper):
    """min cost @ x subject to a_eq @ x = b_eq and lower <= x <= upper: (x, failure).

    Either the optimum, with failure None, or x None and failure "infeasible"
    (where linprog's status is 2: HiGHS finds the LP infeasible or refuses the
    model) or why the solve failed otherwise.  The optimum has the bits of
    scipy.optimize.linprog(method="highs") with the options of _solver,
    without its per-call input cleaning and option checks: HiGHS gets the
    model linprog builds (the nonzeros of csc_array(a_eq), the same bounds).
    As in linprog, a solution HiGHS calls optimal that misses a bound or an
    equality by more than _LP_TOLERANCE is a failure.
    """
    highs = _highs()  # deferred to the first LP; _highs leaves scipy.optimize unimported
    rows, cols = a_eq.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    col, row = np.nonzero(a_eq.T)  # the nonzeros csc_array keeps, column by column
    lp.a_matrix_.start_ = np.searchsorted(col, np.arange(cols + 1))
    lp.a_matrix_.index_ = row
    lp.a_matrix_.value_ = a_eq[row, col]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
    lp.row_lower_ = lp.row_upper_ = b_eq
    return _run(lp, b_eq, lower, upper)


def _run(lp, b_eq, lower, upper):
    """_highs_lp's outcome of lp, whose rows equal b_eq, on this thread's solver."""
    highs, solver = _highs(), _solver()
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return None, "infeasible"
    ran = solver.run() != highs.HighsStatus.kError
    model, statuses = solver.getModelStatus(), highs.HighsModelStatus
    if model in (statuses.kInfeasible, statuses.kModelError):
        return None, "infeasible"
    if not ran or model != statuses.kOptimal:
        return None, solver.modelStatusToString(model)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    # a NaN in x or in a residual fails these comparisons too
    if (((x >= lower - _LP_TOLERANCE) & (x <= upper + _LP_TOLERANCE)).all()
            and (np.abs(b_eq - solution.row_value) <= _LP_TOLERANCE).all()):
        return x, None
    return None, ("the solution HiGHS calls optimal misses a bound or an equality "
                  f"by more than {_LP_TOLERANCE:.2E}")


def _solve_lp(system, matrix, rhs):
    """Lengths (and dispersion increment) of one system built like system.

    The first LP maximizes the dispersion increment if it is an unknown.
    Then one LP per length, with each value found so far pinned, picks the
    lexicographically smallest length vector.  The first LP decides
    feasibility: if it is infeasible, InfeasibleDesignError says why; any
    other failure of an LP is a DesignError.  No LP is unbounded: every
    length lies in [0, 1], and each dispersion row fixes the increment as
    sum c_i x_i - b, so it is bounded when the LP is feasible.  A
    least-squares correction of the last LP's point brings its residuals
    down to rounding.  The chain edits one HiGHS model.  A tie-break LP but
    the last whose length is 0.0 at the last solved point is not solved: that
    point meets its rows and no length is below 0, so 0 is its optimum.
    """
    nvar, (rows, ncols) = len(system.variables), matrix.shape
    lower = np.r_[np.zeros(nvar), np.full(ncols - nvar, -np.inf)]
    upper = np.r_[np.ones(nvar), np.full(ncols - nvar, np.inf)]
    order = ([nvar] if system.optimize_dispersion else []) + list(range(nvar))
    # LP j has the first rows + j rows: the system and the pins of LPs 0 .. j - 1
    solver, b_eq = _solver(), np.concatenate([rhs, np.zeros(len(order))])
    for j, k in enumerate(order):
        cost = np.zeros(ncols)
        cost[k] = -1.0 if k == nvar else 1.0
        solved = j in (0, len(order) - 1) or x[k] != 0.0
        if j:  # LP j - 1's pin as a row, and the unit cost moved from its length to k
            solver.addRow(b_eq[rows + j - 1], b_eq[rows + j - 1], 1, order[j - 1:j], [1.0])
            solver.changeColsCost(2, [order[j - 1], k], [0.0, cost[k]])
        if solved:  # passed back whole: clearSolver would keep the last run's scale factors
            x, failure = (_run(solver.getLp(), b_eq[:rows + j], lower, upper) if j
                          else _highs_lp(cost, matrix, rhs, lower, upper))
        if _LP_SEAM:  # the LP in full
            x, failure = _LP_SEAM((cost, np.concatenate([matrix, np.eye(ncols)[order[:j]]]),
                                   b_eq[:rows + j].copy(), lower, upper), x, failure, solved)
        if j == 0 and failure == "infeasible":
            raise InfeasibleDesignError(_infeasibility_report(system, matrix, rhs))
        if failure is not None:
            raise DesignError(f"{'tie-break solve' if j else 'linear program'} failed: {failure}")
        b_eq[rows + j] = x[k] if solved else 0.0
    correction, *_ = np.linalg.lstsq(matrix, rhs - matrix @ x, rcond=None)
    return x + correction


def solve_placements(system):
    """Solve for the normalized lengths (and maximal dispersion increment)."""
    errors, lengths, tau_eq, d_eq, delta_d = _design_stack(
        system, system.matrix[None], system.rhs[None], system.weights
    )
    if errors[0] is not None:
        raise errors[0]
    targets = system.targets
    return PlacementSolution(
        lengths={name: float(value) for name, value in zip(system.variables, lengths[0])},
        tau_eq_ps_per_km=tuple(float(value[0]) for value in tau_eq),
        d_eq_ps_per_km_nm=tuple(float(value[0]) for value in d_eq) if d_eq is not None else None,
        delta_tau_ps_per_km=float(targets.delta_tau_ps_per_km),
        delta_d_ps_per_km_nm=float(delta_d[0]) if delta_d is not None else None,
        lambda0_um=targets.lambda0_um,
        reference_mode=targets.reference_mode,
    )


def _design_stack(system, matrix, rhs, weights, pool=None):
    """Solve and check T systems built like system, each as a design of its own.

    matrix, rhs and weights hold the T systems as _assemble builds them.  A
    square stack gets one stacked direct solve; every trial it does not
    accept is solved alone by the LP, through pool.map if a pool is given.
    Returns (errors, lengths, tau_eq, d_eq, delta_d): the DesignError each
    trial raises, or None, and the arrays of _solution_checks.
    """
    trials, ncols = matrix.shape[0], matrix.shape[-1]
    if ncols == 0:
        x, accepted = np.zeros((trials, 0)), np.ones(trials, dtype=bool)
    elif matrix.shape[1] == ncols:
        x, accepted = _solve_direct(matrix, rhs)
    else:
        x, accepted = np.full((trials, ncols), np.nan), np.zeros(trials, dtype=bool)

    def solve_lp(t):
        try:
            return _solve_lp(system, matrix[t], rhs[t])
        except DesignError as exc:
            return exc

    errors = [None] * trials
    rest = np.flatnonzero(~accepted)
    for t, result in zip(rest, (pool.map if pool else map)(solve_lp, rest)):
        if isinstance(result, DesignError):
            errors[t] = result
        else:
            x[t] = result
    checks, lengths, tau_eq, d_eq, delta_d = _solution_checks(system, matrix, rhs, weights, x)
    for failed, error, message in checks:
        for t in np.flatnonzero(failed):
            if errors[t] is None:
                errors[t] = error(message(t))
    return errors, lengths, tau_eq, d_eq, delta_d


def _solution_checks(system, matrix, rhs, weights, x):
    """Every rule a solved placement must pass, for T solutions at once.

    matrix, rhs, weights and x (T, cols) hold T systems built like system.
    Returns (checks, lengths, tau_eq, d_eq, delta_d).  checks lists
    (failed per trial, error class, message for trial t) in the order a
    single design raises them.  lengths are clipped to [0, 1]; tau_eq and
    d_eq hold one (T,) array per sample in graph order, which is ladder
    order; delta_d is (T,) or None.
    """
    graph, targets, variables = system.graph, system.targets, system.variables
    trials, nvar = len(x), len(variables)
    checks = []
    values = x[:, :nvar]
    checks.append((
        _out_of_bounds(values).any(axis=1), InfeasibleDesignError,
        lambda t: "no placement satisfies the constraints with lengths in [0, 1]: "
        + "; ".join(_bound_violations(variables, values[t])),
    ))
    if matrix.size:
        residual, scale = _residuals(matrix, rhs, x)

        def residual_message(t):
            worst = int(np.argmax(residual[t] / scale[t]))
            return f"solver left residual {residual[t, worst]} on {system.row_labels[worst]}"

        checks.append(
            ((residual > _FEASIBILITY_RTOL * scale).any(axis=1), DesignError, residual_message)
        )

    lengths = np.clip(values, 0.0, 1.0)
    columns = dict(zip(variables, lengths.T))
    tau, disp = weights
    ones = {mode: 1.0 for mode in tau}

    def sums(weights):
        return [np.full(trials, path_sum(s, weights, columns)) for s in graph.samples]

    for index, total in enumerate(sums(ones)):
        checks.append((
            np.abs(total - 1.0) > 1e-9, DesignError,
            lambda t, index=index, total=total: (
                f"sample {index + 1} lengths total {float(total[t])}, expected 1 within 1e-9"
            ),
        ))
    tau_eq = sums(tau)
    for low, high in zip(tau_eq, tau_eq[1:]):
        step = high - low
        checks.append((
            np.abs(step - targets.delta_tau_ps_per_km) > 1e-6, DesignError,
            lambda t, step=step: (
                f"delay increment {float(step[t])} deviates from target "
                f"{targets.delta_tau_ps_per_km} by more than 1e-6 ps/km"
            ),
        ))
    d_eq = sums(disp) if all(value is not None for value in disp.values()) else None

    if system.optimize_dispersion:
        delta_d = x[:, -1]
    elif _needs_dispersion(graph, targets):
        delta_d = np.full(trials, float(targets.fixed_delta_d_ps_per_km_nm))
    else:
        delta_d = None
    if delta_d is not None and d_eq is not None:
        for low, high in zip(d_eq, d_eq[1:]):
            step = high - low
            checks.append((
                np.abs(step - delta_d) > 1e-9, DesignError,
                lambda t, step=step: (
                    f"dispersion increment {float(step[t])} deviates from "
                    f"{float(delta_d[t])} by more than 1e-9 ps/(km nm)"
                ),
            ))
    return checks, lengths, tau_eq, d_eq, delta_d


class LpgPosition(NamedTuple):
    junction: int
    from_mode: str
    to_mode: str
    z_km: float


def lpg_positions(solution, graph, length_km):
    """Physical grating positions; shared-prefix junctions are merged."""
    check("length", positive, length_km)
    merged = []  # (z_km, from_label, to_label)
    for sample in graph.samples:
        values = [segment.resolve(solution.lengths) for segment in sample]
        for position in range(len(sample) - 1):
            downstream = sum(values[position + 1:])
            z = length_km - downstream * length_km
            from_label = format_mode_label(*sample[position].mode)
            to_label = format_mode_label(*sample[position + 1].mode)
            duplicate = any(
                entry[1] == from_label
                and entry[2] == to_label
                and abs(entry[0] - z) <= 1e-9 * length_km
                for entry in merged
            )
            if not duplicate:
                merged.append((z, from_label, to_label))
    merged.sort()
    for z, _, _ in merged:
        if not -1e-9 * length_km <= z <= length_km * (1.0 + 1e-9):
            raise DesignError(f"junction position {z} km escapes [0, {length_km}] km")
    return [
        LpgPosition(number, from_label, to_label, z)
        for number, (z, from_label, to_label) in enumerate(merged, start=1)
    ]


@dataclass(frozen=True)
class PerturbationTrial:
    trial: int
    feasible: bool
    max_abs_delta_length: float
    delta_d_ps_per_km_nm: float


@dataclass(frozen=True)
class RobustnessReport:
    sigma: float
    seed: int
    trials: tuple
    nominal: PlacementSolution

    @property
    def feasible_fraction(self):
        return sum(1 for t in self.trials if t.feasible) / len(self.trials)

    @property
    def median_max_abs_delta_length(self):
        d = sorted(t.max_abs_delta_length for t in self.trials if t.feasible) or [math.nan]
        return (d[(len(d) - 1) // 2] + d[len(d) // 2]) / 2  # np.median would import numpy.ma

    def to_csv(self):
        return csv_text(
            "trial,feasible,max_abs_delta_length,delta_D_ps_per_km_nm",
            (
                (str(t.trial), str(int(t.feasible)), fmt_float(t.max_abs_delta_length),
                 fmt_float(t.delta_d_ps_per_km_nm))
                for t in self.trials
            ),
            [
                ("sigma", fmt_float(self.sigma)),
                ("seed", self.seed),
                ("trials", len(self.trials)),
                ("feasible_fraction", fmt_float(self.feasible_fraction)),
                ("median_max_abs_delta_length", fmt_float(self.median_max_abs_delta_length)),
            ],
        )


_TRIAL_BLOCK = 256  # trials perturbed, assembled, solved and checked as one stack


def perturb_and_redesign(graph, table, targets, sigma, trials, seed, workers=1):
    """Redesign under per-mode Gaussian tau/D perturbations, deterministically.

    Trial k draws one (tau, D) pair per table mode from a generator seeded by
    (seed, k) and scales each mode's tau - tau_ref and D by 1 + sigma * draw.
    Trials go in blocks of _TRIAL_BLOCK; each block is assembled as one stack
    and goes through _design_stack, like a single design, with `workers`
    threads for its LP-path trials.  A trial gets the bits a design of its
    perturbed table alone would get, so reports do not depend on the block
    split or on workers.
    """
    check("sigma", finite, sigma)
    check("sigma", non_negative, sigma)
    for name, value, rule in (("trials", trials, trials_rule), ("seed", seed, non_negative),
                              ("workers", workers, at_least(1))):
        check(name, integer, value)
        check(name, rule, value)
    system = assemble_constraints(graph, table, targets)
    nominal = solve_placements(system)
    nominal_lengths = np.array(list(nominal.lengths.values()))
    modes = [(record.l, record.m) for record in table.modes]
    tau, disp = system.weights
    nan, default_rng = float("nan"), np.random.default_rng  # np.random: a forwarded lookup
    results = []
    with futures.ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for start in range(0, trials, _TRIAL_BLOCK):
            indices = range(start, min(start + _TRIAL_BLOCK, trials))
            factors = 1.0 + sigma * np.array([
                default_rng([seed, index]).standard_normal((len(modes), 2))
                for index in indices
            ])
            weights = (
                {mode: tau[mode] * factors[:, i, 0] for i, mode in enumerate(modes)},
                {
                    mode: None if disp[mode] is None else disp[mode] * factors[:, i, 1]
                    for i, mode in enumerate(modes)
                },
            )
            matrix, rhs, _ = _assemble(
                graph, targets, system.optimize_dispersion, weights, len(indices)
            )
            errors, lengths, _, _, delta_d = _design_stack(system, matrix, rhs, weights, pool)
            shift = np.abs(lengths - nominal_lengths).max(axis=-1, initial=0.0)
            results.extend(
                PerturbationTrial(index, False, nan, nan) if error is not None
                else PerturbationTrial(
                    index, True, float(shift[t]),
                    float(delta_d[t]) if delta_d is not None else nan,
                )
                for t, (index, error) in enumerate(zip(indices, errors))
            )
    return RobustnessReport(sigma=sigma, seed=seed, trials=tuple(results), nominal=nominal)


# --- graph file format ------------------------------------------------------

def _parse_segment(value):
    """Segment from 'LPlm, <variable|fixed>'; ValueError names what is wrong."""
    pieces = [p.strip() for p in value.split(",")]
    if len(pieces) != 2:
        raise ValueError(f"segment must be 'LPlm, <variable|fixed>', got '{value}'")
    mode = parse_mode_label(pieces[0])
    token = pieces[1]
    if token == "fixed":
        return Segment(mode, 1.0)
    if token.isidentifier():
        return Segment(mode, token)
    raise ValueError(f"segment length must be a variable name or 'fixed', got '{token}'")


def _is_sample_header(name):
    parts = name.split()
    return len(parts) == 2 and parts[0] == "sample" and parts[1].isdigit()


def parse_graph(text, source="<graph>"):
    """Parse `[sample N]` sections of `segment = LPlm, <var|fixed>` lines."""
    diagnostics, preamble, sections = read_sections(text, _is_sample_header)
    for number, key, _ in preamble:
        if key == "segment":
            diagnostics.append((number, "segment line before any [sample] section"))
        else:
            diagnostics.append((number, f"unknown key '{key}'"))
    samples, segment_lines = [], []
    for index, (header, name, entries) in enumerate(sections, start=1):
        label = name.split()[1]
        if label.lstrip("0") != str(index):  # int() fails on "²", 5000 digits
            diagnostics.append((header, f"expected [sample {index}], got [sample {label}]"))
        sample, lines = [], []
        for number, key, value in entries:
            if key != "segment":
                diagnostics.append((number, f"unknown key '{key}'"))
                continue
            lines.append(number)
            try:
                sample.append(_parse_segment(value))
            except ValueError as exc:
                diagnostics.append((number, str(exc)))
                sample.append(None)  # keeps the checks from bridging the gap
        samples.append(sample)
        segment_lines.append(lines)

    if not samples and not diagnostics:
        diagnostics.append((1, "no [sample] sections found"))
    for index, position, message in ConversionGraph.problems(samples):
        line = sections[index][0] if position is None else segment_lines[index][position]
        diagnostics.append((line, message))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    return ConversionGraph(tuple(samples))


def load_graph(path):
    return parse_graph(Path(path).read_text(), source=str(path))


# --- placements CSV ---------------------------------------------------------

def placements_to_csv(solution):
    summary = [
        ("lambda0_nm", fmt_float(solution.lambda0_um * 1e3)),
        ("reference_mode", format_mode_label(*solution.reference_mode)),
        ("delta_tau_ps_per_km", fmt_float(solution.delta_tau_ps_per_km)),
    ]
    if solution.delta_d_ps_per_km_nm is not None:
        summary.append(("delta_D_ps_per_km_nm", fmt_float(solution.delta_d_ps_per_km_nm)))
    for prefix, values in (("tau_eq_", solution.tau_eq_ps_per_km),
                           ("D_eq_", solution.d_eq_ps_per_km_nm or ())):
        summary += [(f"{prefix}{i}", fmt_float(v)) for i, v in enumerate(values, start=1)]
    rows = [(name, fmt_float(value)) for name, value in solution.lengths.items()]
    return csv_text(PLACEMENTS_HEADER, rows, summary)


def write_placements(solution, path):
    atomic_write_text(path, placements_to_csv(solution))


def parse_placements_csv(text, source="<placements>"):
    rows, summary_rows = read_csv(text, PLACEMENTS_HEADER, source)
    last = len(text.splitlines())
    diagnostics = []

    def pairs(entries, what):
        """name -> (line, raw value); a malformed or repeated entry is reported."""
        found = {}
        for number, fields in entries:
            if len(fields) != 2:
                diagnostics.append((number, f"expected 'name,value', got '{','.join(fields)}'"))
            elif fields[0] in found:
                diagnostics.append((number, f"repeated {what} '{fields[0]}' "
                                            f"(first on line {found[fields[0]][0]})"))
            else:
                found[fields[0]] = (number, fields[1])
        return found

    lengths = {}
    for name, (number, raw) in pairs(rows, "length variable").items():
        try:
            lengths[name] = finite_float(raw)
            if not 0.0 <= lengths[name] <= 1.0:
                raise ValueError(f"must lie in [0, 1], got {raw}")
        except ValueError as exc:
            diagnostics.append((number, f"bad length value for '{name}': {exc}"))
    summary = pairs(summary_rows, "summary key")

    def summary_float(key, positive=False):
        if key not in summary:
            diagnostics.append((last, f"summary is missing '{key}'"))
            return None
        number, raw = summary[key]
        try:
            value = finite_float(raw)
            if positive and not value > 0.0:
                raise ValueError(f"must be > 0, got {raw}")
            return value
        except ValueError as exc:
            diagnostics.append((number, f"bad value for '{key}': {exc}"))
            return None

    lambda_nm = summary_float("lambda0_nm", positive=True)
    delta_tau = summary_float("delta_tau_ps_per_km", positive=True)
    reference = (0, 1)
    if "reference_mode" in summary:
        number, raw = summary["reference_mode"]
        try:
            reference = parse_mode_label(raw)
        except ValueError as exc:
            diagnostics.append((number, str(exc)))
    else:
        diagnostics.append((last, "summary is missing 'reference_mode'"))

    def indexed(prefix):
        """Values of prefix1, prefix2, ...; a rejected one stays as None so it still counts."""
        count = 0
        while f"{prefix}{count + 1}" in summary:
            count += 1
        return [summary_float(f"{prefix}{i}") for i in range(1, count + 1)]

    tau_eq = indexed("tau_eq_")
    if not tau_eq:
        diagnostics.append((last, "summary holds no tau_eq_<i> entries"))
    d_eq = indexed("D_eq_")
    if d_eq and len(d_eq) != len(tau_eq):
        diagnostics.append(
            (last, f"{len(d_eq)} D_eq entries for {len(tau_eq)} tau_eq entries")
        )
    delta_d = None
    if "delta_D_ps_per_km_nm" in summary:
        delta_d = summary_float("delta_D_ps_per_km_nm")
    written = {"lambda0_nm", "reference_mode", "delta_tau_ps_per_km", "delta_D_ps_per_km_nm",
               *(f"tau_eq_{i}" for i in range(1, len(tau_eq) + 1)),
               *(f"D_eq_{i}" for i in range(1, len(d_eq) + 1))}
    diagnostics += [(number, f"unknown summary key '{key}'")
                    for key, (number, _) in summary.items() if key not in written]
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    return PlacementSolution(
        lengths=lengths,
        tau_eq_ps_per_km=tuple(tau_eq),
        d_eq_ps_per_km_nm=tuple(d_eq) if d_eq else None,
        delta_tau_ps_per_km=delta_tau,
        delta_d_ps_per_km_nm=delta_d,
        lambda0_um=um_from_nm(lambda_nm),
        reference_mode=reference,
    )


def read_placements(path):
    return parse_placements_csv(Path(path).read_text(), source=str(path))


def positions_to_csv(positions):
    return csv_text(POSITIONS_HEADER, (
        (str(entry.junction), entry.from_mode, entry.to_mode, fmt_float(entry.z_km))
        for entry in positions
    ))


def write_positions(positions, path):
    atomic_write_text(path, positions_to_csv(positions))
