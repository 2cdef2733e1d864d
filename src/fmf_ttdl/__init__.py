"""Few-mode-fiber true-time-delay design toolkit.

Pipeline: solve the guided LP modes of a multilayer fiber profile, place
mode-converting gratings so the output samples form a uniform, wavelength-
tunable delay ladder, then evaluate delay curves and RF filter responses.
"""

from .design import (
    ConstraintSystem,
    ConversionGraph,
    DesignError,
    DesignTargets,
    InfeasibleConstantError,
    InfeasibleDesignError,
    LpgPosition,
    PlacementSolution,
    RobustnessReport,
    Segment,
    UnknownModeError,
    assemble_constraints,
    load_graph,
    lpg_positions,
    parse_graph,
    perturb_and_redesign,
    read_placements,
    solve_placements,
    write_placements,
    write_positions,
)
from .evaluate import (
    DegenerateFilterError,
    DelayCurve,
    EvaluationError,
    RfResponse,
    TunabilityReport,
    delay_curve,
    rf_response,
    sample_delays_first_order,
    sample_delays_numeric,
    tap_delays_ps,
    tunability_report,
    write_delay_curve,
    write_rf_response,
)
from .fileio import FileFormatError
from .materials import (
    FiberProfile,
    Layer,
    MaterialError,
    MaterialModel,
    WavelengthRangeError,
    load_profile,
    material_index,
    parse_profile,
)
from .modes import (
    BracketRefinementError,
    ModeContinuationError,
    ModeRecord,
    ModeSolverError,
    ModeTable,
    characteristic_value,
    find_modes,
    format_mode_label,
    parse_mode_label,
    read_mode_table,
    solve_mode_table,
    sweep_modes,
    write_mode_table,
)

__version__ = "0.1.0"
