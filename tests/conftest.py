import os
import subprocess
import sys

import pytest

from fmf_ttdl.design import ConversionGraph, DesignTargets, Segment
from fmf_ttdl.materials import FiberProfile, Layer, MaterialModel, SELLMEIER_BLEND
from fmf_ttdl.modes import ModeRecord, ModeTable

# Characterization of the bundled ring-core design at 1550 nm:
# (l, m, n_eff, group delay relative to LP01 in ps/km, dispersion in ps/(km nm))
REFERENCE_MODE_ROWS = (
    (0, 1, 1.452726, 0.0, 18.96),
    (1, 1, 1.451956, 3489.08, 23.77),
    (2, 1, 1.450294, 8182.33, 27.41),
    (3, 1, 1.448120, 13022.34, 29.19),
    (0, 2, 1.447556, 2858.64, 17.14),
    (1, 2, 1.446090, 8912.83, 11.07),
    (4, 1, 1.445584, 17412.05, 25.24),
)

RING_LAYERS = (Layer(3.0, 0.0021), Layer(10.0, 0.0072))


def run_python(code, *path):
    """Run code in a fresh interpreter with path ahead of PYTHONPATH."""
    pythonpath = os.pathsep.join([*map(str, path), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def make_reference_table():
    return ModeTable(
        tuple(
            ModeRecord(
                l=l,
                m=m,
                n_eff=n_eff,
                lambda0_um=1.55,
                tau_ps_per_km=tau,
                dispersion_ps_per_km_nm=disp,
            )
            for l, m, n_eff, tau, disp in REFERENCE_MODE_ROWS
        ),
        1.55,
    )


def make_four_sample_graph():
    return ConversionGraph(
        (
            (Segment((0, 2), "l02"), Segment((1, 2), "l12_1")),
            (
                Segment((0, 2), "l02"),
                Segment((1, 2), "l12_2"),
                Segment((0, 1), "l01_2"),
                Segment((4, 1), "l41_2"),
            ),
            (
                Segment((0, 2), "l02"),
                Segment((1, 2), "l12_3"),
                Segment((1, 1), "l11_3"),
                Segment((3, 1), "l31_3"),
            ),
            (Segment((2, 1), 1.0),),
        )
    )


@pytest.fixture(scope="session")
def ring_profile():
    return FiberProfile(layers=RING_LAYERS, name="ring-core")


@pytest.fixture(scope="session")
def ring_profile_blend():
    return FiberProfile(
        layers=RING_LAYERS,
        cladding=MaterialModel(kind=SELLMEIER_BLEND),
        name="ring-core-blend",
    )


@pytest.fixture(scope="session")
def reference_table():
    return make_reference_table()


@pytest.fixture(scope="session")
def four_sample_graph():
    return make_four_sample_graph()


@pytest.fixture(scope="session")
def reference_targets():
    return DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)


@pytest.fixture(scope="session")
def reference_solution(four_sample_graph, reference_table, reference_targets):
    from fmf_ttdl.design import assemble_constraints, solve_placements

    return solve_placements(
        assemble_constraints(four_sample_graph, reference_table, reference_targets)
    )


@pytest.fixture(scope="session")
def solver_table_blend(ring_profile_blend):
    """Full characterized mode table solved from the blend-model profile."""
    from fmf_ttdl.modes import solve_mode_table

    return solve_mode_table(ring_profile_blend, 1.55)


@pytest.fixture(scope="session")
def solver_solution_blend(four_sample_graph, solver_table_blend):
    """Design driven by the solver's own table (not the transcription)."""
    from fmf_ttdl.design import assemble_constraints, solve_placements

    targets = DesignTargets(delta_tau_ps_per_km=100.0, lambda0_um=1.55)
    return solve_placements(
        assemble_constraints(four_sample_graph, solver_table_blend, targets)
    )
