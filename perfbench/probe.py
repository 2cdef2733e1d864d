"""One traced call of every traced public function, on small demo inputs.

    python3 perfbench/probe.py WORKDIR

A traced run of one workload never calls some layers at all (`mode-solve`
writes no file; `redesign-batch` solves no mode).  A per-call time metric
of a function that the workload never called is taken from this probe, so
every per-layer time is a measured one.  Counts and shares are not: they
stay those of the workload's own operations.  The probe drives the CLI
stages in-process through fmf_ttdl.cli.main(argv), in WORKDIR, and prints
the span dump as one JSON line; it exits non-zero if a stage fails.
"""

import contextlib
import io
import json
import os
import sys

from common import DEMO, SRC
from tracing import Tracer

sys.path.insert(0, str(SRC))


def main(workdir):
    import fmf_ttdl
    from fmf_ttdl import cli

    tracer = Tracer()
    tracer.install()
    os.chdir(workdir)
    modes, graph = str(DEMO / "reference_modes.csv"), str(DEMO / "four_sample.graph")
    stages = [
        ["solve-modes", "--profile", str(DEMO / "ring_core.prof"), "--out", "modes.csv"],
        ["design", "--modes", modes, "--graph", graph, "--dtau", "100"],
        ["evaluate", "--placements", "placements.csv", "--lambda-range", "1545:1555:5"],
        ["rf-response", "--placements", "placements.csv", "--length-km", "2",
         "--f-range", "0:1:0.01"],
        ["perturb", "--modes", modes, "--graph", graph, "--dtau", "100",
         "--dispersion-rule", "delays-only", "--sigma", "0.05", "--trials", "2", "--seed", "7"],
    ]
    tracer.active = True
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in stages]
    profile = fmf_ttdl.load_profile(DEMO / "ring_core.prof")
    fmf_ttdl.sweep_modes(profile, 1550.0, 1550.1, 0.1)
    placements = fmf_ttdl.read_placements("placements.csv")
    fmf_ttdl.delay_curve(placements, [1550.0], model="numeric-sweep",
                         graph=fmf_ttdl.load_graph(graph), profile=profile)
    tracer.active = False
    print(json.dumps(tracer.dump()))
    return 0 if codes == [0] * len(stages) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
