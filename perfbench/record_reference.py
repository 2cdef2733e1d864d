"""Record perfbench/reference/ from the current src/.

    python3 perfbench/record_reference.py

The references describe the program at the commit that introduced this
benchmark; re-record them only in a change that means to alter its outputs.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import clidemo
from common import PINNED_ENV, REFERENCE, SRC, WORK

os.environ.update(PINNED_ENV)
sys.path.insert(0, str(SRC))


def main():
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        round_dir = workdir / "readme"
        results = clidemo.run_round(round_dir, clidemo.README_PERTURB_SEED)
        clidemo.record_reference(round_dir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import fmf_ttdl
    import worker

    for name, cls in worker.WORKLOADS.items():
        workload = cls(fmf_ttdl)
        outputs, _ = workload.run(workload.inputs(None, None))
        path = REFERENCE / f"{name.replace('-', '_')}.json"
        path.write_text(json.dumps(cls.record(outputs), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
