"""One fmf-ttdl CLI stage in a fresh process, through fmf_ttdl.cli.main(argv).

    python3 perfbench/stage.py [--trace FILE] <command> <flags...>

The package is imported from the checkout's src/ (it is not installed, and
`python -m fmf_ttdl.cli` has no __main__ guard).  With --trace the public
functions are wrapped before main runs and the spans, plus the import time,
are written to FILE as JSON when the stage ends.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from fmf_ttdl import cli
    import_s = time.perf_counter() - start
    if trace_path is None:
        return cli.main(argv)

    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        Path(trace_path).write_text(json.dumps({"import_s": import_s, **tracer.dump()}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
