"""Run `mfbridge.cli` with the tracer's wrappers installed.

    python3 perfbench/traced_cli.py STATS_FILE ARGS...

behaves as `python3 -m mfbridge.cli ARGS...` and writes the traced layer
table, with the import time of `mfbridge.cli`, to STATS_FILE on exit.
"""
import sys
import time

from source import require_source
from tracing import Tracer

require_source()
t0 = time.perf_counter()
import mfbridge.cli  # noqa: E402
import_s = time.perf_counter() - t0

tracer = Tracer()
tracer.install()
try:
    code = mfbridge.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1], {"cli.import": import_s})
sys.exit(code)
