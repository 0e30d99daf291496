"""Run one `gradus` command with the calls into its modules traced.

    python3 perfbench/gradus_traced.py SPANS.json <gradus arguments>

Behaves like `python3 -m gradus.cli <gradus arguments>` (same stdout, same
exit code), then writes the spans and the import time to SPANS.json.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import gradus.cli  # noqa: E402  (timed: this is the import every process pays)

import_s = perf_counter() - t0
sys.path.insert(0, HERE)
from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.start_job(0)
    code = gradus.cli.main(sys.argv[2:])
    sys.stdout.flush()
    tracer.write(sys.argv[1], {"import_s": import_s})
    sys.exit(code)
