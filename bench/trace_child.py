"""Traced stand-in for `python -m kellermaps.cli`, used by traced CLI passes.

Instruments the library (tracer.py), runs the CLI's main() on this
process's arguments and standard input, and writes the spans and counters
to the file named by KELLERMAPS_BENCH_TRACE before exiting with the CLI's
exit code.
"""

import os
import sys

import tracer

if __name__ == "__main__":
    import kellermaps.cli

    tr = tracer.Tracer()
    tracer.instrument(tr)
    tr.active = True
    try:
        code = kellermaps.cli.main()
    finally:
        tr.active = False
        tr.end_job()
        tr.dump(os.environ["KELLERMAPS_BENCH_TRACE"])
    sys.exit(code)
