"""Traced stand-in for ``python -m thermo_ops.cli``.

``python perfbench/launcher.py SPANS SUBCOMMAND [FLAGS...]`` imports the
CLI, installs the benchmark's wrappers and runs ``thermo_ops.cli.main``.
The spans and the import time are written to SPANS when the command ends,
also when it ends in an uncaught exception, which then propagates exactly
as it would from the CLI itself.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    import thermo_ops.cli as cli
    import_s = perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        status = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], {"import_s": import_s})
    sys.exit(status)
