"""Run the ``repro`` command line with the benchmark's spans installed.

    python bench/launch.py TRACE_OUT RUN_ID -- figure headline --apps 15 ...

The traced ``store_warm`` run starts its ``repro figure`` and
``repro serve`` processes through this launcher, so the store reads and
lookups inside them are recorded.  The spans are written to TRACE_OUT
when the command returns; ``repro serve`` returns on SIGINT.
"""

from __future__ import annotations

import sys

from common import use_source_tree

use_source_tree()

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out, run, separator, *command = argv
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = tracing.Tracer(run)
    tracer.install()
    from repro.cli import main as cli_main

    try:
        with tracer.span("cli"):
            return cli_main(command)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
