"""Run one ``cadts`` subcommand with the benchmark's tracer installed.

    python3 perfbench/cli_shim.py SPANS_JSON cadts-arguments...

The spans of this process are written to SPANS_JSON when the subcommand
returns; ``--jobs`` worker processes inherit the patches but their spans
stay in the workers, so per-entity layer numbers come from ``--jobs 1``
runs. The exit code is the subcommand's.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        from cadts.cli import main as cadts_main

        code = cadts_main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
