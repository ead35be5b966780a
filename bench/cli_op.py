"""Traced stand-in for ``python -m spinmodel.cli`` in the cli-defaults traced run.

Times ``import spinmodel.cli`` in its own process, installs the tracing
wrappers, runs ``spinmodel.cli.run`` on the remaining arguments as one op,
writes the spans to the report file and exits with the CLI's exit code.

    python3 bench/cli_op.py REPORT SUBCOMMAND [CLI ARGS...]
"""

import json
import sys
import time


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import spinmodel.cli as cli
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before

    import tracing

    tracer = tracing.Tracer().install()
    tracer.op = argv[0]
    try:
        code = cli.run(argv)
    finally:
        tracer.op = None
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(dict(import_s=import_s, modules_loaded=modules_loaded,
                           spans=tracer.spans), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
