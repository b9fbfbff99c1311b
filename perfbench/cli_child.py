"""One traced CLI command, for the traced run of the cli-cold workload.

Usage: python3 perfbench/cli_child.py TRACE_FILE LABEL CLI_ARGS...

Imports toruslab.cli (timed as cli.import_s), installs the tracer, runs
the command exactly as ``python -m toruslab.cli CLI_ARGS...`` would and
writes the counters and spans to TRACE_FILE.  The exit code and stdout
are the command's own.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main():
    trace_file, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import toruslab.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.task = label
    token = tracer.begin("task")
    try:
        code = toruslab.cli.run_command(argv)
    finally:
        tracer.end(token)
        sys.stdout.flush()
        data = tracer.snapshot()
        data["import_s"] = import_s
        data["spans"] = tracer.spans
        Path(trace_file).write_text(json.dumps(data))
    sys.exit(code)


if __name__ == "__main__":
    main()
