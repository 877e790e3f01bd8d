"""Run one `groupoids` command under the tracer.

Used by the cli workload's traced rounds in place of
`python3 -m groupoids.cli`.  Arguments are the command's argv.  The
spans go to the file named by PERFBENCH_TRACE_OUT; stdout, stderr and
the exit code are the command's own.
"""

import os
import sys
import traceback
from time import perf_counter

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    t0 = perf_counter()
    from groupoids import cli

    tracer.add_span("cli.import", -1, t0, perf_counter())
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        if isinstance(stop.code, str):
            print(stop.code, file=sys.stderr)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
