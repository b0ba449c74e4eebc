"""Run one `gentleflow` command in this fresh interpreter and report its costs.

    python3 perfbench/child.py REPORT TRACE CMD_ID ARGS...

Behaves like the `gentleflow` console script on ARGS (same stdout, stderr,
tracebacks and exit code).  On the way out it writes REPORT, a JSON object
with the monotonic time at which `gentleflow.cli` finished importing, the
time the command returned, its CPU time after import and the peak resident
set.  With TRACE=1 the package's public functions are wrapped (see
tracer.py) after import, and the spans go into REPORT as well.
"""

import sys
import time


def run() -> int:
    report_path, trace, cmd_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    import gentleflow.cli
    t_import = time.monotonic()
    cpu0 = time.process_time()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(cmd_id)
        tracer.install()
    try:
        return gentleflow.cli.main(sys.argv[4:])
    finally:
        t_end = time.monotonic()
        cpu = time.process_time() - cpu0
        import json
        import resource
        report = {"t_import": t_import, "t_end": t_end, "cpu_s": cpu,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            report["trace"] = tracer.report()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(run())
