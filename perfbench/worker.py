"""One audit in a fresh interpreter, as a user runs it.

Usage::

    python3 perfbench/worker.py SRC_DIR probe
    python3 perfbench/worker.py SRC_DIR audit -- CLI_ARGS...
    python3 perfbench/worker.py SRC_DIR trace SPANS_FILE RUN_ID -- CLI_ARGS...

Only ``sys`` and ``time`` are imported before ``sensoraudit.cli``, so the
printed ``ready`` timestamp minus the parent's spawn time is interpreter
start plus that import. ``probe`` stops there (the untimed warm-up).
``audit`` times ``sensoraudit.cli.main`` and reports the process's peak
RSS as ``VmHWM``; ``ru_maxrss`` would also count the parent's memory,
which a spawned child carries until its exec. ``trace`` also records
per-layer spans (see ``tracing.py``) and times each feature extractor over
the run's windows. The result is one JSON line on stdout.
"""

import sys
import time


def _peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, mode, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import sensoraudit.cli as cli

    ready = time.monotonic()
    import json

    result = {"ready": ready}
    if mode == "probe":
        print(json.dumps(result))
        return 0

    cli_argv = rest[rest.index("--") + 1 :]
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        spans_file, run_id = rest[0], rest[1]
        tracer = Tracer(run_id)
        tracer.install(cli)

    started = time.perf_counter()
    if tracer is None:
        code = cli.main(cli_argv)
    else:
        with tracer.span("cli.main"):
            code = cli.main(cli_argv)
    result["audit_s"] = time.perf_counter() - started
    result["exit_code"] = code
    result["peak_rss_mb"] = _peak_rss_kib() / 1024.0

    if tracer is not None and code == 0:
        result["extractor_s"] = tracer.time_extractors()
        result["spans"] = tracer.finish(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
