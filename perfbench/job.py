"""One benchmark job: a fresh process that runs one friedzeta CLI command.

Usage (started by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/job.py LAUNCH_NS RESULT_PATH TRACE COMMAND [ARGS...]

``LAUNCH_NS`` is the parent's ``CLOCK_MONOTONIC`` reading taken just before
it started this process, so set-up time covers interpreter start, the
package import and any module-level work.  ``TRACE`` is ``1`` to record
spans around the package's public functions.  The result file receives
``setup_s``, ``wall_s``, the exit code and, when traced, the per-layer
totals.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    launched_ns, result_path, traced = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    from friedzeta import cli

    entry = cli.main
    recorder = None
    if traced:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
        entry = recorder.wrap(f"cli.{argv[0]}", cli.main)
    entered_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = entry(argv)
    returned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {
        "setup_s": (entered_ns - launched_ns) / 1e9,
        "wall_s": (returned_ns - entered_ns) / 1e9,
        "exit_code": code,
    }
    if recorder is not None:
        result["layers"] = recorder.aggregate()
        result["absent"] = recorder.absent + [f"{name}.counts" for name in sorted(recorder.counter_errors)]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
