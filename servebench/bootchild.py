"""One cold boot of the serving stack, in a fresh interpreter.

Run by ``run.py`` from the checkout root with ``src`` on ``PYTHONPATH``::

    python3 servebench/bootchild.py --mix museum-browse

Times the import of ``repro.navigation``, building the mix's server the
way ``repro.tools serve`` builds it, and the first response, and runs
the reference kernel in the same process so the parent can normalise
them.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import refkernel

#: Kernel runs before and after the timed boot.
KERNEL_RUNS = 6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mix", required=True)
    args = parser.parse_args()

    before = [refkernel.timed_kernel_ms() for _ in range(KERNEL_RUNS)]
    start = time.perf_counter_ns()
    import repro.navigation  # noqa: F401  (the timed import)

    imported = time.perf_counter_ns()
    # The benchmark's own module is imported outside the timed phases,
    # and after the program, so it pre-loads none of the modules the
    # program imports itself.
    import workloads

    building = time.perf_counter_ns()
    server, app = workloads.build_app(args.mix)
    built = time.perf_counter_ns()
    status, _, body = app.respond(
        {"REQUEST_METHOD": "GET", "PATH_INFO": "/visitor/index.html"}
    )
    answered = time.perf_counter_ns()
    after = [refkernel.timed_kernel_ms() for _ in range(KERNEL_RUNS)]
    # The mean of runs on both sides of the boot: the host's average
    # speed around it, not its speed at one instant.
    kernel_ms = statistics.fmean(before + after)
    app.close()
    server.close()
    if status != "200 OK" or b"<title>" not in body:
        print(f"bootchild: first response was {status}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "kernel_ms": kernel_ms,
                "import_ns": imported - start,
                "build_ns": built - building,
                "first_response_ns": answered - built,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
