"""The reference kernel every timed slice is normalised against.

A fixed pure-Python loop whose duration tracks the host's current speed
for interpreter-bound work: integer arithmetic, string building, dict
lookups and Python-level calls, the same mix the request path spends its
time in.  Timing a slice of requests and dividing by a kernel run made
just before it, on the same CPU, cancels the host's speed swings; the
result is multiplied back by :data:`NOMINAL_MS` so normalised figures
read in *reference seconds* (seconds on a host where the kernel takes
exactly :data:`NOMINAL_MS`).

The kernel must not depend on the program's heap.  It runs with the
cyclic collector paused and creates no objects the collector tracks
(only ints and strs, which are untracked), so a large live heap or a
gen-2 collection just before it cannot move its duration.
"""

from __future__ import annotations

import gc
import time

#: The kernel's nominal duration.  Normalised time = raw time x
#: NOMINAL_MS / measured kernel ms.
NOMINAL_MS = 2.5

#: Loop iterations per kernel run: about NOMINAL_MS on a 2.1 GHz Xeon
#: core under CPython 3.11.  The figure only has to stay fixed; short
#: enough to run before every slice, long enough to time well.
ITERATIONS = 3_000

#: Untimed iterations before each timed run.
LEAD_IN = 300

# Built once at import: the kernel only reads them.
_KEYS = tuple(f"PaintingNode/p{i:02d}.html" for i in range(64))
_TABLE = {key: index for index, key in enumerate(_KEYS)}


def _mix(x: int, salt: int) -> int:
    return ((x ^ salt) * 2654435761) & 0xFFFFFFFF


def kernel(iterations: int = ITERATIONS) -> int:
    """Run the fixed loop; returns a checksum so nothing is optimised out."""
    keys = _KEYS
    table = _TABLE
    replace = str.replace
    x = 12345
    acc = 0
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[x & 63]
        path = "../" + key
        acc += table[key] + len(replace(path, "/", "_"))
        if path.endswith("3.html"):
            acc = _mix(x, acc)
    return acc


def timed_kernel_ms(iterations: int = ITERATIONS) -> float:
    """One kernel run with the collector paused; returns wall milliseconds.

    A short untimed lead-in first brings the kernel's code and data back
    into the CPU caches, which whatever ran before (a gen-2 collection
    over a large heap, a slice of requests) may have evicted.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel(LEAD_IN)
        start = time.perf_counter_ns()
        kernel(iterations)
        elapsed = time.perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed / 1e6
