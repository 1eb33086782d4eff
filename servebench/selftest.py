"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 servebench/selftest.py
    python3.13 servebench/selftest.py

Every check runs under the interpreter that runs this script, on all
four mixes.

1. The normaliser: the reference kernel creates no objects the cyclic
   collector tracks, and its duration does not move with a large live
   heap or right after a gen-2 collection.
2. Determinism: two traced runs with one seed give identical counts, and
   another seed gives another stream.
3. Span checks: in those traced runs every request's spans nest and its
   self times sum to its ``respond`` span (``spans_reconciled``), and
   that span agrees with the time the client measured around the request
   (``spans_match_client``).  The trace overhead is reported.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

import refkernel
import workloads

HERE = Path(__file__).resolve().parent

#: Largest shift of the kernel's time allowed by heap state.
HEAP_TOLERANCE = 0.05


def kernel_tracks_nothing() -> bool:
    """True when a kernel run triggers no collection at threshold 1.

    With ``threshold0 = 1`` and one tracked object already counted, the
    next tracked allocation starts a collection, which a gc callback
    sees.  The probe is checked against a loop that does allocate.
    """
    collections = []

    def callback(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def allocating(iterations: int) -> None:
        for _ in range(iterations):
            [].append(0)

    old = gc.get_threshold()
    results = []
    gc.callbacks.append(callback)
    try:
        for probe in (allocating, refkernel.kernel):
            gc.collect()
            keep = []  # the one counted tracked allocation
            gc.set_threshold(1)
            collections.clear()
            probe(refkernel.ITERATIONS)
            results.append(len(collections))
            gc.set_threshold(*old)
            del keep
    finally:
        gc.set_threshold(*old)
        gc.callbacks.remove(callback)
    allocating_count, kernel_count = results
    print(
        f"  collections at threshold 1: allocating probe {allocating_count}, "
        f"kernel {kernel_count}"
    )
    return allocating_count > 0 and kernel_count == 0


def kernel_ignores_heap(rounds: int = 30, per_condition: int = 5) -> bool:
    """Kernel time with a large live heap, and just after a gen-2 pass.

    Each round times the kernel with no heap, then with a 400 000-object
    live heap, then right after ``gc.collect(2)`` over that heap, then
    with the heap again.  The heap is compared with the no-heap time of
    the same round, the gen-2 case with the held-heap times around it.  Pairing within a round
    (about a third of a second) cancels the host's speed swings, which
    move raw kernel times by tens of per cent here; the median ratio
    over the rounds must stay within the tolerance.
    """
    ratios: dict[str, list[float]] = {"heap": [], "after_gen2": []}
    for _ in range(rounds):
        gc.collect()
        empty = statistics.median(
            refkernel.timed_kernel_ms() for _ in range(per_condition)
        )
        heap = [{"n": i, "t": (i, str(i))} for i in range(400_000)]
        held = [refkernel.timed_kernel_ms() for _ in range(per_condition)]
        after = []
        for _ in range(per_condition):
            gc.collect(2)
            after.append(refkernel.timed_kernel_ms())
        # Held-heap times on both sides of the gen-2 passes, so the order
        # of the steps cancels.
        held_again = [refkernel.timed_kernel_ms() for _ in range(per_condition)]
        del heap
        ratios["heap"].append(statistics.median(held) / empty)
        ratios["after_gen2"].append(
            statistics.median(after) / statistics.median(held + held_again)
        )
    gc.collect()
    ok = True
    for name, values in ratios.items():
        shift = statistics.median(values) - 1.0
        print(f"  kernel {name:10s} {shift:+.2%} (median of {rounds} rounds)")
        ok = ok and abs(shift) <= HEAP_TOLERANCE
    return ok


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[8:])
    record["result"] = json.loads(lines[-1])
    return record


def deterministic(workload: str) -> bool:
    first = traced_run(workload, 7)
    again = traced_run(workload, 7)
    other = traced_run(workload, 8)
    same = first["counts"] == again["counts"] and first["stream"] == again["stream"]
    differs = other["stream"] != first["stream"]
    reconciled = all(
        r["spans_reconciled"] and r["spans_match_client"]
        for r in (first, again, other)
    )
    clean = all(
        r["result"]["correct"] and r["result"]["failed"] == 0
        for r in (first, again, other)
    )
    print(
        f"  {workload}: same-seed counts equal {same}, other seed differs "
        f"{differs}, span checks {reconciled} (client gap p50 "
        f"{first['span_gap_p50_us']:.1f} us, p99 {first['span_gap_p99_us']:.1f} us), "
        f"runs correct {clean}, "
        f"trace overhead {first['metrics']['trace.overhead_pct']:.1f}%"
    )
    if not same:
        for key in sorted(set(first["counts"]) | set(again["counts"])):
            if first["counts"].get(key) != again["counts"].get(key):
                print(f"    {key}: {first['counts'].get(key)} != "
                      f"{again['counts'].get(key)}")
    return same and differs and reconciled and clean


def main() -> int:
    checks = []
    print("normaliser:")
    checks.append(("kernel creates no tracked objects", kernel_tracks_nothing()))
    checks.append(("kernel ignores heap state", kernel_ignores_heap()))
    print("determinism and span checks:")
    for workload in workloads.MIXES:
        checks.append((f"{workload} deterministic", deterministic(workload)))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
