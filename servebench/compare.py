"""Compare the records of two saved ``run.py`` outputs.

    python3 servebench/run.py --workload museum-browse --seed 1 --seconds 10 > before.txt
    python3 servebench/run.py --workload museum-browse --seed 1 --seconds 10 > after.txt
    python3 servebench/compare.py before.txt after.txt

Each output holds one ``record: {...}`` line with the run's full record.

Normalised figures are in reference seconds of one interpreter: the
reference kernel runs at a different speed under another interpreter, so
records from different interpreters (or workloads, or trace modes) are
refused with exit code 3 instead of compared.
"""

from __future__ import annotations

import json
import sys


def _interpreter(record: dict) -> tuple[str, str]:
    info = record["interpreter"]
    major_minor = ".".join(info["version"].split(".")[:2])
    return info["implementation"], major_minor


def read_record(path: str) -> dict:
    """The ``record:`` line of a saved ``run.py`` output."""
    with open(path) as output:
        for line in output:
            if line.startswith("record: "):
                return json.loads(line[len("record: ") :])
    raise SystemExit(f"compare: no record line in {path}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (read_record(path) for path in argv)
    for what, key in (
        ("interpreters", _interpreter),
        ("workloads", lambda r: r["workload"]),
        ("trace modes", lambda r: r["trace"]),
    ):
        if key(before) != key(after):
            print(
                f"compare: refusing to compare records of different {what}: "
                f"{key(before)} vs {key(after)}",
                file=sys.stderr,
            )
            return 3
    print(f"{before['workload']} on {' '.join(_interpreter(before))}")
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"  {name:28s} {old:14.4f}  (missing after)")
            continue
        change = f"{(new / old - 1.0):+.2%}" if old else "n/a"
        print(f"  {name:28s} {old:14.4f} -> {new:14.4f}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
