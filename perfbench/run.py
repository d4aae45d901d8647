"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pair-sparse --seed 1 --seconds 20 --trace 0

Prints one line per metric (name, value, unit), then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record of the run (seed, sizes, tile grid,
sample counts, versions, ladder steps) and, for a traced run, its spans
are written under ``.perfbench/``. Exits 1 when an output check fails,
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pair-repeat", "pair-sparse", "read-serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run

    out_dir = ROOT / ".perfbench"
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    correct = not outcome.problems and bool(outcome.metrics)
    record = dict(outcome.record, correct=correct)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for problem in outcome.problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    attempted = max(1, outcome.attempted)
    print(f"{'failed_frac':32s} {outcome.failed / attempted:14.6g} "
          f"({outcome.failed} of {attempted} operations)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
