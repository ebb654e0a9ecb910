#!/usr/bin/env python3
"""Run one federation benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 fedbench/run.py --workload finetune-lstm-memory --seed 1 \
        --seconds 20 --trace 0

The run generates its inputs from ``--seed``, then runs the workload's
federated job through ``SimulatorRunner`` again and again until
``--seconds`` have passed (at least one job; a job starts only if it is
due to end less than half a job past the deadline).

- ``--trace 0``: every job is untraced; the result holds the end-to-end
  metrics (medians over the jobs, rounds pooled).
- ``--trace 1``: the first half of the time runs untraced jobs, the second
  half traced jobs (timing wrappers installed around the ``repro`` layers,
  see ``layers.py``); the result holds the per-layer metrics.

Every job's final checkpoint must hash to the same blake2b digest (traced
or not), no round may fail and every tasked update must be accepted;
otherwise the result says ``"correct": false`` and the exit code is 1.

The last line of standard output is the JSON result; the line before it
is the run's provenance.  A table of the metrics goes to standard error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from fedbench.harness import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
