"""Record ``references.json``: the outcome of every catalogued operation.

    python3 perfbench/record.py

Run from the root of a checkout of the reference commit.  Each
workload's catalogue (every input any seed can generate) runs once in a
fresh interpreter, and its outcomes become the references that
``check.py`` compares later runs with.  Failing verdicts are recorded as
such: they are the known failures a run counts but does not treat as
regressions.
"""

from __future__ import annotations

import json
import os
import sys

import check
import workloads
from run import spawn_worker

KEPT = ("digest", "nums", "bound", "status", "error")


def record(workload: str, root: str) -> dict:
    ops = workloads.catalogue(workload)
    result = spawn_worker(ops, False, root)
    return {
        workloads.key(o): {k: got[k] for k in KEPT if k in got}
        for o, got in zip(ops, result["outcomes"])
    }


def main() -> None:
    root = os.getcwd()
    refs = {}
    for workload in workloads.WORKLOADS:
        entries = record(workload, root)
        refs.update(entries)
        failing = sorted(k for k, v in entries.items() if v.get("status") != "pass")
        print(f"{workload}: {len(entries)} references, {len(failing)} failing", file=sys.stderr)
        for k in failing:
            print(f"  {k}", file=sys.stderr)
    with open(check.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
