"""Print the per-layer ledger of every workload as a Markdown table.

Run from the root of a checkout:

    python3 clusterbench/ledger_table.py --seed 1 --seconds 15

Each workload runs once with ``--trace 1``.  The table lists every
self-time metric as seconds per request and as a share of the traced
thread-seconds (bench thread wall plus pool worker busy time).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from clusterbench.run import PER_LAYER, SELF_TIME  # noqa: E402
from clusterbench.workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "clusterbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    runs = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}

    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for name in SELF_TIME.values():
        cells = []
        for w in WORKLOADS:
            m = runs[w]
            total = m["bench.traced_wall_s"] + m["parallel.worker_busy_s"]
            cells.append(f"{m[name]:.4g} ({100 * m[name] / total:.1f}%)")
        print(f"| {name} | " + " | ".join(cells) + " |")
    for name, _unit in PER_LAYER:
        if name in SELF_TIME.values():
            continue
        print(f"| {name} | "
              + " | ".join(f"{runs[w][name]:.4g}" for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main()
