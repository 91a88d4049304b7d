"""One point of the benchmark trajectory: every workload, end to end, into BENCH_<N>.json.

Usage:
    python3 scripts/bench_trajectory.py --number N

Run from anywhere inside a source checkout. For each workload of
perfbench/workloads.py it runs ``perfbench/run.py --trace 0`` at the fixed
SEED and SECONDS, so every point compares with the others, and keeps the
end-to-end medians and the operation counts of its last output line. It then
reads each workload's seeded result from perfbench/out/: K and the exact ICL
of every grid point (galaxy-sweep, plain-150) or of the one clustering
(cluster-3000). The file BENCH_<N>.json at the root of the checkout also
names the git commit, whether the working tree differed from it, the CPU
count and the Python and numpy versions, so points taken on different
machines or trees can be told apart.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("galaxy-sweep", "cluster-3000", "plain-150")
SEED, SECONDS = 1, 10


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _outputs(workload: str) -> list:
    """K and exact ICL of each search of the workload's last round."""
    if workload == "galaxy-sweep":
        with open(OUT / workload / "grid.csv", encoding="utf-8") as fh:
            return [{"tau": float(r["tau"]), "delta": float(r["delta"]),
                     "alpha": float(r["alpha"]), "K": int(r["k"]) if r["k"] else None,
                     "icl": float(r["icl_ex"]) if r["icl_ex"] else None, "error": r["error"]}
                    for r in csv.DictReader(fh)]
    if workload == "cluster-3000":
        doc = json.loads((OUT / workload / "result.json").read_text(encoding="utf-8"))
        return [{"K": doc["K"], "icl": doc["icl_ex"]}]
    rounds = sorted((OUT / workload).glob("round*/report.json"),
                    key=lambda p: int(p.parent.name[len("round"):]))
    results = json.loads(rounds[-1].read_text(encoding="utf-8"))["results"]
    return [{"K": r.get("K"), "icl": r.get("icl"), "error": r.get("error")} for r in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    args = parser.parse_args(argv)
    import numpy

    record = {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(SEED), "--seconds", str(SECONDS),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: {workload} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["outputs"] = _outputs(workload)
        record["workloads"][workload] = result
        medians = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload}: correct {result['correct']}, {result['failed']} of "
              f"{result['attempted']} operations failed; {medians}")
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
