"""Record the benchmark's results for every workload.

    python3 bench/record.py

Runs `bench/run.py` on each workload of BENCHMARK.json, once untraced and
once traced, with the default seed for its `run_seconds`, and writes `bench/results/BENCH_<workload>.json`
with the machine, the commit, the seed, every metric and the digest.  The
files give later changes and re-anchors a trajectory to compare against.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import numpy

from run import DEFAULT_SEED, HERE, ROOT, load_contract


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.strip().startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    contract = load_contract()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": platform.platform()}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for wl in contract["workloads"]:
        name = wl["name"]
        untraced, digest = run_once(name, DEFAULT_SEED, contract["run_seconds"], 0)
        traced, _ = run_once(name, DEFAULT_SEED, contract["run_seconds"], 1)
        doc = {"workload": name, "commit": commit or "unknown",
               "machine": machine, "seed": DEFAULT_SEED,
               "run_seconds": contract["run_seconds"], "digest": digest,
               "attempted": untraced["attempted"], "failed": untraced["failed"],
               "end_to_end": untraced["metrics"], "per_layer": traced["metrics"]}
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
