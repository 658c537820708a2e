#!/usr/bin/env python3
"""Harness benchmark: eval throughput and `prove` latency, end to end.

    python3 perfbench/run.py --workload oneshot-longfile --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
--seed under .perfbench-work/, runs them through `coqharness` in a worker
process (bench_worker.py) for about --seconds, checks every output against
what the generator built, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones. Exits 0 only
when every check passed. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_gen import WORKLOADS, generate  # noqa: E402

WORK = ROOT / ".perfbench-work"
# starts the fake toplevel; `{table}` becomes the path of its table
FAKE_COMMAND = shlex.join([sys.executable, "-I", "-S", str(HERE / "fake_coqtop.py"), "--table"]) + " {table}"
WORKER_TIMEOUT = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coqharness" / "cli.py").is_file():
        print(f"no coqharness sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    generate(args.workload, args.seed, work, FAKE_COMMAND)
    result_path = work / "result.json"
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "bench_worker.py"), "--work", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)],
            stdout=log, stderr=subprocess.STDOUT)
        try:
            code = worker.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print(f"worker did not finish within {WORKER_TIMEOUT} s; log: {log.name}", file=sys.stderr)
            return 1
    if code != 0 or not result_path.exists():
        print(f"worker exited {code}; log: {work / 'worker.log'}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not result["problems"]
    if correct:
        shutil.rmtree(work)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
