#!/usr/bin/env python3
"""Checks that the per-layer shape of each workload holds on other seeds.

    python3 perfbench/shape_check.py [--seeds 1,9001] [--seconds 5]

Runs the traced invocation of every workload once per seed and checks the
three shapes the workloads were designed around:

  * tpch_outofcore misses most of its buffer-pool lookups, tpch_inmem none;
  * tpcc_durable issues about 17 WAL fsyncs per transaction (autocommit);
  * on sql_wire, waiting on the wire is at least 90% of statement latency.

The default second seed, 9001, was not used while the benchmark was
written. Exits non-zero when a shape does not hold on some seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (workload, metric, lowest allowed, highest allowed)
SHAPES = [
    ("tpch_outofcore", "storage.buffer.miss_ratio", 0.7, 1.0),
    ("tpch_inmem", "storage.buffer.misses", 0, 0),
    ("tpcc_durable", "storage.wal.fsyncs_per_txn", 15.0, 20.0),
    ("sql_wire", "server.wire_wait_share", 0.9, 1.0),
]


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,9001")
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    print(f"{'workload':16} {'metric':28} " +
          " ".join(f"{'seed ' + str(s):>14}" for s in seeds) + "  range")
    for workload, metric, lo, hi in SHAPES:
        cells = []
        for seed in seeds:
            result = traced_run(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                ok = False
                cells.append("run failed")
                continue
            value = result["metrics"][metric]["value"]
            ok = ok and lo <= value <= hi
            cells.append(f"{value:.4g}")
        print(f"{workload:16} {metric:28} " +
              " ".join(f"{c:>14}" for c in cells) + f"  [{lo}, {hi}]")
    print("shape holds on every seed" if ok else "SHAPE CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
