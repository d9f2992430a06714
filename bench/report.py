"""Print every end-to-end metric of every workload as one table.

    python3 bench/report.py [--seed 1] [--seconds 35]

Each row gives the metric's value, unit and sample count: the passes behind
a per-operation median, the `--version` runs behind setup_s, and the
operations attempted behind fail_ratio. The exit code is 1 if any operation
failed its checks.
"""

import argparse
import json
import os
import sys
import tempfile

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    print(f"{'workload':<14} {'metric':<12} {'value':>12} {'unit':<6} samples")
    all_ok = True
    try:
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
                record, result = run.measure(tmp, workload, args.seed, args.seconds, False)
            counts = {"setup_s": record["passes"] * len(record["operations"])}
            for name, metric in result["metrics"].items():
                print(f"{workload:<14} {name:<12} {metric['value']:>12.4f} {metric['unit']:<6} "
                      f"{counts.get(name, record['passes'])}")
            print(f"{workload:<14} {'fail_ratio':<12} {record['fail_ratio']:>12.4f} {'ratio':<6} "
                  f"{result['attempted']}")
            print(json.dumps({"operations": record["operations"]}), file=sys.stderr)
            all_ok &= result["correct"]
    finally:
        if not os.listdir(run.WORK_DIR):
            os.rmdir(run.WORK_DIR)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
