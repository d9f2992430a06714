"""End-to-end benchmark of the fuhp command line.

Drives `fuhp` the way its users do: one fresh interpreter per operation, run
one after another (a closed loop with a single client). Each workload's
arguments come from --seed, every output is checked (see checks.py), and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
peak_rss_mb, setup_s). With --trace 1 each pass is run once plain and once
under tracer.py, and the metrics are the per-layer ones plus the tracing
overhead. The line before the result is a record of the run: seed, the exact
argv of every operation, per-sample numbers and the machine.

Run from the repository root:

    python3 bench/run.py --workload dense-q53 --seed 1 --seconds 35 --trace 0
"""

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# The seeded choices. Times are drawn from a fixed pool so that every possible
# input has a recorded reference (reference.json, made by record_reference.py).
TIME_POOL = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
DENSE_Q = 53
THETA_Q = 29
# Generating radii at q=29 whose dense table has all q rows (no eigenvalue
# collision), which the theta report requires.
THETA_RADII = (2, 5, 6, 12, 15, 17, 18, 20, 22, 25)
VERIFY_QS = (3, 5, 7, 11, 13, 17)
LIFT_MAX_Q = 5

WORKLOADS = ("dense-q53", "theta-q29", "verify-sweep")
# Every run must end within 180 s; operations still running at this point
# are killed and count as failed.
RUN_DEADLINE_S = 170.0

ENTRY = "import sys; from fuhp.cli import main; sys.exit(main())"


def blas_threads():
    """BLAS threads pinned in every child: the two cores this suite was sized for, at most nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("FUHP_", "PYTHON"))}
    threads = str(blas_threads())
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def regular_radii(q):
    return [r for r in range(q) if checks.sphere_size(q, r) > 1]


def fmt_times(times):
    return ",".join(repr(float(t)) for t in times)


def make_ops(workload, seed):
    """The workload's operations (fuhp argv lists), chosen by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-q53":
        r_s = str(rng.choice(regular_radii(DENSE_Q)))
        grid = fmt_times([0.0] + sorted(rng.sample(TIME_POOL, 3)))
        common = ["--q", str(DENSE_Q), "--r-s", r_s]
        return [["spectrum", *common], ["spherical", *common], ["heat", *common, "--t", grid]]
    if workload == "theta-q29":
        r_s = str(rng.choice(THETA_RADII))
        grid = fmt_times(sorted(rng.sample(TIME_POOL, 2)))
        return [["theta", "--q", str(THETA_Q), "--r-s", r_s, "--t", grid, "--mode", "both"]]
    if workload == "verify-sweep":
        qs = list(VERIFY_QS)
        rng.shuffle(qs)
        return [["verify", "--q", str(q)] + (["--include-lift"] if q <= LIFT_MAX_Q else [])
                for q in qs]
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Runs fuhp operations as child processes and accounts for each one."""

    def __init__(self, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = child_env()
        self.out_path = os.path.join(work_dir, "stdout")
        self.err_path = os.path.join(work_dir, "stderr")

    def run(self, argv, traced=False):
        """One operation; returns (sample dict, stdout text).

        Peak RSS and CPU time come from this child's own rusage (wait4), not
        from the running maximum over all children.
        """
        if traced:
            spans_path = os.path.join(self.work_dir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        sample = {
            "argv": argv,
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        if proc.returncode != 0:
            with open(self.err_path, encoding="utf-8", errors="replace") as fh:
                sample["stderr"] = fh.read()[-500:]
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    sample["trace"] = json.load(fh)
                os.remove(spans_path)
            except FileNotFoundError:  # killed before it wrote its spans
                sample["trace"] = {"names": [], "nodes": []}
        return sample, text


def run_pass(runner, ops, reference, traced=False, setup=None):
    """Run every operation once and check its output.

    With a `setup` list, a `fuhp --version` sample follows each operation, so
    set-up time is sampled across the whole measuring window.
    """
    samples = []
    for argv in ops:
        sample, text = runner.run(argv, traced=traced)
        problems = checks.check_operation(argv, sample["rc"], text, reference)
        sample["ok"] = not problems
        if problems:
            sample["problems"] = problems[:5]
            print(f"FAILED fuhp {' '.join(argv)}: {'; '.join(problems[:5])}", file=sys.stderr)
        samples.append(sample)
        if setup is not None:
            setup.append(version_sample(runner))
    return samples


def version_sample(runner):
    """Seconds for a fresh interpreter to run `fuhp --version`: the import cost of every call."""
    sample, text = runner.run(["--version"])
    sample["ok"] = sample["rc"] == 0 and re.fullmatch(r"fuhp \S+\n", text) is not None
    return sample


def per_op_medians(passes, key):
    """For each operation, the median of `key` over the passes."""
    return [statistics.median(p[i][key] for p in passes) for i in range(len(passes[0]))]


def end_to_end_metrics(passes, setup):
    return {
        "wall_s": {"value": sum(per_op_medians(passes, "wall_s")), "unit": "s"},
        "cpu_s": {"value": sum(per_op_medians(passes, "cpu_s")), "unit": "s"},
        "peak_rss_mb": {"value": max(per_op_medians(passes, "peak_rss_mb")), "unit": "MB"},
        "setup_s": {"value": statistics.median(s["wall_s"] for s in setup), "unit": "s"},
    }


def machine_record():
    """The environment the numbers belong to."""
    record = {
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
    }
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
            record[f"{name.lower()}_bytes"] = int(out)
        except (OSError, subprocess.SubprocessError, ValueError):
            pass
    probe = ("import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, 'blas': [b.get('name'), "
             "b.get('version'), b.get('openblas configuration')]}))")
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True).stdout
        record.update(json.loads(out))
    except (subprocess.SubprocessError, ValueError) as exc:
        record["numpy"] = f"unavailable: {exc}"
    return record


def measure(work_dir, workload, seed, seconds, trace):
    start = time.monotonic()
    runner = Runner(work_dir, start + RUN_DEADLINE_S)
    ops = make_ops(workload, seed)
    reference = checks.load_reference()
    runner.run(["--version"])  # untimed: compiles bytecode, warms the file cache
    setup = None if trace else []

    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        plain.append(run_pass(runner, ops, reference, setup=setup))
        if trace:
            traced.append(run_pass(runner, ops, reference, traced=True))
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or time.monotonic() + per_round > start + RUN_DEADLINE_S:
            break

    samples = (setup or []) + [s for p in plain + traced for s in p]
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    if trace:
        layers = [tracer.layer_metrics([s["trace"] for s in p]) for p in traced]
        # median_low keeps counts exact; they repeat in every pass anyway
        metrics = {name: {"value": statistics.median_low(m[name] for m in layers), "unit": unit}
                   for name, unit in tracer.PER_LAYER}
        overhead = (statistics.median(sum(s["wall_s"] for s in p) for p in traced)
                    / statistics.median(sum(s["wall_s"] for s in p) for p in plain))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for p in traced:
            for s in p:
                del s["trace"]
    else:
        metrics = end_to_end_metrics(plain, setup)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "operations": [["fuhp", *argv] for argv in ops],
        "passes": len(plain),
        "fail_ratio": failed / attempted,
        "machine": machine_record(),
        "samples": samples,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fuhp", "cli.py")):
        print(f"error: no fuhp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            record, result = measure(tmp, args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    finally:
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
