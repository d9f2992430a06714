"""Record reference.json: the outputs every seeded input is compared with.

Runs the CLI (in the benchmark's pinned environment) for every input the
seeds can choose: `spectrum` and `heat` at every regular radius of q=53
(heat at t=0 and every pooled time; the `spherical` check reuses these heat
values through the table's transform), and `theta --mode both` at every
collision-free radius of q=29 over the pooled times. It was run once at the
seed commit; rerunning it on later code would hide a regression.

    python3 bench/record_reference.py [--out bench/reference.json]
"""

import argparse
import json
import os
import sys
import tempfile
import time

import checks
import run


def trim(values):
    """13 significant digits: far below REF_REL, and a smaller file."""
    return [float(f"{x:.13g}") for x in values]


def fuhp_json(runner, argv):
    sample, text = runner.run(argv)
    if sample["rc"] != 0:
        raise SystemExit(f"fuhp {' '.join(argv)} exited {sample['rc']}")
    print(f"{sample['wall_s']:6.2f} s  fuhp {' '.join(argv)}", file=sys.stderr)
    return json.loads(text)["data"]


def record(runner):
    q, ref = run.DENSE_Q, {"spectrum": {}, "heat": {}, "theta": {}}
    spectra, heats = ref["spectrum"].setdefault(str(q), {}), ref["heat"].setdefault(str(q), {})
    times = [0.0, *run.TIME_POOL]
    for r_s in run.regular_radii(q):
        common = ["--q", str(q), "--r-s", str(r_s)]
        data = fuhp_json(runner, ["spectrum", *common])
        spectra[str(r_s)] = {"eigenvalues": trim(data["eigenvalues"]),
                             "multiplicities": data["multiplicities"]}
        data = fuhp_json(runner, ["heat", *common, "--t", run.fmt_times(times)])
        heats[str(r_s)] = {"radii": data["radii"], "t": times,
                           "values": [trim(s["values"]) for s in data["series"]]}
    q = run.THETA_Q
    thetas = ref["theta"].setdefault(str(q), {})
    for r_s in run.THETA_RADII:
        data = fuhp_json(runner, ["theta", "--q", str(q), "--r-s", str(r_s),
                                  "--t", run.fmt_times(run.TIME_POOL), "--mode", "both"])
        thetas[str(r_s)] = {
            f"{row['r']}:{checks.time_key(row['t'])}": trim(
                row[k] for k in ("oracle", "reconciled", "verbatim", "verbatim_imag",
                                 "verbatim_deviation"))
            for row in data["rows"]
        }
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=checks.REFERENCE_PATH)
    args = parser.parse_args()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        ref = record(run.Runner(tmp, time.monotonic() + 3600.0))
    if not os.listdir(run.WORK_DIR):
        os.rmdir(run.WORK_DIR)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
