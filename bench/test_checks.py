"""The output gate: correct outputs pass, slightly wrong ones count as failed.

Outputs are rebuilt from reference.json, so no fuhp process is needed:

    python3 -m pytest bench/test_checks.py -q
"""

import json

import pytest

import checks
import run

REF = checks.load_reference()
R_S = "2"
THETA_R_S = "5"


class CannedRunner:
    """Stands in for run.Runner: returns a fixed exit code and output."""

    def __init__(self, rc, text):
        self.rc, self.text = rc, text

    def run(self, argv, traced=False):
        return {"argv": argv, "rc": self.rc, "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 1.0}, self.text


def failed_count(argv, doc_or_text, rc=0):
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
    samples = run.run_pass(CannedRunner(rc, text), [argv], REF)
    return sum(not s["ok"] for s in samples)


def heat_output(scale=1.0):
    ref = REF["heat"]["53"][R_S]
    series = [{"t": t, "values": [v * scale for v in values], "oracle_deviation": 0.0}
              for t, values in zip(ref["t"], ref["values"])]
    return ["heat", "--q", "53", "--r-s", R_S, "--t", run.fmt_times(ref["t"])], \
        {"data": {"r_s": int(R_S), "radii": ref["radii"], "series": series}}


def spectrum_output(shift=0.0):
    ref = REF["spectrum"]["53"][R_S]
    eigs = list(ref["eigenvalues"])
    eigs[1] += shift
    return ["spectrum", "--q", "53", "--r-s", R_S], \
        {"data": {"eigenvalues": eigs, "multiplicities": ref["multiplicities"]}}


def theta_output(verbatim_scale=1.0):
    ref = REF["theta"]["29"][THETA_R_S]
    rows = []
    for key, (oracle, rec, verb, imag, dev) in ref.items():
        r, t = key.split(":")
        rows.append({"r": int(r), "t": float(t), "oracle": oracle, "reconciled": rec,
                     "reconciled_deviation": abs(rec - oracle), "verbatim": verb * verbatim_scale,
                     "verbatim_imag": imag, "verbatim_deviation": dev})
    times = sorted({row["t"] for row in rows})
    return ["theta", "--q", "29", "--r-s", THETA_R_S, "--t", run.fmt_times(times),
            "--mode", "both"], {"data": {"rows": rows}}


def test_reference_outputs_pass():
    assert failed_count(*heat_output()) == 0
    assert failed_count(*spectrum_output()) == 0
    assert failed_count(*theta_output()) == 0


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6])
def test_heat_scaled_by_one_part_per_million_fails(scale):
    argv, doc = heat_output(scale)
    assert failed_count(argv, doc) == 1
    problems = checks.check_operation(argv, 0, json.dumps(doc), REF)
    assert any(p.startswith("mass") for p in problems)
    assert any("vs reference" in p for p in problems)


def test_shifted_eigenvalue_fails():
    assert failed_count(*spectrum_output(shift=1e-6)) == 1


def test_wrong_verbatim_theta_fails():
    assert failed_count(*theta_output(verbatim_scale=1 + 1e-6)) == 1


def test_nonzero_exit_fails():
    argv, doc = heat_output()
    assert failed_count(argv, doc, rc=1) == 1


def test_verify_failure_counts():
    argv = ["verify", "--q", "3"]
    assert failed_count(argv, "[PASS] a: b\n10 checks: 9 passed, 1 findings, 0 failures\n") == 0
    assert failed_count(argv, "[FAIL] a: b\n10 checks: 8 passed, 1 findings, 1 failures\n") == 1
    assert failed_count(argv, "Traceback (most recent call last):\n") == 1


def test_seeded_inputs_are_reproducible_and_covered():
    for workload in run.WORKLOADS:
        assert run.make_ops(workload, 7) == run.make_ops(workload, 7)
    for seed in range(50):
        argv = run.make_ops("dense-q53", seed)[2]
        opt = checks.options(argv)
        ref = REF["heat"]["53"][opt["--r-s"]]
        assert {checks.time_key(t) for t in opt["--t"].split(",")} <= \
            {checks.time_key(t) for t in ref["t"]}
        (theta,) = run.make_ops("theta-q29", seed)
        assert checks.options(theta)["--r-s"] in REF["theta"]["29"]
