"""Command-line interface: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuhp
import fuhp.theta
from fuhp.cli import EXIT_BAD_INPUT, EXIT_OK, main
from fuhp.export import read_csv, read_json
from fuhp.field import field_context
from fuhp.uhp import radii_order

from dense_graph import distance, enumerate_points


def test_info_q3(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--q", "3", "--out", str(out)]) == EXIT_OK
    doc = read_json(out)
    assert doc["config"]["q"] == 3
    assert doc["config"]["delta"] == 2
    assert doc["data"]["orbit_sizes"] == {"0": 1, "1": 4, "2": 1}
    assert doc["version"]


def test_info_rejects_even_q(capsys):
    assert main(["info", "--q", "4"]) == EXIT_BAD_INPUT
    assert "odd prime" in capsys.readouterr().err


def test_info_explicit_nonsquare_delta(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--q", "5", "--delta", "3", "--out", str(out)]) == EXIT_OK
    assert read_json(out)["config"]["delta"] == 3


def test_info_rejects_square_delta(capsys):
    assert main(["info", "--q", "5", "--delta", "4"]) == EXIT_BAD_INPUT
    assert "square" in capsys.readouterr().err


def test_spectrum_q3(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--q", "3", "--r-s", "1", "--out", str(out)]) == EXIT_OK
    doc = read_json(out)
    np.testing.assert_allclose(doc["data"]["adjacency_spectrum"], [4, 0, 0, 0, -2, -2], atol=1e-9)
    np.testing.assert_allclose(doc["data"]["eigenvalues"], [4, 0, -2], atol=1e-9)
    assert doc["data"]["multiplicities"] == [1, 3, 2]


def test_spectrum_accepts_r_alias(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--q", "3", "--r", "1", "--out", str(out)]) == EXIT_OK


def test_spectrum_degenerate_radius(capsys):
    assert main(["spectrum", "--q", "3", "--r-s", "0"]) == EXIT_BAD_INPUT
    assert "degenerate" in capsys.readouterr().err


def test_graph_json_and_csv(tmp_path):
    out_json = tmp_path / "g.json"
    out_csv = tmp_path / "g.csv"
    assert main(["graph", "--q", "3", "--r-s", "1", "--out", str(out_json)]) == EXIT_OK
    doc = read_json(out_json)
    assert len(doc["data"]["vertices"]) == 6
    assert len(doc["data"]["edges"]) == 12  # 6 vertices * degree 4 / 2
    assert main(["graph", "--q", "3", "--r-s", "1", "--format", "csv",
                 "--out", str(out_csv)]) == EXIT_OK
    meta, header, rows = read_csv(out_csv)
    assert len(rows) == 6 and len(rows[0]) == 7
    assert sum(sum(r[1:]) for r in rows) == 24


@pytest.mark.parametrize("q", [5, 7])
def test_graph_edges_are_the_pairs_at_distance_r_s(tmp_path, q):
    # the rows come from the certified generators; the export is checked point by point
    ctx, out = field_context(q), tmp_path / "g.json"
    pts = enumerate_points(ctx)
    dist = {(i, j): distance(ctx, pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))}
    for r_s in radii_order(ctx)[2:]:
        assert main(["graph", "--q", str(q), "--r-s", str(r_s), "--out", str(out)]) == EXIT_OK
        assert read_json(out)["data"]["edges"] == [[*pair] for pair, d in dist.items() if d == r_s], r_s


def test_graph_csv_refused_above_cap(capsys):
    # the n x n CSV at q=101 would hold 1.0e8 cells; it is refused before the graph is built
    assert main(["graph", "--q", "101", "--format", "csv"]) == EXIT_BAD_INPUT
    assert "cap" in capsys.readouterr().err


def test_heat_q101_memory(tmp_path, run_child):
    out = tmp_path / "heat.json"
    child = run_child(["-m", "fuhp.cli", "heat", "--q", "101", "--r-s", "1", "--t", "0,1", "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # the 64 MB ceiling: importing the package takes about 30 MB; the uint8 scheme counts (1 MB) and
    # the q x q tables of the spherical rows and the affine oracle add a few MB at q=101; no n-sized
    # array beyond the scheme's coordinates and labels is built
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    series = read_json(out)["data"]["series"]
    assert max(s["oracle_deviation"] for s in series) <= 1e-11 * 101 * 100


def test_heat_huge_time_is_bounded_by_the_mixing_time(tmp_path):
    # rate (q+1)t = 4e8: a walk or a weight list as long as the rate would not finish in time
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    out = tmp_path / "heat.json"
    proc = subprocess.run([sys.executable, "-m", "fuhp.cli", "heat", "--q", "3", "--r-s", "1",
                           "--t", "1e8", "--out", str(out)], env=env, timeout=10)
    assert proc.returncode == EXIT_OK
    (series,) = read_json(out)["data"]["series"]
    assert series["oracle_deviation"] <= 1e-13


def test_verify_q13_include_lift_memory(run_child):
    # the dense lift would need a |G| x |G| float matrix of 5.5 GB at q=13 (|G| = 26,208)
    child = run_child(["-m", "fuhp.cli", "verify", "--q", "13", "--include-lift"], capture=True)
    assert child.exit_code == EXIT_OK
    assert child.peak_mb < 300, f"peak RSS {child.peak_mb:.0f} MB (wall {child.wall:.2f} s)"
    assert "[PASS] q=13 r_s=1 K-average = quotient kernel" in child.stdout
    assert "skipped" not in child.stdout


def test_verify_does_not_load_numpy_random():
    # importing numpy.random adds about 6 MB of resident memory to every verify process
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    script = (
        "import sys; from fuhp.cli import main; "
        "assert main(['verify', '--q', '3', '--include-lift']) == 0; "
        "assert 'numpy.random' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True, stdout=subprocess.DEVNULL)


ENTRY = "import sys; from fuhp.cli import main; sys.exit(main())"  # the console script's entry form


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def test_exit_path_keeps_streams_files_and_exit_codes(tmp_path, capsys):
    # main() freezes the collector at exit: what a process prints, writes and returns comes through whole
    child = _python("-c", ENTRY, "verify", "--q", "3")
    assert main(["verify", "--q", "3"]) == EXIT_OK
    assert child.returncode == EXIT_OK and child.stdout == capsys.readouterr().out.encode()
    child = _python("-c", ENTRY, "theta", "--q", "5", "--t", "-1")
    assert child.returncode == EXIT_BAD_INPUT
    assert child.stderr.decode().startswith("error: times must be finite and nonnegative")
    child = _python("-c", ENTRY, "--version")  # SystemExit raised inside parse_args
    assert child.returncode == EXIT_OK and child.stdout == f"fuhp {fuhp.__version__}\n".encode()
    there, here = tmp_path / "child.json", tmp_path / "here.json"
    assert _python("-c", ENTRY, "spherical", "--q", "13", "--r-s", "2", "--out", str(there)).returncode == EXIT_OK
    assert main(["spherical", "--q", "13", "--r-s", "2", "--out", str(here)]) == EXIT_OK
    assert there.read_bytes() == here.read_bytes()


def test_exit_freezes_the_collector(tmp_path):
    # atexit runs the last-registered handler first, so this report runs after main()'s gc.freeze
    out = tmp_path / "info.json"
    script = (
        "import atexit, gc, sys; atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
        "from fuhp.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    child = _python("-c", script, "info", "--q", "3", "--out", str(out))
    assert child.returncode == EXIT_OK, child.stderr.decode()
    label, count = child.stdout.split()
    assert label == b"frozen" and int(count) > 1000  # numpy alone leaves ~20,000 objects tracked


def test_cli_import_generates_no_dataclasses():
    # @dataclass code generation was half of fuhp's own import time; its records are NamedTuples
    script = ("import sys, argparse, json, numpy; before = 'dataclasses' in sys.modules; "
              "import fuhp.cli; print(before, 'dataclasses' in sys.modules)")
    before, after = _python("-c", script).stdout.split()
    if before == b"True":
        pytest.skip("numpy, argparse or json imports dataclasses on this interpreter")
    assert after == b"False"


def test_theta_q101_memory(tmp_path, run_child):
    out = tmp_path / "theta.json"
    child = run_child(["-m", "fuhp.cli", "theta", "--q", "101", "--r-s", "2", "--t", "1", "--mode", "both",
                       "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # the 64 MB ceiling: the (q^2-1) x (q+1) complex phase table (16.6 MB) is filled q+1 rows at a time
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    rows = read_json(out)["data"]["rows"]
    assert len(rows) == 98  # every radius but 0, 4*delta and 1
    assert max(row["reconciled_deviation"] for row in rows) <= 1e-11 * 101 * 100


def test_heat_csv_q3(tmp_path):
    out = tmp_path / "heat.csv"
    assert main(["heat", "--q", "3", "--r-s", "1", "--t", "0,1", "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    assert header[0] == "t"
    assert meta["config"]["t_grid"] == [0.0, 1.0]
    row0 = dict(zip(header, rows[0]))
    assert row0["t"] == 0.0
    assert row0["E_r0"] == pytest.approx(6.0, abs=1e-12)
    assert row0["E_r1"] == pytest.approx(0.0, abs=1e-12)
    assert row0["E_r2"] == pytest.approx(0.0, abs=1e-12)
    import math
    row1 = dict(zip(header, rows[1]))
    assert row1["E_r1"] == pytest.approx(1 - math.exp(-6), abs=1e-12)


@pytest.mark.parametrize("command", [["heat"], ["theta"], ["theta", "--classical", "0.3"]],
                         ids=["heat", "theta", "classical"])
@pytest.mark.parametrize("times", ["-1", "inf", "nan", "0,inf"])
def test_heat_rejects_negative_time(command, times, capsys):
    # exit 1 is reserved for verification failures: a bad time, infinite ones included, is invalid input
    assert main([*command, "--q", "3", "--t", times]) == EXIT_BAD_INPUT
    assert "time" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["heat"], ["theta"], ["theta", "--classical", "0.3"]],
                         ids=["heat", "theta", "classical"])
@pytest.mark.parametrize("times", ["", ",", "0,,1", "1,"])
def test_a_time_list_with_an_empty_entry_is_refused(command, times, capsys):
    # empty entries were dropped: --t '' ran with no times and --t 0,,1 as 0,1
    assert main([*command, "--q", "5", "--t", times]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == f"error: --t expects a comma-separated list of times, got {times!r}\n"


@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_classical_theta_refuses_a_non_finite_z(z, capsys):
    # it printed nan + nani (truncation bound 0.0, ...) and exited 0
    assert main(["theta", "--q", "5", f"--classical={z}", "--t", "1"]) == EXIT_BAD_INPUT
    assert "error: z must be finite" in capsys.readouterr().err


def test_classical_theta_names_the_time_flag(capsys):
    # the shared default --t 0,1 starts at 0: it read "error: time must be positive and finite, got 0.0"
    assert main(["theta", "--q", "5", "--classical", "0.3"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: --t expects positive finite times with --classical, got '0,1'\n"
    assert main(["theta", "--q", "5", "--classical", "0.3", "--t", "1,inf"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: --t expects positive finite times")


@pytest.mark.parametrize("command", [["heat"], ["theta", "--mode", "reconciled"]], ids=["heat", "theta"])
def test_a_huge_time_warns_of_no_overflow(command):
    # t*lambda overflows at t = 1e308, and e^(-inf) = 0 is the right limit: the values were right, but
    # stderr carried "RuntimeWarning: overflow encountered in multiply"
    child = _python("-m", "fuhp.cli", *command, "--q", "7", "--t", "1e308")
    assert child.returncode == EXIT_OK and child.stderr == b""
    data = json.loads(child.stdout)["data"]
    values = data["series"][0]["values"] if "series" in data else [row["reconciled"] for row in data["rows"]]
    assert values == [1.0] * len(values)


@pytest.mark.parametrize("delta", ["x", "", "2.0"])
def test_a_malformed_delta_names_the_flag(delta, capsys):
    # it printed Python's invalid literal for int() with base 10
    assert main(["heat", "--q", "5", "--delta", delta]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == f"error: --delta expects an integer non-square or 'auto', got {delta!r}\n"


@pytest.mark.parametrize("times", ["-1", "nan", "inf", "-1000"])
def test_theta_rejects_bad_time_before_any_verbatim_sum(times, capsys):
    # at q=5 the audited radii are 2 and 4; a verbatim sum at such a time overflows first
    assert main(["theta", "--q", "5", "--t", times]) == EXIT_BAD_INPUT
    assert "error: times must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["both", "reconciled", "verbatim"])
def test_theta_overflow_is_invalid_input(mode, capsys):
    # past the float range the verbatim sum exits 2, not 1; --mode reconciled evaluates none
    code = main(["theta", "--q", "5", "--t", "1000", "--mode", mode])
    out, err = capsys.readouterr()
    if mode == "reconciled":
        assert code == EXIT_OK and err == ""
        rows = json.loads(out)["data"]["rows"]
        assert [row["r"] for row in rows] == [2, 4]
        assert all(np.isfinite(row[k]) for row in rows for k in ("oracle", "reconciled", "reconciled_deviation"))
    else:
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error: verbatim theta overflows") and "Traceback" not in err


def test_theta_reconciled_evaluates_no_verbatim_sum(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("verbatim sum evaluated")

    monkeypatch.setattr(fuhp.theta, "_finite_theta_verbatim", refuse)
    assert main(["theta", "--q", "29", "--r-s", "2", "--t", "50", "--mode", "reconciled"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["data"]["rows"]
    assert len(rows) == 26 and all(np.isfinite(row["reconciled"]) for row in rows)
    assert main(["theta", "--q", "29", "--r-s", "2", "--t", "50", "--mode", "both"]) == EXIT_BAD_INPUT
    assert "verbatim sum evaluated" in capsys.readouterr().err


@pytest.mark.parametrize("mode, width", [("both", 8), ("reconciled", 5), ("verbatim", 6)])
def test_theta_q3_csv_header_follows_the_mode(mode, width, tmp_path):
    # q=3 has no audited radius, so the report has no rows, only the header
    out = tmp_path / "theta.csv"
    assert main(["theta", "--q", "3", "--t", "1", "--mode", mode, "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    _, header, rows = read_csv(out)
    assert rows == []
    assert header[:3] == ["r", "t", "oracle"] and len(header) == width
    assert ("reconciled" in header) == (mode != "verbatim")
    assert ("verbatim" in header) == (mode != "reconciled")


@pytest.mark.parametrize("q", [5, 13, 29])
def test_theta_cli_verbatim_deviation_is_python_abs_bit_for_bit(q, tmp_path):
    out = tmp_path / "theta.json"
    assert main(["theta", "--q", str(q), "--r-s", "2", "--t", "0,0.05,0.5,2", "--out", str(out)]) == EXIT_OK
    for row in read_json(out)["data"]["rows"]:
        verbatim = complex(row["verbatim"], row["verbatim_imag"])
        assert row["verbatim_deviation"] == abs(verbatim - row["reconciled"])


def test_theta_report_both_modes(tmp_path):
    out = tmp_path / "theta.json"
    assert main(["theta", "--q", "5", "--r-s", "1", "--mode", "both",
                 "--t", "0.1,1", "--out", str(out)]) == EXIT_OK
    doc = read_json(out)
    rows = doc["data"]["rows"]
    assert rows, "report must not be empty"
    for row in rows:
        assert row["reconciled_deviation"] <= 1e-9
        assert "verbatim" in row


def test_theta_single_mode_columns(tmp_path):
    out = tmp_path / "theta.csv"
    assert main(["theta", "--q", "5", "--r-s", "1", "--mode", "reconciled",
                 "--t", "1", "--format", "csv", "--out", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    assert "verbatim" not in header
    assert "reconciled" in header


def test_spherical_csv(tmp_path):
    out = tmp_path / "sph.csv"
    assert main(["spherical", "--q", "5", "--r-s", "1", "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    assert len(rows) == 5
    assert sum(r[1] for r in rows) == 20  # degree column sums to q(q-1)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--q", "3"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "[PASS]" in captured and "failures" in captured
    assert main(["verify", "--q", "2"]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("q_list", ["", "3,x", "3,,5"])
def test_verify_names_the_flag_of_a_malformed_q_list(q_list, capsys):
    assert main(["verify", "--q", q_list]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == f"error: --q expects a comma-separated list of primes, got {q_list!r}\n"


def test_verify_q_list_alias_refuses_an_empty_list(capsys):
    # --q-list '' once fell back to the default 3,5,7 and passed
    assert main(["verify", "--q-list", ""]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: --q expects a comma-separated list of primes, got ''\n"


def test_verify_include_lift(capsys):
    assert main(["verify", "--q", "3", "--include-lift"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "K-average = quotient kernel" in out


def test_verify_q_list_alias(capsys):
    assert main(["verify", "--q-list", "3"]) == EXIT_OK
    assert "[PASS]" in capsys.readouterr().out


def test_max_q_cap(monkeypatch, capsys):
    monkeypatch.setenv("FUHP_MAX_Q", "10")
    assert main(["info", "--q", "11"]) == EXIT_BAD_INPUT
    assert "FUHP_MAX_Q" in capsys.readouterr().err
    monkeypatch.setenv("FUHP_MAX_Q", "11")
    assert main(["verify", "--q", "11"]) in (EXIT_OK,)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["heat", "--q", "5", "--r-s", "1", "--t", "0,0.5,1",
                     "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # one oracle walk per grid: an unsorted grid with 0 and a repeated time, every radius
    e, f = tmp_path / "e.csv", tmp_path / "f.csv"
    for path in (e, f):
        assert main(["heat", "--q", "13", "--r-s", "all-regular", "--t", "1,0,0.25,1",
                     "--format", "csv", "--out", str(path)]) == EXIT_OK
    assert e.read_bytes() == f.read_bytes()
    meta, header, rows = read_csv(e)
    assert [row[1] for row in rows[:4]] == [1.0, 0.0, 0.25, 1.0]  # the grid keeps its order
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        assert main(["spherical", "--q", "7", "--r-s", "2", "--format", "csv",
                     "--out", str(path)]) == EXIT_OK
    assert c.read_bytes() == d.read_bytes()


def test_json_output_roundtrips_through_stdlib(tmp_path):
    out = tmp_path / "o.json"
    assert main(["spherical", "--q", "3", "--r-s", "1", "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        doc = json.load(fh)
    total = sum(row["degree"] for row in doc["data"]["rows"])
    assert total == 6


def test_all_regular_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["spectrum", "--q", "5", "--r-s", "all-regular", "--out", str(out)]) == EXIT_OK
    doc = read_json(out)
    assert doc["config"]["r_s"] == "all-regular"
    assert [b["r_s"] for b in doc["data"]["runs"]] == [1, 2, 4]  # 0 and 3 degenerate
    out_csv = tmp_path / "sweep.csv"
    assert main(["heat", "--q", "5", "--r-s", "all-regular", "--t", "1",
                 "--format", "csv", "--out", str(out_csv)]) == EXIT_OK
    meta, header, rows = read_csv(out_csv)
    assert header[0] == "r_s"
    assert [r[0] for r in rows] == [1, 2, 4]


def test_all_regular_rejected_where_meaningless(capsys):
    assert main(["graph", "--q", "5", "--r-s", "all-regular"]) == EXIT_BAD_INPUT
    assert main(["theta", "--q", "5", "--r-s", "all-regular", "--t", "1"]) == EXIT_BAD_INPUT


def test_classical_theta_text(capsys):
    assert main(["theta", "--q", "5", "--classical", "0.0", "--t", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("theta(0.0, 1.0i) = 1.0864348112133")
    assert "truncation bound" in out


def test_classical_theta_of_a_large_z_is_its_value_at_the_reduced_z(capsys):
    # theta has period 1 in z and 1e307 is an integer; unreduced, its phases 2 pi n z overflowed and
    # the call failed with "math domain error"
    def value(z):
        assert main(["theta", "--q", "5", "--classical", z, "--t", "0.001", "--n-max", "10"]) == EXIT_OK
        return capsys.readouterr().out.split(" = ", 1)[1]

    assert value("1e307") == value("0")


def test_unwritable_out_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "info.json"
    assert main(["info", "--q", "5", "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and str(out) in err
    assert not out.exists()
