"""Command-line interface: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fuhp
from fuhp.cli import EXIT_BAD_INPUT, EXIT_OK, main
from fuhp.export import read_csv, read_json


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


def test_graph_csv_refused_above_cap(capsys):
    # the n x n CSV at q=101 would hold 1.0e8 cells; it is refused before the graph is built
    assert main(["graph", "--q", "101", "--format", "csv"]) == EXIT_BAD_INPUT
    assert "cap" in capsys.readouterr().err


def test_heat_q101_memory(tmp_path):
    # a child process, so that its own peak RSS is measured by wait4
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    out = tmp_path / "heat.json"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fuhp.cli", "heat", "--q", "101", "--r-s", "1",
                             "--t", "0,1", "--out", str(out)], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    assert os.waitstatus_to_exitcode(status) == EXIT_OK
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB (wall {wall:.2f} s)"
    series = read_json(out)["data"]["series"]
    assert max(s["oracle_deviation"] for s in series) <= 1e-11 * 101 * 100


def test_theta_q101_memory(tmp_path):
    # a child process, so that its own peak RSS is measured by wait4
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    out = tmp_path / "theta.json"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fuhp.cli", "theta", "--q", "101", "--r-s", "2",
                             "--t", "1", "--mode", "both", "--out", str(out)], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    assert os.waitstatus_to_exitcode(status) == EXIT_OK
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB (wall {wall:.2f} s)"
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


def test_heat_rejects_negative_time(capsys):
    assert main(["heat", "--q", "3", "--t", "-1"]) == EXIT_BAD_INPUT


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
