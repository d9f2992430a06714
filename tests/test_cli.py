"""Command-line interface: exit codes, file formats, determinism."""

import errno
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuhp
import fuhp.heat
import fuhp.theta
from fuhp.cli import EXIT_BAD_INPUT, EXIT_OK, main
from fuhp.field import field_context
from fuhp.spherical import spherical_table
from fuhp.uhp import radii_order

from dense_graph import distance, enumerate_points
from scalar_reference import read_csv


def test_info_q3(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--q", "3", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["q"] == 3
    assert doc["config"]["delta"] == 2
    assert doc["data"]["orbit_sizes"] == {"0": 1, "1": 4, "2": 1}
    assert doc["version"]


INFO_Q5 = {
    "json": '{"config": {"q": 5, "delta": 2, "delta_requested": "auto"}, "version": "VERSION", "data": {"q": 5, '
            '"delta": 2, "base_generator": 2, "extension_generator": [1, 2], "smallest_nonsquare": 2, "vertices": 20, '
            '"degenerate_radii": [0, 3], "orbit_sizes": {"0": 1, "1": 6, "2": 6, "3": 1, "4": 6}}}\n',
    "csv": '# config: {"q": 5, "delta": 2, "delta_requested": "auto"}\n# version: "VERSION"\nkey,value\nq,5\n'
           'delta,2\nbase_generator,2\nextension_generator,1 2\nsmallest_nonsquare,2\nvertices,20\n'
           'degenerate_radii,0 3\norbit_size_r0,1\norbit_size_r1,6\norbit_size_r2,6\norbit_size_r3,1\n'
           'orbit_size_r4,6\n',
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_info_q5_lists_the_orbit_sizes_in_radius_order(tmp_path, fmt):
    # q=5 is the first prime whose radii in first-vertex order (0, 1, 4, 2, 3) are not in radius order
    out = tmp_path / f"info.{fmt}"
    assert main(["info", "--q", "5", "--format", fmt, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == INFO_Q5[fmt].replace("VERSION", fuhp.__version__).encode()


def test_info_rejects_even_q(capsys):
    assert main(["info", "--q", "4"]) == EXIT_BAD_INPUT
    assert "odd prime" in capsys.readouterr().err


def test_info_explicit_nonsquare_delta(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--q", "5", "--delta", "3", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["delta"] == 3


def test_info_rejects_square_delta(capsys):
    assert main(["info", "--q", "5", "--delta", "4"]) == EXIT_BAD_INPUT
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["7", "0", "-14"])
def test_info_names_a_delta_that_is_zero_mod_q(capsys, delta):
    # 0 is neither a square nor a non-square: the message names the value given, not its residue
    assert main(["info", "--q", "7", "--delta", delta]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: delta={delta} is 0 mod 7; need a non-square\n"


def test_spectrum_q3(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--q", "3", "--r-s", "1", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc["data"]) == {"r_s", "eigenvalues", "multiplicities", "laplacian_eigenvalues"}
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
    doc = json.loads(out_json.read_text())
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
        assert json.loads(out.read_text())["data"]["edges"] == [[*pair] for pair, d in dist.items() if d == r_s], r_s


def test_graph_csv_refused_above_cap(capsys):
    # the n x n CSV at q=101 would hold 1.0e8 cells; it is refused before the graph is built
    assert main(["graph", "--q", "101", "--format", "csv"]) == EXIT_BAD_INPUT
    assert "cap" in capsys.readouterr().err


def test_spectrum_q101_memory(tmp_path, run_child):
    out = tmp_path / "spectrum.json"
    child = run_child(["-m", "fuhp.cli", "spectrum", "--q", "101", "--r-s", "all-regular", "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # the 64 MB ceiling: 133 MB when each block also listed its n eigenvalues, each a_i d_i times
    # (999,900 of the 1,019,636 floats written); now each run writes its q rows, merged
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    runs = json.loads(out.read_text())["data"]["runs"]
    assert len(runs) == 99 and all(sum(run["multiplicities"]) == 101 * 100 for run in runs)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spherical_sweep_q101_memory(tmp_path, run_child, fmt):
    out = tmp_path / f"spherical.{fmt}"
    child = run_child(["-m", "fuhp.cli", "spherical", "--q", "101", "--r-s", "all-regular", "--format", fmt,
                       "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # 111 MB (JSON) and 102 MB (CSV) when each of the 99 runs wrote the whole 101 x 101 table again, 23 MB
    # of JSON; now the table is written once and each run maps the classes to its rows
    assert child.peak_mb <= 40, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    assert out.stat().st_size <= 300_000


def test_graph_q101_memory(tmp_path, run_child):
    out = tmp_path / "graph.json"
    child = run_child(["-m", "fuhp.cli", "graph", "--q", "101", "--r-s", "1", "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # 164 MB when the vertex and edge arrays became nested lists before the writer saw them, and 100 MB
    # while each of the 515,100 edges was a piece of its own; now the edges are encoded in blocks of rows
    assert child.peak_mb <= 80, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    data = json.loads(out.read_text())["data"]
    assert len(data["vertices"]) == 101 * 100 and len(data["edges"]) == 101 * 100 * 102 // 2


def test_heat_q101_memory(tmp_path, run_child):
    out = tmp_path / "heat.json"
    child = run_child(["-m", "fuhp.cli", "heat", "--q", "101", "--r-s", "1", "--t", "0,1", "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # the 64 MB ceiling: importing the package takes about 30 MB; the uint8 scheme counts (1 MB) and
    # the q x q tables of the spherical rows and the affine oracle add a few MB at q=101; no n-sized
    # array beyond the scheme's coordinates and labels is built
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    series = json.loads(out.read_text())["data"]["series"]
    assert max(s["oracle_deviation"] for s in series) <= 1e-11 * 101 * 100


def test_heat_huge_time_is_bounded_by_the_mixing_time(tmp_path):
    # rate (q+1)t = 4e8: a walk or a weight list as long as the rate would not finish in time
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    out = tmp_path / "heat.json"
    proc = subprocess.run([sys.executable, "-m", "fuhp.cli", "heat", "--q", "3", "--r-s", "1",
                           "--t", "1e8", "--out", str(out)], env=env, timeout=10)
    assert proc.returncode == EXIT_OK
    (series,) = json.loads(out.read_text())["data"]["series"]
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


class _FailingStdout(io.StringIO):
    """A stdout whose writes raise ``exc``, as on a closed pipe or a full device; it has no descriptor."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                 OSError(errno.ENOSPC, "No space left on device")])
@pytest.mark.parametrize("args", [["verify", "--q", "3"], ["heat", "--q", "5", "--t", "1"],
                                  ["theta", "--q", "5", "--classical", "0.2", "--t", "1"]])
def test_a_failed_write_to_stdout_is_one_error_line_and_exit_2(monkeypatch, capsys, exc, args):
    # exit 1 would read as a failed verification: a failed write is the invalid-input exit, as for --out
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _FailingStdout(exc))
        status = main(args)
    assert status == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: cannot write stdout: {exc.strerror}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["verify", "--q", "3"], ["spherical", "--q", "5"]])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_full_device_or_a_closed_pipe_as_stdout_exits_2_with_nothing_at_interpreter_exit(args, unbuffered):
    # the write is flushed while main() runs, and stdout then points at devnull, so that the
    # interpreter's own flush at exit prints no "Exception ignored" and keeps the exit status
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]), PYTHONUNBUFFERED=unbuffered)
    command = [sys.executable, "-c", ENTRY, *args]
    with open("/dev/full", "w") as full:
        child = subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE, timeout=60)
    full_device = b"error: cannot write stdout: No space left on device\n"
    assert (child.returncode, child.stderr) == (EXIT_BAD_INPUT, full_device)
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        child.stdout.close()  # no reader before the first write: EPIPE
        err = child.stderr.read()
    assert (child.returncode, err) == (EXIT_BAD_INPUT, b"error: cannot write stdout: Broken pipe\n")


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


# Prints OPENBLAS_THREAD_TIMEOUT as it reads when numpy is first looked up, then imports the CLI.
_NUMPY_IMPORT_SPY = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            sys.meta_path.remove(self)

sys.meta_path.insert(0, Spy())
import fuhp.cli
"""


def test_blas_thread_timeout_is_set_before_numpy_loads(run_child):
    # OpenBLAS reads the variable once, when numpy loads it; a value the user set wins
    for env, seen in (({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "30"}, "30")):
        child = run_child(["-c", _NUMPY_IMPORT_SPY], capture=True, env=env)
        assert (child.exit_code, child.stdout) == (EXIT_OK, f"{seen}\n"), env


def _openblas_and_two_cores():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without mode="dicts" or without the entry
        return False
    return "openblas" in blas.lower() and len(os.sched_getaffinity(0)) >= 2


@pytest.mark.skipif(not _openblas_and_two_cores(), reason="needs numpy on OpenBLAS and two cores")
def test_an_idle_blas_worker_sleeps(run_child):
    # with OpenBLAS's default spin of 2^28 cycles after each call, the one worker thread of two kept a
    # core busy: CPU read about 1.6x wall here
    runs = [run_child(["-m", "fuhp.cli", "verify", "--q", "3"], capture=True, env={"OPENBLAS_NUM_THREADS": "2"})
            for _ in range(3)]
    assert all(run.exit_code == EXIT_OK for run in runs)
    ratio = statistics.median(run.cpu / run.wall for run in runs)
    assert ratio <= 1.25, [f"cpu {run.cpu:.3f} s / wall {run.wall:.3f} s" for run in runs]


@pytest.mark.parametrize("args", [
    ["heat", "--q", "53", "--r-s", "all-regular", "--t", "0,1"],
    ["verify", "--q", "13"],
    pytest.param(["verify", "--q", "101"], marks=pytest.mark.slow),
])
def test_blas_thread_timeout_leaves_output_unchanged(run_child, args):
    # the timeout only says how long an idle worker spins; the thread count, and so every sum, stays
    default, explicit = (run_child(["-m", "fuhp.cli", *args], capture=True, env={"OPENBLAS_NUM_THREADS": "2", **env})
                         for env in ({}, {"OPENBLAS_THREAD_TIMEOUT": "30"}))
    assert default.exit_code == explicit.exit_code == EXIT_OK
    assert default.stdout == explicit.stdout


def test_theta_q101_memory(tmp_path, run_child):
    out = tmp_path / "theta.json"
    child = run_child(["-m", "fuhp.cli", "theta", "--q", "101", "--r-s", "2", "--t", "1", "--mode", "both",
                       "--out", str(out)])
    assert child.exit_code == EXIT_OK
    # the 64 MB ceiling: the (q^2-1) x (q+1) complex phase table (16.6 MB) is filled q+1 rows at a time
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"
    rows = json.loads(out.read_text())["data"]["rows"]
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
    for row in json.loads(out.read_text())["data"]["rows"]:
        verbatim = complex(row["verbatim"], row["verbatim_imag"])
        assert row["verbatim_deviation"] == abs(verbatim - row["reconciled"])


def test_theta_report_both_modes(tmp_path):
    out = tmp_path / "theta.json"
    assert main(["theta", "--q", "5", "--r-s", "1", "--mode", "both",
                 "--t", "0.1,1", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
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


@pytest.mark.parametrize("q_list", ["3,3", "3,5,3"])
def test_verify_refuses_a_repeated_prime(q_list, capsys):
    # 3,3 once ran q=3 twice and printed each of its check names twice
    assert main(["verify", "--q", q_list]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: --q lists 3 more than once, got {q_list!r}\n"
    assert captured.out == ""


def test_verify_q_list_alias_refuses_an_empty_list(capsys):
    # --q-list '' once fell back to the default 3,5,7 and passed
    assert main(["verify", "--q-list", ""]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: --q expects a comma-separated list of primes, got ''\n"


def test_verify_include_lift(capsys):
    assert main(["verify", "--q", "3", "--include-lift"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "K-average = quotient kernel" in out


def test_verify_reports_a_skipped_lift_as_a_finding(capsys):
    # above LIFT_MAX_Q nothing of the lift runs, so the line once read [PASS] and counted as passed
    assert main(["verify", "--q", "17", "--include-lift"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "[FINDING] q=17 method of images: skipped: lift verification covers q <= 13" in lines
    without = main(["verify", "--q", "17"])
    baseline = capsys.readouterr().out.splitlines()
    assert without == EXIT_OK
    passed, findings = (int(baseline[-1].split()[k].rstrip(",")) for k in (2, 4))
    # one check line more than without the lift, and it is counted among the findings
    assert lines[-1] == f"{len(baseline)} checks: {passed} passed, {findings + 1} findings, 0 failures"


def test_verify_prints_every_check_when_the_lift_asserts(monkeypatch, capsys):
    # an assertion in the method of images once escaped the battery: no check line, exit 2
    monkeypatch.setattr(fuhp.heat, "stabiliser_orbits", lambda ctx: False)
    assert main(["verify", "--q", "5", "--include-lift"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert ("[FAIL] q=5 r_s=1 lifted Laplacian intertwines: lifted generating set not closed under "
            "inversion: K does not keep S_r") in lines
    # every check has its line, the lift's failure among them
    assert lines[-1].endswith(" 1 failures") and len(lines) == int(lines[-1].split()[0]) + 1


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
    doc = json.loads(out.read_text())
    assert doc["config"]["r_s"] == "all-regular"
    assert [b["r_s"] for b in doc["data"]["runs"]] == [1, 2, 4]  # 0 and 3 degenerate
    out_csv = tmp_path / "sweep.csv"
    assert main(["heat", "--q", "5", "--r-s", "all-regular", "--t", "1",
                 "--format", "csv", "--out", str(out_csv)]) == EXIT_OK
    meta, header, rows = read_csv(out_csv)
    assert header[0] == "r_s"
    assert [r[0] for r in rows] == [1, 2, 4]


def _rebuilt_spherical_blocks(data):
    """The single-radius block of every run of a spherical sweep's data, rebuilt from the rows written once."""
    q, radii = len(data["rows"]), data["radii"]
    blocks = []
    for run in data["runs"]:
        at_r_s = radii.index(run["r_s"])
        rows = []
        for i, c in enumerate(np.argsort(run["row"]).tolist()):  # the class at each row of the table
            omega = data["rows"][c]["omega"]
            a = (q + 1) * omega[at_r_s]
            rows.append({"index": i, "degree": data["rows"][c]["degree"], "adjacency_eigenvalue": a,
                         "laplacian_eigenvalue": (q + 1) - a, "omega": omega})
        blocks.append({"r_s": run["r_s"], "radii": radii, "orbit_sizes": data["orbit_sizes"], "rows": rows})
    return blocks


@pytest.mark.parametrize("command", [["spectrum"], ["spherical"], ["heat", "--t", "0,1"]])
def test_an_all_regular_sweep_at_q3_is_a_sweep_of_one_radius(tmp_path, command):
    # q=3 has one regular radius: the schema follows the request, not the number of radii
    single, sweep, sweep_csv = tmp_path / "single.json", tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main([*command, "--q", "3", "--r-s", "1", "--out", str(single)]) == EXIT_OK
    assert main([*command, "--q", "3", "--r-s", "all-regular", "--out", str(sweep)]) == EXIT_OK
    doc, block = json.loads(sweep.read_text()), json.loads(single.read_text())["data"]
    assert doc["config"]["r_s"] == "all-regular"
    assert main([*command, "--q", "3", "--r-s", "all-regular", "--format", "csv", "--out", str(sweep_csv)]) == EXIT_OK
    meta, header, rows = read_csv(sweep_csv)
    assert meta["config"]["r_s"] == "all-regular"
    if command == ["spherical"]:  # the q rows once, and one run that maps them to the rows at r_s = 1
        assert len(doc["data"]["rows"]) == 3 and [run["r_s"] for run in doc["data"]["runs"]] == [1]
        assert _rebuilt_spherical_blocks(doc["data"]) == [block]
        assert header[-1] == "row_rs1" and len(rows) == 3
    else:
        assert doc["data"] == {"runs": [block]}
        assert header[0] == "r_s" and rows and all(row[0] == 1 for row in rows)


@pytest.mark.parametrize("q", [3, 5, 13, pytest.param(53, marks=pytest.mark.slow),
                               pytest.param(101, marks=pytest.mark.slow)])
def test_a_spherical_sweep_rebuilds_the_table_of_every_radius(tmp_path, q):
    # a sweep once wrote the whole table for every r_s; the rows written once and each run's map give
    # back every one of those blocks, bit for bit, from the JSON and from the CSV
    ctx = field_context(q)
    radii = radii_order(ctx)
    paths = {fmt: tmp_path / f"sweep.{fmt}" for fmt in ("json", "csv")}
    for fmt, out in paths.items():
        assert main(["spherical", "--q", str(q), "--r-s", "all-regular", "--format", fmt, "--out", str(out)]) == EXIT_OK
    data = json.loads(paths["json"].read_text())["data"]
    meta, header, rows = read_csv(paths["csv"])
    assert meta["config"]["r_s"] == "all-regular"
    from_csv = {
        "radii": [int(h.removeprefix("omega_r")) for h in header if h.startswith("omega_r")],
        "orbit_sizes": data["orbit_sizes"],  # the one field the CSV does not carry, as before
        "rows": [{"kind": row[0], "j": row[1], "degree": row[2], "omega": row[3 : 3 + q]} for row in rows],
        "runs": [{"r_s": int(h.removeprefix("row_rs")), "row": [row[k] for row in rows]}
                 for k, h in enumerate(header) if h.startswith("row_rs")],
    }
    assert header[:3] == ["kind", "j", "degree"] and len(header) == 3 + q + len(radii) - 2
    expected = []
    for r_s in radii[2:]:
        table = spherical_table(ctx, r_s)
        rows_at = zip(table.degrees.tolist(), table.adjacency_eigenvalues.tolist(),
                      table.laplacian_eigenvalues.tolist(), table.omega[:, radii].tolist())
        expected.append({"r_s": r_s, "radii": radii, "orbit_sizes": table.orbit_sizes[radii].tolist(), "rows": [
            {"index": i, "degree": d, "adjacency_eigenvalue": a, "laplacian_eigenvalue": lam, "omega": omega}
            for i, (d, a, lam, omega) in enumerate(rows_at)]})
    assert _rebuilt_spherical_blocks(data) == expected
    assert _rebuilt_spherical_blocks(from_csv) == expected
    assert from_csv == data


def test_all_regular_rejected_where_meaningless(capsys):
    assert main(["graph", "--q", "5", "--r-s", "all-regular"]) == EXIT_BAD_INPUT
    assert main(["theta", "--q", "5", "--r-s", "all-regular", "--t", "1"]) == EXIT_BAD_INPUT


def test_classical_theta_text(capsys):
    assert main(["theta", "--q", "5", "--classical", "0.0", "--t", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("theta(0.0, 1.0i) = 1.0864348112133")
    assert "truncation bound" in out


@pytest.mark.parametrize("field", [["--q", "211"], ["--q", "4"], ["--q", "5", "--delta", "4"]],
                         ids=["past-the-cap", "not-prime", "square-delta"])
def test_classical_theta_reads_no_field(field, monkeypatch, capsys):
    # the series depends on no q, but the field was resolved first: --q 211 exited 2 with "q=211 exceeds
    # FUHP_MAX_Q=101" and --q 4 with "q must be an odd prime"
    monkeypatch.delenv("FUHP_MAX_Q", raising=False)
    assert main(["theta", "--q", "5", "--classical", "0.2", "--t", "1"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["theta", *field, "--classical", "0.2", "--t", "1"]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_classical_theta_of_a_large_z_is_its_value_at_the_reduced_z(capsys):
    # theta has period 1 in z and 1e307 is an integer; unreduced, its phases 2 pi n z overflowed and
    # the call failed with "math domain error"
    def value(z):
        assert main(["theta", "--q", "5", "--classical", z, "--t", "0.001", "--n-max", "10"]) == EXIT_OK
        return capsys.readouterr().out.split(" = ", 1)[1]

    assert value("1e307") == value("0")


@pytest.mark.parametrize("t, bound", [("1e-17", 2 * np.exp(-np.pi * 1e-17 * 25**2) / (np.pi * 1e-17)),
                                      ("1e-320", float("inf"))])
def test_classical_theta_at_a_tiny_time(capsys, t, bound):
    # 1 - e^(-pi t) rounds to 0.0 below t of about 3.5e-17: the bound divided by it, and the run
    # printed "error: float division by zero" and exited 2
    assert main(["theta", "--q", "5", "--classical", "0.2", "--t", t]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.split(" = ", 1)[1].split(" + ", 1)[0])
    printed = float(out.split("truncation bound ", 1)[1].split(",", 1)[0])
    assert abs(value - 1.0) <= 1e-12  # every decay reads 1 and the cosines of 2 pi n/5 sum to zero
    assert printed == pytest.approx(bound, rel=1e-15)


def test_unwritable_out_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "info.json"
    assert main(["info", "--q", "5", "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and str(out) in err
    assert not out.exists()
