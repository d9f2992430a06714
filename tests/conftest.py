import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import fuhp

_acceptance_outcomes = {}


class ChildRun(NamedTuple):
    exit_code: int
    peak_mb: float  # the child's own peak RSS, from wait4
    wall: float  # from the launcher's start of the child to its wait4
    cpu: float  # the child's user + system seconds over all its threads, from wait4
    stdout: str  # captured only when asked for


# Linux carries a process's RSS high-water mark through fork and exec, so wait4 reports
# the larger of a child's own peak and its parent's RSS at the fork. A launcher of about
# 14 MB, not this test process, therefore starts the measured child and reports its rusage.
_LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as report:
    report.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} {wall} {usage.ru_utime + usage.ru_stime}")
"""


@pytest.fixture
def run_child(tmp_path):
    """Run ``python *args`` in a child process with this fuhp on its path; returns a ChildRun.

    ``env`` updates the child's environment. The child starts without the
    OPENBLAS_THREAD_TIMEOUT that importing fuhp set in this process, as from a shell.
    """
    base = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    base.pop("OPENBLAS_THREAD_TIMEOUT", None)
    report = tmp_path / "child-rusage"

    def run(args, capture=False, env=None):
        launcher = subprocess.run([sys.executable, "-c", _LAUNCHER, str(report), sys.executable, *args],
                                  env=dict(base, **(env or {})), text=True,
                                  stdout=subprocess.PIPE if capture else None, check=True)
        exit_code, max_rss, wall, cpu = report.read_text().split()
        # ru_maxrss is in kilobytes on Linux
        return ChildRun(int(exit_code), int(max_rss) / 1024, float(wall), float(cpu), launcher.stdout or "")

    return run


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[nodeid]
        label = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {label}")
