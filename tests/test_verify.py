"""The verify battery beyond the q the CLI tests cover."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuhp
import fuhp.spherical
import fuhp.theta
import fuhp.verify
from fuhp.cli import DEFAULT_MAX_Q
from fuhp.field import field_context
from fuhp.verify import LIFT_MAX_Q, character_checks, field_checks, heat_test_functions, run_battery

PRIMES_TO_THE_CAP = [
    q for q in range(3, DEFAULT_MAX_Q + 1, 2) if all(q % p for p in range(3, int(q**0.5) + 1, 2))
]


def test_battery_q19_has_no_failures():
    # the dense spectral table missed the fixed 1e-12 positivity bound here
    fatal = [r for r in run_battery([19]) if r.fatal]
    assert not fatal, [f"{r.name}: {r.detail}" for r in fatal]


def test_battery_builds_one_graph_per_radius_and_one_match(monkeypatch):
    calls = []

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (fuhp.verify, fuhp.theta):
        counted(module, "build_graph")
    counted(fuhp.verify, "match_formulas_to_oracle")
    fuhp.spherical._class_matches.cache_clear()
    assert not any(r.fatal for r in run_battery([7]))
    assert calls.count("build_graph") == 5  # the regular radii of q=7
    assert calls.count("match_formulas_to_oracle") == 1
    # the reconciled theta kernels read the same assignment: it is computed once
    assert fuhp.spherical._class_matches.cache_info().misses == 1


def test_battery_runs_the_q_only_checks_once():
    names = [r.name for r in run_battery([7])]
    assert names.count("q=7 orbit sizes") == 1
    assert names.count("q=7 sphere sizes") == 1


def test_field_checks_and_beta_multiplicative_at_the_cap():
    # exhaustive at q=101: the pairwise norm loop alone took minutes here
    ctx = field_context(101)
    results = field_checks(ctx)
    assert all(r.passed for r in results), [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert "all 10200 m" in next(r.detail for r in results if r.name == "q=101 norm multiplicative")
    (mult,) = [r for r in character_checks(ctx) if r.name == "q=101 beta multiplicative"]
    assert mult.passed


def test_norm_check_catches_a_non_multiplicative_norm(monkeypatch):
    # a^2 + delta*b^2 agrees with the norm on F_q but is not multiplicative on the extension
    ctx = field_context(7)
    monkeypatch.setattr(fuhp.verify, "ext_norm", lambda c, z: (z.a * z.a + c.delta * z.b * z.b) % c.q)
    (norm,) = [r for r in field_checks(ctx) if r.name == "q=7 norm multiplicative"]
    assert not norm.passed


def test_spherical_checks_memory_at_the_cap():
    # a child process, so that its own peak RSS is measured by wait4; the neighbour-value
    # array of the eigenfunction check alone was n(q+1)q floats (832 MB) at q=101
    env = dict(os.environ, PYTHONPATH=str(Path(fuhp.__file__).parents[1]))
    script = (
        "from fuhp.field import field_context; from fuhp.uhp import build_graph; "
        "from fuhp.verify import spherical_checks; "
        "results = spherical_checks(build_graph(field_context(101), 1)); "
        "assert not any(r.fatal for r in results), [r for r in results if r.fatal]"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    assert os.waitstatus_to_exitcode(status) == 0
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.slow
@pytest.mark.parametrize("q", PRIMES_TO_THE_CAP)
def test_battery_has_no_failures_up_to_the_cap(q):
    fatal = [r for r in run_battery([q], include_lift=q <= LIFT_MAX_Q) if r.fatal]
    assert not fatal, [f"{r.name}: {r.detail}" for r in fatal]


@pytest.mark.parametrize("n", [6, 20, 10100])
def test_heat_test_functions_are_distinct_and_not_constant(n):
    # sqrt(2 + j) would repeat: sqrt(4) = 2 makes frac(k * 2) the zero vector
    f = heat_test_functions(n)
    assert f.shape == (5, n)
    assert np.all((f >= 0) & (f < 1))
    assert np.all(f.max(axis=1) > f.min(axis=1))
    assert len({row.tobytes() for row in f}) == 5
