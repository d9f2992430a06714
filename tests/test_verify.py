"""The verify battery beyond the q the CLI tests cover."""

import fuhp.theta
import fuhp.verify
from fuhp.verify import run_battery


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
        counted(module, "match_formulas_to_oracle")
    assert not any(r.fatal for r in run_battery([7]))
    assert calls.count("build_graph") == 5  # the regular radii of q=7
    assert calls.count("match_formulas_to_oracle") == 1
