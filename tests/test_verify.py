"""The verify battery beyond the q the CLI tests cover."""

import fuhp.theta
import fuhp.verify
from fuhp.field import field_context
from fuhp.verify import character_checks, field_checks, run_battery


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
