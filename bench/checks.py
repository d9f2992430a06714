"""Output checks behind the benchmark's failure count.

Each operation's output is checked two ways:

* invariants the benchmark computes itself, with the bounds below, so a
  wrong answer fails even where no reference exists;
* agreement with reference.json, recorded from the seed commit by
  record_reference.py, within REF_REL of the quantity's natural scale.

Invariant bounds. An output is correct when each identity holds to a
tolerance relative to the quantity's natural scale: n = q(q-1) for kernel
values and table norms, q+1 (the spectral radius) for eigenvalues, 1 for
spherical values.

* TOL = 1e-11 for sums over the whole spectrum (traces, mass, the t=0
  delta, spectral vs oracle). The dense path at the seed commit reaches
  1.5e-12 * n at worst over all regular radii of q=53, at t=0 (r_s=7).
* ROW_TOL = 1e-9 for the weighted orthogonality of individual spherical
  rows. A row whose eigenvalue nearly collides with another is accurate only
  to about u*n*(q+1)/gap; at the seed the worst is 6.2e-11 at r_s=12, where
  the smallest gap is 1.4e-4.

Both leave headroom over the seed while an error of 1e-6 fails by orders of
magnitude. Merged spherical rows (an eigenvalue collision) satisfy every
identity checked here, so a table that becomes complete is not a failure.
"""

import json
import math
import os
import re

TOL = 1e-11
ROW_TOL = 1e-9
REF_REL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
VERIFY_SUMMARY = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) findings, (\d+) failures$")


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def nonsquare(q):
    return next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)


def sphere_size(q, r):
    """|S_r|: a single point at the two degenerate radii, q+1 elsewhere."""
    return 1 if r % q in (0, 4 * nonsquare(q) % q) else q + 1


def time_key(t):
    return repr(float(t))


def options(argv):
    """--name value pairs of a fuhp argv (flags map to True)."""
    out = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


class Problems(list):
    def bound(self, what, value, limit):
        if not (abs(value) <= limit):
            self.append(f"{what}: {value:.3e} exceeds {limit:.3e}")

    def near(self, what, value, ref, scale):
        self.bound(f"{what} vs reference", value - ref, REF_REL * scale)


def check_spectrum(q, r_s, data, reference, out):
    n = q * (q - 1)
    eigs, mults = data["eigenvalues"], data["multiplicities"]
    if sum(mults) != n:
        out.append(f"multiplicities sum to {sum(mults)}, not n={n}")
        return
    scale = q + 1
    out.bound("sum m*a (trace A = 0)", sum(m * a for a, m in zip(eigs, mults)), TOL * n * scale)
    out.bound("sum m*a^2 - n(q+1) (trace A^2)",
              sum(m * a * a for a, m in zip(eigs, mults)) - n * scale, TOL * n * scale ** 2)
    top = [(a, m) for a, m in zip(eigs, mults) if abs(a - scale) <= TOL * scale]
    if len(top) != 1 or top[0][1] != 1:
        out.append(f"q+1 is not a simple eigenvalue: {top}")
    ref = reference["spectrum"][str(q)][str(r_s)]
    got = sorted(a for a, m in zip(eigs, mults) for _ in range(m))
    want = sorted(a for a, m in zip(ref["eigenvalues"], ref["multiplicities"]) for _ in range(m))
    out.near("spectrum", max(abs(x - y) for x, y in zip(got, want)), 0.0, q + 1)


def spherical_transform(rows, t):
    """sum_i d_i exp(-lambda_i t) omega_i(.), the heat kernel the table implies."""
    total = [0.0] * len(rows[0]["omega"])
    for row in rows:
        w = row["degree"] * math.exp(-row["laplacian_eigenvalue"] * t)
        for k, x in enumerate(row["omega"]):
            total[k] += w * x
    return total


def check_spherical(q, r_s, data, reference, out):
    n = q * (q - 1)
    radii, rows = data["radii"], data["rows"]
    sizes = [sphere_size(q, r) for r in radii]
    if sorted(radii) != list(range(q)) or data["orbit_sizes"] != sizes:
        out.append(f"radii/orbit sizes wrong: {radii} {data['orbit_sizes']}")
        return
    if sum(row["degree"] for row in rows) != n:
        out.append(f"degrees sum to {sum(row['degree'] for row in rows)}, not n={n}")
        return
    col0 = radii.index(0)
    k_s = radii.index(r_s)
    for row in rows:
        out.bound(f"row {row['index']} omega(0) - 1", row["omega"][col0] - 1.0, TOL)
        out.bound(f"row {row['index']} lambda - (q+1)(1 - omega(r_s))",
                  row["laplacian_eigenvalue"] - (q + 1) * (1.0 - row["omega"][k_s]),
                  TOL * (q + 1))
    # weighted orthogonality: sum_r |S_r| w_i(r) w_j(r) = (n/d_i) [i = j]
    worst = 0.0
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            b = rows[j]
            g = sum(s * x * y for s, x, y in zip(sizes, a["omega"], b["omega"]))
            target = n / a["degree"] if i == j else 0.0
            worst = max(worst, abs(g - target) * a["degree"] / n)
    out.bound("weighted orthogonality (relative to n/d)", worst, ROW_TOL)
    ref = reference["heat"][str(q)][str(r_s)]
    for t, want in zip(ref["t"], ref["values"]):
        got = spherical_transform(rows, t)
        out.near(f"table transform at t={t}", max(abs(x - y) for x, y in zip(got, want)), 0.0, n)


def check_heat(q, r_s, times, data, reference, out):
    n = q * (q - 1)
    radii = data["radii"]
    sizes = [sphere_size(q, r) for r in radii]
    if sorted(radii) != list(range(q)):
        out.append(f"radii wrong: {radii}")
        return
    if [s["t"] for s in data["series"]] != times:
        out.append(f"times {[s['t'] for s in data['series']]} != requested {times}")
        return
    err = TOL * n
    ref = reference["heat"][str(q)][str(r_s)]
    ref_by_t = {time_key(t): v for t, v in zip(ref["t"], ref["values"])}
    for s in data["series"]:
        t, values = s["t"], s["values"]
        out.bound(f"mass at t={t}", sum(m * v for m, v in zip(sizes, values)) - n, err)
        out.bound(f"oracle deviation at t={t}", s["oracle_deviation"], err)
        if t == 0.0:
            for r, v in zip(radii, values):
                out.bound(f"E(0; {r}) - n[r=0]", v - (n if r == 0 else 0.0), err)
        want = ref_by_t[time_key(t)]
        out.near(f"E(t={t})", max(abs(x - y) for x, y in zip(values, want)), 0.0, n)


def check_theta(q, r_s, times, data, reference, out):
    n = q * (q - 1)
    deg1 = 4 * nonsquare(q) % q
    radii = [r for r in range(q) if r not in (0, deg1, 1)]
    rows = data["rows"]
    keys = [(row["r"], row["t"]) for row in rows]
    if sorted(keys) != sorted((r, t) for r in radii for t in times):
        out.append(f"theta rows cover {len(keys)} (r, t) pairs, expected {len(radii) * len(times)}")
        return
    err = TOL * n
    ref = reference["theta"][str(q)][str(r_s)]
    fields = ("oracle", "reconciled", "verbatim", "verbatim_imag", "verbatim_deviation")
    for row in rows:
        where = f"r={row['r']} t={row['t']}"
        out.bound(f"reconciled deviation at {where}", row["reconciled_deviation"], err)
        out.bound(f"reconciled_deviation field at {where}",
                  row["reconciled_deviation"] - abs(row["reconciled"] - row["oracle"]), err)
        want = ref[f"{row['r']}:{time_key(row['t'])}"]
        for name, w in zip(fields, want):
            out.near(f"{name} at {where}", row[name], w, max(abs(w), n))


def check_verify(text, out):
    lines = text.strip().splitlines()
    m = VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if m is None:
        out.append("no verify summary line")
    elif int(m.group(4)) != 0:
        out.append(f"verify reports {m.group(4)} failures")


def check_operation(argv, rc, text, reference):
    """Problems with one operation's result; an empty list means it passed."""
    out = Problems()
    if rc != 0:
        out.append(f"exit code {rc}")
    command, opt = argv[0], options(argv)
    if command == "verify":
        check_verify(text, out)
        return out
    if out:
        return out
    try:
        doc = json.loads(text)
        q, r_s = int(opt["--q"]), int(opt["--r-s"]) % int(opt["--q"])
        times = [float(t) for t in opt["--t"].split(",")] if "--t" in opt else None
        if command == "spectrum":
            check_spectrum(q, r_s, doc["data"], reference, out)
        elif command == "spherical":
            check_spherical(q, r_s, doc["data"], reference, out)
        elif command == "heat":
            check_heat(q, r_s, times, doc["data"], reference, out)
        elif command == "theta":
            check_theta(q, r_s, times, doc["data"], reference, out)
        else:
            out.append(f"no check for command {command!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return out
