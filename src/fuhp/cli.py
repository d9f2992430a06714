"""Command-line front end.

Subcommands: info, graph, spectrum, spherical, heat, theta, verify. All
output is deterministic (identical invocations give byte-identical files)
and every document embeds the resolved configuration plus the artifact
version. Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

import argparse
import atexit
import gc
import os
import sys

import numpy as np

from . import __version__
from .export import dumps_csv, dumps_json, format_float
from .field import field_context, find_nonsquare
from .heat import heat_kernel_affine, heat_kernel_spectral
from .spherical import spherical_table
from .theta import classical_theta, theta_consistency_report
from .uhp import build_graph, degenerate_radii, orbit_sizes, radii_order, scheme
from .verify import run_battery

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2

DEFAULT_MAX_Q = 101
# The CSV adjacency is n x n by definition, and writing it holds every cell in
# Python row lists and text: about 16 bytes per cell at the peak (measured
# 154 MB at q=53, 7.6e6 cells, and 245 MB at q=61, 1.3e7 cells, each with
# about 35 MB of interpreter). The cap of 1.6e7 cells (q <= 61) keeps it near
# 300 MB; q=101 (1.0e8 cells) would need about 1.7 GB.
MAX_CSV_ADJACENCY_CELLS = 16_000_000


def _max_q():
    raw = os.environ.get("FUHP_MAX_Q", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_Q
    except ValueError:
        raise ValueError(f"FUHP_MAX_Q must be an integer, got {raw!r}")


def _resolve_ctx(args):
    q = args.q
    if q > _max_q():
        raise ValueError(f"q={q} exceeds FUHP_MAX_Q={_max_q()}")
    try:
        delta = None if args.delta == "auto" else int(args.delta)
    except ValueError:
        raise ValueError(f"--delta expects an integer non-square or 'auto', got {args.delta!r}")
    return field_context(q, delta)


def _config_doc(ctx, args, r_s=None, extra=None):
    cfg = {
        "q": ctx.q,
        "delta": ctx.delta,
        "delta_requested": args.delta,
    }
    if r_s is not None:
        cfg["r_s"] = r_s
    if getattr(args, "t", None) is not None:
        cfg["t_grid"] = _parse_t(args.t)
    cfg.update(extra or {})
    return cfg


def _parse_t(text):
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--t expects a comma-separated list of times, got {text!r}")


def _radii_arg(ctx, r_s):
    """Resolve --r-s: a single regular radius, or every one for 'all-regular'."""
    if r_s == "all-regular":
        return radii_order(ctx)[2:]
    try:
        return [int(r_s) % ctx.q]
    except (TypeError, ValueError):
        raise ValueError(f"--r-s expects an integer radius or 'all-regular', got {r_s!r}")


def _emit(args, doc, csv_maker):
    """Write the document in the requested format to --out (default stdout)."""
    if args.format == "json":
        text = dumps_json(doc)
    else:
        header, rows = csv_maker(doc)
        text = dumps_csv(header, rows, preamble={"config": doc["config"], "version": doc["version"]})
    _write(args, text)


def _write(args, text):
    """Write text to --out (default stdout)."""
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _document(config, data):
    return {"config": config, "version": __version__, "data": data}


def cmd_info(args):
    ctx = _resolve_ctx(args)
    deg0, deg1 = degenerate_radii(ctx)
    data = {
        "q": ctx.q,
        "delta": ctx.delta,
        "base_generator": ctx.g,
        "extension_generator": [ctx.zeta.a, ctx.zeta.b],
        "smallest_nonsquare": find_nonsquare(ctx.q),
        "vertices": ctx.q * (ctx.q - 1),
        "degenerate_radii": [deg0, deg1],
        "orbit_sizes": {str(r): s for r, s in sorted(orbit_sizes(ctx).items())},
    }
    doc = _document(_config_doc(ctx, args), data)

    def csv_maker(doc):
        rows = []
        for k, v in doc["data"].items():
            if isinstance(v, dict):
                continue
            rows.append([k, " ".join(str(x) for x in v) if isinstance(v, list) else v])
        rows += [[f"orbit_size_r{r}", s] for r, s in sorted(doc["data"]["orbit_sizes"].items())]
        return ["key", "value"], rows

    _emit(args, doc, csv_maker)
    return EXIT_OK


def cmd_graph(args):
    ctx = _resolve_ctx(args)
    if args.r_s == "all-regular":
        raise ValueError("graph export needs a single radius; 'all-regular' applies elsewhere")
    (r_s,) = _radii_arg(ctx, args.r_s)
    n = ctx.q * (ctx.q - 1)
    if args.format == "csv" and n * n > MAX_CSV_ADJACENCY_CELLS:
        raise ValueError(
            f"the CSV adjacency at q={ctx.q} has {n * n} cells, above the cap of "
            f"{MAX_CSV_ADJACENCY_CELLS}; use --format json (an edge list)"
        )
    graph = build_graph(ctx, r_s)
    # sorted rows read in row-major order list each edge once as (i, j), i < j, ascending
    nbrs = np.sort(graph.neighbors, axis=1)
    i, k = np.nonzero(nbrs > np.arange(n)[:, None])
    data = {
        "vertices": np.stack([scheme(ctx).x, scheme(ctx).y], axis=1).tolist(),
        "edges": np.stack([i, nbrs[i, k]], axis=1).tolist(),
        "degree": ctx.q + 1,
    }
    doc = _document(_config_doc(ctx, args, r_s=r_s), data)

    def csv_maker(doc):
        header = ["vertex"] + [f"v{j}" for j in range(n)]
        rows = [[f"v{i}"] + [int(x) for x in graph.adjacency[i]] for i in range(n)]
        return header, rows

    _emit(args, doc, csv_maker)
    return EXIT_OK


def _emit_runs(ctx, args, blocks, header, csv_rows):
    """Emit one radius's block as is, or an 'all-regular' sweep as runs with an r_s column."""
    single = len(blocks) == 1
    data = blocks[0] if single else {"runs": blocks}
    doc = _document(_config_doc(ctx, args, r_s=blocks[0]["r_s"] if single else "all-regular"), data)

    def csv_maker(doc):
        prefix = [] if single else ["r_s"]
        return prefix + header, [
            ([] if single else [b["r_s"]]) + row for b in blocks for row in csv_rows(b)
        ]

    _emit(args, doc, csv_maker)
    return EXIT_OK


def _spectrum_block(ctx, r_s):
    table = spherical_table(ctx, r_s)
    clustered = table.spectrum()
    return {
        "r_s": r_s,
        "adjacency_spectrum": [
            float(a) for a, d in zip(table.adjacency_eigenvalues, table.degrees) for _ in range(d)
        ],
        "eigenvalues": [c[0] for c in clustered],
        "multiplicities": [c[1] for c in clustered],
        "laplacian_eigenvalues": [float(ctx.q + 1 - c[0]) for c in clustered],
    }


def cmd_spectrum(args):
    ctx = _resolve_ctx(args)
    blocks = [_spectrum_block(ctx, r) for r in _radii_arg(ctx, args.r_s)]
    keys = ["eigenvalues", "multiplicities", "laplacian_eigenvalues"]
    return _emit_runs(ctx, args, blocks,
                      ["adjacency_eigenvalue", "multiplicity", "laplacian_eigenvalue"],
                      lambda b: [list(row) for row in zip(*(b[k] for k in keys))])


def _spherical_block(ctx, r_s):
    table = spherical_table(ctx, r_s)
    radii = radii_order(ctx)  # the output order of every radius-indexed array
    return {
        "r_s": r_s,
        "radii": radii,
        "orbit_sizes": table.orbit_sizes[radii].tolist(),
        "rows": [
            {
                "index": i,
                "degree": int(table.degrees[i]),
                "adjacency_eigenvalue": float(table.adjacency_eigenvalues[i]),
                "laplacian_eigenvalue": float(table.laplacian_eigenvalues[i]),
                "omega": omega,
            }
            for i, omega in enumerate(table.omega[:, radii].tolist())
        ],
        "complete": table.is_complete,
    }


def cmd_spherical(args):
    ctx = _resolve_ctx(args)
    blocks = [_spherical_block(ctx, r) for r in _radii_arg(ctx, args.r_s)]
    fields = ["index", "degree", "adjacency_eigenvalue", "laplacian_eigenvalue"]
    # radius order is shared across generating radii
    header = ["row"] + fields[1:] + [f"omega_r{r}" for r in blocks[0]["radii"]]
    return _emit_runs(ctx, args, blocks, header,
                      lambda b: [[row[k] for k in fields] + row["omega"] for row in b["rows"]])


def cmd_heat(args):
    ctx = _resolve_ctx(args)
    t_grid = _parse_t(args.t)
    radii = radii_order(ctx)
    blocks = []
    for r_s in _radii_arg(ctx, args.r_s):
        spec = heat_kernel_spectral(spherical_table(ctx, r_s), t_grid)
        oracle = heat_kernel_affine(ctx, r_s, t_grid)
        deviation = np.abs(spec - oracle).max(axis=1)
        series = [
            {"t": t, "values": values, "oracle_deviation": dev}
            for t, values, dev in zip(t_grid, spec[:, radii].tolist(), deviation.tolist())
        ]
        blocks.append({"r_s": r_s, "radii": radii, "series": series})
    header = ["t"] + [f"E_r{r}" for r in radii] + ["oracle_deviation"]
    return _emit_runs(ctx, args, blocks, header,
                      lambda b: [[s["t"]] + s["values"] + [s["oracle_deviation"]] for s in b["series"]])


def cmd_theta(args):
    ctx = _resolve_ctx(args)
    t_grid = _parse_t(args.t)
    if args.classical is not None:
        if not all(0 < t < float("inf") for t in t_grid):
            raise ValueError(f"--t expects positive finite times with --classical, got {args.t!r}")
        # plain decimal text with the stated truncation bound
        lines = []
        for t in t_grid:
            value, bound = classical_theta(args.classical, t, n_max=args.n_max)
            lines.append(
                f"theta({format_float(args.classical)}, {format_float(t)}i) = "
                f"{format_float(value.real)} + {format_float(value.imag)}i "
                f"(truncation bound {format_float(bound)}, n_max={args.n_max})"
            )
        _write(args, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.r_s == "all-regular":
        raise ValueError("theta reports need a single generating radius")
    (r_s,) = _radii_arg(ctx, args.r_s)
    report = theta_consistency_report(ctx, r_s, t_grid, mode=args.mode)
    columns = {"oracle": report.oracle}
    if args.mode in ("reconciled", "both"):
        columns.update(reconciled=report.reconciled, reconciled_deviation=report.reconciled_deviation)
    if args.mode in ("verbatim", "both"):
        columns.update(verbatim=report.verbatim.real, verbatim_imag=np.abs(report.verbatim.imag),
                       verbatim_deviation=report.verbatim_deviation)
    cells = {k: v[:, report.radii].T.tolist() for k, v in columns.items()}  # [radius][time]
    rows_out = [  # r-major, over the audited radii
        {"r": r, "t": t, **{k: cells[k][i][j] for k in columns}}
        for i, r in enumerate(report.radii) for j, t in enumerate(t_grid)
    ]
    data = {"rows": rows_out, "mode": args.mode}
    doc = _document(_config_doc(ctx, args, r_s=r_s, extra={"mode": args.mode}), data)

    def csv_maker(doc):
        return ["r", "t", *columns], [list(row.values()) for row in rows_out]

    _emit(args, doc, csv_maker)
    return EXIT_OK


def _parse_q_list(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--q expects a comma-separated list of primes, got {text!r}")


def cmd_verify(args):
    q_list = _parse_q_list(args.q_list or args.q)
    cap = _max_q()
    for q in q_list:
        if q > cap:
            raise ValueError(f"q={q} exceeds FUHP_MAX_Q={cap}")
        field_context(q)  # validates primality early, exit 2 on bad input
    results = run_battery(q_list, include_lift=args.include_lift)
    fatal = [r for r in results if r.fatal]
    findings = [r for r in results if not r.passed and r.finding_only]
    for r in results:
        status = "PASS" if r.passed else ("FINDING" if r.finding_only else "FAIL")
        print(f"[{status}] {r.name}: {r.detail}")
    print(
        f"{len(results)} checks: {len(results) - len(fatal) - len(findings)} passed, "
        f"{len(findings)} findings, {len(fatal)} failures"
    )
    return EXIT_VERIFY_FAILED if fatal else EXIT_OK


def _add_common(p, with_rs=True, with_t=False):
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--delta", default="auto", help="non-square residue, or 'auto'")
    if with_rs:
        p.add_argument("--r-s", "--r", dest="r_s", default="1",
                       help="generating radius (regular), or 'all-regular'")
    if with_t:
        p.add_argument("--t", default="0,1", help="comma-separated times")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuhp",
        description="Finite upper half-plane graphs: spectra, spherical functions, "
        "heat kernels, finite theta sums, and the verification battery.",
    )
    parser.add_argument("--version", action="version", version=f"fuhp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="resolved field context and orbit structure")
    _add_common(p, with_rs=False)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("graph", help="vertices and edges (JSON) or adjacency (CSV)")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("spectrum", help="adjacency spectrum with multiplicities")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("spherical", help="spherical function table")
    _add_common(p)
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("heat", help="heat kernel time series by radius")
    _add_common(p, with_t=True)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("theta", help="finite theta consistency report")
    _add_common(p, with_t=True)
    p.add_argument("--mode", choices=("verbatim", "reconciled", "both"), default="both")
    p.add_argument("--classical", type=float, default=None, metavar="Z",
                   help="instead: print the classical theta(Z, it) for each time t > 0 as text")
    p.add_argument("--n-max", type=int, default=25, help="classical theta truncation")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--q", default="3,5,7", help="comma-separated q list")
    p.add_argument("--q-list", dest="q_list", default=None, help="alias for --q")
    p.add_argument("--include-lift", action="store_true",
                   help="also verify the subgroup-average lift (q <= 13)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    # At exit, Python's teardown runs full collections over the ~22,000 objects
    # numpy and fuhp leave tracked, as long as a small command takes. atexit
    # handlers run before those collections, and gc.freeze moves every live
    # object to the permanent generation they skip. Nothing here relies on a
    # finalizer at exit; --out is closed by its `with`, the std streams are
    # flushed after atexit, and exit codes are kept. Registered once per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, AssertionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
