"""Tracing launcher and span aggregation for the per-layer metrics.

As a script it runs one fuhp CLI call in this process with every public
function of every fuhp module wrapped in a span, plus `UhpGraph.adjacency_eigh`
and numpy's dense eigensolvers, and writes the spans when the call ends:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- heat --q 5 --r-s 1

Every binding of a wrapped function is replaced, including the copies that
`from .x import y` puts into other modules (heat_kernel_oracle is called
through cli, theta and verify), so no call path is missed.

Spans are kept in memory as a tree keyed by call path: each node has a parent
id, a call count, its seconds and the seconds of its child spans, and the
notes a probe reads off each call (matrix order, graph key, check counts,
bytes written). One node per call path, rather than one record per call,
keeps the cost bounded: `verify --q 17` makes about 2.8 million calls into
the field and character arithmetic. The tree is written when the call ends.

`layer_metrics` turns the trees of one pass into the metrics of PER_LAYER.
Self time is a span's time minus that of its child spans (calls in one
thread nest, so children never overlap). Times are reported as percentages
of `cli.main.s`, the pass's in-process seconds: a layer that a workload
never enters then reads 0% as a share, not a constant time, and shares do
not drift with the machine's speed. Seconds are share * cli.main.s / 100.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

FUHP_MODULES = ("field", "uhp", "characters", "spherical", "heat", "theta", "verify", "export",
                "cli")
VERIFY_GROUPS = ("field_checks", "character_checks", "graph_checks", "spherical_checks",
                 "formula_match_checks", "heat_checks", "lift_checks", "theta_checks")
CLI_COMMANDS = ("spectrum", "spherical", "heat", "theta", "verify")


def _matrix_order(args, result):
    return int(args[0].shape[0])


def _graph_key(args, result):
    return [result.ctx.q, result.ctx.delta, result.r_s, result.n]


def _battery_counts(args, result):
    return [len(result), sum(r.fatal for r in result),
            sum(not r.passed and r.finding_only for r in result)]


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


PROBES = {
    "uhp.build_graph": _graph_key,
    "spherical.radial_eigenbasis": lambda args, result: bool(result.is_complete),
    "verify.run_battery": _battery_counts,
    "export.dumps_json": _text_bytes,
    "export.dumps_csv": _text_bytes,
}


class Recorder:
    """Collects the span tree in memory; `wrap` returns the traced version of a function.

    Node 0 is the root. Node i is [parent id, name index, calls, seconds,
    seconds in child spans, notes]: every call of one function from one call
    path adds to the same node.
    """

    def __init__(self):
        self.names = []
        self.nodes = [[-1, -1, 0, 0.0, 0.0, None]]
        self.node_of = {}
        self.stack = [0]

    def wrap(self, name, fn, probe=None):
        index = len(self.names)
        self.names.append(name)
        nodes, node_of, stack, clock = self.nodes, self.node_of, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node_id = node_of.get((parent, index))
            if node_id is None:
                node_id = node_of[parent, index] = len(nodes)
                nodes.append([parent, index, 0, 0.0, 0.0, [] if probe else None])
            stack.append(node_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                node = nodes[node_id]
                node[2] += 1
                node[3] += seconds
                nodes[parent][4] += seconds
            if probe is not None:
                node[5].append(probe(args, result))
            return result

        return traced


def install(recorder):
    """Wrap the public functions of every fuhp module and patch every binding of them."""
    # imported here: run.py imports this module for layer_metrics only
    import numpy as np

    import fuhp

    modules = [importlib.import_module(f"fuhp.{m}") for m in FUHP_MODULES]
    traced = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                traced[obj] = recorder.wrap(f"{layer}.{name}", obj, PROBES.get(f"{layer}.{name}"))
    for mod in (fuhp, *modules):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in traced:
                setattr(mod, name, traced[obj])
    graph_cls = importlib.import_module("fuhp.uhp").UhpGraph
    graph_cls.adjacency_eigh = recorder.wrap("uhp.adjacency_eigh", graph_cls.adjacency_eigh)
    np.linalg.eigh = recorder.wrap("numpy_linalg.eigh", np.linalg.eigh, _matrix_order)
    np.linalg.eigvalsh = recorder.wrap("numpy_linalg.eigvalsh", np.linalg.eigvalsh, _matrix_order)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- FUHP-ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)
    from fuhp import cli

    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"names": recorder.names, "nodes": recorder.nodes}, fh)


def _metric_list():
    count, pct = "count", "%"
    out = [
        ("numpy_linalg.eigh.calls", count), ("numpy_linalg.eigh.self_pct", pct),
        ("numpy_linalg.eigh.n3", count),
        ("numpy_linalg.eigvalsh.calls", count), ("numpy_linalg.eigvalsh.self_pct", pct),
        ("uhp.build_graph.calls", count), ("uhp.build_graph.self_pct", pct),
        ("uhp.adjacency_eigh.calls", count), ("uhp.dense_bytes", "B"),
        ("uhp.graph_reuse", "ratio"), ("uhp.sphere.calls", count),
        ("uhp.orbit_decomposition.self_pct", pct),
        ("spherical.radial_eigenbasis.calls", count), ("spherical.radial_eigenbasis.self_pct", pct),
        ("spherical.first_complete_radius.calls", count), ("spherical.complete_ratio", "ratio"),
        ("spherical.match_formulas_to_oracle.calls", count),
        ("spherical.match_formulas_to_oracle.self_pct", pct),
        ("spherical.principal_spherical.calls", count),
        ("spherical.cuspidal_spherical.calls", count),
        ("spherical.cuspidal_spherical.self_pct", pct),
        ("heat.heat_kernel_oracle.calls", count), ("heat.heat_kernel_oracle.self_pct", pct),
        ("heat.heat_kernel_spectral.self_pct", pct), ("heat.initial_condition_check.self_pct", pct),
        ("heat.method_of_images_check.self_pct", pct), ("heat.build_group_graph.self_pct", pct),
        ("theta.theta_consistency_report.self_pct", pct),
        ("theta.finite_theta.calls", count), ("theta.finite_theta.self_pct", pct),
        ("theta.index_sets.calls", count), ("theta.index_sets.self_pct", pct),
        ("characters.beta.calls", count), ("characters.nu.calls", count),
        ("characters.nu0.calls", count),
        ("characters.character_orthogonality_check.self_pct", pct),
        ("field.field_context.calls", count), ("field.field_context.self_pct", pct),
        ("field.ext_pow.calls", count), ("field.norm_one_subgroup.calls", count),
    ]
    out += [(f"verify.{group}.self_pct", pct) for group in VERIFY_GROUPS]
    out += [("verify.checks", count), ("verify.checks_failed", count),
            ("verify.findings", count)]
    out += [("export.dumps_json.self_pct", pct), ("export.dumps_csv.self_pct", pct),
            ("export.bytes_out", "B")]
    out += [("cli.main.s", "s")]
    out += [(f"cli.{command}.pct", pct) for command in CLI_COMMANDS]
    out += [(f"{layer}.self_pct", pct) for layer in ("numpy_linalg", *FUHP_MODULES)]
    return out


PER_LAYER = _metric_list()


def layer_metrics(docs):
    """PER_LAYER values for one pass, given the span tree of each operation."""
    calls, total, own, layer_own = Counter(), Counter(), Counter(), Counter()
    notes = defaultdict(list)
    distinct_graphs = 0
    for doc in docs:
        names = doc["names"]
        for _, index, count, seconds, in_children, node_notes in doc["nodes"][1:]:
            name = names[index]
            calls[name] += count
            total[name] += seconds
            own[name] += seconds - in_children
            layer_own[name.split(".", 1)[0]] += seconds - in_children
            notes[name] += node_notes or []
        # a graph can only be reused within the process that built it
        graphs = [node[5] for node in doc["nodes"][1:] if names[node[1]] == "uhp.build_graph"]
        distinct_graphs += len({tuple(key[:3]) for keys in graphs for key in keys})

    def ratio(num, den):
        return num / den if den else 1.0

    in_process = total["cli.main"]

    def share(seconds):
        return 100.0 * seconds / in_process if in_process else 0.0

    values = {}
    for name, _ in PER_LAYER:
        what, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[what]
        elif stat == "self_pct":
            values[name] = share(own[what] if "." in what else layer_own[what])
    built = notes["uhp.build_graph"]
    battery = [sum(col) for col in zip(*notes["verify.run_battery"])] or [0, 0, 0]
    values.update({
        "numpy_linalg.eigh.n3": sum(n ** 3 for n in notes["numpy_linalg.eigh"]),
        "uhp.dense_bytes": sum(8 * k[3] ** 2 for k in built),
        "uhp.graph_reuse": ratio(distinct_graphs, len(built)),
        "spherical.complete_ratio": ratio(sum(notes["spherical.radial_eigenbasis"]),
                                          len(notes["spherical.radial_eigenbasis"])),
        "verify.checks": battery[0],
        "verify.checks_failed": battery[1],
        "verify.findings": battery[2],
        "export.bytes_out": sum(notes["export.dumps_json"]) + sum(notes["export.dumps_csv"]),
    })
    values["cli.main.s"] = in_process
    values.update({f"cli.{c}.pct": share(total[f"cli.cmd_{c}"]) for c in CLI_COMMANDS})
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
