"""Command-line front end.

Subcommands: decompose | h2 | resistance | optimize | check. Exit codes:
0 on success, 1 on validation failure, 2 when a graph turns out not to be
series-parallel.
"""

import argparse
import json
import sys

import numpy as np

from . import electrical
from .errors import GraphValidationError, NotSeriesParallelError
from .fileio import (
    load_config,
    load_graph,
    load_tree,
    weights_to_dict,
    write_trajectory_csv,
)
from .graph import ground_leaders, validate_consensus
from .h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_h2,
    dense_provider,
    dense_voltages,
    source_trees,
)
from .optimize import gradient_edge, optimize_weights
from .sptree import Series, recognize, to_json


def _emit(data, out_path):
    text = json.dumps(data, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args):
    g = load_graph(args.graph)
    if args.sink is None:
        validate_consensus(g)
        gg, sink = ground_leaders(g)
    else:
        gg, sink = g, args.sink
    tree = recognize(gg, args.source, sink)
    _emit(to_json(tree), args.out)
    return 0


def _cmd_h2(args):
    g = load_graph(args.graph)
    validate_consensus(g)
    if args.method == "oracle":
        report = dense_h2(g)
    else:
        report = compositional_h2(g, method="exact" if args.method == "exact" else "bound")
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_resistance(args):
    g = load_graph(args.graph)
    tree = load_tree(args.tree, g)
    sol = electrical.solve_tree(tree)
    out = {
        str(i): {
            "resistance": sol.resistance[i].tolist(),
            "current": sol.current[i].tolist(),
            "voltage": sol.voltage[i].tolist(),
        }
        for i in sorted(sol.resistance)
    }
    _emit(out, args.out)
    return 0


def _cmd_optimize(args):
    g = load_graph(args.graph)
    validate_consensus(g)
    cfg = load_config(args.config, g.k)
    traj = optimize_weights(g, cfg)
    with open(args.out, "w", newline="") as f:
        write_trajectory_csv(traj, f)
    result = {
        "converged": traj.converged,
        "iterations": traj.records[-1].iteration,
        "initial_objective": traj.initial_objective,
        "final_objective": traj.final_objective,
        "final_weights": weights_to_dict(traj.final_weights),
    }
    _emit(result, args.weights_out)
    return 0


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return float(np.abs(a - b).max() / scale)


def _cmd_check(args):
    g = load_graph(args.graph)
    validate_consensus(g)
    trees, gg, _ = recognized = source_trees(g)
    comp = CompositionalProvider(g, recognized)
    solutions = comp.solutions(g)
    comp_h2, comp_q = comp.read(solutions)
    _, dense_q = dense_provider(gg)
    errors = {"h2_total": _rel_err(sum(comp_h2.values()), dense_h2(g).total)}

    res_err = volt_err = flow_err = 0.0
    for s, sol in solutions.items():
        cur = sol.current
        res_err = max(res_err, _rel_err(sol.resistance[0], dense_voltages(gg, s)[s]))
        for e in gg.edges:
            volt_err = max(volt_err, _rel_err(comp_q[s][e.id], dense_q[s][e.id]))
        # Flow conservation over the tree sweeps.
        for i, (node, li, ri) in enumerate(electrical.index_tree(trees[s])):
            if li < 0:
                continue
            parts = (cur[li], cur[ri]) if isinstance(node, Series) else (cur[li] + cur[ri],)
            flow_err = max(flow_err, *(_rel_err(p, cur[i]) for p in parts))
    grad_err = max(
        _rel_err(gradient_edge(gg, e.id, comp_q), gradient_edge(gg, e.id, dense_q)) for e in gg.edges
    )
    errors.update(
        root_resistance=res_err, leaf_voltages=volt_err, flow_conservation=flow_err, gradients=grad_err
    )
    max_err = max(errors.values())
    result = {"errors": errors, "max_relative_error": max_err, "tolerance": args.tol}
    result["ok"] = max_err <= args.tol
    _emit(result, args.out)
    return 0 if result["ok"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="spnet",
        description="Compositional H2 analysis and adaptive re-weighting of "
        "matrix-weighted series-parallel consensus networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a graph into a series-parallel tree")
    d.add_argument("--graph", required=True)
    d.add_argument("--source", required=True)
    d.add_argument("--sink", default=None, help="defaults to the grounded leader node")
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_decompose)

    h = sub.add_parser("h2", help="squared H2 norm of a consensus network")
    h.add_argument("--graph", required=True)
    h.add_argument("--method", choices=("exact", "bound", "oracle"), default="exact")
    h.add_argument("--out", default=None)
    h.set_defaults(func=_cmd_h2)

    r = sub.add_parser("resistance", help="electrical annotations of a decomposition tree")
    r.add_argument("--graph", required=True)
    r.add_argument("--tree", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_resistance)

    o = sub.add_parser("optimize", help="projected gradient descent on edge weights")
    o.add_argument("--graph", required=True)
    o.add_argument("--config", required=True)
    o.add_argument("--out", required=True, help="trajectory CSV path")
    o.add_argument("--weights-out", default=None, help="final weights JSON (default stdout)")
    o.set_defaults(func=_cmd_optimize)

    c = sub.add_parser("check", help="compare every compositional path against the dense oracle")
    c.add_argument("--graph", required=True)
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_check)
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSeriesParallelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
