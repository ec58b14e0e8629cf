"""Command-line front end.

Subcommands: decompose | h2 | resistance | optimize | check. Exit codes: 0 on success,
1 on a usage error, a ``check --tol`` that is not a non-negative number, validation failure
or when a descent step's box projection does not converge, 2 when ``decompose`` meets a
graph that is not series-parallel (``check``, ``optimize`` and every ``h2`` method solve any).
"""

import argparse
import json
import sys

import numpy as np

from . import electrical
from .errors import NotSeriesParallelError, ProjectionError
from .fileio import load_config, load_graph, load_tree, weights_to_dict, write_trajectory_csv
from .graph import validate_consensus
from .h2 import CompositionalProvider, compositional_h2, dense_h2, dense_provider
from .optimize import edge_gradients, optimize_weights
from .sptree import reduce_sources, to_json


def _emit(data, out_path):
    text = json.dumps(data, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args):
    g = load_graph(args.graph)
    ground = validate_consensus(g).leaders if args.sink is None else {args.sink}
    tree = reduce_sources(g, (args.source,), ground).tree(g.weights)
    _emit(to_json(tree), args.out)
    return 0


def _cmd_h2(args):
    g = load_graph(args.graph)
    validate_consensus(g)
    report = dense_h2(g) if args.method == "oracle" else compositional_h2(g, method=args.method)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_resistance(args):
    g = load_graph(args.graph)
    tree = load_tree(args.tree, g)
    names = ("resistance", "current", "voltage")
    blocks = zip(*electrical.solve_tree(tree))  # (R, I, V) of each subtree, in pre-order
    out = {str(i): {n: a.tolist() for n, a in zip(names, b)} for i, b in enumerate(blocks)}
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


def _rel_err(a, b, block_ndim=2):
    """Largest relative error; each block of the last ``block_ndim`` axes is scaled by its largest entry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    axes = tuple(range(-min(block_ndim, a.ndim), 0))
    scale = np.maximum(np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)), 1e-30)
    return float(np.max(np.abs(a - b).max(axis=axes) / scale, initial=0.0))


def _kirchhoff(g, q):
    """(Net current sum_e +-W_e Q_e leaving each follower along its edges,
    what Kirchhoff's current law asks there: +I at the source, 0 elsewhere),
    each (S, followers, k, k), from a provider's Q stack."""
    flows = g.weights @ q
    net, want = np.zeros((2, len(q), len(g.nodes), g.k, g.k))
    np.add.at(net, (slice(None), g.ends[:, 0]), flows)
    np.subtract.at(net, (slice(None), g.ends[:, 1]), flows)
    want[range(len(q)), [g.index[s] for s in g.sources]] = np.eye(g.k)
    followers = [g.index[node] for node in g.followers]
    return net[:, followers], want[:, followers]


def _energies(g, q):
    """Energy sum_e Q_e^T W_e Q_e of each source, (S, k, k); by Tellegen's
    theorem it is the source's own block Y_s^s, its root resistance."""
    return (q.swapaxes(-1, -2) @ g.weights @ q).sum(axis=1)


def _cmd_check(args):
    """Judge the compositional (h2, q) by the graph's laws and the dense provider's."""
    if not args.tol >= 0:  # NaN too
        raise ValueError(f"--tol must be a non-negative number, not {args.tol}")
    g = load_graph(args.graph)
    validate_consensus(g)
    comp_h2, comp_q = CompositionalProvider(g)(g)
    oracle_h2, dense_q = dense_provider(g)
    errors = {
        "h2_total": _rel_err(sum(comp_h2.values()), sum(oracle_h2.values())),
        "root_resistance": _rel_err(_energies(g, comp_q), _energies(g, dense_q)),
        # Scaled per source: a long ladder's far Q blocks sit below the dense solve's roundoff.
        "leaf_voltages": _rel_err(comp_q, dense_q, block_ndim=3),
        "flow_conservation": _rel_err(*_kirchhoff(g, comp_q), block_ndim=3),
        "gradients": _rel_err(edge_gradients(comp_q), edge_gradients(dense_q), block_ndim=3),
    }
    max_err = max(errors.values())
    result = {"errors": errors, "max_relative_error": max_err, "tolerance": args.tol}
    result["ok"] = max_err <= args.tol
    _emit(result, args.out)
    return 0 if result["ok"] else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: ``run`` prints it as one error line and exits 1
        raise ValueError(message)


def build_parser():
    p = _Parser(
        prog="spnet",
        description="Compositional H2 analysis and adaptive re-weighting of "
        "matrix-weighted series-parallel consensus networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a graph into a series-parallel tree")
    d.add_argument("--graph", required=True)
    d.add_argument("--source", required=True)
    d.add_argument("--sink", default=None, help="defaults to the leaders, grounded as one node")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotSeriesParallelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProjectionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
