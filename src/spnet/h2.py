"""H2 performance of leader-follower consensus networks.

Three routes to the squared norm: the exact compositional value, half the trace of each source's
root resistance from one shared reduction and one terminal-skeleton solve (``electrical.skeleton_solve``);
a scalar upper bound, the same solve on the scalar conductances 1 / tr W_e^-1; and a dense oracle, one solve
of the Dirichlet Laplacian, which nothing else factors. The scalar series and parallel rules are the
resistor rules, so the bound is an effective resistance, and it stays an upper bound on a network that
is not series-parallel by Thomson's principle (Doyle & Snell 1984). All three reject a graph with no
leader or with a node that reaches none, by one rule (``graph.check_leaders``, ``graph.check_reach``).
Of a hand-built tree, ``h2_scalar_bound`` folds the bound; its exact value is half the trace of the
root resistance ``electrical.solve_tree`` returns.

A voltage provider is a callable ``provider(g) -> (h2, q)``: from one
electrical pass it returns the per-source squared norm ``h2[s]`` and one
(S, m, k, k) stack ``q`` of voltage drops, ``q[c, j] = Y_tail - Y_head`` of
edge ``g.edges[j]`` in its stored orientation under the c-th source of
``h2``'s keys. ``CompositionalProvider`` sweeps one shared series-parallel
reduction and solves the terminal skeleton it leaves, SP or not, once for
all sources; ``dense_provider`` solves the whole Dirichlet system once for all.
Both ground the leaders by index, on ``g`` itself: no grounded copy is built.
"""

from dataclasses import dataclass

import numpy as np

from . import electrical
from .errors import GraphValidationError
from .graph import check_leaders, check_reach, dirichlet_laplacian
from .sptree import flatten, reduce_sources


@dataclass(frozen=True)
class H2Report:
    per_source: dict  # source id -> squared contribution
    total: float
    method: str  # exact-compositional | scalar-bound | dense-oracle

    def to_dict(self):
        return {
            "total_h2_squared": self.total,
            "per_source": dict(self.per_source),
            "method": self.method,
        }


def h2_series_compose(a, b):
    """Series rule: squared norms add exactly."""
    _check_positive(a, b)
    return a + b


def h2_parallel_compose(a, b):
    """Parallel rule: scalar parallel sum; an upper bound on the join's value."""
    _check_positive(a, b)
    return a * b / (a + b)


def _check_positive(a, b):
    if a <= 0 or b <= 0:
        raise ValueError("compositional H2 values must be positive")


def h2_scalar_bound(t):
    """Fold the scalar composition rules over a tree.

    Always an upper bound on the exact squared norm; tight whenever all
    subtree resistances met at parallel joins are pairwise proportional,
    in particular for k = 1 and for series-only trees.
    """
    program, _ = flatten(t)
    leaf_r = electrical.leaf_resistances([lf.weight for lf in program.edges])
    return program.fold(0.5 * np.trace(leaf_r, axis1=1, axis2=2), h2_series_compose, h2_parallel_compose)


def _check_terminals(g):
    """Refuse a graph with no leader, then one with no source: every H2 route checks in this order."""
    check_leaders(g)
    if not g.sources:
        raise GraphValidationError("graph has no source nodes")


def _reduced(g, sources):
    """The ``ArcProgram`` of ``g`` from ``sources`` to its leaders, grounded as one sink; a GraphValidationError
    names the first skeleton node cut off from the sink, an edgeless node included (kept, with no arc)."""
    _check_terminals(g)
    program = reduce_sources(g, sources, g.leaders)
    check_reach(program.ends.tolist(), program.nodes, len(program.nodes) - 1)  # the sink is the last node
    return program


def source_trees(g):
    """Every source's tree to the grounded leaders, keyed by source id, each
    from its own one-source reduction; leaves name the leaders as endpoints.
    Raises NotSeriesParallelError if the network is not TTSP from some source.
    """
    _check_terminals(g)
    return {s: _reduced(g, (s,)).tree(g.weights) for s in g.sources}


def compositional_h2(g, method="exact"):
    """Compositional squared norm, no tree built, on any network ``CompositionalProvider``
    takes: H2^2(s) = tr Y_s^s / 2 from one ``electrical.skeleton_solve``. Exact
    solves with the edges' W; the bound with their scalar conductances
    1 / tr W^-1 (k = 1), the effective resistance of the paper's scalar rules."""
    if method not in ("exact", "bound"):
        raise ValueError(f"unknown compositional method {method!r}")
    program = _reduced(g, g.sources)
    weights = g.weights
    if method == "bound":
        weights = 1.0 / np.trace(electrical.leaf_resistances(weights), axis1=1, axis2=2)[:, None, None]
    *_, y = electrical.skeleton_solve(program, weights)
    c = np.arange(len(program.sources))
    per_source = dict(zip(program.sources, (0.5 * np.trace(y[c, c], axis1=1, axis2=2)).tolist()))
    name = "exact-compositional" if method == "exact" else "scalar-bound"
    return H2Report(per_source=per_source, total=sum(per_source.values()), method=name)


def dense_h2(g):
    """Dense oracle: half the trace of each source's own block Y_s^s."""
    per_source, _ = dense_provider(g)
    return H2Report(per_source=per_source, total=sum(per_source.values()), method="dense-oracle")


def dense_solve(g, sources):
    """Y_i^s of every node for several sources from one Dirichlet build and one multi-column solve: an
    (S, len(g.nodes), k, k) stack over ``g.nodes``, zero at the leaders (their drop vanishes by construction)."""
    dl = dirichlet_laplacian(g)
    k, f, n = g.k, len(dl.follower_order), len(sources)
    rhs = np.zeros((f, k, n, k))
    row = {node: i for i, node in enumerate(dl.follower_order)}
    rhs[[row[s] for s in sources], :, range(n)] = np.eye(k)
    x = np.linalg.solve(dl.matrix, rhs.reshape(f * k, n * k)).reshape(f, k, n, k)
    ys = np.zeros((n, len(g.nodes), k, k))
    ys[:, [g.index[node] for node in dl.follower_order]] = x.transpose(2, 0, 1, 3)
    return ys


def dense_provider(g):
    """Voltage provider backed by one Dirichlet solve for every source."""
    _check_terminals(g)
    ys = dense_solve(g, g.sources)
    h2 = {s: 0.5 * float(np.trace(y[g.index[s]])) for s, y in zip(g.sources, ys)}
    return h2, ys[:, g.ends[:, 0]] - ys[:, g.ends[:, 1]]


class CompositionalProvider:
    """Voltage provider backed by one shared series-parallel reduction, made
    here; each call takes the weights from a graph with the same edges (ids
    and ends) in the same order (a ValueError otherwise) and runs
    ``electrical.solve_sources``. No tree is built, so it solves any network
    whose skeleton reaches the grounded leaders and whose every node has an
    edge (a GraphValidationError otherwise): a core that is not
    series-parallel is only a bigger skeleton. A leader-leader edge, which
    no join takes, gets Q = 0.
    """

    def __init__(self, g):
        self.program = _reduced(g, g.sources)

    def __call__(self, g):
        if g.edges != self.program.edges:
            raise ValueError("graph edges differ from the ones the reduction was made for")
        sweeps = electrical.solve_sources(self.program, g.weights)
        h2 = dict(zip(self.program.sources, (0.5 * np.trace(sweeps.roots, axis1=1, axis2=2)).tolist()))
        return h2, sweeps.voltage.swapaxes(0, 1)


def lyapunov_residual(g):
    """Frobenius residual of the candidate Gramian P = A^-1 / 2.

    The squared norm equals Tr(B^T P B) with P solving
    -A P - P A^T + I = 0; this evaluates that equation's residual directly.
    """
    a = dirichlet_laplacian(g).matrix
    p = 0.5 * np.linalg.inv(a)
    return float(np.linalg.norm(-a @ p - p @ a.T + np.eye(len(a)), "fro"))
