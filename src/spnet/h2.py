"""H2 performance of leader-follower consensus networks.

Three routes to the squared norm: the exact compositional value read off a
decomposition tree per source (half the trace of the root effective
resistance), a scalar compositional upper bound that folds scalar
series/parallel rules over the tree, and a dense oracle that inverts the
Dirichlet Laplacian directly and works on any connected graph, SP or not.

A voltage provider is a callable ``provider(g) -> (h2, q)``: from one
electrical pass it returns the per-source squared norm ``h2[s]`` and every
edge's voltage drop ``q[s][edge id] = Y_tail - Y_head`` in its stored
orientation. ``CompositionalProvider`` solves each source tree once;
``dense_provider`` solves the Dirichlet system once for all sources.
"""

from dataclasses import dataclass

import numpy as np

from . import electrical, matlin
from .errors import GraphValidationError
from .graph import dirichlet_laplacian, ground_leaders
from .sptree import Leaf, Parallel, Series, leaves, recognize


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


def h2_exact_single_source(t):
    """Exact squared norm for one source: half the trace of the root resistance."""
    res = electrical.effective_resistance(t)
    return 0.5 * float(np.trace(res[0]))


def h2_exact_aittsp(trees):
    """Sum of per-source exact values, one decomposition tree per source."""
    per_source = {s: h2_exact_single_source(t) for s, t in trees.items()}
    return H2Report(per_source=per_source, total=sum(per_source.values()), method="exact-compositional")


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
    if isinstance(t, Leaf):
        return 0.5 * float(np.trace(matlin.pinv(t.weight)))
    a = h2_scalar_bound(t.left)
    b = h2_scalar_bound(t.right)
    return h2_series_compose(a, b) if isinstance(t, Series) else h2_parallel_compose(a, b)


def source_trees(g):
    """Ground the leaders and decompose the quotient from every source.

    Returns (trees keyed by source id, grounded graph, sink id). Raises
    NotSeriesParallelError if the grounded graph is not TTSP from some
    source.
    """
    gg, sink = ground_leaders(g)
    if not gg.sources:
        raise GraphValidationError("graph has no source nodes")
    trees = {s: recognize(gg, s, sink) for s in gg.sources}
    return trees, gg, sink


def compositional_h2(g, method="exact"):
    """Compositional squared norm of a consensus network (exact or bound)."""
    trees, _, _ = source_trees(g)
    if method == "exact":
        return h2_exact_aittsp(trees)
    if method == "bound":
        per_source = {s: h2_scalar_bound(t) for s, t in trees.items()}
        return H2Report(per_source=per_source, total=sum(per_source.values()), method="scalar-bound")
    raise ValueError(f"unknown compositional method {method!r}")


def dense_h2(g):
    """Dense oracle: half the trace of the source blocks of A(W)^-1."""
    if not g.sources:
        raise GraphValidationError("graph has no source nodes")
    dl = dirichlet_laplacian(g)
    a_inv = np.linalg.inv(dl.matrix)
    k = g.k
    per_source = {}
    for s in g.sources:
        i = dl.follower_order.index(s)
        per_source[s] = 0.5 * float(np.trace(a_inv[k * i : k * i + k, k * i : k * i + k]))
    return H2Report(per_source=per_source, total=sum(per_source.values()), method="dense-oracle")


def _dense_solve(g, sources):
    """``dense_voltages`` for several sources from one multi-column solve."""
    dl = dirichlet_laplacian(g)
    k = g.k
    rhs = np.zeros((dl.matrix.shape[0], k * len(sources)))
    for c, s in enumerate(sources):
        i = dl.follower_order.index(s)
        rhs[k * i : k * i + k, k * c : k * c + k] = np.eye(k)
    x = np.linalg.solve(dl.matrix, rhs)
    out = {}
    for c, s in enumerate(sources):
        y = {node: x[k * j : k * j + k, k * c : k * c + k] for j, node in enumerate(dl.follower_order)}
        y.update((leader, np.zeros((k, k))) for leader in g.leaders)
        out[s] = y
    return out


def dense_voltages(g, source):
    """Voltage drop Y_i^s of every node to the grounded leader set.

    Solves A(W) x = e_s (x) I_k and extracts the k x k blocks; leader
    nodes get a zero block (their drop vanishes by construction).
    """
    if source in g.leaders:
        raise GraphValidationError(f"source {source!r} is a leader node")
    return _dense_solve(g, [source])[source]


def dense_provider(g):
    """Voltage provider backed by one Dirichlet solve for every source."""
    if not g.sources:
        raise GraphValidationError("graph has no source nodes")
    ys = _dense_solve(g, g.sources)
    h2 = {s: 0.5 * float(np.trace(y[s])) for s, y in ys.items()}
    q = {s: {e.id: y[e.tail] - y[e.head] for e in g.edges} for s, y in ys.items()}
    return h2, q


def _retree(t, weights):
    """Copy of a tree with leaf weights replaced from a mapping by edge id."""
    if isinstance(t, Leaf):
        w = weights.get(t.edge)
        return t if w is None else Leaf(t.edge, w, t.tail, t.head)
    cls = Series if isinstance(t, Series) else Parallel
    return cls(_retree(t.left, weights), _retree(t.right, weights))


class CompositionalProvider:
    """Voltage provider backed by one electrical solve per source tree.

    Trees are recognized once (or passed in as ``source_trees(g)``); each
    call takes the leaf weights from a graph of the same structure.
    """

    def __init__(self, g, recognized=None):
        self.trees, gg, _ = source_trees(g) if recognized is None else recognized
        tails = {e.id: e.tail for e in gg.edges}
        # Leaves recognized head -> tail relative to their stored edge.
        self._reversed = {
            s: {lf.edge for lf in leaves(t) if lf.tail != tails[lf.edge]}
            for s, t in self.trees.items()
        }

    def solutions(self, g):
        """Electrical solution of every source tree under ``g``'s weights."""
        weights = {e.id: e.weight for e in g.edges}
        return {
            s: electrical.solve_tree(_retree(t, weights), source=s)
            for s, t in self.trees.items()
        }

    def read(self, solutions):
        """(h2, q) from the solutions; q turned to each edge's stored orientation."""
        h2 = {s: 0.5 * float(np.trace(sol.resistance[0])) for s, sol in solutions.items()}
        q = {
            s: {
                eid: -sol.leaf_voltage(eid) if eid in self._reversed[s] else sol.leaf_voltage(eid)
                for eid in sol.leaf_index
            }
            for s, sol in solutions.items()
        }
        return h2, q

    def __call__(self, g):
        return self.read(self.solutions(g))


def lyapunov_residual(g):
    """Frobenius residual of the candidate Gramian P = A^-1 / 2.

    The squared norm equals Tr(B^T P B) with P solving
    -A P - P A^T + I = 0; this evaluates that equation's residual directly.
    """
    dl = dirichlet_laplacian(g)
    a = dl.matrix
    p = 0.5 * np.linalg.inv(a)
    n = a.shape[0]
    return float(np.linalg.norm(-a @ p - p @ a.T + np.eye(n), "fro"))
