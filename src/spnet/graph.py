"""Matrix-weighted graph model for leader-follower consensus networks.

A graph is a multigraph over string node ids. Edges are topology only; one
(m, k, k) stack ``weights`` holds their strictly positive-definite k x k
conductances. Leaders are the externally controlled nodes; each leader hangs
off the network by a single identity-weight edge whose follower endpoint is a
source node. Weights pass the one strictly-SPD rule, ``matlin.as_symmetric``
then ``matlin.has_cholesky``. The one Laplacian built is the Dirichlet
Laplacian, grounded at the leaders; the dense oracle and provider solve with it.
"""

import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import matlin
from .errors import GraphValidationError

IDENTITY_ATOL = 1e-9


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


@dataclass(frozen=True, eq=False)
class MatrixGraph:
    k: int
    nodes: tuple
    edges: tuple
    weights: np.ndarray  # (m, k, k) strictly SPD conductances; row j is edges[j]'s
    leaders: frozenset = frozenset()
    sources: tuple = ()
    index: dict = field(repr=False, kw_only=True)  # node id -> its position in ``nodes``
    ends: np.ndarray = field(repr=False, kw_only=True)  # (m, 2) intp, C order: edges[j]'s tail and head positions

    @property
    def followers(self):
        return tuple(n for n in self.nodes if n not in self.leaders)


def make_graph(k, nodes, edges, leaders=(), sources=None, weights=None):
    """Assemble and validate a MatrixGraph; the one place a graph is built.

    ``edges`` is an iterable of (id, tail, head, weight) tuples, or of (id,
    tail, head) triples when ``weights`` holds their weights: an (m, k, k)
    float stack, used as it is, or m k x k matrices, stacked once. Every id,
    of a node or an edge, is stored as its string: ``1`` and ``"1"`` are one.
    When ``sources`` is None it is inferred as the follower endpoints of the
    identity-weight leader edges; an explicit list of unique ids overrides
    inference. Each rule runs once over all edges: unique ids, known endpoints,
    no self-loop, weight shapes, finite entries, then symmetry and strict
    definiteness. If one of the first five breaks, ``_first_faulty_edge`` names the edge.
    The graph is numbered here, once, in ``index`` and ``ends``, which the solvers gather through.
    """
    columns = list(zip(*edges, strict=True))
    if weights is None:
        ids, tails, heads, weights = columns or [()] * 4
    else:
        ids, tails, heads = columns or [()] * 3
    nodes = tuple(map(str, nodes))
    index = {v: i for i, v in enumerate(nodes)}
    if len(index) != len(nodes):
        raise GraphValidationError("duplicate node ids")
    ids, tails, heads = list(map(str, ids)), list(map(str, tails)), list(map(str, heads))
    try:
        stack = np.asarray(weights, dtype=float)
    except ValueError:  # ragged, or entries that are not numbers: the scan names the first such edge
        stack = np.empty(0)
    fine = len(set(ids)) == len(ids) and index.keys() >= {*tails, *heads} and not any(map(operator.eq, tails, heads))
    if not fine or stack.shape != (len(ids), k, k) or not np.isfinite(stack).all():
        _first_faulty_edge(k, index, ids, tails, heads, weights)
        stack = np.array(weights, dtype=float).reshape(len(ids), k, k)  # no fault: no edges, so shape (0,)
    weights = matlin.as_symmetric(stack, describe=lambda i: f"edge {ids[i]!r} weight")
    spd = matlin.has_cholesky(weights)  # ``as_symmetric`` has checked and symmetrized the stack
    if not spd.all():
        raise GraphValidationError(f"edge {ids[int(np.argmin(spd))]!r} weight is not strictly SPD")

    leaders = frozenset(map(str, leaders))
    if not leaders <= index.keys():
        raise GraphValidationError("leader set contains unknown nodes")
    if sources is None:
        crossing = [j for j, (t, h) in enumerate(zip(tails, heads)) if (t in leaders) != (h in leaders)]
        found = {heads[j] if tails[j] in leaders else tails[j] for j in crossing if _is_identity(weights[j])}
        sources = tuple(sorted(found))  # the follower end of each identity-weight edge with one leader end
    else:
        sources = tuple(map(str, sources))
        if len(set(sources)) != len(sources):
            raise GraphValidationError("duplicate source ids")
        unknown = set(sources) - index.keys()
        if unknown:
            raise GraphValidationError(f"unknown source nodes {sorted(unknown)}")
        if set(sources) & leaders:
            raise GraphValidationError("a source node cannot be a leader")
    built = tuple(map(tuple.__new__, repeat(Edge), zip(ids, tails, heads)))  # as Edge._make, without its checks
    ends = np.fromiter(map(index.__getitem__, chain.from_iterable(zip(tails, heads))), np.intp, 2 * len(ids))
    return MatrixGraph(k, nodes, built, weights, leaders, sources, index=index, ends=ends.reshape(-1, 2))


def _first_faulty_edge(k, index, ids, tails, heads, weights):
    """Raise for the first edge, in edge order, that breaks a per-edge rule, checking each edge's rules in
    this order: its id repeats an earlier one, it names an unknown node, it is a self-loop, its weight is not
    k x k, that weight has a non-finite entry."""
    seen = set()
    for eid, tail, head, w in zip(ids, tails, heads, weights):
        if eid in seen:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if tail not in index or head not in index:
            raise GraphValidationError(f"edge {eid!r} references unknown node")
        if tail == head:
            raise GraphValidationError(f"edge {eid!r} is a self-loop")
        d = np.shape(w)
        if d != (k, k):  # what as_symmetric would reject stays a plain ValueError
            error = GraphValidationError if len(d) == 2 and d[0] == d[1] <= matlin.MAX_DIM else ValueError
            raise error(f"edge {eid!r} weight has shape {d}, not {k}x{k}")
        if not np.isfinite(np.asarray(w, dtype=float)).all():
            raise GraphValidationError(f"edge {eid!r} weight has a non-finite entry")


def _is_identity(w):
    return np.abs(w - np.eye(w.shape[0])).max() <= IDENTITY_ATOL


def reached(pairs, n, start):
    """Seen flags (a bytearray) of nodes 0..n-1: whether a path over the index ``pairs`` (edges, either way)
    joins each to node ``start``. One walk over integer adjacency lists."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = bytearray(n), [start]
    seen[start] = 1
    while stack:
        for m in adj[stack.pop()]:
            if not seen[m]:
                seen[m] = 1
                stack.append(m)
    return seen


def check_leaders(g):
    if not g.leaders:
        raise GraphValidationError("leader set is empty")


def check_reach(pairs, names, ground):
    """Raise a GraphValidationError naming the first node (``names[i]`` is node i) that no path over the
    index ``pairs`` joins to node ``ground``, the grounded leaders. With SPD weights, A is definite iff none is cut."""
    cut = reached(pairs, len(names) + 1, ground).find(0, 0, len(names))  # ``ground`` is at most len(names)
    if cut >= 0:
        raise GraphValidationError(f"node {names[cut]!r} is not connected to a leader")


def validate_consensus(g):
    """Check the strict leader-follower structure of an input network.

    Every leader must be attached to the rest of the graph by exactly one
    identity-weight edge, each to a distinct source node; leader-leader
    edges are rejected; the graph must be connected.
    """
    check_leaders(g)
    if not g.nodes or 0 in reached(g.ends.tolist(), len(g.nodes), 0):
        raise GraphValidationError("graph is not connected")
    attached = {}
    for j, e in enumerate(g.edges):
        in_l = (e.tail in g.leaders, e.head in g.leaders)
        if all(in_l):
            raise GraphValidationError(f"edge {e.id!r} connects two leaders")
        if any(in_l):
            leader, other = (e.tail, e.head) if in_l[0] else (e.head, e.tail)
            if leader in attached:
                raise GraphValidationError(f"leader {leader!r} has more than one edge")
            if not _is_identity(g.weights[j]):
                raise GraphValidationError(f"leader edge {e.id!r} does not carry identity weight")
            attached[leader] = other
    missing = g.leaders - set(attached)
    if missing:
        raise GraphValidationError(f"leaders with no attachment edge: {sorted(missing)}")
    if len(set(attached.values())) != len(attached):
        raise GraphValidationError("two leaders share a source node")
    return g


def attachment_edge_ids(g):
    """Ids of the leader-attachment edges (fixed, excluded from optimization)."""
    return {e.id for e in g.edges if e.tail in g.leaders or e.head in g.leaders}


def incidence(g):
    """Signed incidence matrix E (|N| x |E|) and its blow-up E (x) I_k.

    Rows follow ``g.nodes`` order, columns follow ``g.edges`` order; each
    column carries +1 at the tail and -1 at the head of its stored
    orientation.
    """
    idx = {n: i for i, n in enumerate(g.nodes)}
    e = np.zeros((len(g.nodes), len(g.edges)))
    for col, edge in enumerate(g.edges):
        e[idx[edge.tail], col] = 1.0
        e[idx[edge.head], col] = -1.0
    return e, np.kron(e, np.eye(g.k))


@dataclass(frozen=True, eq=False)
class DirichletLaplacian:
    follower_order: tuple
    matrix: np.ndarray


def dirichlet_laplacian(g):
    """Follower-block Dirichlet Laplacian A(W): the Laplacian of ``g`` grounded at its leaders, in one scatter.

    The leaders are one merged node, numbered n. Each edge adds +W to its two diagonal blocks and -W to
    its two off-diagonal ones; blocks in the leaders' row or column are dropped (the boundary condition
    pinning their voltage to zero) and one ``np.bincount`` sums the rest in edge order, parallel edges in
    either orientation too, so the matrix is exactly symmetric. ``check_reach`` runs first, on the same
    index pairs, so it is positive definite too. Nothing factors it here; ``dense_solve`` solves with it once.
    """
    check_leaders(g)
    order = tuple(sorted(n for n in g.nodes if n not in g.leaders))
    if not order:
        raise GraphValidationError("grounding removes every node")
    n, k = len(order), g.k
    slot = np.full(len(g.nodes), n, dtype=np.intp)  # each node's block row, n for the leaders
    slot[[g.index[v] for v in order]] = np.arange(n)
    ends = slot[g.ends]
    check_reach(ends.tolist(), order, n)
    rows, cols = ends[:, [0, 1, 0, 1]], ends[:, [0, 1, 1, 0]]  # blocks (t, t), (h, h), (t, h), (h, t)
    keep = (rows < n) & (cols < n)
    r = np.arange(k)
    at = (rows[keep] * n * k + cols[keep])[:, None, None] * k + (r[:, None] * n * k + r)
    blocks = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * g.weights[:, None]
    a = np.bincount(at.ravel(), weights=blocks[keep].ravel(), minlength=(n * k) ** 2)
    return DirichletLaplacian(follower_order=order, matrix=a.reshape(n * k, n * k))
