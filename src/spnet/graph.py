"""Matrix-weighted graph model for leader-follower consensus networks.

A graph is a multigraph over string node ids. Edges carry strictly
positive-definite k x k conductance weights. Leaders are the externally
controlled nodes; each leader hangs off the network by a single
identity-weight edge whose follower endpoint is a source node. The
Dirichlet Laplacian is the follower block of the full graph Laplacian and
is what both the dense oracle and the gradient are built on.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import matlin
from .errors import GraphValidationError

IDENTITY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Edge:
    id: str
    tail: str
    head: str
    weight: np.ndarray  # k x k strictly SPD conductance


@dataclass(frozen=True, eq=False)
class MatrixGraph:
    k: int
    nodes: tuple
    edges: tuple
    leaders: frozenset = frozenset()
    sources: tuple = ()

    @property
    def followers(self):
        return tuple(n for n in self.nodes if n not in self.leaders)

    @cached_property
    def edge_ids(self):
        return frozenset(e.id for e in self.edges)

    def edge_map(self):
        return {e.id: e for e in self.edges}

    def with_weights(self, new_weights):
        """Copy of the graph with some edge weights replaced (by edge id)."""
        edges = tuple(
            replace(e, weight=matlin.as_symmetric(new_weights[e.id]))
            if e.id in new_weights
            else e
            for e in self.edges
        )
        return replace(self, edges=edges)


def make_graph(k, nodes, edges, leaders=(), sources=None):
    """Assemble and validate a MatrixGraph.

    ``edges`` is an iterable of (id, tail, head, weight) tuples. When
    ``sources`` is None it is inferred as the follower endpoints of the
    identity-weight leader edges; an explicit list overrides inference.
    """
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise GraphValidationError("duplicate node ids")
    node_set = set(nodes)
    built = []
    seen_ids = set()
    for eid, tail, head, w in edges:
        if eid in seen_ids:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if tail not in node_set or head not in node_set:
            raise GraphValidationError(f"edge {eid!r} references unknown node")
        if tail == head:
            raise GraphValidationError(f"edge {eid!r} is a self-loop")
        w = matlin.as_symmetric(w)
        if w.shape[0] != k:
            raise GraphValidationError(f"edge {eid!r} weight has dim {w.shape[0]}, expected {k}")
        if not matlin.is_spd(w):
            raise GraphValidationError(f"edge {eid!r} weight is not strictly SPD")
        built.append(Edge(str(eid), tail, head, w))

    leaders = frozenset(leaders)
    if not leaders <= node_set:
        raise GraphValidationError("leader set contains unknown nodes")
    if sources is None:
        sources = tuple(sorted(_attachment_sources(built, leaders)))
    else:
        sources = tuple(sources)
        unknown = set(sources) - node_set
        if unknown:
            raise GraphValidationError(f"unknown source nodes {sorted(unknown)}")
        if set(sources) & leaders:
            raise GraphValidationError("a source node cannot be a leader")
    return MatrixGraph(k=k, nodes=nodes, edges=tuple(built), leaders=leaders, sources=sources)


def _attachment_sources(edges, leaders):
    sources = set()
    for e in edges:
        for a, b in ((e.tail, e.head), (e.head, e.tail)):
            if a in leaders and b not in leaders and _is_identity(e.weight):
                sources.add(b)
    return sources


def _is_identity(w):
    return np.abs(w - np.eye(w.shape[0])).max() <= IDENTITY_ATOL


def is_connected(g):
    if not g.nodes:
        return False
    adj = {n: set() for n in g.nodes}
    for e in g.edges:
        adj[e.tail].add(e.head)
        adj[e.head].add(e.tail)
    seen = {g.nodes[0]}
    stack = [g.nodes[0]]
    while stack:
        for m in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return len(seen) == len(g.nodes)


def validate_consensus(g):
    """Check the strict leader-follower structure of an input network.

    Every leader must be attached to the rest of the graph by exactly one
    identity-weight edge, each to a distinct source node; leader-leader
    edges are rejected; the graph must be connected.
    """
    if not g.leaders:
        raise GraphValidationError("leader set is empty")
    if not is_connected(g):
        raise GraphValidationError("graph is not connected")
    attached = {}
    for e in g.edges:
        in_l = (e.tail in g.leaders, e.head in g.leaders)
        if all(in_l):
            raise GraphValidationError(f"edge {e.id!r} connects two leaders")
        if any(in_l):
            leader, other = (e.tail, e.head) if in_l[0] else (e.head, e.tail)
            if leader in attached:
                raise GraphValidationError(f"leader {leader!r} has more than one edge")
            if not _is_identity(e.weight):
                raise GraphValidationError(f"leader edge {e.id!r} does not carry identity weight")
            attached[leader] = other
    missing = g.leaders - set(attached)
    if missing:
        raise GraphValidationError(f"leaders with no attachment edge: {sorted(missing)}")
    if len(set(attached.values())) != len(attached):
        raise GraphValidationError("two leaders share a source node")
    if set(g.sources) - set(attached.values()):
        # Explicitly declared sources may legitimately differ (they override
        # inference), but they must at least be follower nodes.
        bad = set(g.sources) & g.leaders
        if bad:
            raise GraphValidationError(f"declared sources are leaders: {sorted(bad)}")
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


def laplacian(g, order=None):
    """Full matrix-weighted graph Laplacian, blocks ordered by ``order``."""
    if order is None:
        order = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(order)}
    k = g.k
    m = np.zeros((k * len(order), k * len(order)))
    for e in g.edges:
        i, j = idx[e.tail], idx[e.head]
        w = e.weight
        m[k * i : k * i + k, k * i : k * i + k] += w
        m[k * j : k * j + k, k * j : k * j + k] += w
        m[k * i : k * i + k, k * j : k * j + k] -= w
        m[k * j : k * j + k, k * i : k * i + k] -= w
    return matlin.symmetrize(m), list(order)


@dataclass(frozen=True, eq=False)
class DirichletLaplacian:
    follower_order: tuple
    matrix: np.ndarray

    def block(self, node_i, node_j=None):
        """k x k block of the matrix for a pair of follower nodes."""
        k = self.matrix.shape[0] // len(self.follower_order)
        i = self.follower_order.index(node_i)
        j = i if node_j is None else self.follower_order.index(node_j)
        return self.matrix[k * i : k * i + k, k * j : k * j + k]


def grounded_laplacian(g, ground):
    """Laplacian of ``g`` with the ``ground`` node set removed.

    Edges internal to the remaining nodes contribute full 2x2 block
    patterns; edges into the ground set contribute only their diagonal
    block. Grounded-node columns/rows are dropped entirely, which is the
    boundary condition pinning their voltage to zero.
    """
    ground = set(ground)
    order = tuple(sorted(n for n in g.nodes if n not in ground))
    if not order:
        raise GraphValidationError("grounding removes every node")
    idx = {n: i for i, n in enumerate(order)}
    k = g.k
    m = np.zeros((k * len(order), k * len(order)))
    for e in g.edges:
        t_in, h_in = e.tail not in ground, e.head not in ground
        w = e.weight
        if t_in and h_in:
            i, j = idx[e.tail], idx[e.head]
            m[k * i : k * i + k, k * i : k * i + k] += w
            m[k * j : k * j + k, k * j : k * j + k] += w
            m[k * i : k * i + k, k * j : k * j + k] -= w
            m[k * j : k * j + k, k * i : k * i + k] -= w
        elif t_in or h_in:
            i = idx[e.tail] if t_in else idx[e.head]
            m[k * i : k * i + k, k * i : k * i + k] += w
    return DirichletLaplacian(follower_order=order, matrix=matlin.symmetrize(m))


def dirichlet_laplacian(g):
    """Follower-block Dirichlet Laplacian A(W) with respect to the leaders."""
    if not g.leaders:
        raise GraphValidationError("leader set is empty")
    if not is_connected(g):
        raise GraphValidationError("graph is not connected")
    dl = grounded_laplacian(g, g.leaders)
    lam_min = float(np.linalg.eigvalsh(dl.matrix).min())
    if lam_min <= 0:
        raise GraphValidationError("Dirichlet Laplacian is not positive definite")
    return dl


def identify_nodes(g, group, new_id=None):
    """Quotient graph: the nodes in ``group`` are merged into one class.

    Edges re-attach to the class representative; intra-group edges become
    self-loops and are dropped; the edge multiset is otherwise preserved.
    """
    group = set(group)
    if not group:
        raise GraphValidationError("empty identification group")
    unknown = group - set(g.nodes)
    if unknown:
        raise GraphValidationError(f"unknown nodes {sorted(unknown)}")
    rep = new_id if new_id is not None else min(group)
    if new_id is not None and new_id in set(g.nodes) - group:
        raise GraphValidationError(f"new node id {new_id!r} collides with an existing node")

    def relabel(n):
        return rep if n in group else n

    nodes = []
    for n in g.nodes:
        m = relabel(n)
        if m not in nodes:
            nodes.append(m)
    edges = tuple(
        replace(e, tail=relabel(e.tail), head=relabel(e.head))
        for e in g.edges
        if relabel(e.tail) != relabel(e.head)
    )
    leaders = frozenset(relabel(n) for n in g.leaders)
    sources = []
    for s in g.sources:
        m = relabel(s)
        if m not in sources:
            sources.append(m)
    return replace(g, nodes=tuple(nodes), edges=edges, leaders=leaders, sources=tuple(sources))


def ground_leaders(g, sink_id="l"):
    """Identify all leaders into a single sink node; return (graph, sink id)."""
    if not g.leaders:
        raise GraphValidationError("leader set is empty")
    sink = sink_id
    taken = set(g.nodes) - g.leaders
    while sink in taken:
        sink = "_" + sink
    gg = identify_nodes(g, g.leaders, new_id=sink)
    return gg, sink
