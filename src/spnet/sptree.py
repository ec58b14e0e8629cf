"""Decomposition trees for two-terminal series-parallel multigraphs.

A tree is Leaf | Series | Parallel. Leaves carry the edge id and weight,
plus an optional oriented endpoint pair (tail = terminal on the source
side, head = terminal on the sink side) so that voltage drops computed on
the tree can be matched back to node-level quantities of the graph that
was decomposed.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import GraphValidationError, NotSeriesParallelError
from .graph import make_graph


@dataclass(frozen=True, eq=False)
class Leaf:
    edge: str
    weight: np.ndarray
    tail: str = None
    head: str = None


@dataclass(frozen=True, eq=False)
class Series:
    left: object
    right: object


@dataclass(frozen=True, eq=False)
class Parallel:
    left: object
    right: object


def leaves(t):
    """Yield the leaves of a tree left-to-right."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack += [node.right, node.left]


def dim(t):
    return next(leaves(t)).weight.shape[0]


def _validate_join(t1, t2):
    if dim(t1) != dim(t2):
        raise ValueError(f"dimension mismatch: {dim(t1)} vs {dim(t2)}")
    ids1 = {lf.edge for lf in leaves(t1)}
    ids2 = {lf.edge for lf in leaves(t2)}
    dup = ids1 & ids2
    if dup:
        raise ValueError(f"duplicate leaf edge ids {sorted(dup)}")


def series(t1, t2):
    """Series join: t1's sink is identified with t2's source."""
    _validate_join(t1, t2)
    return Series(t1, t2)


def parallel(t1, t2):
    """Parallel join: both terminal pairs are identified."""
    _validate_join(t1, t2)
    return Parallel(t1, t2)


def leaf(edge_id, weight, tail=None, head=None):
    weight = matlin.as_symmetric(weight)
    if not matlin.is_spd(weight):
        raise ValueError(f"leaf weight for edge {edge_id!r} is not strictly SPD")
    return Leaf(str(edge_id), weight, tail, head)


@dataclass(frozen=True)
class TreeStats:
    leaves: int
    series: int
    parallel: int
    height: int
    nodes: int  # node count of the realized two-terminal graph


def stats(t):
    """Leaf/join counts, height, and realized node count N = 2l - s - 2p."""
    if isinstance(t, Leaf):
        return TreeStats(1, 0, 0, 0, 2)
    a = stats(t.left)
    b = stats(t.right)
    l = a.leaves + b.leaves
    s = a.series + b.series + (1 if isinstance(t, Series) else 0)
    p = a.parallel + b.parallel + (1 if isinstance(t, Parallel) else 0)
    h = 1 + max(a.height, b.height)
    return TreeStats(l, s, p, h, 2 * l - s - 2 * p)


def check_height_bounds(t):
    """ceil(log2 l) <= h <= l - 1, with l recovered as (N + 2p + s)/2."""
    st = stats(t)
    l = (st.nodes + 2 * st.parallel + st.series) // 2
    return math.ceil(math.log2(l)) <= st.height <= l - 1


def realize(t):
    """Build the two-terminal multigraph a tree encodes.

    Returns (graph, source id, sink id). Node ids are generated fresh;
    series joins identify the left sink with the right source, parallel
    joins identify both terminal pairs.
    """
    counter = itertools.count()

    def fresh():
        return f"v{next(counter)}"

    def rec(node):
        if isinstance(node, Leaf):
            s, e = fresh(), fresh()
            return [(node.edge, s, e, node.weight)], s, e
        e1, s1, t1 = rec(node.left)
        e2, s2, t2 = rec(node.right)
        if isinstance(node, Series):
            ren = {s2: t1}
            out_s, out_t = s1, t2
        else:
            ren = {s2: s1, t2: t1}
            out_s, out_t = s1, t1
        e2 = [(eid, ren.get(a, a), ren.get(b, b), w) for eid, a, b, w in e2]
        out_t = ren.get(out_t, out_t)
        return e1 + e2, out_s, out_t

    edges, src, snk = rec(t)
    nodes = []
    for _, a, b, _ in edges:
        for n in (a, b):
            if n not in nodes:
                nodes.append(n)
    g = make_graph(dim(t), nodes, edges)
    return g, src, snk


def recognize(g, source, sink):
    """Decompose a connected two-terminal multigraph into an SpTree.

    Worklist reduction (Valdes, Tarjan & Lawler 1982): a FIFO holds
    candidate nodes (non-terminal, degree 2) and candidate endpoint pairs
    (more than one arc); a dict from unordered endpoint pair to its arcs
    finds parallel merges in O(1). Contracting a node into a Series arc
    only re-queues the pair it lands on, and merging a pair into Parallel
    arcs only re-queues its two endpoints, so the reduction is O(m)
    amortized. Each join records one orientation bit per child (set when
    the child is used against its stored direction) instead of copying a
    flipped subtree; one explicit-stack pass then builds the tree, in
    which every leaf's tail -> head follows the flow from source to sink.

    The result is deterministic: reading ``g.edges`` in order queues each
    pair as it gains its second arc (as do new arcs later), then the
    candidate nodes are queued in ``g.nodes`` order; a merge pushes its
    endpoints in (tail, head) order of the merged arc; a contraction at a
    node lets flow run p -> node -> q through its lower-id arc first;
    bundles merge in ascending arc id. No set of node ids decides any
    order. Raises NotSeriesParallelError if
    the reduction stalls or ends on a non-terminal pair.
    """
    if source not in g.nodes or sink not in g.nodes:
        raise GraphValidationError("terminal is not a node of the graph")
    if source == sink:
        raise GraphValidationError("source and sink must differ")

    index = {n: i for i, n in enumerate(g.nodes)}
    terminals = (index[source], index[sink])
    m = len(g.edges)
    # Arc aid runs tail[aid] -> head[aid]; arcs below m are the edges, the
    # rest are joins (cls, a, a flipped, b, b flipped) stored at aid - m.
    tail = [index[e.tail] for e in g.edges]
    head = [index[e.head] for e in g.edges]
    joins = []
    adj = [{} for _ in g.nodes]  # node -> its arcs, in ascending aid (dict as ordered set)
    bundles = {}  # (lower, higher node) -> its arcs, in ascending aid
    queue = deque()

    def pair(aid):
        u, v = tail[aid], head[aid]
        return (u, v) if u < v else (v, u)

    def link(aid):
        adj[tail[aid]][aid] = adj[head[aid]][aid] = None
        bundle = bundles.setdefault(pair(aid), {})
        bundle[aid] = None
        if len(bundle) == 2:
            queue.append(pair(aid))

    def add(u, v, join):
        tail.append(u)
        head.append(v)
        joins.append(join)
        link(len(tail) - 1)
        return len(tail) - 1

    def drop(aid):
        del adj[tail[aid]][aid], adj[head[aid]][aid]
        bundle = bundles[pair(aid)]
        del bundle[aid]
        if not bundle:
            del bundles[pair(aid)]

    for aid in range(m):
        link(aid)
    queue.extend(i for i in range(len(g.nodes)) if len(adj[i]) == 2)

    while queue:
        item = queue.popleft()
        if isinstance(item, tuple):  # parallel merge of a whole bundle
            bundle = bundles.get(item, ())
            if len(bundle) < 2:
                continue
            first, *rest = bundle
            u, v = tail[first], head[first]
            merged = first
            for b in rest:
                drop(merged)
                drop(b)
                merged = add(u, v, (Parallel, merged, False, b, tail[b] != u))
            for node in (u, v):
                if len(adj[node]) == 2:
                    queue.append(node)
        elif item not in terminals and len(adj[item]) == 2:  # series contraction
            a, b = adj[item]
            p = tail[a] if head[a] == item else head[a]
            q = head[b] if tail[b] == item else tail[b]
            if p == q:
                continue  # a two-arc bundle; its merge is queued
            drop(a)
            drop(b)
            add(p, q, (Series, a, tail[a] != p, b, tail[b] != item))

    live = [aid for bundle in bundles.values() for aid in bundle]
    if len(live) != 1:
        raise NotSeriesParallelError(
            f"reduction stalled with {len(live)} edges; graph is not "
            f"series-parallel between {source!r} and {sink!r}"
        )
    (root,) = live
    if pair(root) != tuple(sorted(terminals)):
        raise NotSeriesParallelError(
            f"reduction ended on edge {g.nodes[tail[root]]!r}-{g.nodes[head[root]]!r}, "
            "not on the terminal pair"
        )
    return _build(g.edges, joins, root, tail[root] != terminals[0])


def _build(edges, joins, root, flipped):
    """Tree of arc ``root`` (reversed if ``flipped``), built without recursion.

    A reversed Series swaps and reverses its children, a reversed Parallel
    reverses both, and a reversed Leaf swaps its tail and head.
    """
    m = len(edges)
    order = []  # pre-order (aid, flipped, left child aid, right child aid)
    stack = [(root, flipped)]
    while stack:
        aid, f = stack.pop()
        if aid < m:
            order.append((aid, f, None, None))
            continue
        cls, a, fa, b, fb = joins[aid - m]
        left, right = ((b, not fb), (a, not fa)) if f and cls is Series else ((a, fa != f), (b, fb != f))
        order.append((aid, f, left[0], right[0]))
        stack += [right, left]
    built = {}
    for aid, f, left, right in reversed(order):
        if aid < m:
            e = edges[aid]
            built[aid] = Leaf(e.id, e.weight, e.head, e.tail) if f else Leaf(e.id, e.weight, e.tail, e.head)
        else:
            built[aid] = joins[aid - m][0](built.pop(left), built.pop(right))
    return built[root]


def to_json(t):
    """Tree as plain JSON data: leaves reference edges by id only."""
    if isinstance(t, Leaf):
        return {"op": "leaf", "edge": t.edge}
    op = "series" if isinstance(t, Series) else "parallel"
    return {"op": op, "children": [to_json(t.left), to_json(t.right)]}


def from_json(data, g):
    """Rebuild a tree from JSON data, resolving leaf weights against ``g``."""
    emap = g.edge_map()

    def rec(d):
        if not isinstance(d, dict) or "op" not in d:
            raise GraphValidationError("malformed tree JSON node")
        if d["op"] == "leaf":
            eid = d.get("edge")
            if eid not in emap:
                raise GraphValidationError(f"tree references unknown edge {eid!r}")
            e = emap[eid]
            return Leaf(e.id, e.weight, e.tail, e.head)
        if d["op"] not in ("series", "parallel"):
            raise GraphValidationError(f"unknown tree op {d['op']!r}")
        children = d.get("children", [])
        if len(children) != 2:
            raise GraphValidationError("tree join must have exactly two children")
        l, r = rec(children[0]), rec(children[1])
        return Series(l, r) if d["op"] == "series" else Parallel(l, r)

    return rec(data)
