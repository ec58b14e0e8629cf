"""Decomposition trees for two-terminal series-parallel multigraphs.

A tree is Leaf | Series | Parallel. Leaves carry the edge id and weight,
plus an optional oriented endpoint pair (tail = terminal on the source
side, head = terminal on the sink side) so that voltage drops computed on
the tree can be matched back to node-level quantities of the graph that
was decomposed.
"""

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


def _preorder(root, children):
    """Pre-order list of (node, left index, right index) of a binary tree;
    nodes whose ``children(node)`` is None are leaves and get (-1, -1).
    Walked with an explicit stack, so depth is not limited by recursion."""
    entries = []
    stack = [(root, -1)]  # (node, index of the join it is the right child of, or -1)
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            entries[parent][2] = len(entries)
        pair = children(node)
        if pair is not None:
            stack += [(pair[1], len(entries)), (pair[0], -1)]
        entries.append([node, -1 if pair is None else len(entries) + 1, -1])
    return [tuple(e) for e in entries]


def index_tree(t):
    """Pre-order list of (node, left index, right index); leaves get (-1, -1)."""
    return _preorder(t, lambda node: None if isinstance(node, Leaf) else (node.left, node.right))


def fold(entries, leaf_fn, join_fn):
    """Bottom-up value of an indexed tree without recursion: ``leaf_fn(leaf)``
    at a leaf, ``join_fn(join, left value, right value)`` at a join."""
    vals = [None] * len(entries)
    for i in range(len(entries) - 1, -1, -1):
        node, li, ri = entries[i]
        vals[i] = leaf_fn(node) if li < 0 else join_fn(node, vals[li], vals[ri])
    return vals[0]


def leaves(t):
    """The leaves of a tree, left to right."""
    return [node for node, li, _ in index_tree(t) if li < 0]


def dim(t):
    return leaves(t)[0].weight.shape[0]


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

    def join(node, a, b):
        l = a.leaves + b.leaves
        s = a.series + b.series + (1 if isinstance(node, Series) else 0)
        p = a.parallel + b.parallel + (1 if isinstance(node, Parallel) else 0)
        return TreeStats(l, s, p, 1 + max(a.height, b.height), 2 * l - s - 2 * p)

    return fold(index_tree(t), lambda _: TreeStats(1, 0, 0, 0, 2), join)


def check_height_bounds(t):
    """ceil(log2 l) <= h <= l - 1, with l recovered as (N + 2p + s)/2."""
    st = stats(t)
    l = (st.nodes + 2 * st.parallel + st.series) // 2
    return math.ceil(math.log2(l)) <= st.height <= l - 1


def realize(t):
    """Build the two-terminal multigraph a tree encodes.

    Returns (graph, source id, sink id). The j-th leaf from the left gets
    fresh terminals v{2j} -> v{2j+1}; a series join identifies the left sink
    with the right source, a parallel join both terminal pairs, and each
    identified node keeps its name from the left side.
    """
    entries = index_tree(t)
    ordered = [node for node, li, _ in entries if li < 0]
    fresh = iter([(f"v{2 * j}", f"v{2 * j + 1}") for j in range(len(ordered))][::-1])  # met right to left
    merged = {}  # node name -> the name it was identified with

    def join(node, a, b):
        if isinstance(node, Series):
            merged[b[0]] = a[1]
            return a[0], b[1]
        merged[b[0]], merged[b[1]] = a
        return a

    def name(n):
        while n in merged:
            n = merged[n]
        return n

    src, snk = fold(entries, lambda _: next(fresh), join)
    edges = [(lf.edge, name(f"v{2 * j}"), name(f"v{2 * j + 1}"), lf.weight) for j, lf in enumerate(ordered)]
    return make_graph(dim(t), dict.fromkeys(n for _, a, b, _ in edges for n in (a, b)), edges), src, snk


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
    return fold(
        index_tree(t),
        lambda lf: {"op": "leaf", "edge": lf.edge},
        lambda node, a, b: {"op": "series" if isinstance(node, Series) else "parallel", "children": [a, b]},
    )


def from_json(data, g):
    """Rebuild a tree from JSON data, resolving leaf weights against ``g``."""
    emap = g.edge_map()

    def children(d):  # checks each JSON node, in pre-order, before its children
        if not isinstance(d, dict) or "op" not in d:
            raise GraphValidationError("malformed tree JSON node")
        if d["op"] == "leaf":
            if d.get("edge") not in emap:
                raise GraphValidationError(f"tree references unknown edge {d.get('edge')!r}")
            return None
        if d["op"] not in ("series", "parallel"):
            raise GraphValidationError(f"unknown tree op {d['op']!r}")
        if len(d.get("children", [])) != 2:
            raise GraphValidationError("tree join must have exactly two children")
        return d["children"]

    def build_leaf(d):
        e = emap[d["edge"]]
        return Leaf(e.id, e.weight, e.tail, e.head)

    join = {"series": Series, "parallel": Parallel}
    return fold(_preorder(data, children), build_leaf, lambda d, a, b: join[d["op"]](a, b))
