"""Decomposition trees for two-terminal series-parallel multigraphs.

A tree is Leaf | Series | Parallel. Leaves carry the edge id and weight,
plus an optional oriented endpoint pair (tail = terminal on the source
side, head = terminal on the sink side) so that voltage drops computed on
the tree can be matched back to node-level quantities of the graph that
was decomposed.
"""

import math
from collections import Counter, deque, namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

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
    """Series join: the left child's sink is identified with the right child's source."""

    left: object
    right: object


@dataclass(frozen=True, eq=False)
class Parallel:
    """Parallel join: both terminal pairs are identified."""

    left: object
    right: object


series, parallel = Series, Parallel  # O(1) joins: ``flatten`` and ``to_json`` check a whole tree once


def index_tree(t):
    """Pre-order list of (node, left index, right index); leaves get (-1, -1).
    Walked with an explicit stack, so depth is not limited by recursion."""
    entries = []
    stack = [(t, -1)]  # (node, index of the join it is the right child of, or -1)
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            entries[parent][2] = len(entries)
        if isinstance(node, Leaf):
            entries.append([node, -1, -1])
        else:
            stack += [(node.right, len(entries)), (node.left, -1)]
            entries.append([node, len(entries) + 1, -1])
    return [tuple(e) for e in entries]


def flatten(t):
    """(``ArcProgram``, pre-order index of each arc) of a tree. The leaves in
    pre-order are its edges, the joins in reversed pre-order (bottom-up) its
    records, with no flipped child, swept in turn, and the last arc the root
    of its one source, None: the one live arc."""
    entries = index_tree(t)
    leaves = [i for i, (_, li, _) in enumerate(entries) if li < 0]
    _check_leaves([entries[i][0] for i in leaves])
    order = leaves + [i for i in range(len(entries) - 1, -1, -1) if entries[i][1] >= 0]
    arc = dict(zip(order, range(len(order))))
    joins = [(type(entries[i][0]), arc[entries[i][1]], False, arc[entries[i][2]], False) for i in order[len(leaves) :]]
    edges, root, plan = tuple(entries[i][0] for i in leaves), len(order) - 1, tuple(range(len(joins)))
    return ArcProgram(edges, joins, (None,), np.array([root]), np.array([[0, 1]]), (None, None), plan), order


def leaves(t):
    """The leaves of a tree, left to right."""
    return [node for node, li, _ in index_tree(t) if li < 0]


def _check_leaves(leaves):
    """Raise ValueError unless the leaves share one dimension and no edge id repeats."""
    k, *other = dict.fromkeys(lf.weight.shape[0] for lf in leaves)
    if other:
        raise ValueError(f"dimension mismatch: {k} vs {other[0]}")
    ids = Counter(lf.edge for lf in leaves)
    if len(ids) < len(leaves):
        raise ValueError(f"duplicate leaf edge ids {sorted(e for e, n in ids.items() if n > 1)}")


def leaf(edge_id, weight):
    if np.ndim(weight) != 2:  # a stack would pass ``as_symmetric`` and give ``has_cholesky`` one bool per matrix
        raise ValueError(f"leaf weight for edge {edge_id!r}: expected a square matrix, got shape {np.shape(weight)}")
    weight = matlin.as_symmetric(weight, describe=lambda _: f"leaf weight for edge {edge_id!r}")
    if not matlin.has_cholesky(weight):
        raise ValueError(f"leaf weight for edge {edge_id!r} is not strictly SPD")
    return Leaf(str(edge_id), weight)


@dataclass(frozen=True)
class TreeStats:
    leaves: int
    series: int
    parallel: int
    height: int
    nodes: int  # node count of the realized two-terminal graph


def stats(t):
    """Leaf/join counts, height, and realized node count N = 2l - s - 2p."""

    def join(kind, a, b):
        l = a.leaves + b.leaves
        s = a.series + b.series + (kind is Series)
        p = a.parallel + b.parallel + (kind is Parallel)
        return TreeStats(l, s, p, 1 + max(a.height, b.height), 2 * l - s - 2 * p)

    program, _ = flatten(t)
    return program.fold([TreeStats(1, 0, 0, 0, 2)] * len(program.edges), partial(join, Series), partial(join, Parallel))


def check_height_bounds(t):
    """ceil(log2 l) <= h <= l - 1, with l recovered as (N + 2p + s)/2."""
    st = stats(t)
    l = (st.nodes + 2 * st.parallel + st.series) // 2
    return math.ceil(math.log2(l)) <= st.height <= l - 1


def realize(t):
    """Build the two-terminal multigraph a tree encodes.

    Returns (graph, source id, sink id). The j-th leaf from the left gets fresh terminals v{2j} -> v{2j+1};
    a series join identifies the left sink with the right source, a parallel join both terminal pairs, and
    each identified node keeps its name from the left side: two passes over ``flatten``'s joins, bottom-up
    as the left side names them, then top-down.
    """
    program, _ = flatten(t)
    m = len(program.edges)
    ends = [(f"v{2 * j}", f"v{2 * j + 1}") for j in range(m)]
    for kind, a, _, b, _ in program.joins:
        ends.append((ends[a][0], ends[b][1]) if kind is Series else ends[a])
    for i in range(len(program.joins) - 1, -1, -1):  # a child's ends stay its own until its parent's turn
        kind, a, _, b, _ = program.joins[i]
        (s, t), mid = ends[m + i], ends[a][1]  # mid: the left child's sink, where a series join meets
        ends[a], ends[b] = ((s, mid), (mid, t)) if kind is Series else ((s, t), (s, t))
    edges = [(lf.edge, a, b, lf.weight) for lf, (a, b) in zip(program.edges, ends)]
    nodes = dict.fromkeys(n for pair in ends[:m] for n in pair)
    return make_graph(program.edges[0].weight.shape[0], nodes, edges), *ends[-1]


def recognize(g, source, sink):
    """Decompose a connected two-terminal multigraph into an SpTree: the
    reduction engine with ``source`` and ``sink`` as its only terminals, then
    one explicit-stack pass that builds the tree, in which every leaf's tail
    -> head follows the flow from source to sink."""
    return reduce_sources(g, (source,), {sink}).tree(g.weights)


@dataclass(frozen=True, eq=False)
class ArcProgram:
    """Series-parallel reduction of one graph from several sources to one
    sink as flat join records (kind, a, a flipped, b, b flipped): the one form
    every tree walk runs on (``flatten`` makes it of a tree; ``fold`` evaluates that).

    Arcs 0..m-1 are the ``edges`` (a flattened tree's are its leaves); join i
    is arc m + i, so creation order is bottom-up; an edge with both ends
    grounded is neither joined nor live. Graph edges carry no weights; ``tree``
    takes them.

    The terminal skeleton is what the joins leave: the ``live`` arcs between
    the skeleton's nodes, numbered with source c (``sources[c]``) as node c,
    then the other nodes left (an edgeless node too, with no arc), then the
    sink last. A one-source reduction of a graph that is series-parallel
    between its terminals leaves one arc, the root of that source's tree.

    ``plan`` is the order the electrical sweeps take the joins in, each long
    heavy path of them one ``Chain`` (``chain_plan``); a flattened tree's
    sweeps every join in turn. The sweeps replay its ``schedule``, read off on
    first use: a program that is only folded or walked never pays for it.
    """

    edges: tuple
    joins: list
    sources: tuple
    live: np.ndarray  # arc ids no join consumes, ascending
    ends: np.ndarray  # (live, 2) skeleton tail and head node of each live arc
    nodes: tuple  # name of each skeleton node, by number
    plan: tuple  # sweep steps: join indices, bottom-up, and ``Chain``s in their tops' places

    @cached_property
    def schedule(self):
        """What the electrical sweeps read off the plan: each arc's form (``takes_r``, R where true), the edges
        that hold R (``r_leaves``) and the up sweep's ``waves``, per step and once after the last, None or the
        held arcs inverted there (an int if lone). An arc whose parent takes the other form is held, and every
        arc held is inverted in one wave just before a step reads one."""
        m, joins = len(self.edges), self.joins
        forms = [False] * (m + len(joins))
        for step in self.plan:
            if type(step) is Chain:
                for a in step.arcs[: step.series].tolist():
                    forms[a] = True
            elif joins[step][0] is Series:
                forms[joins[step][1]] = forms[joins[step][3]] = True
        held, waves = {}, []  # held: the arcs held since the last wave, as an ordered set
        for step in self.plan:
            if type(step) is Chain:
                top, wave = step.top, bool(held) and not held.keys().isdisjoint(step.arcs.tolist())
            else:
                top, (_, a, _, b, _) = step, joins[step]
                wave = a in held or b in held
            waves.append(_wave(held) if wave else None)
            if (joins[top][0] is Series) != forms[m + top]:
                held[m + top] = None
        takes_r = np.array(forms, dtype=bool)
        return Schedule(takes_r, takes_r[:m].nonzero()[0], (*waves, _wave(held) if held else None))

    takes_r = property(lambda self: self.schedule.takes_r)  # (arcs,) R under a series join or as a chain's series arc

    def fold(self, values, series, parallel):
        """The root value of a flattened tree from ``values`` of its leaves:
        ``series(a, b)`` or ``parallel(a, b)`` once per join, bottom-up. Flip
        bits are ignored, which suits orientation-free values (``h2_scalar_bound``, ``stats``)."""
        vals = list(values)
        for kind, a, _, b, _ in self.joins:
            vals.append((series if kind is Series else parallel)(vals[a], vals[b]))
        return vals[-1]

    def tree(self, weights):
        """The one source's Leaf/Series/Parallel tree with ``weights[j]`` on edge j, built without recursion.
        Raises NotSeriesParallelError unless the reduction left one arc, between the source and the sink."""
        if len(self.live) != 1:
            why = f"stalled with {len(self.live)} edges; graph is not series-parallel between"
            raise NotSeriesParallelError(f"reduction {why} {self.nodes[0]!r} and {self.nodes[-1]!r}")
        u, v = self.ends[0].tolist()
        if sorted((u, v)) != [0, len(self.nodes) - 1]:
            ends = f"{self.nodes[u]!r}-{self.nodes[v]!r}"
            raise NotSeriesParallelError(f"reduction ended on edge {ends}, not on the terminal pair")
        return _build(self.edges, weights, self.joins, int(self.live[0]), u != 0)


Schedule = namedtuple("Schedule", ["takes_r", "r_leaves", "waves"])  # see ``ArcProgram.schedule``


def _wave(held):
    """The arcs of ``held`` as one index, a lone one as an int; empty ``held``."""
    wave = next(iter(held)) if len(held) == 1 else np.array(list(held))
    held.clear()
    return wave


def reduce_sources(g, sources, ground):
    """Reduce a multigraph once for several sources into an ``ArcProgram``:
    one run with every source and the sink, every node of ``ground`` as one
    index, as terminals, valid for each source alone since series-parallel
    reduction is confluent (Duffin 1965), and the terminal skeleton it leaves.
    The sink is named "l" ("_"-prefixed while that names a node outside the
    ground), or after its one node unless the ground is the leader set.
    Nothing here needs the graph to be series-parallel; ``ArcProgram.tree``
    checks it for a one-source reduction."""
    ground = set(ground)
    missing = [v for v in (*sources, *sorted(ground, key=str)) if v not in g.index]
    if missing:
        raise GraphValidationError(f"terminal {missing[0]!r} is not a node of the graph")
    if not ground:
        raise GraphValidationError("no sink: the ground set is empty")
    if ground.intersection(sources):
        raise GraphValidationError("source and sink must differ")
    sink = next(iter(ground)) if len(ground) == 1 and ground != g.leaders else "l"
    while sink in g.index and sink not in ground:
        sink = "_" + sink
    names = list(dict.fromkeys(sink if v in ground else v for v in g.nodes))  # the sink where a ground node first is
    index = {v: i for i, v in enumerate(names)}
    index.update(dict.fromkeys(ground, index[sink]))
    tail, head = np.array([index[v] for v in g.nodes], dtype=np.intp)[g.ends].T.tolist()
    arcs = [aid for aid, (u, v) in enumerate(zip(tail, head)) if u != v]  # both ends grounded: no join takes it
    edgeless = set(range(len(names))).difference(tail, head)  # skeleton nodes with no arc
    joins = []
    protected = {index[s] for s in sources} | {index[sink]}
    live = sorted(_reduce(tail, head, joins, arcs, len(names), protected))
    hubs = sorted(({n for aid in live for n in (tail[aid], head[aid])} | edgeless) - protected)
    number = {n: c for c, n in enumerate([index[s] for s in sources] + hubs + [index[sink]])}
    ends = np.array([[number[tail[aid]], number[head[aid]]] for aid in live], dtype=int).reshape(-1, 2)
    nodes, plan = tuple(names[n] for n in number), chain_plan(len(g.edges), joins, live, g.k)
    return ArcProgram(g.edges, joins, tuple(sources), np.array(live, dtype=int), ends, nodes, plan)


# Where block cyclic reduction beats the per-join sweep, measured on ladders
# and paths at k = 1 to 16 with 10 to 1000 rungs or edges: a heavy path of at
# least CHAIN_MIN_JOINS joins (ladders win from about 16 rungs, paths from
# about 60 edges), at k <= CHAIN_MAX_K (it loses at k = 16). Shorter chains and
# larger k keep the per-join sweep.
CHAIN_MIN_JOINS = 60
CHAIN_MAX_K = 8


@dataclass(frozen=True, eq=False)
class Chain:
    """A heavy path of shared joins, from join ``top`` down to a leaf, as a
    port system: each join has one light child, the other child carries the
    path on. A parallel light child, and the bottom leaf last, is a shunt at
    the current port; series light children between two shunts sum into one
    coupling group between two ports, those above the first shunt into the
    lead group, in series with the top port. Index data only; the sweeps in
    ``electrical`` solve it."""

    top: int  # join index of the path's top
    joins: tuple  # join indices of the path, top-down
    arcs: np.ndarray  # the series light children (lead group first), then the shunts, top-down
    signs: np.ndarray  # (arcs, 1, 1, 1) +-1: whether each runs with the top arc, by the flip bits on the way down
    series: int  # how many of ``arcs`` are series children
    lead: int  # how many of those form the lead group
    groups: np.ndarray  # start in ``arcs`` of the lead group (if any) and of each coupling group
    ports: np.ndarray  # start in ``arcs[series:]`` of each port's shunts
    coupling: np.ndarray  # coupling group of each series arc below the lead group
    port: np.ndarray  # port of each shunt


def chain_plan(m, joins, live, k):
    """The shared joins' sweep order with every heavy path of at least
    CHAIN_MIN_JOINS joins (leaf counts decide the heavy child, Sleator &
    Tarjan 1983) made one ``Chain`` at its top's place and its other joins
    left out; every join in turn when no path qualifies, k exceeds
    CHAIN_MAX_K or there are too few joins. One pass counts leaves and path
    lengths; the chains are built from the tops it finds."""
    least, steps = CHAIN_MIN_JOINS, range(len(joins))
    if k > CHAIN_MAX_K or len(joins) < least:
        return tuple(steps)
    size, depth, tops = [1] * m, [0] * m, []  # depth: joins on the heavy path from an arc down
    for _, a, _, b, _ in joins:
        sa, sb = size[a], size[b]
        size.append(sa + sb)
        heavy, light = (a, b) if sa >= sb else (b, a)
        depth.append(depth[heavy] + 1)
        if depth[light] >= least:
            tops.append(light - m)
    tops += [aid - m for aid in live if depth[aid] >= least]
    chains = {top: _chain(m, joins, size, top) for top in tops}
    inner = {j for chain in chains.values() for j in chain.joins[1:]}
    return tuple(chains.get(j, j) for j in steps if j not in inner)


def _chain(m, joins, size, top):
    """The ``Chain`` of the heavy path from join ``top`` down, ``size`` the leaf
    count of every arc: one walk into plain lists, then the arrays."""
    path, series, shunts, series_signs, shunt_signs, groups, ports, coupling, port = [], [], [], [], [], [], [], [], []
    j, sign, prev = top, 1, True  # prev: the last light child was series, or none came yet
    while j >= 0:
        kind, a, fa, b, fb = joins[j]
        if size[a] < size[b]:
            a, fa, b, fb = b, fb, a, fa  # a the heavy child, b the light one
        path.append(j)
        if kind is Series:
            if not prev:
                groups.append(len(series))
            if groups:  # below the first shunt
                coupling.append(len(groups) - 1)
            series.append(b)
            series_signs.append(-sign if fb else sign)
            prev = True
        else:
            if prev:
                ports.append(len(shunts))
                prev = False
            port.append(len(ports) - 1)
            shunts.append(b)
            shunt_signs.append(-sign if fb else sign)
        if fa:
            sign = -sign
        j = a - m
    if prev:
        ports.append(len(shunts))
    port.append(len(ports) - 1)
    shunts.append(j + m)  # the bottom leaf, the last shunt
    shunt_signs.append(sign)
    lead = groups[0] if groups else len(series)  # the series light children above the first shunt
    return Chain(
        top,
        tuple(path),
        np.array(series + shunts),
        np.array(series_signs + shunt_signs, dtype=float).reshape(-1, 1, 1, 1),
        len(series),
        lead,
        np.array([0] * (lead > 0) + groups, dtype=int),
        np.array(ports),
        np.array(coupling, dtype=int),
        np.array(port),
    )


def _reduce(tail, head, joins, arcs, n, terminals):
    """Series-parallel worklist reduction (Valdes, Tarjan & Lawler 1982) of
    ``arcs`` on nodes 0..n-1 that never contracts a node of ``terminals``;
    returns the live arcs.

    Arc aid runs tail[aid] -> head[aid] (node indices below n);
    its unordered endpoint pair gets the key lo * n + hi once. A FIFO holds
    candidate nodes (non-terminal, degree 2) and, as negated keys, pairs with
    more than one arc; a dict from key to the pair's arcs (its bundle) finds
    parallel merges in O(1). A contraction re-queues only the pair it lands on
    and a merge only its two endpoints, so the reduction is O(m) amortized.
    Each join appends its arc to ``tail``/``head`` and its record (kind, a, a
    flipped, b, b flipped) to ``joins``: one orientation bit per child, set
    when the child is used against its stored direction, instead of a flipped
    copy.

    Deterministic: reading ``arcs`` in order queues each pair as it gains its
    second arc (as do new arcs later, and a merge of three or more arcs, whose
    bundle is two arcs again before its last join), then the candidate nodes
    in index order; a merge pushes its endpoints in (tail, head) order of
    the merged arc; a contraction lets flow run p -> node -> q through its
    lower-id arc first; bundles merge in ascending arc id. No set of node ids
    decides any order.
    """
    adj = [{} for _ in range(n)]  # node -> its arcs, in ascending aid (dict as ordered set)
    keys = [None] * len(tail)  # arc -> its pair's key
    bundles = {}  # pair key -> its arcs, in ascending aid
    queue = deque()
    for aid in arcs:
        u, v = tail[aid], head[aid]
        adj[u][aid] = adj[v][aid] = None
        key = keys[aid] = u * n + v if u < v else v * n + u
        bundle = bundles.setdefault(key, [])
        bundle.append(aid)
        if len(bundle) == 2:
            queue.append(-key)
    queue.extend(v for v in range(n) if len(adj[v]) == 2)

    while queue:
        item = queue.popleft()
        if item < 0:  # parallel merge of a whole bundle
            bundle = bundles.get(-item, ())
            if len(bundle) < 2:
                continue
            merged, *rest = bundle
            u, v = tail[merged], head[merged]
            au, av = adj[u], adj[v]
            for b in rest:
                del au[merged], av[merged], au[b], av[b]
                joins.append((Parallel, merged, False, b, tail[b] != u))
                merged = len(tail)
                tail.append(u)
                head.append(v)
                keys.append(-item)
                au[merged] = av[merged] = None
            bundles[-item] = [merged]
            if len(rest) > 1:
                queue.append(item)  # the bundle was two arcs before its last join: queued as a pair's second arc is
            if len(au) == 2:
                queue.append(u)
            if len(av) == 2:
                queue.append(v)
        elif len(adj[item]) == 2 and item not in terminals:  # series contraction
            a, b = adj[item]
            p = tail[a] if head[a] == item else head[a]
            q = head[b] if tail[b] == item else tail[b]
            if p == q:
                continue  # a two-arc bundle; its merge is queued
            adj[item].clear()
            # a and b are alone on their pairs: a second arc on either would be a third at item
            del adj[p][a], adj[q][b], bundles[keys[a]], bundles[keys[b]]
            joins.append((Series, a, tail[a] != p, b, tail[b] != item))
            aid = len(tail)
            tail.append(p)
            head.append(q)
            adj[p][aid] = adj[q][aid] = None
            key = p * n + q if p < q else q * n + p
            keys.append(key)
            bundle = bundles.setdefault(key, [])
            bundle.append(aid)
            if len(bundle) == 2:
                queue.append(-key)

    return [aid for bundle in bundles.values() for aid in bundle]


def _build(edges, weights, joins, root, flipped):
    """Tree of arc ``root`` (reversed if ``flipped``) with ``weights[j]`` on edge j: one pre-order walk with
    an explicit stack, then ``_assemble``.

    A reversed Series swaps and reverses its children, a reversed Parallel
    reverses both, and a reversed Leaf swaps its tail and head.
    """
    m, preorder, stack = len(edges), [], [(root, flipped)]
    while stack:
        aid, f = stack.pop()
        if aid < m:
            e, w = edges[aid], weights[aid]
            preorder.append(Leaf(e.id, w, e.head, e.tail) if f else Leaf(e.id, w, e.tail, e.head))
            continue
        cls, a, fa, b, fb = joins[aid - m]
        preorder.append(cls)
        stack += [(a, fa != f), (b, fb != f)] if f and cls is Series else [(b, fb != f), (a, fa != f)]
    return _assemble(preorder)


def _assemble(preorder):
    """The tree of a pre-order list of ``Leaf`` objects and join classes: one stack, filled by walking the list
    in reverse, where each join takes the two subtrees on top, its left child first."""
    built = []
    for item in reversed(preorder):
        built.append(item if isinstance(item, Leaf) else item(built.pop(), built.pop()))
    return built[0]


TREE_FORMAT = "spnet-tree/2"
_KINDS = {"series": Series, "parallel": Parallel}
_OPS = {kind: op for op, kind in _KINDS.items()}


def to_json(t):
    """Tree as plain JSON data: its nodes as a flat pre-order list of ops, each
    join followed by its left subtree, then its right; leaves name their edge."""
    entries = index_tree(t)
    _check_leaves([node for node, li, _ in entries if li < 0])
    ops = [{"op": "leaf", "edge": node.edge} if li < 0 else {"op": _OPS[type(node)]} for node, li, _ in entries]
    return {"format": TREE_FORMAT, "ops": ops}


def from_json(data, g):
    """Rebuild a tree from ``to_json`` data, taking leaf weights from ``g.weights``: one forward pass checks
    every op in pre-order, counting the subtrees still owed to the joins before it, then ``_assemble``."""
    if not isinstance(data, dict) or data.get("format") != TREE_FORMAT or not isinstance(data.get("ops"), list):
        raise GraphValidationError(f"not a {TREE_FORMAT} tree file; write it again with `spnet decompose`")
    emap = {e.id: Leaf(e.id, w, e.tail, e.head) for e, w in zip(g.edges, g.weights)}
    used, owed, preorder = set(), 1, []
    for n, d in enumerate(data["ops"]):
        if not owed:
            raise GraphValidationError(f"tree op #{n} follows the end of the tree")
        op = d.get("op") if isinstance(d, dict) else None
        if op == "leaf":
            edge = d.get("edge")  # a scalar names the edge whose id is its string, as in graph files
            eid = None if isinstance(edge, (list, dict, type(None))) else str(edge)
            if eid not in emap:
                raise GraphValidationError(f"tree op #{n} references unknown edge {edge!r}")
            if eid in used:
                raise GraphValidationError(f"tree op #{n} uses edge {edge!r} twice")
            used.add(eid)
            owed -= 1
            preorder.append(emap[eid])
        elif op in ("series", "parallel"):  # a tuple: ``op`` may be unhashable
            owed += 1
            preorder.append(_KINDS[op])
        else:
            raise GraphValidationError(f"tree op #{n}: unknown op {op!r}")
    if owed:
        raise GraphValidationError(f"tree ops end with {owed} subtree(s) missing")
    return _assemble(preorder)
