"""Seeded instance generators for the benchmark.

Kept apart from the test suite's helpers so that test edits cannot shift the
benchmark's inputs. Every workload instance gets fresh node and edge ids, a
shuffled edge order and random edge orientations, so no structure repeats
across ops. Instances are plain JSON dicts in the format ``spnet.fileio``
reads.
"""

import numpy as np


def random_spd(rng, k, lo, hi):
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    m = (q * rng.uniform(lo, hi, size=k)) @ q.T
    return 0.5 * (m + m.T)


def _fresh_ids(rng, tag, count):
    """``count`` distinct ids ``<tag><random hex>_<n>`` in shuffled order."""
    prefix = f"{tag}{int(rng.integers(1 << 24)):06x}_"
    return [f"{prefix}{int(i)}" for i in rng.permutation(count)]


def _assemble(rng, k, nodes, leader_pairs, free_edges):
    """Build the graph dict from generator-local node labels.

    ``leader_pairs`` are (leader, source) label pairs joined by identity-weight
    edges; ``free_edges`` are (tail, head, weight) triples. Returns the dict
    and the list of free edge ids in generation order.
    """
    names = dict(zip(nodes, _fresh_ids(rng, "v", len(nodes))))
    edge_ids = _fresh_ids(rng, "e", len(leader_pairs) + len(free_edges))
    free_ids = edge_ids[len(leader_pairs) :]
    edges = [
        (eid, names[leader], names[source], np.eye(k))
        for eid, (leader, source) in zip(edge_ids, leader_pairs)
    ]
    edges += [(eid, names[tail], names[head], w) for eid, (tail, head, w) in zip(free_ids, free_edges)]
    order = rng.permutation(len(edges))
    out = []
    for i in order:
        eid, tail, head, w = edges[i]
        if rng.random() < 0.5:
            tail, head = head, tail
        out.append({"id": eid, "tail": tail, "head": head, "weight": w.tolist()})
    node_list = [names[n] for n in nodes]
    node_list = [node_list[i] for i in rng.permutation(len(node_list))]
    graph = {
        "k": k,
        "nodes": node_list,
        "edges": out,
        "leaders": sorted(names[leader] for leader, _ in leader_pairs),
    }
    return graph, free_ids


def ladder(rng, k, rungs, lo=0.5, hi=2.0):
    """Ladder a0..a{n-1} / b0..b{n-1} with rungs ai-bi; leaders at a0 and b0.

    Returns (graph dict, {edge id: (L, U)}) with the box [W/2, 2W] around
    every free edge's weight W.
    """
    nodes = ["La", "Lb"]
    free = []
    for i in range(rungs):
        nodes += [("a", i), ("b", i)]
        free.append((("a", i), ("b", i), random_spd(rng, k, lo, hi)))
        if i:
            free.append((("a", i - 1), ("a", i), random_spd(rng, k, lo, hi)))
            free.append((("b", i - 1), ("b", i), random_spd(rng, k, lo, hi)))
    graph, free_ids = _assemble(rng, k, nodes, [("La", ("a", 0)), ("Lb", ("b", 0))], free)
    return graph, {eid: (0.5 * w, 2.0 * w) for eid, (_, _, w) in zip(free_ids, free)}


def _sp_link(rng, leaves, s, t, fresh, out):
    """Append a random two-terminal SP network with ``leaves`` edges from s to t."""
    if leaves == 1:
        out.append((s, t))
        return
    split = int(rng.integers(1, leaves))
    if rng.random() < 0.5:
        mid = fresh()
        _sp_link(rng, split, s, mid, fresh, out)
        _sp_link(rng, leaves - split, mid, t, fresh, out)
    else:
        _sp_link(rng, split, s, t, fresh, out)
        _sp_link(rng, leaves - split, s, t, fresh, out)


def sp_chain(rng, k, sources, leaves, box_lo, box_hi, start, inner=None):
    """All-input TTSP chain with a Loewner box for every free edge.

    Sources s0..s{S-1} each carry a leader; consecutive sources are joined by
    a random SP network of exactly ``leaves`` edges, so the grounded graph is
    TTSP from every source. When ``inner`` is given, the links are redrawn
    until they hold exactly that many inner nodes, which fixes the order of
    the dense Dirichlet matrix. Each free edge gets L with eig in [0.1, 0.3],
    U = L + D with eig(D) in [box_lo, box_hi], and starts at L + start * D.

    Returns (graph dict, {edge id: (L, U)}).
    """
    terminals = [(tag, i) for i in range(sources) for tag in ("r", "s")]
    while True:
        inner_nodes = []

        def fresh():
            inner_nodes.append(("m", len(inner_nodes)))
            return inner_nodes[-1]

        links = []
        for i in range(sources - 1):
            _sp_link(rng, leaves, ("s", i), ("s", i + 1), fresh, links)
        if inner is None or len(inner_nodes) == inner:
            break
    nodes = terminals + inner_nodes
    free = []
    boxes = []
    for tail, head in links:
        lower = random_spd(rng, k, 0.1, 0.3)
        upper = lower + random_spd(rng, k, box_lo, box_hi)
        boxes.append((lower, upper))
        free.append((tail, head, lower + start * (upper - lower)))
    graph, free_ids = _assemble(rng, k, nodes, [(("r", i), ("s", i)) for i in range(sources)], free)
    return graph, dict(zip(free_ids, boxes))


def path(rng, k, edges):
    """Path L0 - p0 - ... - p{m} - L1 with its edges listed in path order.

    Ids, order and orientation follow the path, as a user would write it;
    this is the input on which recursion depth grows with the path length.
    """
    nodes = ["L0", "L1"] + [f"p{i}" for i in range(edges + 1)]
    out = [
        {"id": "a0", "tail": "L0", "head": "p0", "weight": np.eye(k).tolist()},
        {"id": "a1", "tail": f"p{edges}", "head": "L1", "weight": np.eye(k).tolist()},
    ]
    for i in range(edges):
        w = random_spd(rng, k, 0.5, 2.0)
        out.append({"id": f"e{i}", "tail": f"p{i}", "head": f"p{i + 1}", "weight": w.tolist()})
    return {"k": k, "nodes": nodes, "edges": out, "leaders": ["L0", "L1"]}


def tight_boxes(rng, count, k=4, lo=0.01, hi=0.2):
    """Projection inputs (X, L, U): eig(U - L) in [lo, hi] and X the box
    midpoint plus a symmetrized standard normal perturbation."""
    out = []
    for _ in range(count):
        lower = random_spd(rng, k, 0.5, 2.0)
        upper = lower + random_spd(rng, k, lo, hi)
        d = rng.standard_normal((k, k))
        out.append((0.5 * (lower + upper) + 0.5 * (d + d.T), lower, upper))
    return out
