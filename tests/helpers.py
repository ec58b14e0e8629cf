"""Shared generators and oracles for the test suite."""

import itertools
from fractions import Fraction

import numpy as np

from spnet import electrical, matlin
from spnet.electrical import solve_tree
from spnet.graph import make_graph
from spnet.h2 import dense_h2
from spnet.sptree import Chain, Leaf, Parallel, Series, index_tree, leaf, parallel, realize, series


def random_spd(rng, k, lo=0.5, hi=2.0):
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    eig = rng.uniform(lo, hi, size=k)
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def random_psd(rng, k, hi=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    eig = rng.uniform(0.0, hi, size=k)
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def root_resistance(t):
    """Effective resistance of a whole tree: the root block of ``solve_tree``."""
    return solve_tree(t)[0][0]


def arc_currents(sweeps):
    """Every arc's current in a ``SourceSweeps``: what it was handed where it holds R, G V where it holds G."""
    return np.where(sweeps.takes_r[:, None, None, None], sweeps.handed, sweeps.value[:, None] @ sweeps.handed)


def plan_forms(joins, plan, m):
    """Each arc's form, R (True) or G, read off a plan: a series join's
    children and a chain's series light children hold R."""
    flags = [False] * (m + len(joins))
    for step in plan:
        if type(step) is Chain:
            for a in step.arcs[: step.series].tolist():
                flags[a] = True
        elif joins[step][0] is Series:
            flags[joins[step][1]] = flags[joins[step][3]] = True
    return np.array(flags)


def per_join_resistance_sweep(joins, weights, plan, takes_r):
    """Reference for ``electrical.resistance_sweep``, with its signature and
    results: the forms read off the plan (``plan_forms``, not ``takes_r``),
    and every arc whose parent takes the other form inverted at its own join,
    one k x k inverse each."""
    weights = np.asarray(weights, dtype=float)
    m = len(weights)
    flags = plan_forms(joins, plan, m)
    val = np.zeros((m + len(joins), *weights.shape[1:]))
    val[:m] = weights
    r = np.flatnonzero(flags[:m])
    val[r] = electrical.leaf_resistances(weights[r])
    factors = {}
    for step in plan:
        if type(step) is Chain:
            top = step.top
            v, factors[top] = electrical._chain_resistance(step, val)
        else:
            top, (_, a, _, b, _) = step, joins[step]
            v = val[a] + val[b]
        val[m + top] = v if (joins[top][0] is Series) == flags[m + top] else matlin.symmetrize(np.linalg.inv(v))
    return val, factors


def tree_h2(t):
    """Exact squared norm of a one-source tree: half the trace of its root resistance."""
    return 0.5 * float(np.trace(root_resistance(t)))


def leaf_rows(t):
    """Pre-order index of each leaf of a tree, keyed by edge id."""
    return {node.edge: i for i, (node, li, _) in enumerate(index_tree(t)) if li < 0}


def random_sptree(rng, k, n_leaves, prefix="e", lo=0.5, hi=2.0):
    """Random complete SP tree with the given number of leaves."""
    counter = itertools.count()

    def build(n):
        if n == 1:
            return leaf(f"{prefix}{next(counter)}", random_spd(rng, k, lo, hi))
        split = int(rng.integers(1, n))
        left, right = build(split), build(n - split)
        return series(left, right) if rng.random() < 0.5 else parallel(left, right)

    return build(n_leaves)


def enumerate_sptrees(n_leaves, k=1, weight=1.0):
    """All complete SP trees with exactly n_leaves leaves (shapes x op labels)."""
    counter = itertools.count()

    def shapes(n):
        if n == 1:
            yield ("leaf",)
            return
        for split in range(1, n):
            for left in shapes(split):
                for right in shapes(n - split):
                    for op in ("series", "parallel"):
                        yield (op, left, right)

    def build(shape):
        if shape[0] == "leaf":
            return Leaf(f"e{next(counter)}", weight * np.eye(k))
        cls = Series if shape[0] == "series" else Parallel
        return cls(build(shape[1]), build(shape[2]))

    for shape in shapes(n_leaves):
        counter = itertools.count()
        yield build(shape)


def random_aittsp(rng, k, n_sources, leaves_per_link=4, lo=0.5, hi=2.0):
    """Random all-input TTSP consensus network.

    Sources form a chain; each consecutive pair is linked by the
    realization of a random SP tree, so after grounding the leaders the
    quotient is TTSP from every source to the sink.
    """
    nodes = []
    edges = []
    for i in range(n_sources):
        nodes += [f"r{i}", f"s{i}"]
        edges.append((f"a{i}", f"r{i}", f"s{i}", np.eye(k)))
    for i in range(n_sources - 1):
        n_leaves = int(rng.integers(1, leaves_per_link + 1))
        sub = random_sptree(rng, k, n_leaves, prefix=f"c{i}_", lo=lo, hi=hi)
        sub_g, src, snk = realize(sub)
        rename = {src: f"s{i}", snk: f"s{i + 1}"}
        for n in sub_g.nodes:
            if n not in rename:
                rename[n] = f"m{i}_{n}"
                nodes.append(rename[n])
        for e, w in zip(sub_g.edges, sub_g.weights):
            edges.append((e.id, rename[e.tail], rename[e.head], w))
    return make_graph(k, nodes, edges, leaders=[f"r{i}" for i in range(n_sources)])


def grounded(g):
    """(quotient graph, sink id): ``g`` with its leaders identified into one
    sink, "l" ("_"-prefixed while that names a follower), and leader-leader
    edges dropped; rebuilt from relabelled edge tuples, a reference for what
    grounding the leaders by index does."""
    sink = "l"
    while sink in g.followers:
        sink = "_" + sink

    def name(n):
        return sink if n in g.leaders else n

    edges = [(e.id, name(e.tail), name(e.head), w) for e, w in zip(g.edges, g.weights) if name(e.tail) != name(e.head)]
    nodes = dict.fromkeys(map(name, g.nodes))
    return make_graph(g.k, nodes, edges, leaders=[sink], sources=g.sources), sink


def fd_gradient_direction(g, edge_id, direction, step=1e-5):
    """Central finite difference of the dense squared H2 norm along one
    symmetric weight perturbation direction."""
    base = g.weights[[e.id for e in g.edges].index(edge_id)]
    plus = dense_h2(reweighted(g, {edge_id: base + step * direction})).total
    minus = dense_h2(reweighted(g, {edge_id: base - step * direction})).total
    return (plus - minus) / (2.0 * step)


def reweighted(g, new):
    """``g`` built again by ``make_graph`` with the weights ``new`` (edge id -> k x k) in place of those it names."""
    weights = np.array([new.get(e.id, w) for e, w in zip(g.edges, g.weights)])
    return make_graph(g.k, g.nodes, g.edges, g.leaders, g.sources, weights=weights)


def random_symmetric(rng, k):
    m = rng.standard_normal((k, k))
    m = 0.5 * (m + m.T)
    return m / np.linalg.norm(m, "fro")


def exact_q(g):
    """The exact judge: Q per source, an (S, m, k, k) stack like a provider's,
    by Gauss-Jordan elimination in ``fractions.Fraction`` on the Dirichlet
    Laplacian assembled exactly from the float weights, rounded to floats
    once at the end. Small graphs only: its cost grows with the digits."""
    k, row = g.k, {v: i for i, v in enumerate(g.followers)}
    n, cols = len(row) * k, len(g.sources) * k
    a = [[Fraction(0)] * (n + cols) for _ in range(n)]
    for c, s in enumerate(g.sources):
        for i in range(k):
            a[row[s] * k + i][n + c * k + i] = Fraction(1)
    for e, w in zip(g.edges, g.weights):
        w = [[Fraction(x) for x in r] for r in w.tolist()]
        ends = [row[v] for v in (e.tail, e.head) if v in row]
        for u in ends:
            for v in ends:
                sign = 1 if u == v else -1
                for i in range(k):
                    for j in range(k):
                        a[u * k + i][v * k + j] += sign * w[i][j]
    for p in range(n):  # SPD: no pivoting needed
        pivot = a[p]
        inv = 1 / pivot[p]
        pivot[:] = [x * inv for x in pivot]
        for r in range(n):
            f = a[r][p]
            if r != p and f:
                a[r] = [x - f * y for x, y in zip(a[r], pivot)]
    y = np.zeros((len(g.sources), len(g.nodes), k, k))
    for v, i in row.items():
        block = np.array([[float(x) for x in a[i * k + r][n:]] for r in range(k)])  # (k, S k)
        y[:, g.index[v]] = block.reshape(k, -1, k).swapaxes(0, 1)
    return y[:, g.ends[:, 0]] - y[:, g.ends[:, 1]]
