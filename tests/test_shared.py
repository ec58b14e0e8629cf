"""One shared series-parallel reduction for every source: agreement with the
dense judge on scrambled networks, confluence with a reduction per source,
the terminal skeleton it leaves and its one solve, the joins one call sweeps,
and cores that are not series-parallel: the provider, exact H2 and the bound
solve them, while what needs a source's tree rejects them."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grounded, random_aittsp, random_spd, random_sptree, tree_h2
from spnet import electrical, sptree
from spnet.cli import run
from spnet.errors import GraphValidationError, NotSeriesParallelError
from spnet.fileio import save_graph
from spnet.graph import dirichlet_laplacian, make_graph
from spnet.h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_h2,
    dense_provider,
    h2_scalar_bound,
    lyapunov_residual,
    source_trees,
)
from spnet.optimize import OptConfig, optimize_weights
from spnet.sptree import Series, flatten, realize, recognize
from test_compiled import assert_matches_dense
from test_optimize import assert_same_trajectory
from test_recognize import ladder

I1 = np.eye(1)


def rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))


def scrambled_ids(rng, g):
    """Same network under fresh node and edge ids, shuffled node and edge
    order and some edges reversed; leaders follow their nodes."""
    names = {n: f"v{rng.integers(1 << 30):x}_{i}" for i, n in enumerate(g.nodes)}
    edges = []
    for i in rng.permutation(len(g.edges)):
        e = g.edges[i]
        tail, head = (e.head, e.tail) if rng.random() < 0.5 else (e.tail, e.head)
        edges.append((f"e{rng.integers(1 << 30):x}_{i}", names[tail], names[head], g.weights[i]))
    nodes = [names[g.nodes[i]] for i in rng.permutation(len(g.nodes))]
    return make_graph(g.k, nodes, edges, leaders=[names[n] for n in g.leaders])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 16]), st.integers(1, 32))
def test_provider_matches_dense_on_scrambled_networks(seed, k, n_sources):
    rng = np.random.default_rng(seed)
    g = scrambled_ids(rng, random_aittsp(rng, k, n_sources, leaves_per_link=int(rng.integers(1, 7))))
    provider = CompositionalProvider(g)
    check_skeleton(provider.program, *grounded(g))
    comp_h2, comp_q = provider(g)
    dense_h2, dense_q = dense_provider(g)
    assert list(comp_h2) == list(dense_h2) == list(g.sources)
    for s, v in dense_h2.items():
        assert comp_h2[s] == pytest.approx(v, rel=1e-9)
    assert comp_q.shape == dense_q.shape == (len(g.sources), len(g.edges), k, k)
    for got, want in zip(comp_q, dense_q):  # per source stack, no sign forgiven
        assert rel_err(got, want) <= 1e-9


def test_shared_reduction_is_confluent_with_one_per_source(rng, monkeypatch):
    builds = []
    build = sptree._build
    monkeypatch.setattr(sptree, "_build", lambda *a: builds.append(a) or build(*a))
    for _ in range(40):
        g = scrambled_ids(rng, random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)), 6))
        gg, sink = grounded(g)
        per_source = {s: tree_h2(recognize(gg, s, sink)) for s in gg.sources}
        shared = compositional_h2(g).per_source
        assert list(shared) == list(per_source)
        for s, v in per_source.items():
            assert shared[s] == pytest.approx(v, rel=1e-12)
        builds.clear()
        bound = compositional_h2(g, "bound").per_source
        assert builds == []  # the bound solves the shared skeleton and builds no tree
        trees = source_trees(g)
        assert list(bound) == list(trees)
        for s, t in trees.items():
            assert tree_h2(t) == pytest.approx(per_source[s], rel=1e-12)
            assert bound[s] == pytest.approx(h2_scalar_bound(t), rel=1e-13)  # a solve, not the paper's fold


def test_bound_is_exact_h2_at_k1(rng):
    # The bound is exact H2 of the k = 1 network with conductances 1 / tr W_e^-1: one solve, bit for bit.
    for k in (1, 2, 4) * 10:
        g = scrambled_ids(rng, random_aittsp(rng, k, int(rng.integers(1, 9)), 6))
        scalar = 1.0 / np.trace(np.linalg.inv(g.weights), axis1=1, axis2=2)[:, None, None]
        g1 = make_graph(1, g.nodes, g.edges, g.leaders, g.sources, weights=scalar)
        assert compositional_h2(g, "bound").per_source == compositional_h2(g1).per_source


def arc_ends(program, gg):
    """(tail, head) node name in the quotient ``gg`` of every arc, replayed
    from the join records: a series join runs from its oriented left child's
    tail to its oriented right child's head, a parallel join as its oriented
    left child. An edge the quotient drops gets None and must stay unjoined."""
    quotient = {e.id: (e.tail, e.head) for e in gg.edges}
    ends = [quotient.get(e.id) for e in program.edges]
    for kind, a, fa, b, fb in program.joins:
        (p, q), (u, v) = (ends[a][::-1] if fa else ends[a]), (ends[b][::-1] if fb else ends[b])
        assert q == u if kind is Series else (p, q) == (u, v)
        ends.append((p, v) if kind is Series else (p, q))
    return ends


def check_skeleton(program, gg, sink):
    """The skeleton record against the quotient ``gg`` that identifies the
    leaders into ``sink``: the live arcs are exactly the arcs no shared join
    consumes, bar the edges ``gg`` drops, at most one per node pair; their ends
    number source c as node c and the sink last, each number naming one node
    of ``gg``, and the sink's name is ``sink``."""
    ends = arc_ends(program, gg)
    consumed = {arc for _, a, _, b, _ in program.joins for arc in (a, b)}
    idle = {arc for arc, pair in enumerate(ends) if pair is None}
    assert list(program.live) == sorted(set(range(len(ends))) - consumed - idle)
    assert program.sources == tuple(gg.sources)
    names = {}
    for (u, v), (tail, head) in zip(program.ends, (ends[a] for a in program.live)):
        assert u != v
        assert names.setdefault(u, tail) == tail and names.setdefault(v, head) == head
    n = len(names)
    assert sorted(names) == list(range(n)) and len(set(names.values())) == n
    assert [names[c] for c in range(len(gg.sources))] == list(gg.sources) and names[n - 1] == sink
    assert program.nodes[-1] == sink
    assert len({frozenset(pair) for pair in program.ends.tolist()}) == len(program.live)


def plan_steps(program):
    """The chain plan as plain data: each join index, or each chain's joins."""
    return [step if type(step) is int else step.joins for step in program.plan]


def test_grounding_by_index_matches_the_grounded_copy(rng):
    # The reduction of ``g`` with its leaders as the ground set is the one of
    # the quotient graph that identifies them: same records and skeleton, from
    # all sources at once and from each source alone.
    for _ in range(30):
        g = scrambled_ids(rng, random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)), 6))
        gg, sink = grounded(g)
        pairs = [(CompositionalProvider(g).program, sptree.reduce_sources(gg, gg.sources, {sink}))]
        for s in g.sources:
            pairs.append((sptree.reduce_sources(g, (s,), g.leaders), sptree.reduce_sources(gg, (s,), {sink})))
        for got, want in pairs:
            assert got.edges is g.edges
            assert got.joins == want.joins and plan_steps(got) == plan_steps(want)
            assert got.live.tolist() == want.live.tolist() and got.ends.tolist() == want.ends.tolist()
            assert (got.sources, got.nodes) == (want.sources, want.nodes)


def test_leader_leader_edge_is_an_idle_arc(rng):
    # ``make_graph`` runs no ``validate_consensus``, so two leaders may share an
    # edge. Both its ends are grounded: no join takes it, it carries no
    # current, and every other edge keeps its row.
    k = 2
    edges = [("a1", "r1", "s1", np.eye(k)), ("a2", "r2", "s2", np.eye(k)), ("rr", "r1", "r2", random_spd(rng, k))]
    edges += [(e, u, v, random_spd(rng, k)) for e, u, v in (("e", "s1", "s2"), ("f", "s2", "m"), ("h", "m", "r1"))]
    g = make_graph(k, ["r1", "r2", "s1", "s2", "m"], edges, leaders=["r1", "r2"])
    provider = CompositionalProvider(g)
    check_skeleton(provider.program, *grounded(g))
    assert 2 not in provider.program.live and all(2 not in (a, b) for _, a, _, b, _ in provider.program.joins)
    _, q = provider(g)
    assert not q[:, 2].any()
    assert_matches_dense(g)  # Q edge by edge, no sign forgiven, and exact H2 against dense_h2
    assert all("rr" not in {lf.edge for lf in sptree.leaves(t)} for t in source_trees(g).values())


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n_sources", [8, 16, 32])
def test_skeleton_solve_matches_dense_on_long_chains(k, n_sources):
    g = random_aittsp(np.random.default_rng(7), k, n_sources, leaves_per_link=12)
    program = CompositionalProvider(g).program
    check_skeleton(program, *grounded(g))
    assert len(program.live) > n_sources  # the skeleton is more than the attachment edges
    assert_matches_dense(g)


def test_skeleton_with_a_non_terminal_hub_matches_dense(rng):
    # A Y: hub c joins sources s1 and s2 and leader r3, so after grounding c
    # is a degree-3 skeleton node that is neither a source nor the sink.
    k = 2
    edges = [("a1", "r1", "s1"), ("a2", "r2", "s2"), ("y1", "s1", "c"), ("y2", "c", "s2"), ("y3", "r3", "c")]
    edges += [("p1", "s1", "c"), ("p2", "c", "m"), ("p3", "m", "r3")]  # shared joins on two arms
    nodes, weighted = ["r1", "r2", "r3", "s1", "s2", "c", "m"], [(e, u, v, random_spd(rng, k)) for e, u, v in edges]
    g = make_graph(k, nodes, weighted, leaders=["r1", "r2", "r3"], sources=["s1", "s2"])
    program = CompositionalProvider(g).program
    check_skeleton(program, *grounded(g))
    hub = range(len(g.sources), int(program.ends.max()))  # skeleton nodes between the sources and the sink
    assert len(hub) == 1 and np.count_nonzero(program.ends == hub[0]) == 3
    assert len(program.joins) == 3
    assert_matches_dense(g)


def test_flattened_tree_is_its_own_skeleton(rng):
    # A flattened tree's one live arc is its root, from source 0 to sink 1.
    t = random_sptree(rng, 3, 9)
    program, _ = flatten(t)
    sweeps = electrical.solve_sources(program, [lf.weight for lf in program.edges])
    assert not sweeps.takes_r[-1]  # the root enters the skeleton as G and is handed its voltage, G^-1
    np.testing.assert_allclose(sweeps.roots[0], np.linalg.inv(sweeps.value[-1]), rtol=1e-12)
    np.testing.assert_allclose(sweeps.handed[-1, 0], sweeps.roots[0], rtol=1e-12)
    np.testing.assert_allclose(sweeps.value[-1] @ sweeps.handed[-1, 0], np.eye(3), atol=1e-12)


def test_two_source_ladder_sweeps_the_shared_joins_once(rng, monkeypatch):
    swept = []
    sweep = electrical.resistance_sweep
    monkeypatch.setattr(electrical, "resistance_sweep", lambda joins, *a: swept.append(len(joins)) or sweep(joins, *a))
    for rungs in (5, 40):
        g = ladder(rng, 2, rungs)
        provider = CompositionalProvider(g)
        swept.clear()
        provider(g)
        assert swept == [len(provider.program.joins)]  # the shared joins only; the skeleton is one solve


@pytest.mark.parametrize("n_sources", [1, 4, 16])
def test_exact_h2_is_one_sweep_and_one_skeleton_solve(rng, monkeypatch, n_sources):
    # Exact H2 and the bound read every source's root from the skeleton solve:
    # the shared R sweep once, no current sweep, and no tree built.
    g = random_aittsp(rng, 2, n_sources)
    program = CompositionalProvider(g).program
    calls = {"resistance_sweep": [], "current_sweep": [], "_build": []}
    for owner, name in ((electrical, "resistance_sweep"), (electrical, "current_sweep"), (sptree, "_build")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, log=calls[name]: log.append(a) or fn(*a))
    for method in ("exact", "bound"):
        for log in calls.values():
            log.clear()
        report = compositional_h2(g, method)
        assert [len(a[0]) for a in calls["resistance_sweep"]] == [len(program.joins)]
        assert calls["current_sweep"] == calls["_build"] == []
        assert list(report.per_source) == list(program.sources)


def random_weight(rng, k):
    return rng.uniform(0.1, 3.0, (1, 1)) if k == 1 else random_spd(rng, k, 0.1, 3.0)


def unreached_graphs():
    """(graph, message) pairs that no H2 route may solve, its A singular: r - s, two s - t edges
    and u - v with no leader; r - s, s - t and a follower x that no edge touches; r - s, two s - t
    edges and a triangle u - v - x with no leader, seeded random weights at k = 1 and 3 (a
    reduction may contract any one of u, v, x, so a route names one of them); four followers,
    no leader and an explicit source; a - b with no leader and no source, where the leaders are
    checked first. Some of these draws pass a Cholesky factorization of A, as
    roundoff leaves its last pivot positive, and a dense solve of them returns H2^2 of 0.5 to 1.5
    with the triangle and near 1e15 with no leader."""
    cut = "node '{}' is not connected to a leader"
    uv = [("b", "s", "t", I1), ("c", "s", "t", I1), ("d", "u", "v", I1)]
    yield make_graph(1, ["r", "s", "t", "u", "v"], [("a", "r", "s", I1), *uv], leaders=["r"]), cut.format("u")
    yield make_graph(1, ["r", "s", "t", "x"], [("a", "r", "s", I1), ("b", "s", "t", I1)], leaders=["r"]), cut.format("x")
    for k, seed in itertools.product([1, 3], range(24)):
        rng = np.random.default_rng(seed)
        pairs = [("s", "t"), ("s", "t"), ("u", "v"), ("v", "x"), ("x", "u")]
        edges = [("a", "r", "s", np.eye(k))] + [(f"e{i}", p, q, random_weight(rng, k)) for i, (p, q) in enumerate(pairs)]
        yield make_graph(k, ["r", "s", "t", "u", "v", "x"], edges, leaders=["r"]), cut.format("[uvx]")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
        edges = [(f"e{i}", p, q, random_weight(rng, 1)) for i, (p, q) in enumerate(pairs)]
        yield make_graph(1, ["a", "b", "c", "d"], edges, sources=["a"]), "^leader set is empty$"
    yield make_graph(1, ["a", "b"], [("e", "a", "b", I1)]), "^leader set is empty$"


@pytest.mark.parametrize(
    "build",
    [compositional_h2, lambda g: compositional_h2(g, "bound"), source_trees, CompositionalProvider,
     dense_h2, dense_provider, dirichlet_laplacian, lyapunov_residual],
)
def test_every_compositional_route_rejects_an_unreached_node(build):
    # One reach rule guards every route: exact H2, the bound, the trees, both
    # providers and the dense oracle reject the same graphs with the same messages.
    for g, message in unreached_graphs():
        with pytest.raises(GraphValidationError, match=message):
            build(g)


def test_edgeless_node_is_a_skeleton_node_with_no_arc():
    # The reduction keeps a node no edge touches in its skeleton, where the
    # reach check finds it cut off; the other skeleton nodes keep their arcs.
    g = make_graph(1, ["l", "x", "s", "t"], [("a", "s", "l", I1), ("b", "s", "t", I1), ("c", "t", "l", 2 * I1)])
    program = sptree.reduce_sources(g, ("s",), {"l"})
    assert program.nodes == ("s", "x", "l")
    assert program.ends.tolist() == [[0, 2]]
    with pytest.raises(GraphValidationError, match="node 'x' is not connected to a leader"):
        CompositionalProvider(make_graph(1, g.nodes, [("a", "s", "l", I1)], leaders=["l"]))


def k4_core():
    """K4 on a b c d with sources a and b, and a pendant two-edge bundle at c."""
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    edges = [(f"e{i}", u, v, I1) for i, (u, v) in enumerate(pairs)]
    edges += [("att1", "r1", "a", I1), ("att2", "r2", "b", I1), ("x", "c", "y", I1), ("z", "y", "c", 2 * I1)]
    return make_graph(1, ["r1", "r2", "a", "b", "c", "d", "y"], edges, leaders=["r1", "r2"])


def test_k4_core_is_solved_but_has_no_tree(capsys, tmp_path):
    # The provider, exact H2, the bound and `check` solve the core as a bigger
    # skeleton; a source's tree rejects it with the same message as before.
    message = "reduction stalled with 9 edges; graph is not series-parallel between 'a' and 'l'"
    check_skeleton(CompositionalProvider(k4_core()).program, *grounded(k4_core()))
    assert_matches_dense(k4_core())
    with pytest.raises(NotSeriesParallelError) as info:
        source_trees(k4_core())
    assert str(info.value) == message
    path = tmp_path / "k4.json"
    save_graph(k4_core(), path)
    assert_cli_exact_matches_oracle(capsys, path)
    assert_cli_bound_above_exact(capsys, path)
    assert run(["check", "--graph", str(path)]) == 0
    assert_cli_decompose_rejects(capsys, path, "a", message)  # the leaders are the default ground


def assert_cli_decompose_rejects(capsys, path, source, message):
    """``decompose --source`` exits 2 with one error line, which is ``message``."""
    capsys.readouterr()
    assert run(["decompose", "--graph", str(path), "--source", source]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def assert_cli_bound_above_exact(capsys, path):
    """``h2 --method bound`` exits 0 and every source's bound is at least ``--method exact``'s, to roundoff
    (Thomson's principle)."""
    reports = []
    for method in ("exact", "bound"):
        capsys.readouterr()
        assert run(["h2", "--graph", str(path), "--method", method]) == 0
        reports.append(json.loads(capsys.readouterr().out)["per_source"])
    for s, v in reports[0].items():
        assert reports[1][s] >= v * (1 - 1e-12)


def assert_cli_exact_matches_oracle(capsys, path):
    """``h2 --method exact`` exits 0 and its total agrees with ``--method oracle`` to 1e-9."""
    totals = []
    for method in ("exact", "oracle"):
        capsys.readouterr()
        assert run(["h2", "--graph", str(path), "--method", method]) == 0
        totals.append(json.loads(capsys.readouterr().out)["total_h2_squared"])
    assert totals[0] == pytest.approx(totals[1], rel=1e-9)


def k4_subdivision(rng, k, n_sources):
    """K4 on a b c d with a random SP network hung on each of its edges, and
    a leader on each of ``n_sources`` of its corners."""
    nodes, edges, corners = ["a", "b", "c", "d"], [], rng.permutation(4)[:n_sources]
    for i, (u, v) in enumerate(itertools.combinations("abcd", 2)):
        sub, src, snk = realize(random_sptree(rng, k, int(rng.integers(1, 5)), prefix=f"k{i}_"))
        rename = {src: u, snk: v}
        for n in sub.nodes:
            if n not in rename:
                rename[n] = f"m{i}_{n}"
                nodes.append(rename[n])
        edges += [(e.id, rename[e.tail], rename[e.head], w) for e, w in zip(sub.edges, sub.weights)]
    edges += [(f"att{c}", f"r{c}", "abcd"[c], np.eye(k)) for c in corners]
    return make_graph(k, nodes + [f"r{c}" for c in corners], edges, leaders=[f"r{c}" for c in corners])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 16]), st.integers(1, 3))
def test_provider_solves_k4_subdivisions(seed, k, n_sources):
    g = k4_subdivision(np.random.default_rng(seed), k, n_sources)
    check_skeleton(CompositionalProvider(g).program, *grounded(g))
    # With one leader the K4 hangs off it and its edges carry roundoff only,
    # so Q is judged over each source's whole stack.
    assert_matches_dense(g, per_edge=False)
    exact, bound = compositional_h2(g).per_source, compositional_h2(g, "bound").per_source
    assert all(bound[s] >= v * (1 - 1e-12) for s, v in exact.items())
    with pytest.raises(NotSeriesParallelError, match="stalled"):
        source_trees(g)


def test_pendant_path_is_solved_but_has_no_tree(capsys, tmp_path):
    # L0 - p0 - p1 - p2 with leader L0: p1 and p2 hang off the source and carry no current.
    edges = [("a", "L0", "p0", I1), ("b", "p0", "p1", I1), ("c", "p1", "p2", 2 * I1)]
    g = make_graph(1, ["L0", "p0", "p1", "p2"], edges, leaders=["L0"])
    assert_matches_dense(g, per_edge=False)
    path = tmp_path / "pendant.json"
    save_graph(g, path)
    assert run(["check", "--graph", str(path)]) == 0
    assert_cli_exact_matches_oracle(capsys, path)
    assert_cli_bound_above_exact(capsys, path)
    with pytest.raises(NotSeriesParallelError, match="reduction stalled with 2 edges"):
        source_trees(g)  # the pendant p1 - p2 stalls the source's reduction
    message = "reduction stalled with 2 edges; graph is not series-parallel between 'p0' and 'l'"
    assert_cli_decompose_rejects(capsys, path, "p0", message)
    base = dict(penalty_h=0.3, bounds={e.id: (0.5 * I1, 2 * I1) for e in g.edges}, max_iters=10)
    comp = optimize_weights(g, OptConfig(voltage_mode="compositional", **base))
    assert_same_trajectory(comp, optimize_weights(g, OptConfig(voltage_mode="dense", **base)), 1e-9)
