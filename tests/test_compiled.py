"""The shared arc program: agreement with the dense oracle, one reduction
per provider, the parallel-voltage guards, and trees deep enough to defeat
recursion through the tree walkers and every command."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spnet
from helpers import arc_currents, exact_q, leaf_rows, random_aittsp, random_sptree, reweighted, tree_h2
from spnet import electrical, sptree
from spnet import h2 as h2_module
from spnet.cli import _emit, run
from spnet.graph import attachment_edge_ids, make_graph
from spnet.h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_h2,
    dense_provider,
    dense_solve,
    h2_scalar_bound,
)
from spnet.optimize import edge_gradients
from spnet.sptree import (
    Leaf,
    Parallel,
    Series,
    check_height_bounds,
    from_json,
    index_tree,
    leaf,
    leaves,
    parallel,
    realize,
    stats,
    to_json,
)
from test_recognize import ladder

DEMO = str(Path(spnet.__file__).parent / "data" / "demo_graph.json")


def rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))


def assert_matches_dense(g, per_edge=True):
    """The provider's and the exact compositional H2² per source against
    ``dense_h2`` and Q against ``dense_provider`` (same orientation, no sign
    forgiven), all to 1e-9 relative: edge by edge, or over each source's whole
    Q stack when ``per_edge`` is false."""
    oracle = dense_h2(g).per_source
    comp_h2, comp_q = CompositionalProvider(g)(g)
    _, dense_q = dense_provider(g)
    exact = compositional_h2(g).per_source
    assert comp_h2.keys() == exact.keys() == oracle.keys()
    for s, v in oracle.items():
        assert comp_h2[s] == pytest.approx(v, rel=1e-9)
        assert exact[s] == pytest.approx(v, rel=1e-9)
    assert comp_q.shape == dense_q.shape == (len(oracle), len(g.edges), g.k, g.k)
    for got, want in zip(comp_q, dense_q):
        for a, b in zip(got, want) if per_edge else [(got, want)]:
            assert rel_err(a, b) <= 1e-9


class TestQStack:
    """Both providers return one (S, m, k, k) stack: rows in ``h2`` key
    order, columns in ``g.edges`` order, each block in stored orientation."""

    def test_rows_columns_and_signs(self, rng):
        signs = set()
        for k in (1, 2, 3) * 2:
            g = random_aittsp(rng, k, 3)
            provider = CompositionalProvider(g)
            solutions = electrical.solve_sources(provider.program, g.weights)
            for h2, q in (provider(g), dense_provider(g)):
                assert list(h2) == list(g.sources)
                assert q.shape == (len(g.sources), len(g.edges), k, k)
            _, comp_q = provider(g)
            _, dense_q = dense_provider(g)
            column = {e.id: j for j, e in enumerate(g.edges)}
            for c, s in enumerate(g.sources):
                y = dict(zip(g.nodes, dense_solve(g, [s])[0]))  # zero at every leader, where the tree's leaves end
                for lf in leaves(provider.program.tree(s, g.weights)):
                    j = column[lf.edge]
                    # Net sign of the arc in the source's tree: +1 where the flow runs tail -> head.
                    sign = 1.0 if lf.tail == g.edges[j].tail else -1.0
                    signs.add(sign)
                    np.testing.assert_array_equal(comp_q[c, j], solutions.voltage[j, c])
                    np.testing.assert_allclose(sign * dense_q[c, j], y[lf.tail] - y[lf.head], rtol=1e-12, atol=1e-15)
                    # No sign freedom between the providers.
                    assert rel_err(comp_q[c, j], dense_q[c, j]) <= 1e-9
        assert signs == {1.0, -1.0}

    def test_edge_gradients_match_per_source_loop(self, rng):
        g = random_aittsp(rng, 3, 4)
        for _, q in (CompositionalProvider(g)(g), dense_provider(g)):
            want = np.zeros((len(g.edges), g.k, g.k))
            for s in range(q.shape[0]):
                for e in range(q.shape[1]):
                    want[e] -= 0.5 * q[s, e] @ q[s, e].T
            np.testing.assert_allclose(edge_gradients(q), want, rtol=1e-12, atol=1e-15)


class TestCompiledProvider:
    def test_random_networks_match_dense(self, rng):
        for k in (1, 2, 3, 4, 8, 16) * 6:
            assert_matches_dense(random_aittsp(rng, k, int(rng.integers(2, 5))))

    def test_long_ladder_matches_dense(self, rng):
        # Q decays along the ladder to ~1e-18 on the far rungs, below the
        # dense solve's own roundoff, so Q is compared over each source's
        # stack rather than edge by edge.
        g = ladder(rng, 2, 340)
        assert len(g.edges) >= 1000
        assert_matches_dense(g, per_edge=False)

    def test_one_reduction_per_construction(self, rng, monkeypatch):
        calls, indexed = [], []
        reduce_sources = h2_module.reduce_sources
        monkeypatch.setattr(h2_module, "reduce_sources", lambda *a: calls.append(a) or reduce_sources(*a))
        g = random_aittsp(rng, 2, 3)
        monkeypatch.setattr(sptree, "index_tree", lambda t: indexed.append(t))
        provider = CompositionalProvider(g)
        assert len(calls) == 1
        provider(g)
        provider(g)
        assert len(calls) == 1
        compositional_h2(g)
        assert len(calls) == 2
        assert indexed == []

    def test_edges_must_match_compiled_order(self, rng):
        g = random_aittsp(rng, 2, 3)
        provider = CompositionalProvider(g)
        for edges in (g.edges[::-1], g.edges[1:]):
            with pytest.raises(ValueError, match="edges differ"):
                provider(replace(g, edges=edges))

    def test_rewired_edges_are_refused(self):
        # The same ids with moved ends are another network: solved with the
        # old reduction, e2 s1-s2 (3) and e3 a-s2 (5) would read H2^2 0.27
        # per source where the dense oracle reads 0.278846.
        def graph(ends):
            edges = [("l1", "L1", "s1"), ("l2", "L2", "s2"), *((f"e{j + 1}", *e) for j, e in enumerate(ends))]
            w = np.array([1.0, 1.0, 1.0, 3.0, 5.0]).reshape(-1, 1, 1)
            return make_graph(1, ["L1", "L2", "s1", "s2", "a"], edges, leaders=["L1", "L2"], weights=w)

        provider = CompositionalProvider(graph([("s1", "a"), ("a", "s2"), ("s1", "s2")]))
        rewired = graph([("s1", "a"), ("s1", "s2"), ("a", "s2")])
        assert dense_h2(rewired).per_source == pytest.approx({"s1": 0.278846, "s2": 0.278846}, rel=1e-5)
        with pytest.raises(ValueError, match="edges differ"):
            provider(rewired)

    def test_leaf_signs_follow_stored_orientation(self, rng):
        # Each source's arc currents, in stored orientation, are its tree's
        # leaf currents times the leaf's net sign.
        g = random_aittsp(rng, 2, 4)
        provider = CompositionalProvider(g)
        currents = arc_currents(electrical.solve_sources(provider.program, g.weights))
        arc = {e.id: a for a, e in enumerate(g.edges)}
        signs = set()
        for c, s in enumerate(provider.program.sources):
            tree = provider.program.tree(s, g.weights)
            _, cur, _ = electrical.solve_tree(tree)
            rows = leaf_rows(tree)
            for lf in leaves(tree):
                sign = 1.0 if lf.tail == g.edges[arc[lf.edge]].tail else -1.0
                np.testing.assert_allclose(
                    currents[arc[lf.edge], c], sign * cur[rows[lf.edge]], rtol=1e-12, atol=1e-15
                )
                signs.add(sign)
        assert signs == {1.0, -1.0}


def assert_one_voltage_per_parallel_join(program, sweeps):
    """Both children of every parallel join the plan sweeps, and every shunt
    of a chain's port, are handed one voltage array, bit for bit once each
    child's stored direction is undone; a join's children get its voltage."""
    m, handed = len(program.edges), sweeps.handed
    for step in program.plan:
        if type(step) is sptree.Chain:
            shunts = step.series + np.arange(len(step.port))
            for port in np.unique(step.port):
                got = [(step.signs[i] * handed[step.arcs[i]]).tobytes() for i in shunts[step.port == port]]
                assert got == got[:1] * len(got)
            continue
        kind, a, fa, b, fb = program.joins[step]
        if kind is Parallel:
            va, vb = (-handed[c] if flip else handed[c] for c, flip in ((a, fa), (b, fb)))
            assert va.tobytes() == vb.tobytes()
            j = m + step
            v = sweeps.value[j] @ handed[j] if sweeps.takes_r[j] else handed[j]
            np.testing.assert_allclose(va, v, rtol=1e-12)


class TestVoltageGuard:
    """What replaced the parallel-voltage guard: a parallel join hands its
    children one voltage, so they cannot disagree."""

    def test_consistent_currents_pass(self, rng):
        t = random_sptree(rng, 3, 12)
        res, _, vol = electrical.solve_tree(t)
        np.testing.assert_allclose(vol[0], res[0], rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_parallel_children_share_one_voltage(self, rng, k):
        for _ in range(4):
            program, _ = sptree.flatten(random_sptree(rng, k, int(rng.integers(2, 30))))
            sweeps = electrical.solve_sources(program, [lf.weight for lf in program.edges])
            assert_one_voltage_per_parallel_join(program, sweeps)
            g = random_aittsp(rng, k, int(rng.integers(2, 6)), leaves_per_link=8)
            program = CompositionalProvider(g).program
            assert_one_voltage_per_parallel_join(program, electrical.solve_sources(program, g.weights))


class TestExactJudge:
    """The provider's Q against exact rationals (``helpers.exact_q``)."""

    def test_judge_agrees_with_dense_when_well_conditioned(self, rng):
        for k in (1, 2, 3):
            g = random_aittsp(rng, k, 3)
            assert rel_err(exact_q(g), dense_provider(g)[1]) <= 1e-14

    def test_provider_q_on_ill_conditioned_graphs(self):
        # 60 small networks, k = 2 or 3, every free weight's eigenvalues spread
        # by up to 10^+-0.3, 10^+-4 or 10^+-8: the provider solves each one,
        # and Q's worst error per source (scaled by its largest entry) stays
        # within each condition band's bound.
        rng = np.random.default_rng(0)
        worst = {False: 0.0, True: 0.0}  # keyed by: some weight has cond(W) >= 1e8
        for _ in range(60):
            k, spread = int(rng.integers(2, 4)), float(rng.choice([0.3, 4.0, 8.0]))
            g = random_aittsp(rng, k, int(rng.integers(2, 4)), leaves_per_link=4)
            fixed = attachment_edge_ids(g)
            new = {}
            for e in g.edges:
                if e.id not in fixed:
                    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
                    new[e.id] = (q * 10.0 ** rng.uniform(-spread, spread, k)) @ q.T
            g = reweighted(g, new)
            want = exact_q(g)
            err = np.abs(CompositionalProvider(g)(g)[1] - want).max(axis=(1, 2, 3)) / np.abs(want).max(axis=(1, 2, 3))
            ill = bool(np.linalg.cond(g.weights).max() >= 1e8)
            worst[ill] = max(worst[ill], float(err.max()))
        assert worst[False] <= 1e-8
        assert worst[True] <= 1e-5


def comb(n):
    t = leaf("e0", [[1.0]])
    for i in range(1, n):
        t = Series(t, leaf(f"e{i}", [[1.0 + i % 3]]))
    return t


def realize_reference(t):
    """The recursive realization these walkers replace."""
    counter = iter(range(10**9))

    def rec(node):
        if isinstance(node, Leaf):
            s, e = f"v{next(counter)}", f"v{next(counter)}"
            return [(node.edge, s, e)], s, e
        e1, s1, t1 = rec(node.left)
        e2, s2, t2 = rec(node.right)
        ren = {s2: t1} if isinstance(node, Series) else {s2: s1, t2: t1}
        out = (s1, t2) if isinstance(node, Series) else (s1, t1)
        return e1 + [(eid, ren.get(a, a), ren.get(b, b)) for eid, a, b in e2], *out

    return rec(t)


MIXED_IDS = {
    "k": 1,
    "nodes": ["L0", "L1", 1, "b", "c"],
    "leaders": ["L0", "L1"],
    "edges": [
        {"id": "a0", "tail": "L0", "head": 1, "weight": [[1.0]]},
        {"id": "a1", "tail": "c", "head": "L1", "weight": [[1.0]]},
        {"id": "e1", "tail": 1, "head": "b", "weight": [[2.0]]},
        {"id": "e2", "tail": "b", "head": "c", "weight": [[0.5]]},
        {"id": "e3", "tail": 1, "head": "c", "weight": [[1.5]]},
    ],
}


class TestDeepTrees:
    def test_walkers_on_deep_comb(self):
        t = comb(5000)
        st = stats(t)
        assert (st.leaves, st.series, st.parallel, st.height) == (5000, 4999, 0, 4999)
        assert check_height_bounds(t)
        g, src, snk = realize(t)
        assert len(g.nodes) == st.nodes == 5001
        back = from_json(to_json(t), g)
        assert [(type(a), getattr(a, "edge", None)) for a, _, _ in index_tree(back)] == [
            (type(a), getattr(a, "edge", None)) for a, _, _ in index_tree(t)
        ]
        assert h2_scalar_bound(t) == pytest.approx(tree_h2(t), rel=1e-12)

    def test_realize_matches_recursive_reference(self, rng):
        for _ in range(30):
            t = random_sptree(rng, 2, int(rng.integers(1, 12)))
            g, src, snk = realize(t)
            edges, ref_src, ref_snk = realize_reference(t)
            assert [(e.id, e.tail, e.head) for e in g.edges] == edges
            assert (src, snk) == (ref_src, ref_snk)
            assert list(g.nodes) == list(dict.fromkeys(n for _, a, b in edges for n in (a, b)))

    def test_from_json_errors_in_pre_order(self):
        g, _, _ = realize(parallel(leaf("a", [[1.0]]), leaf("b", [[1.0]])))
        a, b = {"op": "leaf", "edge": "a"}, {"op": "leaf", "edge": "b"}
        par, ser = {"op": "parallel"}, {"op": "series"}
        cases = [
            ([ser, {"op": "leaf", "edge": "zz"}, {"op": "nope"}], "op #1 references unknown edge 'zz'"),
            ([par, a, a], "op #2 uses edge 'a' twice"),
            ([par, a], "1 subtree"),
            ([par, a, b, a], "op #3 follows the end of the tree"),
            ([ser, {"op": "leaf", "edge": ["a"]}, b], "unknown edge \\['a'\\]"),
            ([ser, {"op": "leaf"}, b], "op #1 references unknown edge None$"),
            ([ser, [a], b], "op #1: unknown op None"),
        ]
        for ops, message in cases:
            with pytest.raises(spnet.GraphValidationError, match=message):
                from_json({"format": "spnet-tree/2", "ops": ops}, g)
        nested = {"op": "parallel", "children": [a, b]}
        for data in (nested, {"format": "spnet-tree/1", "ops": [par, a, b]}, [par, a, b]):
            with pytest.raises(spnet.GraphValidationError, match="write it again with `spnet decompose`"):
                from_json(data, g)
        assert [lf.edge for lf in leaves(from_json({"format": "spnet-tree/2", "ops": [par, b, a]}, g))] == ["b", "a"]

    def test_from_json_reads_an_edge_number_as_its_string(self):
        g = make_graph(1, ["s", "m", "t"], [(1, "s", "m", [[1.0]]), (2, "m", "t", [[2.0]])])
        ser, par = {"op": "series"}, {"op": "parallel"}
        one, two = {"op": "leaf", "edge": 1}, {"op": "leaf", "edge": "2"}
        assert [lf.edge for lf in leaves(from_json({"format": "spnet-tree/2", "ops": [ser, one, two]}, g))] == ["1", "2"]
        with pytest.raises(spnet.GraphValidationError, match="^tree op #2 uses edge '1' twice$"):
            from_json({"format": "spnet-tree/2", "ops": [par, one, {"op": "leaf", "edge": "1"}]}, g)

    def test_integer_node_ids_emit_valid_json(self, tmp_path):
        # A file may write node ids as numbers; each is stored as its string, which is how a command names it.
        w = [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
        edges = [{"id": f"e{i}", "tail": i, "head": i + 1, "weight": w[i]} for i in range(3)]
        graph = tmp_path / "int.json"
        graph.write_text(json.dumps({"k": 2, "nodes": [0, 1, 2, 3], "edges": edges, "leaders": [0, 3]}))
        out, tree = tmp_path / "out.json", tmp_path / "tree.json"
        for method in ("exact", "bound", "oracle"):
            assert run(["h2", "--graph", str(graph), "--method", method, "--out", str(out)]) == 0
            assert sorted(json.loads(out.read_text())["per_source"]) == ["1", "2"]
        assert run(["decompose", "--graph", str(graph), "--source", "1", "--out", str(tree)]) == 0
        assert run(["resistance", "--graph", str(graph), "--tree", str(tree), "--out", str(out)]) == 0
        # One number among string ids: the nodes sort as strings.
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(MIXED_IDS))
        for argv in (["h2", "--method", "exact"], ["h2", "--method", "bound"], ["h2", "--method", "oracle"], ["check"]):
            assert run([argv[0], "--graph", str(mixed), *argv[1:], "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]

    def test_unencodable_output_writes_no_file(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(TypeError):
            _emit({(1, 2): 0}, str(out))
        assert not out.exists()


def path_files(tmp_path, m=2000):
    """L0 - p0 - ... - p{m} - L1 with k = 1, and an optimizer config for it."""
    rng = np.random.default_rng(2000)
    nodes = ["L0"] + [f"p{i}" for i in range(m + 1)] + ["L1"]
    edges = [{"id": "a0", "tail": "L0", "head": "p0", "weight": [[1.0]]}]
    edges += [
        {"id": f"e{i}", "tail": f"p{i}", "head": f"p{i + 1}", "weight": [[float(rng.uniform(0.5, 2.0))]]}
        for i in range(m)
    ]
    edges.append({"id": "a1", "tail": f"p{m}", "head": "L1", "weight": [[1.0]]})
    graph_path, config_path = tmp_path / "path.json", tmp_path / "config.json"
    graph_path.write_text(json.dumps({"k": 1, "nodes": nodes, "edges": edges, "leaders": ["L0", "L1"]}))
    bounds = {f"e{i}": {"L": [[0.1]], "U": [[5.0]]} for i in range(m)}
    config_path.write_text(json.dumps({"penalty_h": 0.5, "max_iters": 2, "bounds": bounds}))
    return str(graph_path), str(config_path)


def test_long_path_through_every_command(tmp_path):
    graph, config = path_files(tmp_path)
    out = tmp_path / "out.json"
    h2 = {}
    for method in ("exact", "bound", "oracle"):
        assert run(["h2", "--graph", graph, "--method", method, "--out", str(out)]) == 0
        h2[method] = json.loads(out.read_text())["total_h2_squared"]
    assert h2["exact"] == pytest.approx(h2["oracle"], rel=1e-9)
    assert h2["bound"] == pytest.approx(h2["exact"], rel=1e-9)  # tight at k = 1
    tree = tmp_path / "tree.json"
    assert run(["decompose", "--graph", graph, "--source", "p0", "--out", str(tree)]) == 0
    assert tree.stat().st_size < 10**6  # flat: linear in the tree's size, not its depth
    assert sum(op["op"] == "leaf" for op in json.loads(tree.read_text())["ops"]) == 2002
    assert run(["resistance", "--graph", graph, "--tree", str(tree), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4003
    csv_path = tmp_path / "traj.csv"
    assert run(["optimize", "--graph", graph, "--config", config, "--out", str(csv_path)]) == 0
    assert len(csv_path.read_text().splitlines()) == 4
    assert run(["check", "--graph", graph, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]


def test_resistance_layout(tmp_path, capsys):
    g = spnet.fileio.load_graph(DEMO)
    tree_path = tmp_path / "tree.json"
    assert run(["decompose", "--graph", DEMO, "--source", g.sources[0], "--out", str(tree_path)]) == 0
    assert run(["resistance", "--graph", DEMO, "--tree", str(tree_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    tree = spnet.fileio.load_tree(str(tree_path), g)
    _, _, vol = electrical.solve_tree(tree)
    assert list(data) == [str(i) for i in range(len(index_tree(tree)))]
    for i, annotations in data.items():
        assert list(annotations) == ["resistance", "current", "voltage"]
        np.testing.assert_array_equal(annotations["voltage"], vol[int(i)])
