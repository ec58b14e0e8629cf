
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_aittsp, random_spd, random_sptree, reweighted
from spnet import graph
from spnet.cli import _kirchhoff
from spnet.errors import GraphValidationError
from spnet.fileio import graph_from_dict
from spnet.graph import (
    incidence,
    dirichlet_laplacian,
    make_graph,
    validate_consensus,
)
from spnet.h2 import CompositionalProvider, compositional_h2, dense_provider, dense_solve
from spnet.sptree import realize, reduce_sources

I1 = np.eye(1)


def unit_path():
    return make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])


def grounded_path3():
    # leader r, source a, follower b: r -a(identity)- a -e- b
    return make_graph(
        1,
        ["r", "a", "b"],
        [("att", "r", "a", I1), ("e", "a", "b", I1)],
        leaders=["r"],
    )


class TestIncidence:
    def test_single_edge(self):
        g = make_graph(1, ["a", "b"], [("e", "a", "b", I1)])
        e, ek = incidence(g)
        np.testing.assert_array_equal(e, [[1.0], [-1.0]])
        np.testing.assert_array_equal(ek, e)  # k = 1 blow-up is the identity map

    def test_path(self):
        g = make_graph(1, ["a", "b", "c"], [("e1", "a", "b", I1), ("e2", "b", "c", I1)])
        e, _ = incidence(g)
        assert e.shape == (3, 2)
        for col in e.T:
            assert sorted(col) == [-1.0, 0.0, 1.0]

    def test_columns_sum_to_zero(self, rng):
        g = random_aittsp(rng, 2, 3)
        e, ek = incidence(g)
        np.testing.assert_array_equal(e.sum(axis=0), np.zeros(len(g.edges)))
        np.testing.assert_allclose(ek, np.kron(e, np.eye(2)))


class TestDirichletLaplacian:
    def test_unit_path(self):
        dl = dirichlet_laplacian(unit_path())
        np.testing.assert_allclose(dl.matrix, [[1.0]])

    def test_grounded_path(self):
        dl = dirichlet_laplacian(grounded_path3())
        assert dl.follower_order == ("a", "b")
        np.testing.assert_allclose(dl.matrix, [[2.0, -1.0], [-1.0, 1.0]])

    def test_positive_definite_on_random_graph(self, rng):
        g = random_aittsp(rng, 2, 3)
        dl = dirichlet_laplacian(g)
        assert np.linalg.eigvalsh(dl.matrix).min() > 0

    def test_matches_incidence_assembly(self, rng):
        # Same matrix assembled two independent ways: per-edge block sums
        # (the implementation) vs the incidence-matrix product with leader
        # rows removed plus attachment diagonal terms.
        g = random_aittsp(rng, 2, 3)
        dl = dirichlet_laplacian(g)
        k = g.k
        order = dl.follower_order
        idx = {n: i for i, n in enumerate(order)}
        n = len(order)
        expected = np.zeros((k * n, k * n))
        e_mat, _ = incidence(g)
        node_pos = {m: i for i, m in enumerate(g.nodes)}
        for col, (edge, w) in enumerate(zip(g.edges, g.weights)):
            a = np.zeros((k * n, k))
            for node in (edge.tail, edge.head):
                if node in idx:
                    sign = e_mat[node_pos[node], col]
                    a[k * idx[node] : k * idx[node] + k, :] = sign * np.eye(k)
            expected += a @ w @ a.T
        np.testing.assert_allclose(dl.matrix, expected, atol=1e-12)

    def test_disconnected_rejected(self):
        g = make_graph(
            1,
            ["r", "s", "x", "y"],
            [("a", "r", "s", I1), ("e", "x", "y", I1)],
            leaders=["r"],
        )
        with pytest.raises(GraphValidationError):
            dirichlet_laplacian(g)

    def test_every_node_grounded_rejected(self):
        g = make_graph(1, ["r1", "r2"], [("a", "r1", "r2", I1)], leaders=["r1", "r2"])
        with pytest.raises(GraphValidationError, match="^grounding removes every node$"):
            dirichlet_laplacian(g)


def loop_laplacian(g, ground):
    """Per-edge reference assembly: four k x k slice updates per edge, in edge order."""
    ground = set(ground)
    order = tuple(sorted(n for n in g.nodes if n not in ground))
    k = g.k
    idx = {n: k * i for i, n in enumerate(order)}
    a = np.zeros((k * len(order), k * len(order)))
    for e, w in zip(g.edges, g.weights):
        inside = [idx[n] for n in (e.tail, e.head) if n in idx]
        for i in inside:
            a[i : i + k, i : i + k] += w
        if len(inside) == 2:
            i, j = inside
            a[i : i + k, j : j + k] -= w
            a[j : j + k, i : i + k] -= w
    return order, a


def multigraph(rng, k):
    """Leaders r1 - r2 joined by an edge, a three-edge s1 - u bundle stored in
    both orientations, a parallel pair u - v, and follower edges into both leaders."""
    pairs = [("r1", "r2"), ("s1", "u"), ("u", "s1"), ("s1", "u"), ("u", "v"), ("v", "u"), ("v", "s2"), ("u", "r1")]
    edges = [("a1", "r1", "s1", np.eye(k)), ("a2", "s2", "r2", np.eye(k)), ("g2", "r2", "v", random_spd(rng, k))]
    edges += [(f"e{i}", u, v, random_spd(rng, k)) for i, (u, v) in enumerate(pairs)]
    return make_graph(k, ["r1", "r2", "s1", "s2", "u", "v"], edges, leaders=["r1", "r2"])


class TestGroundedLaplacian:
    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_matches_per_edge_loop(self, rng, k):
        # Leader grounding, a non-leader ground set with an edge inside it and
        # a bundle into it, a realized tree grounded at its sink, and a chain;
        # the Laplacian grounds the leaders, so each ground set is made the leader set.
        g = multigraph(rng, k)
        tree_graph, _, sink = realize(random_sptree(rng, k, 12))
        chain = random_aittsp(rng, k, 3)
        for h, ground in [(g, g.leaders), (g, {"v", "s2"}), (tree_graph, {sink}), (chain, chain.leaders)]:
            dl = dirichlet_laplacian(replace(h, leaders=frozenset(ground)))
            order, want = loop_laplacian(h, ground)
            assert dl.follower_order == order
            assert dl.matrix.shape == want.shape
            assert np.abs(dl.matrix - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(dl.matrix, dl.matrix.T)


class TestGroundLeaders:
    """The reduction grounds the leaders by index, as one sink node of ``g`` itself."""

    def test_single_leader_relabel(self):
        assert CompositionalProvider(unit_path()).program.nodes == ("s", "l")
        g = make_graph(1, ["r", "s", "l"], [("a", "r", "s", I1), ("b", "s", "l", I1)], leaders=["r"])
        assert CompositionalProvider(g).program.nodes == ("s", "l", "_l")  # "l" names a follower

    def test_three_leaders_three_identity_edges(self, rng):
        g = random_aittsp(rng, 2, 3)
        program = CompositionalProvider(g).program
        sink = len(program.nodes) - 1
        attached = [a for a, ends in zip(program.live, program.ends) if sink in ends]
        assert len(attached) == 3 and max(attached) < len(g.edges)  # three edges, no join
        for a in attached:
            assert g.edges[a].tail in g.leaders
            np.testing.assert_allclose(g.weights[a], np.eye(2))

    def test_node_count(self, rng):
        # With every follower a terminal nothing contracts, so the skeleton
        # lists every node of the grounded network: the leaders as one.
        g = random_aittsp(rng, 1, 4)
        program = reduce_sources(g, g.followers, g.leaders)
        assert len(program.nodes) == len(g.nodes) - len(g.leaders) + 1
        assert program.nodes == (*g.followers, "l")

    def test_empty_leader_set(self):
        g = make_graph(1, ["a", "b"], [("e", "a", "b", I1)], sources=["a"])
        for build in (compositional_h2, CompositionalProvider):
            with pytest.raises(GraphValidationError, match="^leader set is empty$"):
                build(g)


class TestValidation:
    def test_valid_network_passes(self, rng):
        validate_consensus(random_aittsp(rng, 3, 2))

    def test_leader_leader_edge_rejected(self):
        g = make_graph(
            1,
            ["r1", "r2", "s1", "s2"],
            [
                ("a1", "r1", "s1", I1),
                ("a2", "r2", "s2", I1),
                ("bad", "r1", "r2", I1),
                ("e", "s1", "s2", I1),
            ],
            leaders=["r1", "r2"],
        )
        with pytest.raises(GraphValidationError):
            validate_consensus(g)

    def test_non_identity_attachment_rejected(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", 2 * I1)], leaders=["r"])
        with pytest.raises(GraphValidationError):
            validate_consensus(g)

    def test_source_inference_and_override(self):
        g = grounded_path3()
        assert g.sources == ("a",)
        g2 = make_graph(
            1,
            ["r", "a", "b"],
            [("att", "r", "a", I1), ("e", "a", "b", I1)],
            leaders=["r"],
            sources=["b"],
        )
        assert g2.sources == ("b",)

    def test_non_spd_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            make_graph(1, ["a", "b"], [("e", "a", "b", np.array([[-1.0]]))])

    def test_edge_ids_unique_after_string_conversion(self):
        with pytest.raises(GraphValidationError, match="duplicate edge id '1'"):
            make_graph(1, ["a", "b"], [(1, "a", "b", I1), ("1", "a", "b", I1)])

    def test_source_ids_unique_after_string_conversion(self):
        # One source listed twice would be one terminal of the reduction counted as two.
        with pytest.raises(GraphValidationError, match="^duplicate source ids$"):
            make_graph(1, [0, 1, 2], [(0, 0, 1, I1), (1, 1, 2, I1)], leaders=[0], sources=[2, "2"])

    def test_every_id_is_stored_as_its_string(self):
        edges = [(0, 0, 1, I1), (1, 1, "2", I1)]
        for sources, want in ((None, ("1",)), ([2], ("2",))):
            g = make_graph(1, [0, 1, "2"], edges, leaders=[0], sources=sources)
            assert (g.nodes, g.leaders, g.sources) == (("0", "1", "2"), {"0"}, want)
            assert g.edges == (("0", "0", "1"), ("1", "1", "2"))
        with pytest.raises(GraphValidationError, match="^duplicate node ids$"):
            make_graph(1, [1, "1"], [])


class TestWeightStack:
    """``MatrixGraph.weights`` is the one store of edge weights: row j is edges[j]'s."""

    def test_edges_are_topology_only(self, rng):
        g = random_aittsp(rng, 2, 3)
        assert graph.Edge._fields == ("id", "tail", "head")
        assert g.weights.shape == (len(g.edges), 2, 2)

    def test_provider_follows_new_weights_bitwise(self, rng):
        for _ in range(10):
            g = random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            provider = CompositionalProvider(g)
            free = [e.id for e in g.edges if e.id not in graph.attachment_edge_ids(g)]
            moved = reweighted(g, {eid: random_spd(rng, g.k) for eid in free if rng.random() < 0.5})
            edges = [(e.id, e.tail, e.head, w) for e, w in zip(g.edges, moved.weights)]
            fresh = make_graph(g.k, g.nodes, edges, leaders=g.leaders, sources=g.sources)
            (h2_a, q_a), (h2_b, q_b) = provider(moved), CompositionalProvider(fresh)(fresh)
            assert h2_a == h2_b
            assert q_a.tobytes() == q_b.tobytes()


class TestNumbering:
    """``make_graph`` numbers each graph once, in ``index`` and ``ends``; the solvers gather through them."""

    def test_every_graph_is_numbered_by_make_graph(self, rng):
        g = random_aittsp(rng, 2, 3)
        free = [e.id for e in g.edges if e.id not in graph.attachment_edge_ids(g)]
        ints = {"k": 1, "nodes": [2, 0, 1], "leaders": [0], "edges": [
            {"id": 5, "tail": 0, "head": 1, "weight": [[1.0]]}, {"id": 3, "tail": 2, "head": 1, "weight": [[2.0]]}]}
        graphs = [
            grounded_path3(),
            make_graph(g.k, g.nodes, g.edges, g.leaders, g.sources, weights=g.weights),
            make_graph(2, ["b", "a"], [], leaders=["a"]),
            graph_from_dict(ints),
            realize(random_sptree(rng, 3, 9))[0],
            g,
            reweighted(g, {eid: random_spd(rng, 2) for eid in free[::2]}),
        ]
        for h in graphs:
            assert h.index == {v: i for i, v in enumerate(h.nodes)}
            assert h.ends.dtype == np.intp and h.ends.shape == (len(h.edges), 2) and h.ends.flags.c_contiguous
            assert h.ends.tolist() == [[h.nodes.index(e.tail), h.nodes.index(e.head)] for e in h.edges]
            for moved in (replace(h, weights=2 * h.weights), replace(h, leaders=frozenset(h.nodes[-1:]))):
                assert moved.index is h.index and moved.ends is h.ends

    def test_gathers_match_lookups_by_name(self, rng):
        for g in (random_aittsp(rng, 1, 3), random_aittsp(rng, 3, 2), multigraph(rng, 2)):
            ys = [dict(zip(g.nodes, y)) for y in dense_solve(g, g.sources)]
            h2, q = dense_provider(g)
            assert q.tobytes() == np.array([[y[e.tail] - y[e.head] for e in g.edges] for y in ys]).tobytes()
            assert h2 == {s: 0.5 * float(np.trace(y[s])) for s, y in zip(g.sources, ys)}
            flows = g.weights @ q
            net = [dict.fromkeys(g.nodes, np.zeros((g.k, g.k))) for _ in g.sources]
            for c, at in enumerate(net):
                for j, e in enumerate(g.edges):  # every edge's flow leaves its tail,
                    at[e.tail] = at[e.tail] + flows[c, j]
                for j, e in enumerate(g.edges):  # then enters its head: the order _kirchhoff sums them in
                    at[e.head] = at[e.head] - flows[c, j]
            followers = [v for v in g.nodes if v not in g.leaders]
            want = [[np.eye(g.k) * (v == s) for v in followers] for s in g.sources]
            got_net, got_want = _kirchhoff(g, q)
            assert got_net.tobytes() == np.array([[at[v] for v in followers] for at in net]).tobytes()
            assert got_want.tobytes() == np.array(want, dtype=float).tobytes()
