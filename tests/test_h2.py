import numpy as np
import pytest

from helpers import random_aittsp, random_spd, random_sptree, root_resistance, tree_h2
from spnet import matlin
from spnet.graph import dirichlet_laplacian, make_graph
from spnet.h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_h2,
    dense_provider,
    dense_solve,
    h2_parallel_compose,
    h2_scalar_bound,
    h2_series_compose,
    lyapunov_residual,
    source_trees,
)
from spnet.sptree import leaf, leaves, parallel, realize, series

I1 = np.eye(1)


def unit_leaf(eid, k=1):
    return leaf(eid, np.eye(k))


def consensus(trees):
    """One network of several trees, {source: tree}: each realized with its
    nodes renamed apart, its sink a leader and its source the source."""
    nodes, edges, leaders = [], [], []
    for c, t in enumerate(trees.values()):
        g, src, snk = realize(t)
        name = {n: n if n in (src, snk) else f"{c}.{n}" for n in g.nodes}
        name[src], name[snk] = list(trees)[c], f"leader{c}"
        nodes += [name[n] for n in g.nodes]
        edges += [(e.id, name[e.tail], name[e.head], w) for e, w in zip(g.edges, g.weights)]
        leaders.append(name[snk])
    return make_graph(g.k, nodes, edges, leaders=leaders, sources=list(trees))


class TestExactSingleSource:
    def test_unit_path(self):
        assert tree_h2(unit_leaf("a")) == pytest.approx(0.5)

    def test_parallel_unit_paths(self):
        assert tree_h2(parallel(unit_leaf("a"), unit_leaf("b"))) == pytest.approx(0.25)

    def test_series_unit_paths_k2(self):
        t = series(unit_leaf("a", 2), unit_leaf("b", 2))
        assert tree_h2(t) == pytest.approx(2.0)


class TestAittspSum:
    def test_single_source(self, rng):
        t = random_sptree(rng, 2, 5)
        report = compositional_h2(consensus({"s": t}))
        assert report.total == pytest.approx(tree_h2(t), rel=1e-12)

    def test_two_identical_branches(self, rng):
        # Each tree hangs off the other's source at the sink, so neither
        # source has a tree of the whole network; the provider solves it.
        t1 = random_sptree(np.random.default_rng(3), 2, 4, prefix="x")
        t2 = random_sptree(np.random.default_rng(3), 2, 4, prefix="y")
        g = consensus({"s1": t1, "s2": t2})
        per_source, _ = CompositionalProvider(g)(g)
        assert per_source["s1"] == pytest.approx(per_source["s2"], rel=1e-12)
        assert sum(per_source.values()) == pytest.approx(2 * tree_h2(t1), rel=1e-12)
        assert sum(per_source.values()) == pytest.approx(dense_h2(g).total, rel=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 4))
            g = random_aittsp(rng, k, int(rng.integers(2, 5)))
            comp = compositional_h2(g)
            dense = dense_h2(g)
            assert comp.total == pytest.approx(dense.total, rel=1e-9)
            for s in dense.per_source:
                assert comp.per_source[s] == pytest.approx(dense.per_source[s], rel=1e-9)


class TestComposeRules:
    def test_series(self):
        assert h2_series_compose(0.5, 0.5) == pytest.approx(1.0)

    def test_parallel(self):
        assert h2_parallel_compose(0.5, 0.5) == pytest.approx(0.25)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            h2_series_compose(-1.0, 1.0)

    def test_unknown_method_rejected(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        with pytest.raises(ValueError, match="^unknown compositional method 'dense'$"):
            compositional_h2(g, "dense")

    def test_series_split_exactness(self, rng):
        for _ in range(20):
            t = series(random_sptree(rng, 2, 4, prefix="l"), random_sptree(rng, 2, 4, prefix="r"))
            whole = tree_h2(t)
            split = h2_series_compose(tree_h2(t.left), tree_h2(t.right))
            assert whole == pytest.approx(split, abs=1e-12)

    def test_parallel_proportional_equality(self, rng):
        for c in (0.5, 1.0, 2.0):
            t1 = random_sptree(rng, 2, 4, prefix="p")
            t2 = leaf("q", matlin.pinv(c * root_resistance(t1)))
            exact = tree_h2(parallel(t1, t2))
            bound = h2_parallel_compose(tree_h2(t1), tree_h2(t2))
            assert exact == pytest.approx(bound, abs=1e-9)


class TestScalarBound:
    def test_equals_exact_for_scalars(self, rng):
        for _ in range(20):
            t = random_sptree(rng, 1, int(rng.integers(1, 10)))
            assert h2_scalar_bound(t) == pytest.approx(tree_h2(t), abs=1e-12)

    def test_equals_exact_for_series_only(self, rng):
        t = unit_leaf("e0", 3)
        for i in range(1, 5):
            t = series(t, leaf(f"e{i}", random_spd(rng, 3)))
        assert h2_scalar_bound(t) == pytest.approx(tree_h2(t), rel=1e-12)

    def test_strictly_above_for_non_proportional_parallel(self):
        t = parallel(leaf("a", np.diag([1.0, 2.0])), leaf("b", np.diag([2.0, 1.0])))
        assert h2_scalar_bound(t) > tree_h2(t) + 1e-6

    def test_upper_bound_on_random_trees(self, rng):
        for _ in range(50):
            t = random_sptree(rng, 3, int(rng.integers(1, 8)))
            assert h2_scalar_bound(t) >= tree_h2(t) - 1e-9


class TestDenseOracle:
    def test_unit_path(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        assert dense_h2(g).total == pytest.approx(0.5)

    def test_source_at_far_end_of_path(self):
        g = make_graph(
            1,
            ["r", "a", "b"],
            [("att", "r", "a", I1), ("e", "a", "b", I1)],
            leaders=["r"],
            sources=["b"],
        )
        assert dense_h2(g).total == pytest.approx(1.0)  # resistance 2 to ground

    def test_equals_compositional_on_realized_tree(self, rng):
        g = random_aittsp(rng, 2, 2)
        assert dense_h2(g).total == pytest.approx(compositional_h2(g).total, rel=1e-9)


class TestDenseVoltages:
    def test_unit_path_self_voltage(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        y = dict(zip(g.nodes, dense_solve(g, ["s"])[0]))
        np.testing.assert_allclose(y["s"], [[1.0]])
        np.testing.assert_allclose(y["r"], [[0.0]])


class TestVoltageProviders:
    @staticmethod
    def rel_err(a, b):
        return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))

    def test_providers_match_oracle_and_each_other(self, rng):
        reversed_leaves = 0
        for _ in range(30):
            k = int(rng.integers(1, 4))
            g = random_aittsp(rng, k, int(rng.integers(2, 5)))
            oracle = dense_h2(g).per_source
            comp = CompositionalProvider(g)
            tails = {e.id: e.tail for e in g.edges}
            reversed_leaves += sum(lf.tail != tails[lf.edge] for t in source_trees(g).values() for lf in leaves(t))
            comp_h2, comp_q = comp(g)
            dense_h2_sq, dense_q = dense_provider(g)
            for h2 in (comp_h2, dense_h2_sq):
                assert h2.keys() == oracle.keys()
                for s, v in oracle.items():
                    assert h2[s] == pytest.approx(v, rel=1e-9)
            assert comp_q.shape == dense_q.shape == (len(oracle), len(g.edges), k, k)
            for got, q in zip(comp_q.reshape(-1, k, k), dense_q.reshape(-1, k, k)):
                # Same orientation on both sides: no sign is forgiven.
                assert self.rel_err(got, q) <= 1e-9
        # The instances exercise leaves recognized against their stored edge.
        assert reversed_leaves > 0


class TestLyapunov:
    def test_unit_path_exact(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        assert lyapunov_residual(g) == pytest.approx(0.0, abs=1e-15)

    def test_random_instances(self, rng):
        for _ in range(10):
            g = random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            dim = dirichlet_laplacian(g).matrix.shape[0]
            assert lyapunov_residual(g) <= 1e-9 * np.sqrt(dim)

    def test_perturbation_is_detected(self, rng):
        # Sanity of the check itself: a perturbed candidate must not pass.
        g = random_aittsp(rng, 2, 2)
        a = dirichlet_laplacian(g).matrix
        n = a.shape[0]
        p = 0.5 * np.linalg.inv(a) + 1e-3 * np.eye(n)
        residual = np.linalg.norm(-a @ p - p @ a.T + np.eye(n), "fro")
        assert residual == pytest.approx(2e-3 * np.linalg.norm(a, "fro"), rel=1e-10)
