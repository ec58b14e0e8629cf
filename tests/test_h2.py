import numpy as np
import pytest

from helpers import random_aittsp, random_spd, random_sptree
from spnet import matlin
from spnet.electrical import effective_resistance
from spnet.errors import GraphValidationError
from spnet.graph import dirichlet_laplacian, ground_leaders, make_graph
from spnet.h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_h2,
    dense_provider,
    dense_voltages,
    h2_exact_aittsp,
    h2_exact_single_source,
    h2_parallel_compose,
    h2_scalar_bound,
    h2_series_compose,
    lyapunov_residual,
)
from spnet.sptree import leaf, leaves, parallel, series

I1 = np.eye(1)


def unit_leaf(eid, k=1):
    return leaf(eid, np.eye(k))


class TestExactSingleSource:
    def test_unit_path(self):
        assert h2_exact_single_source(unit_leaf("a")) == pytest.approx(0.5)

    def test_parallel_unit_paths(self):
        assert h2_exact_single_source(parallel(unit_leaf("a"), unit_leaf("b"))) == pytest.approx(0.25)

    def test_series_unit_paths_k2(self):
        t = series(unit_leaf("a", 2), unit_leaf("b", 2))
        assert h2_exact_single_source(t) == pytest.approx(2.0)


class TestAittspSum:
    def test_single_source(self, rng):
        t = random_sptree(rng, 2, 5)
        report = h2_exact_aittsp({"s": t})
        assert report.total == pytest.approx(h2_exact_single_source(t))

    def test_two_identical_branches(self, rng):
        t1 = random_sptree(np.random.default_rng(3), 2, 4, prefix="x")
        t2 = random_sptree(np.random.default_rng(3), 2, 4, prefix="y")
        report = h2_exact_aittsp({"s1": t1, "s2": t2})
        assert report.total == pytest.approx(2 * h2_exact_single_source(t1))
        assert report.total == pytest.approx(sum(report.per_source.values()))

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

    def test_series_split_exactness(self, rng):
        for _ in range(20):
            t = series(random_sptree(rng, 2, 4, prefix="l"), random_sptree(rng, 2, 4, prefix="r"))
            whole = h2_exact_single_source(t)
            split = h2_series_compose(
                h2_exact_single_source(t.left), h2_exact_single_source(t.right)
            )
            assert whole == pytest.approx(split, abs=1e-12)

    def test_parallel_proportional_equality(self, rng):
        for c in (0.5, 1.0, 2.0):
            t1 = random_sptree(rng, 2, 4, prefix="p")
            r1 = effective_resistance(t1)[0]
            t2 = leaf("q", matlin.pinv(c * r1))
            joined = parallel(t1, t2)
            exact = h2_exact_single_source(joined)
            bound = h2_parallel_compose(h2_exact_single_source(t1), h2_exact_single_source(t2))
            assert exact == pytest.approx(bound, abs=1e-9)


class TestScalarBound:
    def test_equals_exact_for_scalars(self, rng):
        for _ in range(20):
            t = random_sptree(rng, 1, int(rng.integers(1, 10)))
            assert h2_scalar_bound(t) == pytest.approx(h2_exact_single_source(t), abs=1e-12)

    def test_equals_exact_for_series_only(self, rng):
        t = unit_leaf("e0", 3)
        for i in range(1, 5):
            t = series(t, leaf(f"e{i}", random_spd(rng, 3)))
        assert h2_scalar_bound(t) == pytest.approx(h2_exact_single_source(t), rel=1e-12)

    def test_strictly_above_for_non_proportional_parallel(self):
        t = parallel(leaf("a", np.diag([1.0, 2.0])), leaf("b", np.diag([2.0, 1.0])))
        assert h2_scalar_bound(t) > h2_exact_single_source(t) + 1e-6

    def test_upper_bound_on_random_trees(self, rng):
        for _ in range(50):
            t = random_sptree(rng, 3, int(rng.integers(1, 8)))
            assert h2_scalar_bound(t) >= h2_exact_single_source(t) - 1e-9


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
        y = dense_voltages(g, "s")
        np.testing.assert_allclose(y["s"], [[1.0]])
        np.testing.assert_allclose(y["r"], [[0.0]])

    def test_source_must_be_follower(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        with pytest.raises(GraphValidationError):
            dense_voltages(g, "r")


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
            tails = {e.id: e.tail for e in ground_leaders(g)[0].edges}
            reversed_leaves += sum(
                lf.tail != tails[lf.edge] for t in comp.trees.values() for lf in leaves(t)
            )
            comp_h2, comp_q = comp(g)
            dense_h2_sq, dense_q = dense_provider(g)
            for h2 in (comp_h2, dense_h2_sq):
                assert h2.keys() == oracle.keys()
                for s, v in oracle.items():
                    assert h2[s] == pytest.approx(v, rel=1e-9)
            assert comp_q.keys() == dense_q.keys()
            for s, per_edge in dense_q.items():
                assert comp_q[s].keys() == per_edge.keys()
                for eid, q in per_edge.items():
                    # Same orientation on both sides: no sign is forgiven.
                    assert self.rel_err(comp_q[s][eid], q) <= 1e-9
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
