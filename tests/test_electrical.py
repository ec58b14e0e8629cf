"""The tree view of the electrical engine: ``solve_tree`` on hand-built trees,
checked against closed forms, the dense oracle and the laws of the network."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import leaf_rows, random_psd, random_spd, random_sptree, root_resistance
from spnet import matlin, sptree
from spnet.electrical import solve_tree
from spnet.graph import dirichlet_laplacian
from spnet.h2 import dense_solve
from spnet.sptree import Leaf, Parallel, Series, index_tree, leaf, parallel, realize, recognize, series


def scalar_leaf(eid, w):
    return leaf(eid, [[float(w)]])


def power(current, resistance):
    """Power Tr(I^T R I) dissipated by a current through a resistance."""
    return float(np.trace(current.T @ resistance @ current))


def split(r1, r2):
    """(I1, I2): the unit current's split over two parallel resistances, read
    from ``solve_tree`` of a two-leaf parallel tree (pre-order 1 and 2)."""
    _, cur, _ = solve_tree(parallel(leaf("a", matlin.pinv(r1)), leaf("b", matlin.pinv(r2))))
    return cur[1], cur[2]


class TestIndexTree:
    def test_pre_order_matches_recursive_definition(self, rng):
        def reference(t):
            entries = []

            def rec(n):
                i = len(entries)
                entries.append((n, -1, -1))
                if not isinstance(n, Leaf):
                    entries[i] = (n, rec(n.left), rec(n.right))
                return i

            rec(t)
            return entries

        for _ in range(20):
            t = random_sptree(rng, 1, int(rng.integers(1, 15)))
            got = index_tree(t)
            want = reference(t)
            assert [(li, ri) for _, li, ri in got] == [(li, ri) for _, li, ri in want]
            assert all(a is b for (a, _, _), (b, _, _) in zip(got, want))

    def test_deep_comb(self):
        t = scalar_leaf("e0", 1.0)
        for i in range(1, 5000):
            t = Series(t, scalar_leaf(f"e{i}", 1.0))
        entries = index_tree(t)
        assert len(entries) == 9999
        assert entries[0][1:] == (1, 9998)
        assert sum(1 for _, li, _ in entries if li < 0) == 5000
        assert root_resistance(t) == pytest.approx(5000.0)

    def test_one_index_per_solve(self, monkeypatch, rng):
        t = random_sptree(rng, 2, 9)
        calls = []
        index = sptree.index_tree
        monkeypatch.setattr(sptree, "index_tree", lambda t: calls.append(t) or index(t))
        stacks = solve_tree(t)
        assert calls == [t]
        assert [len(s) for s in stacks] == [len(index(t))] * 3


class TestEffectiveResistance:
    def test_leaf_inverse(self):
        np.testing.assert_allclose(root_resistance(leaf("a", 2 * np.eye(2))), 0.5 * np.eye(2))

    def test_series_adds(self):
        t = series(scalar_leaf("a", 1), scalar_leaf("b", 1))
        np.testing.assert_allclose(root_resistance(t), [[2.0]])

    def test_parallel_combines(self):
        t = parallel(scalar_leaf("a", 2), scalar_leaf("b", 3))
        np.testing.assert_allclose(root_resistance(t), [[0.2]])

    def test_matches_dense_oracle(self, rng):
        # Root resistance must equal the source block of the inverse
        # grounded Laplacian of the realized graph.
        for _ in range(15):
            t = random_sptree(rng, 2, int(rng.integers(1, 10)))
            g, src, snk = realize(t)
            dl = dirichlet_laplacian(replace(g, leaders=frozenset({snk})))
            expected = np.linalg.inv(dl.matrix)
            i = dl.follower_order.index(src)
            k = g.k
            block = expected[k * i : k * i + k, k * i : k * i + k]
            np.testing.assert_allclose(root_resistance(t), block, rtol=1e-9, atol=1e-12)

    def test_rayleigh_monotonicity(self, rng):
        t = random_sptree(rng, 2, 6)
        entries = index_tree(t)
        leaf_idx = [i for i, (n, _, _) in enumerate(entries) if isinstance(n, Leaf)]
        base = root_resistance(t)
        target = entries[leaf_idx[2]][0]

        def bump(node):
            if isinstance(node, Leaf):
                if node is target:
                    return Leaf(node.edge, node.weight + random_psd(np.random.default_rng(7), 2))
                return node
            cls = Series if isinstance(node, Series) else Parallel
            return cls(bump(node.left), bump(node.right))

        bumped = root_resistance(bump(t))
        assert matlin.loewner_leq(bumped, base, tol=1e-9)

    def test_ladder_continued_fraction(self):
        # Scalar ladder: r1 in series with (r2 parallel (r3 series (r4 parallel r5))).
        r = [1.0, 2.0, 3.0, 4.0, 5.0]
        t = series(
            scalar_leaf("e0", 1 / r[0]),
            parallel(
                scalar_leaf("e1", 1 / r[1]),
                series(
                    scalar_leaf("e2", 1 / r[2]),
                    parallel(scalar_leaf("e3", 1 / r[3]), scalar_leaf("e4", 1 / r[4])),
                ),
            ),
        )
        inner = r[3] * r[4] / (r[3] + r[4])
        mid = r[2] + inner
        expected = r[0] + r[1] * mid / (r[1] + mid)
        np.testing.assert_allclose(root_resistance(t), [[expected]], rtol=1e-14)


class TestSplitCurrent:
    def test_symmetric_split(self, rng):
        r = random_spd(rng, 3)
        i1, i2 = split(r, r)
        np.testing.assert_allclose(i1, 0.5 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(i2, 0.5 * np.eye(3), atol=1e-12)

    def test_scalar_divider(self):
        i1, i2 = split([[1.0]], [[2.0]])
        np.testing.assert_allclose(i1, [[2 / 3]])
        np.testing.assert_allclose(i2, [[1 / 3]])

    def test_sum_constraint_and_optimality(self, rng):
        # The split is linear in the entering current: I_in splits as (I1 I_in, I2 I_in).
        r1, r2 = random_spd(rng, 3), random_spd(rng, 3)
        i_in = rng.standard_normal((3, 3))
        i1, i2 = (i @ i_in for i in split(r1, r2))
        np.testing.assert_allclose(i1 + i2, i_in, atol=1e-12)
        best = power(i1, r1) + power(i2, r2)
        for _ in range(1000):
            delta = 0.1 * rng.standard_normal((3, 3))
            perturbed = power(i1 + delta, r1) + power(i2 - delta, r2)
            assert best <= perturbed + 1e-12

    def test_dimension_mismatch(self):
        # Built past the constructors' checks, mismatched leaves still stop the solve.
        with pytest.raises(ValueError):
            solve_tree(Parallel(Leaf("a", np.eye(2)), Leaf("b", np.eye(3))))


class TestBranchCurrents:
    def test_single_leaf(self):
        _, cur, _ = solve_tree(leaf("a", np.eye(2)))
        np.testing.assert_allclose(cur[0], np.eye(2))

    def test_series_chain_passes_through(self):
        t = series(series(scalar_leaf("a", 1), scalar_leaf("b", 2)), scalar_leaf("c", 3))
        _, cur, _ = solve_tree(t)
        for v in cur:
            np.testing.assert_allclose(v, [[1.0]])

    def test_balanced_parallel_halves(self):
        t = parallel(leaf("a", np.eye(2)), leaf("b", np.eye(2)))
        _, cur, _ = solve_tree(t)
        np.testing.assert_allclose(cur[1], 0.5 * np.eye(2))
        np.testing.assert_allclose(cur[2], 0.5 * np.eye(2))


class TestVoltageDrops:
    def test_unit_leaf_unit_current(self):
        _, _, vol = solve_tree(leaf("a", np.eye(2)))
        np.testing.assert_allclose(vol[0], np.eye(2))

    def test_series_resistor_sum(self):
        t = series(scalar_leaf("a", 1.0), scalar_leaf("b", 0.5))
        _, _, vol = solve_tree(t)
        np.testing.assert_allclose(vol[1], [[1.0]])
        np.testing.assert_allclose(vol[2], [[2.0]])
        np.testing.assert_allclose(vol[0], [[3.0]])

    def test_leaf_voltages_match_dense_oracle(self, rng):
        for _ in range(10):
            t0 = random_sptree(rng, 2, int(rng.integers(2, 9)))
            g, src, snk = realize(t0)
            t = recognize(g, src, snk)
            _, _, vol = solve_tree(t)
            rows = leaf_rows(t)
            y = dict(zip(g.nodes, dense_solve(replace(g, leaders=frozenset({snk})), [src])[0]))
            for e in g.edges:
                np.testing.assert_allclose(vol[rows[e.id]], y[e.tail] - y[e.head], rtol=1e-9, atol=1e-11)


class TestConservationAndOhm:
    def test_flow_and_ohm_at_every_node(self, rng):
        for _ in range(10):
            t = random_sptree(rng, 3, int(rng.integers(1, 10)))
            res, cur, vol = solve_tree(t)
            for i, (node, li, ri) in enumerate(index_tree(t)):
                np.testing.assert_allclose(vol[i], res[i] @ cur[i], rtol=1e-10, atol=1e-12)
                if isinstance(node, Leaf):
                    continue
                if isinstance(node, Series):
                    np.testing.assert_allclose(cur[li], cur[i], atol=1e-12)
                    np.testing.assert_allclose(cur[ri], cur[i], atol=1e-12)
                else:
                    np.testing.assert_allclose(cur[li] + cur[ri], cur[i], atol=1e-12)
                    # Both children of a parallel join drop the join's voltage.
                    np.testing.assert_allclose(vol[li], vol[i], rtol=1e-9, atol=1e-12)
                    np.testing.assert_allclose(vol[ri], vol[i], rtol=1e-9, atol=1e-12)


class TestPower:
    def test_identity(self):
        # Unit current through a unit k = 3 leaf dissipates tr I = 3.
        res, cur, _ = solve_tree(leaf("a", np.eye(3)))
        assert power(cur[0], res[0]) == pytest.approx(3.0)

    def test_scalar_i_squared_r(self):
        # 3 ohms parallel 6 ohms: i = 2/3 and 1/3, so i^2 r = 4/3 and 2/3.
        res, cur, _ = solve_tree(parallel(scalar_leaf("a", 1 / 3), scalar_leaf("b", 1 / 6)))
        assert power(cur[1], res[1]) == pytest.approx(4 / 3)
        assert power(cur[2], res[2]) == pytest.approx(2 / 3)

    def test_parallel_join_total(self, rng):
        r1, r2 = random_spd(rng, 2), random_spd(rng, 2)
        i_in = rng.standard_normal((2, 2))
        i1, i2 = (i @ i_in for i in split(r1, r2))
        total = power(i1, r1) + power(i2, r2)
        assert total == pytest.approx(power(i_in, matlin.parallel_add(r1, r2)), rel=1e-10)
