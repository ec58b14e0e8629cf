"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single [PASS] line on
success (run pytest with -s to see them).
"""

import time

import numpy as np
import pytest

from helpers import (
    enumerate_sptrees,
    fd_gradient_direction,
    random_aittsp,
    random_spd,
    random_sptree,
    random_symmetric,
)
from spnet import matlin
from spnet.electrical import effective_resistance, index_tree, power, solve_tree, split_current
from spnet.errors import NotSeriesParallelError
from spnet.fileio import load_config, load_graph
from spnet.graph import attachment_edge_ids, dirichlet_laplacian, make_graph
from spnet.h2 import (
    compositional_h2,
    dense_h2,
    dense_provider,
    dense_voltages,
    h2_exact_single_source,
    h2_parallel_compose,
    h2_scalar_bound,
    lyapunov_residual,
    source_trees,
)
from spnet.optimize import gradient_edge, optimize_weights
from spnet.sptree import (
    Series,
    check_height_bounds,
    leaf,
    leaves,
    parallel,
    realize,
    recognize,
)

from test_cli import DATA


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    max_followers = worst = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n_sources = int(rng.integers(2, 5))
        # A realized link tree with l leaves adds at most l - 1 followers.
        per_link = 96 // (n_sources - 1)
        g = random_aittsp(rng, k, n_sources, leaves_per_link=int(rng.integers(1, per_link + 1)))
        followers = len(g.nodes) - len(g.leaders)
        assert followers <= 100
        max_followers = max(max_followers, followers)
        comp = compositional_h2(g)
        dense = dense_h2(g)
        worst = max(worst, rel_err(comp.total, dense.total))
        assert comp.total == pytest.approx(dense.total, rel=1e-9)
    # One instance at the size limit: a 98-follower chain between two sources.
    mids = [f"m{i}" for i in range(96)]
    path = ["s0"] + mids + ["s1"]
    edges = [("a0", "r0", "s0", np.eye(2)), ("a1", "r1", "s1", np.eye(2))]
    edges += [
        (f"e{i}", u, v, random_spd(rng, 2)) for i, (u, v) in enumerate(zip(path, path[1:]))
    ]
    g = make_graph(2, ["r0", "r1"] + path, edges, leaders=["r0", "r1"])
    max_followers = max(max_followers, len(g.nodes) - len(g.leaders))
    worst = max(worst, rel_err(compositional_h2(g).total, dense_h2(g).total))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 1: compositional vs dense H2^2 on 200 AITTSP instances "
        f"(max {max_followers} followers), worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_series_exactness():
    rng = np.random.default_rng(1002)
    checked = 0
    for _ in range(100):
        t = random_sptree(rng, int(rng.integers(1, 4)), int(rng.integers(2, 12)))
        for node, li, ri in index_tree(t):
            if isinstance(node, Series):
                whole = h2_exact_single_source(node)
                parts = h2_exact_single_source(node.left) + h2_exact_single_source(node.right)
                assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))
                checked += 1
    assert checked > 100
    print(f"\n[PASS] criterion 2: series split exact to 1e-12 at {checked} series nodes")


def test_criterion_3_parallel_bound():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        t = random_sptree(rng, int(rng.integers(1, 4)), int(rng.integers(1, 10)))
        assert h2_scalar_bound(t) >= h2_exact_single_source(t) - 1e-9
    for c in (0.5, 1.0, 2.0):
        t1 = random_sptree(rng, 3, 4, prefix="p")
        t2 = leaf("q", matlin.pinv(c * effective_resistance(t1)[0]))
        exact = h2_exact_single_source(parallel(t1, t2))
        bound = h2_parallel_compose(h2_exact_single_source(t1), h2_exact_single_source(t2))
        assert abs(exact - bound) <= 1e-9
    print(
        "\n[PASS] criterion 3: scalar parallel compose bounds exact value on 200 trees, "
        "tight for proportional resistances (c in {0.5, 1, 2})"
    )


def test_criterion_4_trace_inequality():
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        a, b = random_spd(rng, k), random_spd(rng, k)
        lhs = np.trace(matlin.parallel_add(a, b))
        rhs = np.trace(a) * np.trace(b) / (np.trace(a) + np.trace(b))
        assert lhs <= rhs + 1e-10
    for c in (0.5, 1.0, 2.0):
        a = random_spd(rng, 4)
        b = c * a
        lhs = np.trace(matlin.parallel_add(a, b))
        rhs = np.trace(a) * np.trace(b) / (np.trace(a) + np.trace(b))
        assert abs(lhs - rhs) <= 1e-9
    print(
        "\n[PASS] criterion 4: parallel-sum trace inequality on 1000 SPD pairs, "
        "equality in proportional cases"
    )


def test_criterion_5_voltage_current_consistency():
    rng = np.random.default_rng(1005)
    volt_worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        g = random_aittsp(rng, k, int(rng.integers(2, 5)))
        trees, gg, sink = source_trees(g)
        for s, t in trees.items():
            sol = solve_tree(t, source=s)
            for i, (node, li, ri) in enumerate(index_tree(t)):
                if li < 0:
                    continue
                if isinstance(node, Series):
                    np.testing.assert_allclose(sol.current[li], sol.current[i], atol=1e-12)
                    np.testing.assert_allclose(sol.current[ri], sol.current[i], atol=1e-12)
                else:
                    np.testing.assert_allclose(
                        sol.current[li] + sol.current[ri], sol.current[i], atol=1e-12
                    )
            y = dense_voltages(gg, s)
            for lf in leaves(t):
                # Compare in the leaf's own orientation: recognition may
                # traverse an edge against its stored direction.
                err = rel_err(sol.leaf_voltage(lf.edge), y[lf.tail] - y[lf.head])
                volt_worst = max(volt_worst, err)
                assert err <= 1e-9
    for _ in range(3):
        k = int(rng.integers(1, 4))
        r1, r2 = random_spd(rng, k), random_spd(rng, k)
        i_in = rng.standard_normal((k, k))
        i1, i2 = split_current(r1, r2, i_in)
        best = power(i1, r1) + power(i2, r2)
        for _ in range(1000):
            delta = 0.1 * rng.standard_normal((k, k))
            assert best <= power(i1 + delta, r1) + power(i2 - delta, r2) + 1e-12
    print(
        f"\n[PASS] criterion 5: flow conservation at 1e-12, leaf voltages vs oracle "
        f"(worst rel err {volt_worst:.2e}), current split power-minimal under "
        f"1000 perturbations per instance"
    )


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(1006)
    fd_worst = nsd_worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        g = random_aittsp(rng, k, int(rng.integers(2, 4)), leaves_per_link=3)
        diffs = dense_provider(g)[1]
        att = attachment_edge_ids(g)
        for e in g.edges:
            if e.id in att:
                continue
            grad = gradient_edge(g, e.id, diffs)
            nsd_worst = max(nsd_worst, float(np.linalg.eigvalsh(grad).max()))
            assert nsd_worst <= 1e-10
            for _ in range(3):
                d = random_symmetric(rng, k)
                analytic = float(np.sum(grad * d))
                numeric = fd_gradient_direction(g, e.id, d, step=1e-5)
                err = abs(analytic - numeric) / max(abs(numeric), 1e-12)
                fd_worst = max(fd_worst, err)
                assert err <= 1e-5
    print(
        f"\n[PASS] criterion 6: gradients on 50 instances match finite differences "
        f"(worst rel err {fd_worst:.2e}) and are NSD (max eig {nsd_worst:.2e})"
    )


def test_criterion_7_demo_optimization():
    g = load_graph(str(DATA / "demo_graph.json"))
    cfg = load_config(str(DATA / "demo_config.json"), g.k)
    assert g.k == 2 and cfg.penalty_h == 0.05 and cfg.max_iters == 100
    start = time.perf_counter()
    traj = optimize_weights(g, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    for rec in traj.records:
        for eid, w in rec.weights.items():
            lo, up = cfg.bounds[eid]
            assert matlin.loewner_leq(lo, w, tol=1e-8)
            assert matlin.loewner_leq(w, up, tol=1e-8)
    assert traj.final_objective < traj.initial_objective
    running = np.minimum.accumulate([r.objective for r in traj.records])
    assert all(np.diff(running) <= 0)
    print(
        f"\n[PASS] criterion 7: demo descent feasible throughout, objective "
        f"{traj.initial_objective:.4f} -> {traj.final_objective:.4f} "
        f"in {len(traj.records) - 1} iterations, {elapsed:.2f}s"
    )


def test_criterion_8_lyapunov_certificate():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        g = random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        dim = dirichlet_laplacian(g).matrix.shape[0]
        ratio = lyapunov_residual(g) / np.sqrt(dim)
        worst = max(worst, ratio)
        assert ratio <= 1e-9
    print(f"\n[PASS] criterion 8: Lyapunov residual <= 1e-9 sqrt(dim) on 100 instances "
          f"(worst {worst:.2e})")


def test_criterion_9_height_bounds():
    count = 0
    for n in range(1, 7):
        for t in enumerate_sptrees(n):
            assert check_height_bounds(t)
            count += 1
    rng = np.random.default_rng(1009)
    for _ in range(1000):
        t = random_sptree(rng, 1, int(rng.integers(7, 41)))
        assert check_height_bounds(t)
    print(
        f"\n[PASS] criterion 9: height bounds hold for all {count} trees with <= 6 leaves "
        f"and 1000 random larger trees"
    )


def test_criterion_10_recognition_round_trip():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(500):
        t = random_sptree(rng, int(rng.integers(1, 4)), int(rng.integers(1, 13)))
        g, src, snk = realize(t)
        t2 = recognize(g, src, snk)
        err = float(np.abs(effective_resistance(t)[0] - effective_resistance(t2)[0]).max())
        worst = max(worst, err)
        assert err <= 1e-10
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    k4 = make_graph(
        1, ["a", "b", "c", "d"], [(f"e{i}", u, v, np.eye(1)) for i, (u, v) in enumerate(pairs)]
    )
    with pytest.raises(NotSeriesParallelError):
        recognize(k4, "a", "d")
    print(
        f"\n[PASS] criterion 10: 500 recognition round-trips agree to {worst:.2e}; "
        f"K4 rejected as not series-parallel"
    )
