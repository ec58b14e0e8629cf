import numpy as np
import pytest

from helpers import fd_gradient_direction, random_aittsp, random_symmetric
from spnet import electrical, h2
from spnet.errors import NotSeriesParallelError
from spnet.graph import attachment_edge_ids, make_graph
from spnet.h2 import dense_provider
from spnet.optimize import (
    OptConfig,
    gradient_edge,
    objective,
    optimize_weights,
    pgd_step,
)

I1 = np.eye(1)


def chain_graph(w=1.0, k=1):
    """Two leaders, two sources, one free edge s1--s2 of weight w.

    Grounding the leaders gives A = [[1+w, -w], [-w, 1+w]], so the squared
    H2 norm is (1+w)/(1+2w) and its w-derivative is -1/(1+2w)^2.
    """
    return make_graph(
        k,
        ["r1", "r2", "s1", "s2"],
        [
            ("att1", "r1", "s1", np.eye(k)),
            ("att2", "r2", "s2", np.eye(k)),
            ("e", "s1", "s2", w * np.eye(k)),
        ],
        leaders=["r1", "r2"],
    )


def wide_bounds(g, lo=1e-3, hi=1e3):
    k = g.k
    return {e.id: (lo * np.eye(k), hi * np.eye(k)) for e in g.edges}


class TestGradient:
    def test_single_free_edge_analytic(self):
        g = chain_graph(w=2.0)
        diffs = dense_provider(g)[1]
        grad = gradient_edge(g, "e", diffs)
        assert grad[0, 0] == pytest.approx(-1 / 25)

    def test_dead_end_edge_has_zero_gradient(self):
        # No current flows through an edge hanging off the network, so its
        # weight cannot affect the norm.
        g = make_graph(
            1,
            ["r", "s", "b"],
            [("att", "r", "s", I1), ("e", "s", "b", 2 * I1)],
            leaders=["r"],
        )
        grad = gradient_edge(g, "e", dense_provider(g)[1])
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            k = int(rng.integers(1, 4))
            g = random_aittsp(rng, k, int(rng.integers(2, 4)))
            diffs = dense_provider(g)[1]
            for e in g.edges:
                if e.id in attachment_edge_ids(g):
                    continue
                grad = gradient_edge(g, e.id, diffs)
                for _ in range(3):
                    d = random_symmetric(rng, k)
                    analytic = float(np.sum(grad * d))
                    numeric = fd_gradient_direction(g, e.id, d)
                    assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_negative_semidefinite(self, rng):
        g = random_aittsp(rng, 3, 3)
        diffs = dense_provider(g)[1]
        for e in g.edges:
            grad = gradient_edge(g, e.id, diffs)
            assert np.linalg.eigvalsh(grad).max() <= 1e-10

    def test_unknown_edge(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            gradient_edge(g, "nope", dense_provider(g)[1])


class TestObjective:
    def test_unit_path_value(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        assert objective(g, h=0.05) == pytest.approx(0.525)

    def test_modes_agree(self, rng):
        g = random_aittsp(rng, 2, 3)
        assert objective(g, 0.1, "dense") == pytest.approx(
            objective(g, 0.1, "compositional"), rel=1e-9
        )


class TestConfig:
    def test_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            OptConfig(penalty_h=0.0, bounds={})

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            OptConfig(penalty_h=1.0, bounds={}, voltage_mode="magic")

    def test_infeasible_bounds(self):
        with pytest.raises(ValueError):
            OptConfig(penalty_h=1.0, bounds={"e": (2 * np.eye(2), np.eye(2))})

    def test_missing_bounds_for_free_edge(self):
        g = chain_graph()
        cfg = OptConfig(penalty_h=1.0, bounds={})
        with pytest.raises(ValueError):
            optimize_weights(g, cfg)


class TestPgdStep:
    def test_zero_gradient_shrinks_toward_origin(self):
        cfg = OptConfig(penalty_h=1.0, bounds={"e": ([[0.1]], [[10.0]])})
        out = pgd_step({"e": np.array([[2.0]])}, {"e": np.zeros((1, 1))}, 4, cfg)
        # eta = 1/2, so w' = w - (1/2) w = 1.0
        assert out["e"][0, 0] == pytest.approx(1.0)

    def test_point_constraint_pins_weight(self, rng):
        w0 = np.array([[3.0]])
        cfg = OptConfig(penalty_h=0.5, bounds={"e": (w0, w0)})
        out = pgd_step({"e": np.array([[1.0]])}, {"e": np.array([[-5.0]])}, 1, cfg)
        np.testing.assert_allclose(out["e"], w0, atol=1e-9)

    def test_iteration_counter(self):
        cfg = OptConfig(penalty_h=1.0, bounds={"e": ([[0.1]], [[10.0]])})
        with pytest.raises(ValueError):
            pgd_step({"e": I1}, {"e": I1}, 0, cfg)


class TestOptimizeWeights:
    def test_scalar_chain_stationary_point(self):
        # Stationarity of (1+w)/(1+2w) + (h/2) w^2 requires w (1+2w)^2 = 1/h.
        h = 0.05
        roots = np.roots([4.0, 4.0, 1.0, -1.0 / h])
        w_star = float(roots[np.isreal(roots) & (roots.real > 0)].real[0])
        g = chain_graph(w=0.3)
        cfg = OptConfig(
            penalty_h=h,
            bounds=wide_bounds(g, lo=0.05, hi=20.0),
            max_iters=5000,
            grad_tol=1e-10,
        )
        traj = optimize_weights(g, cfg)
        assert traj.converged
        assert traj.final_weights["e"][0, 0] == pytest.approx(w_star, abs=1e-6)
        assert traj.records[-1].grad_norm <= 10 * cfg.grad_tol

    def test_objective_improves(self, rng):
        g = random_aittsp(rng, 2, 3)
        cfg = OptConfig(penalty_h=0.1, bounds=wide_bounds(g), max_iters=50)
        traj = optimize_weights(g, cfg)
        assert traj.final_objective < traj.initial_objective
        running = np.minimum.accumulate([r.objective for r in traj.records])
        assert all(np.diff(running) <= 0)

    def test_default_free_edges_exclude_attachments(self, rng):
        g = random_aittsp(rng, 1, 2)
        cfg = OptConfig(penalty_h=0.1, bounds=wide_bounds(g), max_iters=1)
        traj = optimize_weights(g, cfg)
        att = attachment_edge_ids(g)
        assert set(traj.final_weights) == {e.id for e in g.edges} - att

    def test_iterates_stay_feasible(self, rng):
        g = random_aittsp(rng, 2, 2)
        lo, up = 0.6 * np.eye(2), 1.8 * np.eye(2)
        bounds = {e.id: (lo, up) for e in g.edges}
        cfg = OptConfig(penalty_h=1.0, bounds=bounds, max_iters=30)
        traj = optimize_weights(g, cfg)
        from spnet import matlin

        # records[0] is the raw starting point; every later iterate has
        # passed through the box projection.
        for rec in traj.records[1:]:
            for w in rec.weights.values():
                assert matlin.loewner_leq(lo, w, tol=1e-8)
                assert matlin.loewner_leq(w, up, tol=1e-8)

    def test_compositional_matches_dense_trajectory(self, rng):
        g = random_aittsp(rng, 2, 3)
        base = dict(penalty_h=0.2, bounds=wide_bounds(g), max_iters=15)
        comp = optimize_weights(g, OptConfig(voltage_mode="compositional", **base))
        dense = optimize_weights(g, OptConfig(voltage_mode="dense", **base))
        assert len(comp.records) == len(dense.records)
        for rc, rd in zip(comp.records, dense.records):
            assert rc.objective == pytest.approx(rd.objective, rel=1e-8)
            for eid in rc.weights:
                np.testing.assert_allclose(rc.weights[eid], rd.weights[eid], atol=1e-8)


class TestSolvesPerIterate:
    @pytest.mark.parametrize("mode", ["compositional", "dense"])
    def test_one_provider_pass_per_iterate(self, rng, monkeypatch, mode):
        calls = {"effective_resistance": 0, "dirichlet_laplacian": 0}
        for module, name in ((electrical, "effective_resistance"), (h2, "dirichlet_laplacian")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        g = random_aittsp(rng, 2, 3)
        cfg = OptConfig(penalty_h=0.2, bounds=wide_bounds(g), max_iters=4, voltage_mode=mode)
        iterates = len(optimize_weights(g, cfg).records)
        assert iterates == 5
        if mode == "compositional":
            expected = {"effective_resistance": len(g.sources) * iterates, "dirichlet_laplacian": 0}
        else:
            expected = {"effective_resistance": 0, "dirichlet_laplacian": iterates}
        assert calls == expected


class TestFallback:
    @staticmethod
    def k4_consensus():
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        edges = [(f"e{i}", u, v, I1) for i, (u, v) in enumerate(pairs)]
        edges.append(("att", "r", "a", I1))
        return make_graph(1, ["r", "a", "b", "c", "d"], edges, leaders=["r"])

    def test_warns_and_uses_dense(self, caplog):
        g = self.k4_consensus()
        cfg = OptConfig(penalty_h=0.5, bounds=wide_bounds(g), max_iters=3)
        with caplog.at_level("WARNING", logger="spnet.optimize"):
            traj = optimize_weights(g, cfg)
        assert "falling back to dense" in caplog.text
        assert traj.final_objective <= traj.initial_objective

    def test_raises_when_fallback_disabled(self):
        g = self.k4_consensus()
        cfg = OptConfig(
            penalty_h=0.5, bounds=wide_bounds(g), max_iters=3, fallback_to_dense=False
        )
        with pytest.raises(NotSeriesParallelError):
            optimize_weights(g, cfg)
