import json
import math
from dataclasses import fields

import numpy as np
import pytest

from helpers import fd_gradient_direction, random_aittsp, random_spd, random_symmetric, reweighted
from spnet import electrical, h2, matlin, optimize
from spnet.errors import GraphValidationError, InfeasibleBoundsError
from spnet.fileio import config_from_dict, load_config
from spnet.graph import attachment_edge_ids, make_graph
from spnet.h2 import dense_provider
from spnet.optimize import (
    OptConfig,
    edge_gradients,
    objective,
    optimize_weights,
    penalty_term,
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


def dense_gradients(g):
    """Edge id -> gradient block, from the dense provider's Q stack."""
    return dict(zip((e.id for e in g.edges), edge_gradients(dense_provider(g)[1])))


class TestGradient:
    def test_single_free_edge_analytic(self):
        g = chain_graph(w=2.0)
        grad = dense_gradients(g)["e"]
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
        grad = dense_gradients(g)["e"]
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            k = int(rng.integers(1, 4))
            g = random_aittsp(rng, k, int(rng.integers(2, 4)))
            grads = dense_gradients(g)
            for e in g.edges:
                if e.id in attachment_edge_ids(g):
                    continue
                grad = grads[e.id]
                for _ in range(3):
                    d = random_symmetric(rng, k)
                    analytic = float(np.sum(grad * d))
                    numeric = fd_gradient_direction(g, e.id, d)
                    assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_negative_semidefinite(self, rng):
        g = random_aittsp(rng, 3, 3)
        for grad in dense_gradients(g).values():
            assert np.linalg.eigvalsh(grad).max() <= 1e-10


class TestObjective:
    def test_unit_path_value(self):
        g = make_graph(1, ["r", "s"], [("a", "r", "s", I1)], leaders=["r"])
        assert objective(g, h=0.05) == pytest.approx(0.525)

    def test_modes_agree(self, rng):
        # A random SP network, and a K4 core that no source has a tree of.
        for g in (random_aittsp(rng, 2, 3), TestNonSeriesParallelCore.k4_consensus()):
            assert objective(g, 0.1, "dense") == pytest.approx(
                objective(g, 0.1, "compositional"), rel=1e-9
            )

    def test_one_reduction_and_one_provider_call(self, rng, monkeypatch):
        counts = {"reduce_sources": 0, "solve_sources": 0}
        for module, name in ((h2, "reduce_sources"), (electrical, "solve_sources")):

            def counted(*args, _fn=getattr(module, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        g = random_aittsp(rng, 2, 3)
        value = objective(g, 0.3, "compositional")
        assert counts == {"reduce_sources": 1, "solve_sources": 1}
        assert value == pytest.approx(objective(g, 0.3, "dense"), rel=1e-9)


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

    def test_box_rule_shared_with_projection(self):
        # U a hair below L is an empty box for project_box, so the config
        # rejects it up front instead of failing at the first step.
        lo = 2 * np.eye(2)
        with pytest.raises(ValueError, match="infeasible"):
            OptConfig(penalty_h=1.0, bounds={"e": (lo, lo - 1e-10 * np.eye(2))})
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(lo, lo, lo - 1e-10 * np.eye(2))
        # Point boxes and gaps inside the tolerance are accepted by both.
        for up in (lo, lo - 0.5 * matlin.BOX_TOL * np.eye(2)):
            OptConfig(penalty_h=1.0, bounds={"e": (lo, up)})
            pgd_step(np.eye(2)[None], np.zeros((1, 2, 2)), 1, 1.0, lo[None], up[None])

    def test_field_types(self):
        # The rule config files get: numpy scalars pass, a bool is not a number.
        # penalty_h must also be finite and grad_tol not NaN; an infinite grad_tol is a valid stop rule.
        OptConfig(penalty_h=np.float64(0.5), bounds={}, max_iters=np.int64(3), grad_tol=0)
        OptConfig(penalty_h=0.5, bounds={}, grad_tol=np.float64(np.inf))
        typed = ({"penalty_h": True}, {"max_iters": 2.0}, {"grad_tol": None}, {"bounds": [("e", (I1, I1))]})
        nonfinite = ({"penalty_h": math.nan}, {"penalty_h": np.float64(np.inf)}, {"grad_tol": np.float64(np.nan)})
        for bad in typed + nonfinite:
            with pytest.raises(ValueError, match="must be"):
                OptConfig(**{"penalty_h": 1.0, "bounds": {}, **bad})

    def test_max_iters_may_be_zero_but_not_negative(self):
        # Zero steps is a run: the start point's objective and gradient only.
        g = make_graph(1, ["r", "s"], [("e", "r", "s", I1)], leaders=["r"])
        traj = optimize_weights(g, OptConfig(penalty_h=1.0, bounds={}, max_iters=0))
        assert [rec.iteration for rec in traj.records] == [0]
        for bad in (-1, np.int64(-3)):
            with pytest.raises(ValueError, match="max_iters must be a non-negative integer"):
                OptConfig(penalty_h=1.0, bounds={}, max_iters=bad)

    def test_load_config_reports_empty_box(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"penalty_h": 1.0, "bounds": {"e": {"L": [[2.0]], "U": [[2.0 - 1e-10]]}}}))
        with pytest.raises(GraphValidationError, match="infeasible"):
            load_config(path, 1)

    def test_removed_projection_keys_are_ignored(self):
        data = {"penalty_h": 0.5, "max_iters": 7, "proj_tol": 1e-3, "proj_max_iter": 2, "free_edges": ["e"]}
        cfg = config_from_dict(data, 1)
        assert (cfg.penalty_h, cfg.max_iters, cfg.grad_tol) == (0.5, 7, 1e-8)
        assert [f.name for f in fields(OptConfig)] == [
            "penalty_h",
            "bounds",
            "max_iters",
            "grad_tol",
            "voltage_mode",
        ]

    def test_missing_bounds_for_free_edge(self):
        g = chain_graph()
        cfg = OptConfig(penalty_h=1.0, bounds={})
        with pytest.raises(ValueError):
            optimize_weights(g, cfg)


class TestPgdStep:
    def test_zero_gradient_shrinks_toward_origin(self):
        out = pgd_step(np.array([[[2.0]]]), np.zeros((1, 1, 1)), 4, 1.0, np.array([[[0.1]]]), np.array([[[10.0]]]))
        # eta = 1/2, so w' = w - (1/2) w = 1.0
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(1.0)

    def test_point_constraint_pins_weight(self, rng):
        w0 = np.array([[[3.0]]])
        out = pgd_step(np.array([[[1.0]]]), np.array([[[-5.0]]]), 1, 0.5, w0, w0)
        np.testing.assert_allclose(out, w0, atol=1e-9)

    def test_stack_matches_edge_by_edge_projection(self, rng):
        k, h, t = 3, 0.7, 3
        lower = np.array([random_spd(rng, k, 0.5, 1.0) for _ in range(5)])
        upper = np.array([random_spd(rng, k, 2.0, 3.0) for _ in range(5)])
        w = np.array([random_spd(rng, k, 0.1, 4.0) for _ in range(5)])
        grad = np.array([-random_spd(rng, k, 0.0, 5.0) for _ in range(5)])
        out = pgd_step(w, grad, t, h, lower, upper)
        assert out.shape == w.shape
        eta = 1.0 / (h * np.sqrt(t))
        for j in range(5):
            want, ok = matlin.project_box(w[j] - eta * (grad[j] + h * w[j]), lower[j], upper[j])
            assert ok
            np.testing.assert_array_equal(out[j], want)

    def test_no_free_edges(self):
        empty = np.zeros((0, 2, 2))
        assert pgd_step(empty, empty, 1, 1.0, empty, empty).shape == (0, 2, 2)

    @pytest.mark.parametrize("mode", ["compositional", "dense"])
    def test_one_projection_per_step(self, rng, monkeypatch, mode):
        calls = {"pgd_step": 0, "project_box": 0}
        for module, name in ((optimize, "pgd_step"), (matlin, "project_box")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        g = random_aittsp(rng, 2, 3)
        assert len(g.edges) - len(attachment_edge_ids(g)) > 1
        cfg = OptConfig(penalty_h=0.2, bounds=wide_bounds(g), max_iters=4, grad_tol=0.0, voltage_mode=mode)
        optimize_weights(g, cfg)
        assert calls == {"pgd_step": 4, "project_box": 4}

    def test_iteration_counter(self):
        with pytest.raises(ValueError):
            pgd_step(I1[None], I1[None], 0, 1.0, 0.1 * I1[None], 10 * I1[None])


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
        assert_same_trajectory(comp, dense, 1e-8)


def assert_same_trajectory(a, b, tol):
    """As many iterates; objectives within ``tol`` relative, weights within ``tol`` absolute."""
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.objective == pytest.approx(rb.objective, rel=tol)
        for eid in ra.weights:
            np.testing.assert_allclose(ra.weights[eid], rb.weights[eid], rtol=0, atol=tol)


def reference_descent(g, cfg):
    """The descent written edge by edge: dicts keyed by edge id, boxes looked up
    per edge and one ``project_box`` call per edge and step. Returns
    (objective, grad_norm, weights) per iterate."""
    provider = dense_provider if cfg.voltage_mode == "dense" else h2.CompositionalProvider(g)
    fixed, h = attachment_edge_ids(g), cfg.penalty_h
    weights = {e.id: w for e, w in zip(g.edges, g.weights) if e.id not in fixed}
    current, grads, out = g, None, []
    for t in range(cfg.max_iters + 1):
        if t:
            eta = 1.0 / (h * math.sqrt(t))
            new = {}
            for eid, w in weights.items():
                new[eid], ok = matlin.project_box(w - eta * (grads[eid] + h * w), *cfg.bounds[eid])
                assert ok
            weights = new
            current = reweighted(g, weights)
        per_source, q = provider(current)
        grads = dict(zip((e.id for e in g.edges), edge_gradients(q)))
        reg = np.array([grads[eid] + h * w for eid, w in weights.items()])
        gnorm = float(np.linalg.norm(reg, axis=(1, 2)).sum())
        out.append((sum(per_source.values()) + penalty_term(current, h), gnorm, weights))
        if gnorm < cfg.grad_tol:
            break
    return out


class TestWeightStack:
    @pytest.mark.parametrize("mode", ["compositional", "dense"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_edge_by_edge_reference(self, mode, seed):
        # Boxes listed in shuffled order, half of the free edges' boxes tight around
        # the start so that the projection binds; the stacked run must agree bit for bit.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        g = random_aittsp(rng, k, 3)
        free = [e.id for e in g.edges if e.id not in attachment_edge_ids(g)]
        tight = set(rng.choice(free, size=(len(free) + 1) // 2, replace=False))
        bounds = {}
        for j in rng.permutation(len(g.edges)):
            e, w = g.edges[j], g.weights[j]
            bounds[e.id] = (0.97 * w, 1.01 * w) if e.id in tight else (1e-3 * np.eye(k), 1e3 * np.eye(k))
        cfg = OptConfig(penalty_h=0.3, bounds=bounds, max_iters=6, voltage_mode=mode)
        traj = optimize_weights(g, cfg)
        want = reference_descent(g, cfg)
        assert len(traj.records) == len(want) == 7
        binding = 0
        for rec, (obj, gnorm, weights) in zip(traj.records, want):
            assert (rec.objective, rec.grad_norm) == (obj, gnorm)
            assert list(rec.weights) == list(weights)
            for eid, w in weights.items():
                assert rec.weights[eid].tobytes() == w.tobytes()
                gap = min(np.linalg.eigvalsh(w - bounds[eid][0]).min(), np.linalg.eigvalsh(bounds[eid][1] - w).min())
                binding += rec.iteration > 0 and gap < 1e-9
        assert binding


class TestSolvesPerIterate:
    @pytest.mark.parametrize("mode", ["compositional", "dense"])
    def test_one_provider_pass_per_iterate(self, rng, monkeypatch, mode):
        calls = {"solve_sources": 0, "dirichlet_laplacian": 0}
        for module, name in ((electrical, "solve_sources"), (h2, "dirichlet_laplacian")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        g = random_aittsp(rng, 2, 3)
        cfg = OptConfig(penalty_h=0.2, bounds=wide_bounds(g), max_iters=4, voltage_mode=mode)
        iterates = len(optimize_weights(g, cfg).records)
        assert iterates == 5
        if mode == "compositional":
            expected = {"solve_sources": iterates, "dirichlet_laplacian": 0}
        else:
            expected = {"solve_sources": 0, "dirichlet_laplacian": iterates}
        assert calls == expected


class TestNonSeriesParallelCore:
    """A core that is not series-parallel is one more skeleton for the
    compositional provider: no fallback, no warning."""

    @staticmethod
    def k4_consensus():
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        edges = [(f"e{i}", u, v, I1) for i, (u, v) in enumerate(pairs)]
        edges.append(("att", "r", "a", I1))
        return make_graph(1, ["r", "a", "b", "c", "d"], edges, leaders=["r"])

    def test_compositional_mode_solves_it(self, caplog, monkeypatch):
        g = self.k4_consensus()
        calls = []
        solve = electrical.solve_sources
        monkeypatch.setattr(electrical, "solve_sources", lambda *a: calls.append(a) or solve(*a))
        base = dict(penalty_h=0.5, bounds=wide_bounds(g), max_iters=3)
        with caplog.at_level("DEBUG"):
            comp = optimize_weights(g, OptConfig(voltage_mode="compositional", **base))
        assert caplog.records == []
        assert len(calls) == len(comp.records) == 4
        assert_same_trajectory(comp, optimize_weights(g, OptConfig(voltage_mode="dense", **base)), 1e-9)

    @pytest.mark.parametrize("mode", ["compositional", "dense"])
    def test_disconnected_graph_is_rejected(self, mode):
        # A GraphValidationError, never a LinAlgError nor a solution: r - s,
        # two s - t edges, and u - v with no leader; r - s, s - t and a
        # follower x that no edge touches.
        cases = [
            (["r", "s", "t", "u", "v"], [("b", "s", "t", I1), ("c", "s", "t", I1), ("d", "u", "v", I1)], "u"),
            (["r", "s", "t", "x"], [("b", "s", "t", I1)], "x"),
        ]
        for nodes, edges, cut in cases:
            g = make_graph(1, nodes, [("a", "r", "s", I1), *edges], leaders=["r"])
            cfg = OptConfig(penalty_h=0.5, bounds=wide_bounds(g), max_iters=2, voltage_mode=mode)
            with pytest.raises(GraphValidationError, match=f"node '{cut}' is not connected to a leader"):
                optimize_weights(g, cfg)
