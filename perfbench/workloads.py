"""Workloads, the timed op and its untimed correctness gates.

One op on every workload: write a fresh seeded instance to JSON (untimed),
then time, back to back,

- ``setup``: ``fileio.load_graph`` + ``graph.validate_consensus`` +
  ``fileio.load_config``;
- ``h2``: ``h2.compositional_h2(g, "exact")``;
- ``oracle``: ``h2.dense_h2(g)``;
- ``opt``: ``optimize.optimize_weights`` for exactly N iterations
  (``grad_tol = 0``) with compositional voltages;
- ``opt_dense``: the same run with dense voltages.

The workloads differ in the instance family and N, which decide the layer
that dominates (see ``WORKLOADS``).
"""

import copy
import json
import time
from dataclasses import dataclass

import numpy as np

import gen
from spnet import fileio, graph, h2, matlin, optimize

PENALTY_H = 0.2
REL_TOL = 1e-9
BOX_TOL = 1e-9

# Shared hosts change speed by up to 1.6x for seconds to minutes at a time
# (on a 2-vCPU x86-64 VM the same compositional_h2 call took 9 to 16 ms, in
# two clusters), which would swamp any per-run median. A fixed numpy kernel
# tracks those swings: small 4x4 eigh calls from a Python loop, like spnet's
# k x k work, plus LAPACK inversions of a 120x120 matrix, like the dense
# oracle, about two thirds and one third of its time. Each op is bracketed
# by two kernel runs, and its times are reported in reference-speed seconds:
# raw seconds * CAL_REF_S / mean kernel seconds. The kernel uses no spnet
# code, so changes to spnet cannot move it.
CAL_REF_S = 0.002
_CAL_SMALL = np.eye(4) + 0.25 * np.ones((4, 4))
_CAL_DENSE = 2.0 * np.eye(120) + np.ones((120, 120)) / 120


@dataclass(frozen=True)
class Workload:
    k: int
    iters: int
    rungs: tuple = None  # ladder family: rung count drawn from [lo, hi]
    sources: int = 0  # chain family: sources, leaves per link, box, start
    leaves: int = 0
    box: tuple = None
    start: float = 0.0
    inner: int = None  # chain family: fixed inner node count, or None

    def instance(self, rng):
        """(graph dict, config dict) for one op."""
        if self.rungs:
            g, boxes = gen.ladder(rng, self.k, int(rng.integers(self.rungs[0], self.rungs[1] + 1)))
        else:
            g, boxes = gen.sp_chain(rng, self.k, self.sources, self.leaves, *self.box, self.start, self.inner)
        config = {
            "penalty_h": PENALTY_H,
            "max_iters": self.iters,
            "grad_tol": 0.0,
            "voltage_mode": "compositional",
            "bounds": {eid: {"L": lo.tolist(), "U": up.tolist()} for eid, (lo, up) in boxes.items()},
        }
        return g, config


# Why each workload exists is recorded in BENCHMARK.json. In short:
# ladder-h2: sptree.recognize dominates h2_s and electrical does only the R
#   sweep; opt_s is the start point's objective and gradient (no step).
# chain-opt: per-source R/I/V sweeps and small-k matlin kernels dominate
#   opt_s, recognition is a few percent and projections take 1-2 Dykstra
#   iterations.
# k16-opt: matlin.project_box with many Dykstra iterations and 16x16 eigh
#   takes a large share of the op; few arithmetic-bound matlin calls.
WORKLOADS = {
    "ladder-h2": Workload(
        k=3,
        rungs=(46, 48),
        iters=0,
    ),
    "chain-opt": Workload(
        k=4,
        sources=4,
        leaves=6,
        box=(0.5, 2.0),
        start=0.2,
        iters=3,
    ),
    "k16-opt": Workload(
        k=16,
        sources=3,
        leaves=6,
        box=(0.01, 0.2),
        start=0.5,
        iters=1,
        inner=5,
    ),
}


def calibration_s():
    """Seconds taken by the fixed speed-reference kernel."""
    t0 = time.perf_counter()
    for _ in range(100):
        w, v = np.linalg.eigh(_CAL_SMALL)
        (v / w) @ v.T
    np.linalg.inv(_CAL_DENSE)
    return time.perf_counter() - t0


def write_instance(workload, rng, graph_path, config_path):
    g, config = workload.instance(rng)
    with open(graph_path, "w") as f:
        json.dump(g, f)
    with open(config_path, "w") as f:
        json.dump(config, f)


def _setup(graph_path, config_path):
    g = fileio.load_graph(graph_path)
    graph.validate_consensus(g)
    return g, fileio.load_config(config_path, g.k)


def run_op(tracer, graph_path, config_path):
    """Time one op's parts; returns (part -> seconds, outputs for the gates)."""
    times = {}

    def timed(part, fn, *args):
        t0 = time.perf_counter()
        out = tracer.span(f"op.{part}", fn, *args)
        times[part] = time.perf_counter() - t0
        return out

    g, cfg = timed("setup", _setup, graph_path, config_path)
    # A shallow copy skips OptConfig's re-validation of every box.
    cfg_dense = copy.copy(cfg)
    cfg_dense.voltage_mode = "dense"
    exact = timed("h2", h2.compositional_h2, g, "exact")
    dense = timed("oracle", h2.dense_h2, g)
    traj = timed("opt", optimize.optimize_weights, g, cfg)
    traj_dense = timed("opt_dense", optimize.optimize_weights, g, cfg_dense)
    return times, (cfg, exact, dense, traj, traj_dense)


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def gate_failures(outputs):
    """Reasons the op's outputs are wrong; empty when every gate passes."""
    cfg, exact, dense, traj, traj_dense = outputs
    bad = []
    if _rel_err(exact.total, dense.total) > REL_TOL:
        bad.append(f"exact vs dense H2^2 total: {exact.total!r} vs {dense.total!r}")
    if set(exact.per_source) != set(dense.per_source):
        bad.append("exact and dense H2^2 cover different sources")
    else:
        for s, v in exact.per_source.items():
            if _rel_err(v, dense.per_source[s]) > REL_TOL:
                bad.append(f"exact vs dense H2^2 of source {s!r}: {v!r} vs {dense.per_source[s]!r}")
    for name, tr in (("compositional", traj), ("dense", traj_dense)):
        if len(tr.records) != cfg.max_iters + 1 or tr.records[-1].iteration != cfg.max_iters:
            bad.append(f"{name} run did not take exactly {cfg.max_iters} iterations")
        for rec in tr.records:
            for eid, w in rec.weights.items():
                lo, up = cfg.bounds[eid]
                if not (matlin.loewner_leq(lo, w, tol=BOX_TOL) and matlin.loewner_leq(w, up, tol=BOX_TOL)):
                    bad.append(f"{name} iterate {rec.iteration}: edge {eid!r} leaves its box")
    if _rel_err(traj.final_objective, traj_dense.final_objective) > REL_TOL:
        bad.append(
            f"compositional vs dense final objective: {traj.final_objective!r} vs {traj_dense.final_objective!r}"
        )
    return bad
