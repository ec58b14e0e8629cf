"""Projected gradient descent on the edge weights of a consensus network.

The gradient of the squared H2 norm with respect to one edge weight is
-1/2 sum_s Q_s Q_s^T, where Q_s is the difference of the matrix-valued
voltage drops at the edge's endpoints under identity current injected at
source s. Each iterate makes one provider call (``spnet.h2``): one pass of
either the compositional tree sweeps or the dense solve returns the
per-source squared norms and every Q_s, and both providers feed the same
update

    W' = Proj_[L,U]( W - eta_t (grad_H2 + h W) ),    eta_t = 1/(h sqrt(t)),

whose expansion is the shrinkage form (1 - 1/sqrt(t)) W
+ (1/(2 h sqrt(t))) sum_s Q_s Q_s^T.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .errors import NotSeriesParallelError
from .graph import attachment_edge_ids
from .h2 import CompositionalProvider, dense_provider

logger = logging.getLogger(__name__)


@dataclass
class OptConfig:
    penalty_h: float
    bounds: dict  # edge id -> (L, U), both strictly SPD with L < U
    max_iters: int = 200
    grad_tol: float = 1e-8
    proj_tol: float = 1e-10
    proj_max_iter: int = 500
    voltage_mode: str = "compositional"  # compositional | dense
    fallback_to_dense: bool = True
    free_edges: tuple = None  # default: every non-leader-attachment edge

    def __post_init__(self):
        if self.penalty_h <= 0:
            raise ValueError("penalty h must be positive")
        if self.voltage_mode not in ("compositional", "dense"):
            raise ValueError(f"unknown voltage mode {self.voltage_mode!r}")
        for eid, (lo, up) in self.bounds.items():
            if not matlin.is_spd(np.asarray(lo, dtype=float)):
                raise ValueError(f"lower bound for edge {eid!r} is not strictly SPD")
            if not matlin.loewner_leq(lo, up):
                raise ValueError(f"bounds for edge {eid!r} are infeasible")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    h2_squared: float
    penalty: float
    grad_norm: float
    weights: dict  # edge id -> k x k snapshot


@dataclass
class OptTrajectory:
    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def final_weights(self):
        return self.records[-1].weights

    @property
    def initial_objective(self):
        return self.records[0].objective

    @property
    def final_objective(self):
        return self.records[-1].objective


def gradient_edge(g, edge_id, voltage_diffs):
    """Gradient of the squared H2 norm with respect to one edge weight.

    ``voltage_diffs`` maps source -> edge id -> Q_s; the result is
    -1/2 sum_s Q_s Q_s^T, symmetric negative semidefinite by construction.
    """
    if edge_id not in g.edge_ids:
        raise ValueError(f"unknown edge {edge_id!r}")
    k = g.k
    grad = np.zeros((k, k))
    for s, per_edge in voltage_diffs.items():
        q = per_edge[edge_id]
        grad -= 0.5 * (q @ q.T)
    return matlin.symmetrize(grad)


def penalty_term(g, h):
    return 0.5 * h * sum(float(np.trace(e.weight.T @ e.weight)) for e in g.edges)


def objective(g, h, voltage_mode="dense"):
    """Regularized objective: squared H2 norm plus (h/2) sum_e ||W_e||_F^2."""
    provider = dense_provider if voltage_mode == "dense" else CompositionalProvider(g)
    per_source, _ = provider(g)
    return sum(per_source.values()) + penalty_term(g, h)


def pgd_step(weights, grads, t, cfg):
    """One projected descent step at iteration t >= 1 for every free edge."""
    if t < 1:
        raise ValueError("iteration counter starts at 1")
    eta = 1.0 / (cfg.penalty_h * math.sqrt(t))
    out = {}
    for eid, w in weights.items():
        step = w - eta * (grads[eid] + cfg.penalty_h * w)
        lo, up = cfg.bounds[eid]
        projected, ok = matlin.project_box(
            step, lo, up, tol=cfg.proj_tol, max_iter=cfg.proj_max_iter
        )
        if not ok:
            raise RuntimeError(f"box projection did not converge for edge {eid!r}")
        out[eid] = projected
    return out


def optimize_weights(g, cfg):
    """Run projected gradient descent on the free edge weights of ``g``.

    Iterates until the summed Frobenius norm of the regularized gradient
    drops below ``cfg.grad_tol`` or ``cfg.max_iters`` steps have been
    taken; the full trajectory is recorded, one snapshot per iterate.
    """
    free = cfg.free_edges
    if free is None:
        fixed = attachment_edge_ids(g)
        free = tuple(e.id for e in g.edges if e.id not in fixed)
    missing = [eid for eid in free if eid not in cfg.bounds]
    if missing:
        raise ValueError(f"no bounds configured for edges {missing}")

    provider = dense_provider
    if cfg.voltage_mode == "compositional":
        try:
            provider = CompositionalProvider(g)
        except NotSeriesParallelError:
            if not cfg.fallback_to_dense:
                raise
            logger.warning(
                "graph is not series-parallel from every source; "
                "falling back to dense voltage solves"
            )

    emap = g.edge_map()
    weights = {eid: emap[eid].weight for eid in free}
    current = g
    traj = OptTrajectory()

    def record(iteration):
        per_source, diffs = provider(current)
        grads = {eid: gradient_edge(current, eid, diffs) for eid in free}
        h2_sq = sum(per_source.values())
        pen = penalty_term(current, cfg.penalty_h)
        gnorm = sum(
            float(np.linalg.norm(grads[eid] + cfg.penalty_h * weights[eid], "fro"))
            for eid in free
        )
        traj.records.append(
            IterationRecord(
                iteration=iteration,
                objective=h2_sq + pen,
                h2_squared=h2_sq,
                penalty=pen,
                grad_norm=gnorm,
                weights={eid: w.copy() for eid, w in weights.items()},
            )
        )
        return grads, gnorm

    grads, gnorm = record(0)
    for t in range(1, cfg.max_iters + 1):
        if gnorm < cfg.grad_tol:
            traj.converged = True
            break
        weights = pgd_step(weights, grads, t, cfg)
        current = current.with_weights(weights)
        grads, gnorm = record(t)
    else:
        traj.converged = gnorm < cfg.grad_tol
    return traj
