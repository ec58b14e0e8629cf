"""Projected gradient descent on the edge weights of a consensus network.

The gradient of the squared H2 norm with respect to one edge weight is
-1/2 sum_s Q_s Q_s^T, where Q_s is the difference of the matrix-valued
voltage drops at the edge's endpoints under identity current injected at
source s. Each iterate makes one provider call (``spnet.h2``), and either
provider solves any connected network, series-parallel or not: one pass of
the compositional shared sweeps around one terminal-skeleton solve, or of the
dense solve, returns the per-source squared norms and every Q_s as one
(S, m, k, k) stack, rows in source order and columns in ``g.edges`` order.
``edge_gradients`` turns that stack into every edge's gradient with one
batched matrix product, and both providers feed the same update

    W' = Proj_[L,U]( W - eta_t (grad_H2 + h W) ),    eta_t = 1/(h sqrt(t)),

whose expansion is the shrinkage form (1 - 1/sqrt(t)) W
+ (1/(2 h sqrt(t))) sum_s Q_s Q_s^T.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import matlin
from .errors import ProjectionError
from .graph import attachment_edge_ids
from .h2 import CompositionalProvider, dense_provider


@dataclass
class OptConfig:
    penalty_h: float
    bounds: dict  # edge id -> (L, U), L strictly SPD and L <= U (matlin.BOX_TOL)
    max_iters: int = 200
    grad_tol: float = 1e-8
    voltage_mode: str = "compositional"  # compositional | dense

    def __post_init__(self):
        # One type rule for the API and config files; a bool is not a number here.
        for name, kind in (("penalty_h", numbers.Real), ("max_iters", numbers.Integral), ("grad_tol", numbers.Real)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                what = "an integer" if kind is numbers.Integral else "a number"
                raise ValueError(f"{name} must be {what}, not {type(value).__name__}")
        if not isinstance(self.bounds, dict):
            raise ValueError(f"bounds must be a dict of edge id -> (L, U), not {type(self.bounds).__name__}")
        if not 0 < self.penalty_h < math.inf:  # rejects NaN too
            raise ValueError("penalty_h must be finite and positive")
        if math.isnan(self.grad_tol):
            raise ValueError("grad_tol must be a number, not NaN")
        if self.max_iters < 0:  # 0 is valid: the start point's objective and gradient only
            raise ValueError("max_iters must be a non-negative integer")
        if self.voltage_mode not in ("compositional", "dense"):
            raise ValueError(f"unknown voltage mode {self.voltage_mode!r}")
        # Every box [L, U]: one stack per side, then shapes, finite entries, L strictly SPD (as_symmetric,
        # then has_cholesky), U symmetric and matlin.box_nonempty, each rule once over the whole stack.
        if not self.bounds:
            return
        ids = list(self.bounds)
        try:
            lo, up = (np.array(side, dtype=float) for side in zip(*self.bounds.values(), strict=True))
        except ValueError:  # ragged or not pairs: the scan below names the first bad box
            lo = up = np.empty(0)
        if lo.ndim != 3 or lo.shape[1] != lo.shape[2] or up.shape != lo.shape:
            shape = None
            for eid, (lo, up) in self.bounds.items():
                lo, up = np.asarray(lo, dtype=float), np.asarray(up, dtype=float)
                shape = shape or lo.shape[:1] * 2
                if len(shape) != 2 or lo.shape != shape or up.shape != shape:
                    raise ValueError(f"bounds for edge {eid!r} have shapes {lo.shape} and {up.shape}, not {shape}")
        finite = np.isfinite(lo).all(axis=(1, 2)) & np.isfinite(up).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"bounds for edge {ids[int(np.argmin(finite))]!r} have a non-finite entry")
        lo = matlin.as_symmetric(lo, describe=lambda i: f"lower bound for edge {ids[i]!r}")
        bad = np.flatnonzero(~matlin.has_cholesky(lo))
        if bad.size:
            raise ValueError(f"lower bound for edge {ids[bad[0]]!r} is not strictly SPD")
        up = matlin.as_symmetric(up, describe=lambda i: f"upper bound for edge {ids[i]!r}")
        bad = np.flatnonzero(~matlin.box_nonempty(lo, up))
        if bad.size:
            raise ValueError(f"bounds for edge {ids[bad[0]]!r} are infeasible")


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


def edge_gradients(q):
    """Gradient of the squared H2 norm with respect to every edge weight.

    ``q`` is a provider's (S, m, k, k) voltage-drop stack; the result is the
    (m, k, k) stack -1/2 sum_s Q_s Q_s^T, one symmetric negative
    semidefinite block per edge in ``g.edges`` order.
    """
    s, m, k, _ = q.shape
    qq = q.transpose(1, 2, 0, 3).reshape(m, k, s * k)  # each edge's S blocks side by side
    return matlin.symmetrize(-0.5 * (qq @ qq.swapaxes(1, 2)))


def penalty_term(g, h):
    """(h/2) sum_e ||W_e||_F^2, one sum of squares over the weight stack."""
    return 0.5 * h * float(np.vdot(g.weights, g.weights))


def _provider(g, voltage_mode):
    return CompositionalProvider(g) if voltage_mode == "compositional" else dense_provider


def objective(g, h, voltage_mode="dense"):
    """Regularized objective: squared H2 norm plus (h/2) sum_e ||W_e||_F^2,
    the norm from one call of the provider ``optimize_weights`` would use."""
    per_source, _ = _provider(g, voltage_mode)(g)
    return sum(per_source.values()) + penalty_term(g, h)


def pgd_step(w, grad, t, h, lower, upper):
    """One projected descent step at iteration t >= 1 on (F, k, k) stacks: one ``project_box`` call."""
    if t < 1:
        raise ValueError("iteration counter starts at 1")
    eta = 1.0 / (h * math.sqrt(t))
    projected, ok = matlin.project_box(w - eta * (grad + h * w), lower, upper)
    if not ok:
        raise ProjectionError(f"box projection did not converge at step {t}")
    return projected


def optimize_weights(g, cfg):
    """Run projected gradient descent on the free (non-attachment) edge weights of ``g``.

    Weights, gradients and boxes are (F, k, k) stacks in ``g.edges`` order,
    the boxes stacked once per run. Iterates until the summed Frobenius norm
    of the regularized gradient drops below ``cfg.grad_tol`` or
    ``cfg.max_iters`` steps have been taken; one snapshot per iterate.
    """
    fixed = attachment_edge_ids(g)
    rows = [j for j, e in enumerate(g.edges) if e.id not in fixed]  # the free edges
    free = tuple(g.edges[j].id for j in rows)
    boxes = [cfg.bounds.get(eid) for eid in free]
    if None in boxes:
        raise ValueError(f"no bounds configured for edges {[eid for eid, b in zip(free, boxes) if b is None]}")
    lower, upper = (np.array([box[j] for box in boxes], dtype=float).reshape(-1, g.k, g.k) for j in (0, 1))
    w = g.weights[rows]

    provider = _provider(g, cfg.voltage_mode)
    current = replace(g, weights=g.weights.copy())  # the run's own stack; each step writes its free rows
    traj = OptTrajectory()

    def record(iteration):
        per_source, q = provider(current)
        grad = edge_gradients(q)[rows]
        h2_sq = sum(per_source.values())
        pen = penalty_term(current, cfg.penalty_h)
        gnorm = float(np.linalg.norm(grad + cfg.penalty_h * w, axis=(1, 2)).sum())
        snapshot = dict(zip(free, w.copy()))
        traj.records.append(IterationRecord(iteration, h2_sq + pen, h2_sq, pen, gnorm, snapshot))
        return grad, gnorm

    grad, gnorm = record(0)
    for t in range(1, cfg.max_iters + 1):
        if gnorm < cfg.grad_tol:
            break
        w = pgd_step(w, grad, t, cfg.penalty_h, lower, upper)
        current.weights[rows] = w  # project_box returns exactly symmetric blocks
        grad, gnorm = record(t)
    traj.converged = gnorm < cfg.grad_tol
    return traj
