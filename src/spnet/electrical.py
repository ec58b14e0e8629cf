"""Matrix-valued electrical solve over series-parallel join records.

Every sweep runs on join records ``(kind, a, a flipped, b, b flipped)`` over
an arc list, leaves first and then one arc per join, bottom-up: an
``sptree.ArcProgram`` (``root_resistances`` by its ``fold``, ``solve_sources``
for all sources at once), or ``sptree.flatten`` of a tree (``effective_resistance``,
``branch_currents``, ``voltage_drops``, ``solve_tree``, keyed by pre-order
index). Leaf resistances come from one batched inverse. ``solve_sources`` sweeps
only shared joins; the terminal skeleton they leave takes one Dirichlet solve. The sweeps:

- resistance, bottom-up: series R1 + R2; parallel one solve for
  X = (R1 + R2)^-1 [R2 | R1] = (X1, X2), then R = sym(R1 X1), X kept;
- current, top-down: series passes I on; parallel I1 = X1 I and
  I2 = X2 I, so I1 + I2 = I stays a check; a flipped child gets -I;
- voltage: leaf R I; on a tree also bottom-up, series V1 + V2, parallel
  (V1 + V2) / 2, after a ValueError if the two differ by more than
  PARALLEL_VOLTAGE_ATOL times their scale.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Parallel, flatten, index_tree

PARALLEL_VOLTAGE_ATOL = 1e-6


def leaf_resistances(weights):
    """W^-1 of every weight in a sequence of SPD k x k weights: one batched inverse."""
    return matlin.symmetrize(np.linalg.inv(np.asarray(weights, dtype=float)))


def _split(r1, r2):
    """(X1, X2) = (R1 + R2)^-1 [R2 | R1] as a (2, k, k) stack, by one solve."""
    k = r1.shape[0]
    return np.linalg.solve(r1 + r2, np.concatenate((r2, r1), axis=1)).reshape(k, 2, k).swapaxes(0, 1)


def resistance_sweep(joins, res):
    """Bottom-up: append the R of each join to ``res`` (arc id -> R, holding
    every child already); returns each join's split X, None at series joins."""
    splits = []
    for kind, a, _, b, _ in joins:
        x = _split(res[a], res[b]) if kind is Parallel else None
        res.append(res[a] + res[b] if x is None else matlin.symmetrize(res[a] @ x[0]))
        splits.append(x)
    return splits


def current_sweep(joins, splits, cur, base):
    """Top-down: from the current of each join (``joins[i]`` is arc base + i)
    to its children, each in its stored direction. ``cur`` is an
    (arcs, S, k, k) array holding the roots' currents; S columns at once."""
    for i in range(len(joins) - 1, -1, -1):
        _, a, fa, b, fb = joins[i]
        c, x = cur[base + i], splits[i]
        ca, cb = (c, c) if x is None else x[:, None] @ c
        cur[a] = -ca if fa else ca
        cur[b] = -cb if fb else cb


def _check_parallel(v1, v2, where):
    """ValueError at the first pair of (n, k, k) child voltages that differ by
    more than PARALLEL_VOLTAGE_ATOL times their scale; ``where(i)`` names it."""
    scale = np.maximum(np.maximum(np.abs(v1).max(axis=(1, 2)), np.abs(v2).max(axis=(1, 2))), 1.0)
    bad = np.flatnonzero(np.abs(v1 - v2).max(axis=(1, 2)) > PARALLEL_VOLTAGE_ATOL * scale)
    if bad.size:
        raise ValueError(
            f"parallel children voltages disagree at {where(bad[0])}; upstream annotations are inconsistent"
        )


def root_resistances(program, leaf_r):
    """Effective resistance from each source of an ``ArcProgram`` to its sink,
    {source: R}: one fold, with the arithmetic of ``resistance_sweep``."""

    def join(kind, r1, r2):
        return matlin.symmetrize(r1 @ _split(r1, r2)[0]) if kind is Parallel else r1 + r2

    return program.fold(leaf_r, join)


@dataclass(frozen=True, eq=False)
class SourceSweeps:
    """Unit-current solve of every source of an ``ArcProgram``; S in source order."""

    roots: np.ndarray  # (S, k, k) effective resistance source -> sink
    current: np.ndarray  # (arcs, S, k, k) in stored direction
    voltage: np.ndarray  # (m, S, k, k) drop tail -> head of every leaf arc


def solve_sources(program, leaf_r):
    """Resistance, current and leaf-voltage sweeps of every source together:
    one R sweep of the shared joins, then one solve of the terminal skeleton's
    grounded Laplacian (live arcs as conductances G = R^-1, sink dropped) for
    all S unit injections, a Kron reduction onto the terminals. Root R of
    source s is Y_s^s; each live arc carries G (Y_tail - Y_head) down the
    shared joins in one current sweep. The guard compares R_a X_a with R_b X_b
    once per shared parallel join: neither depends on the source."""
    m, k, n_src = len(program.edges), leaf_r.shape[-1], len(program.sources)
    res = list(leaf_r)
    splits = resistance_sweep(program.joins, res)
    tails, heads = program.ends.T
    cond = leaf_resistances([res[a] for a in program.live])
    n = len(program.nodes) - 1  # the sink, the last skeleton node
    nodes = np.arange(n + 1)
    lap = np.zeros((n + 1, k, n + 1, k))
    lap[tails, :, heads] = lap[heads, :, tails] = -cond  # the reduction leaves one arc per node pair
    lap[nodes, :, nodes] = -lap.sum(axis=2)
    y = np.zeros((n + 1, k, n_src, k))  # source c is node c, so its unit injection is column block c of I
    y[:n] = np.linalg.solve(lap[:n, :, :n].reshape(n * k, n * k), np.eye(n * k, n_src * k)).reshape(n, k, n_src, k)
    y = y.swapaxes(1, 2)
    cur = np.zeros((len(res), n_src, k, k))
    cur[program.live] = cond[:, None] @ (y[tails] - y[heads])
    current_sweep(program.joins, splits, cur, m)
    par = [i for i, x in enumerate(splits) if x is not None]
    if par:
        x = np.array([splits[i] for i in par])
        ra, rb = (np.array([res[program.joins[i][side]] for i in par]) for side in (1, 3))
        _check_parallel(ra @ x[:, 0], rb @ x[:, 1], lambda i: f"join arc {m + par[i]}")
    return SourceSweeps(y[nodes[:n_src], nodes[:n_src]], cur, leaf_r[:, None] @ cur[:m])


def _by_preorder(values, order):
    return dict(enumerate(np.asarray(values)[np.argsort(order)]))


def _tree_currents(joins, res, splits, intensity):
    cur = np.zeros((len(res), 1, *res[0].shape))
    cur[-1] = np.eye(len(res[0])) if intensity is None else intensity
    current_sweep(joins, splits, cur, len(res) - len(joins))
    return cur[:, 0]


def _tree_voltages(joins, res, cur, order):
    """Voltage over every arc, bottom-up; the parallel check names the first
    offender bottom-up by its pre-order index."""
    vol = list(np.asarray(res) @ cur)  # the rows computed for joins are overwritten
    base = len(vol) - len(joins)
    for i, (kind, a, _, b, _) in enumerate(joins):
        vol[base + i] = 0.5 * (vol[a] + vol[b]) if kind is Parallel else vol[a] + vol[b]
    par, v = [i for i, join in enumerate(joins) if join[0] is Parallel], np.array(vol)
    a, b = ([joins[i][side] for i in par] for side in (1, 3))
    _check_parallel(v[a], v[b], lambda n: f"tree node {order[base + par[n]]}")
    return vol


def effective_resistance(t):
    """Effective resistance of every subtree, keyed by pre-order index.

    Leaf: W_e^-1; series: R1 + R2; parallel: R1 : R2.
    """
    program, order = flatten(t)
    res = list(leaf_resistances([lf.weight for lf in program.edges]))
    resistance_sweep(program.joins, res)
    return _by_preorder(res, order)


def split_current(r1, r2, i_in):
    """Split a current across two parallel resistances, minimizing power.

    I1 = (R1 + R2)^-1 R2 I_in = R1^-1 (R1:R2) I_in, likewise I2; the pair
    sums to I_in and minimizes Tr(I1^T R1 I1) + Tr(I2^T R2 I2) under that
    constraint.
    """
    r1, r2 = matlin.as_symmetric(r1), matlin.as_symmetric(r2)
    i_in = np.asarray(i_in, dtype=float)
    if r1.shape != r2.shape or i_in.shape != r1.shape:
        raise ValueError("dimension mismatch in current split")
    return tuple(_split(r1, r2) @ i_in)


def branch_currents(t, resistances, intensity=None):
    """Current entering every subtree, keyed by pre-order index.

    The root receives the identity intensity unless one is supplied;
    series joins pass the current through, parallel joins divide it as
    ``split_current`` does.
    """
    program, order = flatten(t)
    res = [np.asarray(resistances[i], dtype=float) for i in order]
    splits = [_split(res[a], res[b]) if kind is Parallel else None for kind, a, _, b, _ in program.joins]
    return _by_preorder(_tree_currents(program.joins, res, splits, intensity), order)


def voltage_drops(t, resistances, currents):
    """Voltage dropped across every subtree, keyed by pre-order index.

    Leaf: R_e I_e; series: V1 + V2; parallel: the two child voltages are
    theoretically equal and their average is propagated to damp roundoff.
    """
    program, order = flatten(t)
    res, cur = (np.array([d[i] for i in order], dtype=float) for d in (resistances, currents))
    return _by_preorder(_tree_voltages(program.joins, res, cur, order), order)


def power(current, resistance):
    """Dissipated power Tr(I^T R I); reduces to i^2 R at k = 1."""
    current = np.asarray(current, dtype=float)
    resistance = matlin.as_symmetric(resistance)
    if current.shape != resistance.shape:
        raise ValueError("dimension mismatch in power evaluation")
    return float(np.trace(current.T @ resistance @ current))


@dataclass(frozen=True, eq=False)
class ElectricalSolution:
    """Annotations of one tree under one intensity: (n, k, k) stacks in pre-order."""

    source: str
    entries: list  # index_tree of the solved tree
    resistance: np.ndarray
    current: np.ndarray
    voltage: np.ndarray
    leaf_index: dict  # edge id -> pre-order index of its leaf

    def leaf_voltage(self, edge_id):
        return self.voltage[self.leaf_index[edge_id]]


def solve_tree(t, intensity=None, source=None):
    """Run all three sweeps on a tree, indexed once, with its own leaf weights."""
    entries = index_tree(t)
    program, order = flatten(t, entries)
    res = list(leaf_resistances([lf.weight for lf in program.edges]))
    cur = _tree_currents(program.joins, res, resistance_sweep(program.joins, res), intensity)
    vol = _tree_voltages(program.joins, res, cur, order)
    stacks = (np.asarray(v)[np.argsort(order)] for v in (res, cur, vol))
    return ElectricalSolution(source, entries, *stacks, {lf.edge: i for lf, i in zip(program.edges, order)})
