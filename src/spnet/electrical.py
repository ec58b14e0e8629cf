"""Matrix-valued electrical solve over series-parallel join records.

One engine: ``solve_sources`` sweeps an ``sptree.ArcProgram``, join records
``(kind, a, a flipped, b, b flipped)`` over an arc list (leaves, then one arc
per join, bottom-up) for all its sources at once: ``skeleton_solve`` (the
shared joins' R sweep, one Dirichlet solve of the terminal skeleton), then
one current sweep. ``solve_tree`` runs it on ``sptree.flatten`` of a tree,
whose skeleton is its root arc. Leaf resistances are one batched inverse. The sweeps:

- resistance, bottom-up: series R1 + R2; parallel one solve for
  X = (R1 + R2)^-1 [R2 | R1] = (X1, X2), then R = sym(R1 X1), X kept;
- current, top-down: series passes I on; parallel I1 = X1 I and
  I2 = X2 I, so I1 + I2 = I stays a check; a flipped child gets -I;
- voltage: R I on every arc. At each parallel join R1 X1 and R2 X2, the two
  children's voltages per unit current, must agree; a ValueError names the
  first join where they differ by more than PARALLEL_VOLTAGE_ATOL times their
  scale.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Parallel, flatten

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


def _check_parallel(v1, v2, arcs):
    """ValueError at the first pair of (n, k, k) child voltages that differ by
    more than PARALLEL_VOLTAGE_ATOL times their scale; ``arcs`` names the joins."""
    scale = np.maximum(np.maximum(np.abs(v1).max(axis=(1, 2)), np.abs(v2).max(axis=(1, 2))), 1.0)
    bad = np.flatnonzero(np.abs(v1 - v2).max(axis=(1, 2)) > PARALLEL_VOLTAGE_ATOL * scale)
    if bad.size:
        raise ValueError(
            f"parallel children voltages disagree at join arc {arcs[bad[0]]}; the current split is inconsistent"
        )


@dataclass(frozen=True, eq=False)
class SourceSweeps:
    """Unit-current solve of every source of an ``ArcProgram``; S in source order."""

    roots: np.ndarray  # (S, k, k) effective resistance source -> sink
    resistance: list  # (k, k) R of every arc, as the resistance sweep left it
    current: np.ndarray  # (arcs, S, k, k) in stored direction
    voltage: np.ndarray  # (m, S, k, k) drop tail -> head of every leaf arc


def skeleton_solve(program, leaf_r):
    """The shared R sweep, then one solve of the terminal skeleton's grounded
    Laplacian (sink dropped) for all S unit injections, a Kron reduction:
    (R of every arc, each join's split, live-arc conductances G = R^-1, Y),
    Y (skeleton nodes, S, k, k); source c's root R is Y[c, c]."""
    k, n_src = leaf_r.shape[-1], len(program.sources)
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
    return res, splits, cond, y.swapaxes(1, 2)


def solve_sources(program, leaf_r):
    """Resistance, current and leaf-voltage sweeps of every source together:
    ``skeleton_solve``, then each live arc carries G (Y_tail - Y_head) down
    the shared joins in one current sweep. The guard compares R_a X_a with
    R_b X_b once per shared parallel join: neither depends on the source."""
    m, k, n_src = len(program.edges), leaf_r.shape[-1], len(program.sources)
    res, splits, cond, y = skeleton_solve(program, leaf_r)
    cur = np.zeros((len(res), n_src, k, k))
    cur[program.live] = cond[:, None] @ (y[program.ends[:, 0]] - y[program.ends[:, 1]])
    current_sweep(program.joins, splits, cur, m)
    par = [i for i, x in enumerate(splits) if x is not None]
    if par:
        x = np.array([splits[i] for i in par])
        ra, rb = (np.array([res[program.joins[i][side]] for i in par]) for side in (1, 3))
        _check_parallel(ra @ x[:, 0], rb @ x[:, 1], [m + i for i in par])
    return SourceSweeps(y[range(n_src), range(n_src)], res, cur, leaf_r[:, None] @ cur[:m])


def solve_tree(t):
    """(resistance, current, voltage) of every subtree of a tree under unit
    current into its root, (n, k, k) stacks in pre-order, from its own leaf
    weights: one ``solve_sources`` call on ``flatten(t)``, each voltage R I."""
    program, order = flatten(t)
    sweeps = solve_sources(program, leaf_resistances([lf.weight for lf in program.edges]))
    res, cur = np.array(sweeps.resistance), sweeps.current[:, 0]
    back = np.argsort(order)
    return res[back], cur[back], (res @ cur)[back]
