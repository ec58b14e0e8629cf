"""Matrix-valued electrical solve over a decomposition tree.

``compile_tree`` turns a tree, once, into pre-order arrays: ``kind``,
``left``/``right`` child indices, and per leaf ``leaf_edge`` (its edge's row
in the weight stack) and ``leaf_sign`` (-1 where it runs against the edge's
stored orientation). Reversed pre-order is bottom-up, so one indexing serves
every sweep. Weights stay outside the tree: ``leaf_resistances`` inverts the
whole (m, k, k) weight stack in one batch; weights are validated where the
graph is built, not per node. The sweeps:

- resistance, bottom-up: series R1 + R2; parallel one solve for
  X = (R1 + R2)^-1 [R2 | R1] = (X1, X2), then R = sym(R1 X1), X kept;
- current, top-down from the intensity (identity by default): series passes
  I on; parallel I1 = X1 I and I2 = X2 I, so I1 + I2 = I stays a check;
- voltage, bottom-up: leaf R I, one batched product; series V1 + V2;
  parallel (V1 + V2) / 2, after a ValueError if the two differ by more than
  PARALLEL_VOLTAGE_ATOL times their scale.

Each returns an (n, k, k) stack in pre-order. ``effective_resistance``,
``branch_currents`` and ``voltage_drops`` run them on a Leaf/Series/Parallel
tree with its own leaf weights, keyed by pre-order index.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Series, index_tree

PARALLEL_VOLTAGE_ATOL = 1e-6

LEAF, SERIES, PARALLEL = 0, 1, 2


@dataclass(frozen=True, eq=False)
class CompiledTree:
    """Structure of a decomposition tree as pre-order arrays; no weights."""

    kind: np.ndarray  # LEAF | SERIES | PARALLEL
    left: np.ndarray  # child indices, -1 at leaves
    right: np.ndarray
    leaf_edge: np.ndarray  # row of the leaf's weight in the stack, -1 at joins
    leaf_sign: np.ndarray  # -1.0 where the leaf runs head -> tail of its edge, else 1.0
    leaf_index: dict  # edge id -> pre-order index of its leaf, in pre-order
    joins: list  # (node, left, right, is parallel) of every join, in pre-order


def compile_tree(entries, position=None, tails=None):
    """Compile ``index_tree`` entries. ``position`` maps an edge id to its row
    in the weight stack (default: leaves left to right, as in the tree's own
    weights); a leaf whose tail differs from ``tails[edge id]`` gets sign -1."""
    leaves = [node for node, li, _ in entries if li < 0]
    kind = np.array(
        [LEAF if li < 0 else SERIES if isinstance(node, Series) else PARALLEL for node, li, _ in entries]
    )
    leaf_edge = np.full(len(entries), -1)
    leaf_edge[kind == LEAF] = range(len(leaves)) if position is None else [position[lf.edge] for lf in leaves]
    flipped = [li < 0 and tails is not None and node.tail != tails[node.edge] for node, li, _ in entries]
    leaf_sign = np.where(flipped, -1.0, 1.0)
    left, right = np.array([(li, ri) for _, li, ri in entries]).T
    leaf_index = {node.edge: i for i, (node, li, _) in enumerate(entries) if li < 0}
    joins = [(i, li, ri, not isinstance(node, Series)) for i, (node, li, ri) in enumerate(entries) if li >= 0]
    return CompiledTree(kind, left, right, leaf_edge, leaf_sign, leaf_index, joins)


def leaf_resistances(weights):
    """W^-1 of every weight in a sequence of SPD k x k weights: one batched inverse."""
    return matlin.symmetrize(np.linalg.inv(np.asarray(weights, dtype=float)))


def _split(r1, r2):
    """(X1, X2) = (R1 + R2)^-1 [R2 | R1] as a (2, k, k) stack, by one solve."""
    k = r1.shape[0]
    return np.linalg.solve(r1 + r2, np.concatenate((r2, r1), axis=1)).reshape(k, 2, k).swapaxes(0, 1)


def resistance_sweep(tree, leaf_r):
    """(R stack, {parallel join: X}), bottom-up."""
    res = list(leaf_r[tree.leaf_edge])  # the rows gathered for joins (-1) are overwritten
    splits = {}
    for i, li, ri, par in reversed(tree.joins):
        if par:
            x = splits[i] = _split(res[li], res[ri])
            res[i] = matlin.symmetrize(res[li] @ x[0])
        else:
            res[i] = res[li] + res[ri]
    return np.array(res), splits


def current_sweep(tree, splits, intensity, k):
    """Current entering every node, top-down from ``intensity`` (default I_k)."""
    cur = [np.eye(k) if intensity is None else np.asarray(intensity, dtype=float)] * len(tree.kind)
    for i, li, ri, par in tree.joins:
        cur[li], cur[ri] = splits[i] @ cur[i] if par else (cur[i], cur[i])
    return np.array(cur)


def voltage_sweep(tree, resistances, currents):
    """Voltage dropped across every node, bottom-up."""
    vol = list(resistances @ currents)  # the rows computed for joins are overwritten
    for i, li, ri, par in reversed(tree.joins):
        vol[i] = 0.5 * (vol[li] + vol[ri]) if par else vol[li] + vol[ri]
    vol = np.array(vol)
    # One check over all parallel joins; the last offender in pre-order is
    # the one a bottom-up, join-by-join check would have stopped at.
    p = np.flatnonzero(tree.kind == PARALLEL)
    v1, v2 = vol[tree.left[p]], vol[tree.right[p]]
    scale = np.maximum(np.maximum(np.abs(v1).max(axis=(1, 2)), np.abs(v2).max(axis=(1, 2))), 1.0)
    bad = p[np.abs(v1 - v2).max(axis=(1, 2)) > PARALLEL_VOLTAGE_ATOL * scale]
    if bad.size:
        raise ValueError(
            f"parallel children voltages disagree at tree node {bad[-1]}; "
            "upstream annotations are inconsistent"
        )
    return vol


@dataclass(frozen=True, eq=False)
class ElectricalSolution:
    """Annotations of one compiled tree under one intensity: (n, k, k) stacks."""

    source: str
    tree: CompiledTree
    resistance: np.ndarray
    current: np.ndarray
    voltage: np.ndarray
    entries: list = None  # index_tree of the solved tree, when solved from one

    def leaf_voltage(self, edge_id):
        return self.voltage[self.tree.leaf_index[edge_id]]


def solve_compiled(tree, leaf_r, intensity=None, source=None, entries=None):
    """Resistance, current and voltage sweeps of a compiled tree."""
    res, splits = resistance_sweep(tree, leaf_r)
    cur = current_sweep(tree, splits, intensity, leaf_r.shape[-1])
    return ElectricalSolution(source, tree, res, cur, voltage_sweep(tree, res, cur), entries)


def _own(t, entries):  # (entries, compiled tree, leaf resistances) of a tree with its own weights
    entries = index_tree(t) if entries is None else entries
    leaf_r = leaf_resistances([node.weight for node, li, _ in entries if li < 0])
    return entries, compile_tree(entries), leaf_r


def effective_resistance(t, *, entries=None):
    """Effective resistance of every subtree, keyed by pre-order index.

    Leaf: W_e^-1; series: R1 + R2; parallel: R1 : R2.
    """
    _, tree, leaf_r = _own(t, entries)
    return dict(enumerate(resistance_sweep(tree, leaf_r)[0]))


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


def branch_currents(t, resistances, intensity=None, *, entries=None):
    """Current entering every subtree, keyed by pre-order index.

    The root receives the identity intensity unless one is supplied;
    series joins pass the current through, parallel joins divide it as
    ``split_current`` does.
    """
    entries = index_tree(t) if entries is None else entries
    tree, res = compile_tree(entries), np.array([resistances[i] for i in range(len(entries))], dtype=float)
    splits = {i: _split(res[li], res[ri]) for i, li, ri, par in tree.joins if par}
    return dict(enumerate(current_sweep(tree, splits, intensity, res.shape[-1])))


def voltage_drops(t, resistances, currents, *, entries=None):
    """Voltage dropped across every subtree, keyed by pre-order index.

    Leaf: R_e I_e; series: V1 + V2; parallel: the two child voltages are
    theoretically equal and their average is propagated to damp roundoff.
    """
    entries = index_tree(t) if entries is None else entries
    res, cur = (np.array([d[i] for i in range(len(entries))], dtype=float) for d in (resistances, currents))
    return dict(enumerate(voltage_sweep(compile_tree(entries), res, cur)))


def power(current, resistance):
    """Dissipated power Tr(I^T R I); reduces to i^2 R at k = 1."""
    current = np.asarray(current, dtype=float)
    resistance = matlin.as_symmetric(resistance)
    if current.shape != resistance.shape:
        raise ValueError("dimension mismatch in power evaluation")
    return float(np.trace(current.T @ resistance @ current))


def solve_tree(t, intensity=None, source=None):
    """Run all three sweeps on a tree, indexed once, with its own leaf weights."""
    entries, tree, leaf_r = _own(t, None)
    return solve_compiled(tree, leaf_r, intensity, source, entries)
