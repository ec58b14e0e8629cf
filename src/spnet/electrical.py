"""Matrix-valued electrical solve over a decomposition tree.

Three sweeps, each annotating every tree node keyed by its pre-order
index: effective resistances (bottom-up), power-minimizing branch currents
(top-down), and voltage drops (bottom-up). The three compose without
re-walking the tree: each takes ``entries=index_tree(t)`` when the caller
has already indexed it, as ``solve_tree`` does.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Leaf, Series

PARALLEL_VOLTAGE_ATOL = 1e-6


def index_tree(t):
    """Pre-order list of (node, left index, right index); leaves get (-1, -1).

    Walked with an explicit stack, so tree depth is not limited by recursion.
    """
    nodes = []
    right = []  # right child index of each join, filled when that child is reached
    stack = [(t, -1)]  # (node, index of the join it is the right child of, or -1)
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(nodes)
        if not isinstance(node, Leaf):
            stack += [(node.right, len(nodes)), (node.left, -1)]
        nodes.append(node)
        right.append(-1)
    return [(n, -1, -1) if isinstance(n, Leaf) else (n, i + 1, right[i]) for i, n in enumerate(nodes)]


def effective_resistance(t, *, entries=None):
    """Effective resistance of every subtree, keyed by pre-order index.

    Leaf: W_e^-1; series: R1 + R2; parallel: R1 : R2.
    """
    entries = index_tree(t) if entries is None else entries
    res = {}
    for i in range(len(entries) - 1, -1, -1):
        node, li, ri = entries[i]
        if isinstance(node, Leaf):
            res[i] = matlin.pinv(node.weight)
        elif isinstance(node, Series):
            res[i] = matlin.symmetrize(res[li] + res[ri])
        else:
            res[i] = matlin.parallel_add(res[li], res[ri])
    return res


def split_current(r1, r2, i_in):
    """Split a current across two parallel resistances, minimizing power.

    I1 = R1^-1 (R1:R2) I_in and I2 = R2^-1 (R1:R2) I_in; the pair sums to
    I_in exactly and minimizes Tr(I1^T R1 I1) + Tr(I2^T R2 I2) under that
    constraint.
    """
    r1 = matlin.as_symmetric(r1)
    r2 = matlin.as_symmetric(r2)
    i_in = np.asarray(i_in, dtype=float)
    if r1.shape != r2.shape or i_in.shape != r1.shape:
        raise ValueError("dimension mismatch in current split")
    rp = matlin.parallel_add(r1, r2)
    i1 = np.linalg.solve(r1, rp @ i_in)
    i2 = np.linalg.solve(r2, rp @ i_in)
    return i1, i2


def branch_currents(t, resistances, intensity=None, *, entries=None):
    """Current entering every subtree, keyed by pre-order index.

    The root receives the identity intensity unless one is supplied;
    series joins pass the current through, parallel joins divide it via
    ``split_current``.
    """
    entries = index_tree(t) if entries is None else entries
    if intensity is None:
        node = t
        while not isinstance(node, Leaf):
            node = node.left
        intensity = np.eye(node.weight.shape[0])
    cur = {0: np.asarray(intensity, dtype=float)}
    for i, (node, li, ri) in enumerate(entries):
        if isinstance(node, Leaf):
            continue
        if isinstance(node, Series):
            cur[li] = cur[i]
            cur[ri] = cur[i]
        else:
            cur[li], cur[ri] = split_current(resistances[li], resistances[ri], cur[i])
    return cur


def voltage_drops(t, resistances, currents, *, entries=None):
    """Voltage dropped across every subtree, keyed by pre-order index.

    Leaf: W_e^-1 I_e; series: V1 + V2; parallel: the two child voltages are
    theoretically equal and their average is propagated to damp roundoff.
    """
    entries = index_tree(t) if entries is None else entries
    vol = {}
    for i in range(len(entries) - 1, -1, -1):
        node, li, ri = entries[i]
        if isinstance(node, Leaf):
            vol[i] = np.linalg.solve(node.weight, currents[i])
        elif isinstance(node, Series):
            vol[i] = vol[li] + vol[ri]
        else:
            v1, v2 = vol[li], vol[ri]
            scale = max(np.abs(v1).max(), np.abs(v2).max(), 1.0)
            if np.abs(v1 - v2).max() > PARALLEL_VOLTAGE_ATOL * scale:
                raise ValueError(
                    f"parallel children voltages disagree at tree node {i}; "
                    "upstream annotations are inconsistent"
                )
            vol[i] = 0.5 * (v1 + v2)
    return vol


def power(current, resistance):
    """Dissipated power Tr(I^T R I); reduces to i^2 R at k = 1."""
    current = np.asarray(current, dtype=float)
    resistance = matlin.as_symmetric(resistance)
    if current.shape != resistance.shape:
        raise ValueError("dimension mismatch in power evaluation")
    return float(np.trace(current.T @ resistance @ current))


@dataclass(frozen=True, eq=False)
class ElectricalSolution:
    """Joint annotation of one tree for one injected intensity."""

    source: str
    resistance: dict  # pre-order index -> k x k
    current: dict
    voltage: dict
    leaf_index: dict  # edge id -> pre-order index
    entries: list  # index_tree of the solved tree

    def leaf_voltage(self, edge_id):
        return self.voltage[self.leaf_index[edge_id]]

    def leaf_current(self, edge_id):
        return self.current[self.leaf_index[edge_id]]


def solve_tree(t, intensity=None, source=None):
    """Run all three sweeps on a tree, indexed once, and bundle the annotations."""
    entries = index_tree(t)
    res = effective_resistance(t, entries=entries)
    cur = branch_currents(t, res, intensity=intensity, entries=entries)
    vol = voltage_drops(t, res, cur, entries=entries)
    leaf_index = {node.edge: i for i, (node, li, _) in enumerate(entries) if li < 0}
    return ElectricalSolution(
        source=source, resistance=res, current=cur, voltage=vol, leaf_index=leaf_index, entries=entries
    )
