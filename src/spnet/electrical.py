"""Matrix-valued electrical solve over series-parallel join records.

One engine: ``solve_sources`` sweeps an ``sptree.ArcProgram``, join records
``(kind, a, a flipped, b, b flipped)`` over an arc list (leaves, then one arc
per join, bottom-up) for all its sources at once, from the edge weights W:
``skeleton_solve`` (the shared joins' up sweep, one Dirichlet solve of the
terminal skeleton), then one down sweep. ``solve_tree`` runs it on
``sptree.flatten`` of a tree, whose skeleton is its root arc. Each arc is
carried in the form its parent takes (``ArcProgram.takes_r``): R under a series
join, G under a parallel join, in a chain's shunts and on the skeleton.

- up: series R = R1 + R2, parallel G = G1 + G2, held where the join's parent
  takes the other form, then inverted with its wave (``ArcProgram.schedule``),
  one stacked inverse; the leaves a series join takes are one batched inverse;
- down: a series join hands its current I to both children, a parallel join
  its voltage V, one array for both (negated for a flipped child); an arc
  makes what it was not handed from its own form, V = R I or I = G V.

A program's plan (``ArcProgram.plan``) takes each long chain of joins, a heavy
path whose every join has one light child, out of both sweeps: one port
system solved by block cyclic reduction (``_chain_resistance``) and one
back-substitution (``_chain_currents``).
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Chain, Series, flatten

CR_DENSE_ORDER = 24  # a chain's cyclic reduction stops at this many rows; one dense solve ends it


def leaf_resistances(weights):
    """W^-1 of every weight in a sequence of SPD k x k weights: one batched inverse."""
    return matlin.symmetrize(np.linalg.inv(np.asarray(weights, dtype=float)))


def resistance_sweep(joins, weights, plan, schedule):
    """Bottom-up from the edges' W (an (m, k, k) stack): (every arc's value,
    an (arcs, k, k) stack, R where ``schedule.takes_r`` and G elsewhere; each
    ``Chain``'s factors by its top's join index), the joins (``joins[i]`` is
    arc m + i) in ``plan`` order. An arc whose parent takes the other form is
    inverted with its wave (``ArcProgram.schedule``): every held arc in one
    call, once a step reads one, and at the end. A chain's joins but its top
    get no value (zero)."""
    weights = np.asarray(weights, dtype=float)
    m, r = len(weights), schedule.r_leaves
    val = np.zeros((m + len(joins), *weights.shape[1:]))
    val[:m] = weights
    val[r] = leaf_resistances(weights[r])
    factors = {}
    for step, wave in zip((*plan, None), schedule.waves):  # a last wave may follow the last step
        if wave is not None:
            val[wave] = matlin.symmetrize(np.linalg.inv(val[wave]))  # one (k, k) matrix if it is alone
        if type(step) is Chain:
            val[m + step.top], factors[step.top] = _chain_resistance(step, val)
        elif step is not None:
            _, a, _, b, _ = joins[step]
            np.add(val[a], val[b], out=val[m + step])
    return val, factors


def current_sweep(joins, plan, val, takes_r, factors, handed):
    """Top-down, in reversed ``plan`` order, in ``handed`` (arcs, S, k, k),
    which holds the roots' share: each join hands its children, in their
    stored direction, its current if series, its voltage if parallel; a
    ``Chain`` all its light children at once (``_chain_currents``)."""
    base, flags = len(val) - len(joins), takes_r.tolist()
    for step in reversed(plan):
        top = step.top if type(step) is Chain else step
        kind, a, fa, b, fb = joins[top]
        c = handed[base + top] if (kind is Series) == flags[base + top] else val[base + top] @ handed[base + top]
        if type(step) is Chain:
            _chain_currents(step, factors[top], c, handed)
        else:
            handed[a] = -c if fa else c
            handed[b] = -c if fb else c


def _chain_resistance(chain, val):
    """(value of the chain's top, R if its top join is series, G if parallel;
    its factors) by block cyclic reduction (Buzbee, Golub & Nielson 1970) of the SPD
    block-tridiagonal system of its ports: A_ii the conductances at port i,
    A_i,i+1 = -C_i with C_i the coupling group's. Each round eliminates every
    odd port with one stacked solve, keeping port 0, until CR_DENSE_ORDER
    rows are left; one dense solve gives the other ports' voltages per unit
    voltage at port 0 and the Schur complement G0 there, in series with the
    lead group's R."""
    n = chain.series
    arcs = val[chain.arcs]  # the series light children's R, then the shunts' G
    d = np.add.reduceat(arcs[n:], chain.ports)
    k, lead, c = d.shape[-1], None, d[:0]
    if n:
        sums = np.add.reduceat(arcs[:n], chain.groups)
        lead, c = (sums[0], sums[1:]) if chain.lead else (lead, sums)
        c = np.linalg.inv(c)
        d[:-1] += c
        d[1:] += c
    e = np.zeros_like(d)  # e[i] = A_i,i+1; the last one couples to no port
    e[:-1] = -c
    rounds = []
    while len(d) > 1 and len(d) * k > CR_DENSE_ORDER:
        odd = len(d) // 2
        left, right = e[0::2][:odd], e[1::2]  # A_j-1,j and A_j,j+1 of each odd port j
        x = np.linalg.solve(d[1::2], np.concatenate((left.swapaxes(1, 2), right), axis=2))
        xl, xu = x[..., :k], x[..., k:]  # A_jj^-1 A_j,j-1 and A_jj^-1 A_j,j+1
        d, e = d[0::2].copy(), e[0::2].copy()
        d[:odd] -= left @ xl
        d[1:] -= (right.swapaxes(1, 2) @ xu)[: len(d) - 1]
        e[:odd] = -(left @ xu)
        rounds.append((xl, xu))
    p, i = len(d), np.arange(len(d))
    a = np.zeros((p, k, p, k))
    a[i, :, i], a[i[:-1], :, i[1:]], a[i[1:], :, i[:-1]] = d, e[:-1], e[:-1].swapaxes(1, 2)
    a = a.reshape(p * k, p * k)
    x = np.linalg.solve(a[k:, k:], -a[k:, :k])  # the other ports' voltages per unit V_0, no current into them
    volts, g0 = np.concatenate((np.eye(k), x)).reshape(p, k, k), matlin.symmetrize(a[:k, :k] + a[:k, k:] @ x)
    if lead is None:
        return g0, (volts, rounds, c, None)  # the top's voltage is port 0's
    r0 = matlin.symmetrize(np.linalg.inv(g0))
    return lead + r0, (volts, rounds, c, r0)  # the lead group carries the top's current I; V_0 = R0 I


def _chain_currents(chain, factors, top, handed):
    """Every light child's share of a chain, in its stored direction, from
    ``top``, the top's current if its join is series, else its voltage: the
    dense solve's ports get V_i = volts_i V_0, the rounds back-substitute the
    others (V_j = -X_l V_j-1 - X_u V_j+1); the lead group carries the top's
    current, a coupling group C_i (V_i - V_i+1), a shunt its port's V; all S
    sources at once, as S k columns."""
    volts, rounds, c, r0 = factors
    n_src, k = top.shape[:2]
    cols = top.swapaxes(0, 1).reshape(k, n_src * k)
    v = volts @ (cols if r0 is None else r0 @ cols)
    for xl, xu in reversed(rounds):
        odd, n = len(xl), len(v) - 1  # the last odd port has a lower neighbour unless n < odd
        w = xl @ v[:odd]
        w[:n] += xu[:n] @ v[1:]
        v, kept = np.empty((len(v) + odd, k, n_src * k)), v
        v[0::2], v[1::2] = kept, -w
    lead = np.broadcast_to(cols, (chain.lead, k, n_src * k))
    flow = np.concatenate((lead, (c @ (v[:-1] - v[1:]))[chain.coupling], v[chain.port]))
    flow = flow.reshape(-1, k, n_src, k).swapaxes(1, 2)
    handed[chain.arcs] = chain.signs * flow


@dataclass(frozen=True, eq=False)
class SourceSweeps:
    """Unit-current solve of every source of an ``ArcProgram``; S in source
    order. Where ``takes_r`` an arc holds R and is handed its current I,
    elsewhere G and its voltage V; ``value @ handed`` is the other one. A
    chain's inner joins (every join on it but its top) get neither (zero)."""

    roots: np.ndarray  # (S, k, k) effective resistance source -> sink
    value: np.ndarray  # (arcs, k, k) R or G of every arc
    takes_r: np.ndarray  # (arcs,) whether each arc holds R, a series join's child
    handed: np.ndarray  # (arcs, S, k, k) I or V of every arc, in stored direction
    voltage: np.ndarray  # (m, S, k, k) drop tail -> head of every leaf arc


def skeleton_solve(program, weights):
    """The shared up sweep from the edges' W, then one solve of the terminal
    skeleton's grounded Laplacian (sink dropped), assembled from the live
    arcs' G, for all S unit injections, a Kron reduction: (every arc's value,
    each chain's factors, Y), Y (skeleton nodes, S, k, k); source
    c's root R is Y[c, c]."""
    n_src = len(program.sources)
    val, factors = resistance_sweep(program.joins, weights, program.plan, program.schedule)
    k, (tails, heads) = val.shape[-1], program.ends.T
    n = len(program.nodes) - 1  # the sink, the last skeleton node
    nodes = np.arange(n + 1)
    lap = np.zeros((n + 1, k, n + 1, k))
    lap[tails, :, heads] = lap[heads, :, tails] = -val[program.live]  # the reduction leaves one arc per node pair
    lap[nodes, :, nodes] = -lap.sum(axis=2)
    y = np.zeros((n + 1, k, n_src, k))  # source c is node c, so its unit injection is column block c of I
    y[:n] = np.linalg.solve(lap[:n, :, :n].reshape(n * k, n * k), np.eye(n * k, n_src * k)).reshape(n, k, n_src, k)
    return val, factors, y.swapaxes(1, 2)


def solve_sources(program, weights):
    """Up sweep, skeleton solve and down sweep of every source together:
    ``skeleton_solve``, then each live arc is handed its voltage
    Y_tail - Y_head and the shared joins pass it down in one sweep; a leaf
    that holds R makes its drop as R I."""
    m, n_src = len(program.edges), len(program.sources)
    val, factors, y = skeleton_solve(program, weights)
    handed = np.zeros((len(val), n_src, *val.shape[1:]))
    handed[program.live] = y[program.ends[:, 0]] - y[program.ends[:, 1]]
    current_sweep(program.joins, program.plan, val, program.takes_r, factors, handed)
    vol, r = handed[:m].copy(), program.schedule.r_leaves
    vol[r] = val[r, None] @ handed[r]
    c = np.arange(n_src)
    return SourceSweeps(y[c, c], val, program.takes_r, handed, vol)


def solve_tree(t):
    """(resistance, current, voltage) of every subtree of a tree under unit
    current into its root, (n, k, k) stacks in pre-order, from its own leaf
    weights: one ``solve_sources`` call on ``flatten(t)``. A subtree that
    holds G gets R = G^-1, a series join R1 + R2 instead."""
    program, order = flatten(t)
    sweeps = solve_sources(program, [lf.weight for lf in program.edges])
    val, r_form, handed = sweeps.value, program.takes_r[:, None, None], sweeps.handed[:, 0]
    other = val @ handed  # V of an arc that holds R, I of one that holds G
    res, g = val.copy(), np.flatnonzero(~program.takes_r)
    res[g] = matlin.symmetrize(np.linalg.inv(val[g]))
    for j, (kind, a, _, b, _) in enumerate(program.joins, len(program.edges)):
        if kind is Series:
            res[j] = val[a] + val[b]
    back = np.argsort(order)
    return res[back], np.where(r_form, handed, other)[back], np.where(r_form, other, handed)[back]
