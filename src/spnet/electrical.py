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
- voltage: R I on every arc. At each parallel join outside a chain R1 X1
  and R2 X2, the two children's voltages per unit current, must agree; a ValueError names the
  first join where they differ by more than PARALLEL_VOLTAGE_ATOL times their
  own scale.

A program's plan (``ArcProgram.plan``) takes each long chain of joins, a heavy
path whose every join has one light child, out of both sweeps: its R is the
top port's of a block-tridiagonal port system solved by block cyclic reduction
(``_chain_resistance``), and one back-substitution gives every light child's
current (``_chain_currents``). A chain's parallel joins need no guard: their
two children see one port voltage by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from .sptree import Chain, Parallel, flatten

PARALLEL_VOLTAGE_ATOL = 1e-6
CR_DENSE_ORDER = 24  # a chain's cyclic reduction stops at this many rows; one dense inverse ends it


def leaf_resistances(weights):
    """W^-1 of every weight in a sequence of SPD k x k weights: one batched inverse."""
    return matlin.symmetrize(np.linalg.inv(np.asarray(weights, dtype=float)))


def _split(r1, r2):
    """(X1, X2) = (R1 + R2)^-1 [R2 | R1] as a (2, k, k) stack, by one solve."""
    k = r1.shape[0]
    return np.linalg.solve(r1 + r2, np.concatenate((r2, r1), axis=1)).reshape(k, 2, k).swapaxes(0, 1)


def resistance_sweep(joins, leaf_r, plan):
    """Bottom-up from the leaves' R (an (m, k, k) stack): (R of every arc,
    each join's split X, None at series joins), the joins (``joins[i]`` is arc
    m + i) in ``plan`` order (``ArcProgram.plan``). A ``Chain`` is solved at
    its top, which gets its R and CR factors (``_chain_resistance``); its
    other joins get None in both lists."""
    base, splits = len(leaf_r), [None] * len(joins)
    res = list(leaf_r) + [None] * len(joins)
    for step in plan:
        if type(step) is Chain:
            res[base + step.top], splits[step.top] = _chain_resistance(step, res, leaf_r)
            continue
        kind, a, _, b, _ = joins[step]
        if kind is Parallel:
            x = splits[step] = _split(res[a], res[b])
            res[base + step] = matlin.symmetrize(res[a] @ x[0])
        else:
            res[base + step] = res[a] + res[b]
    return res, splits


def current_sweep(joins, splits, cur, base, plan):
    """Top-down, in reversed ``plan`` order: from the current of each join
    (``joins[i]`` is arc base + i) to its children, each in its stored
    direction; a ``Chain`` sets all its light children at once
    (``_chain_currents``). ``cur`` is an (arcs, S, k, k) array holding the
    roots' currents; S columns at once."""
    for step in reversed(plan):
        if type(step) is Chain:
            _chain_currents(step, splits[step.top], cur, base)
            continue
        _, a, fa, b, fb = joins[step]
        c, x = cur[base + step], splits[step]
        ca, cb = (c, c) if x is None else x[:, None] @ c
        cur[a] = -ca if fa else ca
        cur[b] = -cb if fb else cb


def _chain_resistance(chain, res, leaf_r):
    """(R of the chain's top, its CR factors) by block cyclic reduction
    (Buzbee, Golub & Nielson 1970) of the SPD block-tridiagonal system of its
    ports: A_ii the conductances at port i, A_i,i+1 = -C_i with C_i the
    coupling group's. Each round eliminates every odd port with one stacked
    solve, keeping port 0, until CR_DENSE_ORDER rows are left; their dense
    inverse's block column 0 is the ports' voltages per unit current into port
    0, of which port 0's own is the R below the lead group."""
    r, n = leaf_r[chain.rows], chain.series
    if chain.inner.size:
        r[chain.inner] = [res[a] for a in chain.arcs[chain.inner]]
    g = np.linalg.inv(r[n:])
    d = np.add.reduceat(g, chain.ports)
    k, lead, c = d.shape[-1], 0.0, d[:0]
    if n:
        sums = np.add.reduceat(r[:n], chain.groups)
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
    col = np.linalg.inv(a.reshape(p * k, p * k)).reshape(p, k, p, k)[:, :, 0]
    return lead + matlin.symmetrize(col[0]), (col, rounds, c, g)


def _chain_currents(chain, factors, cur, base):
    """Every light child's current of a chain, in its stored direction, from
    its top's: the ports left to the dense inverse drop V = A^-1_i0 I_top, the
    rounds back-substitute the ports they eliminated (V_j = -X_l V_j-1 - X_u
    V_j+1), then a coupling group carries C_i (V_i - V_i+1), a shunt R^-1 V_i
    and the lead group I_top; all S sources at once, as S k columns."""
    col, rounds, c, g = factors
    top = cur[base + chain.top]
    n_src, k = top.shape[:2]
    cols = top.swapaxes(0, 1).reshape(k, n_src * k)
    v = col @ cols
    for xl, xu in reversed(rounds):
        odd, n = len(xl), len(v) - 1  # the last odd port has a lower neighbour unless n < odd
        w = xl @ v[:odd]
        w[:n] += xu[:n] @ v[1:]
        v, kept = np.empty((len(v) + odd, k, n_src * k)), v
        v[0::2], v[1::2] = kept, -w
    lead = np.broadcast_to(cols, (chain.lead, k, n_src * k))
    flow = np.concatenate((lead, (c @ (v[:-1] - v[1:]))[chain.coupling], g @ v[chain.port]))
    flow = flow.reshape(-1, k, n_src, k).swapaxes(1, 2)
    cur[chain.arcs] = chain.signs * flow


def _check_parallel(v1, v2, arcs):
    """ValueError at the first pair of (n, k, k) child voltages that differ by
    more than PARALLEL_VOLTAGE_ATOL times the pair's largest entry (floored at
    the smallest normal float, so the test stays relative at any weight
    scale); ``arcs`` names the joins."""
    scale = np.maximum(np.maximum(np.abs(v1).max(axis=(1, 2)), np.abs(v2).max(axis=(1, 2))), np.finfo(float).tiny)
    bad = np.flatnonzero(np.abs(v1 - v2).max(axis=(1, 2)) > PARALLEL_VOLTAGE_ATOL * scale)
    if bad.size:
        raise ValueError(
            f"parallel children voltages disagree at join arc {arcs[bad[0]]}; the current split is inconsistent"
        )


@dataclass(frozen=True, eq=False)
class SourceSweeps:
    """Unit-current solve of every source of an ``ArcProgram``; S in source
    order. A chain of the program's plan is solved as one port system, so its
    inner joins (every join on it but its top) get no R (None) and no current
    (zero); its top and every light child get both."""

    roots: np.ndarray  # (S, k, k) effective resistance source -> sink
    resistance: list  # (k, k) R of every arc, as the resistance sweep left it
    current: np.ndarray  # (arcs, S, k, k) in stored direction
    voltage: np.ndarray  # (m, S, k, k) drop tail -> head of every leaf arc


def skeleton_solve(program, leaf_r):
    """The shared R sweep, then one solve of the terminal skeleton's grounded
    Laplacian (sink dropped) for all S unit injections, a Kron reduction:
    (R of every arc, None inside a chain, each join's split, live-arc
    conductances G = R^-1, Y),
    Y (skeleton nodes, S, k, k); source c's root R is Y[c, c]."""
    k, n_src = leaf_r.shape[-1], len(program.sources)
    res, splits = resistance_sweep(program.joins, leaf_r, program.plan)
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
    R_b X_b once per shared parallel join outside a chain: neither depends
    on the source."""
    m, k, n_src = len(program.edges), leaf_r.shape[-1], len(program.sources)
    res, splits, cond, y = skeleton_solve(program, leaf_r)
    cur = np.zeros((len(res), n_src, k, k))
    cur[program.live] = cond[:, None] @ (y[program.ends[:, 0]] - y[program.ends[:, 1]])
    current_sweep(program.joins, splits, cur, m, program.plan)
    par = [i for i in program.plan if type(i) is int and splits[i] is not None]  # a chain's joins skip the guard
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
