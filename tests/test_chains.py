"""Long join chains solved by block cyclic reduction (CR): the plan
``reduce_sources`` makes, agreement with the per-join sweep on the same
program, with CR forced onto every heavy path by lowering the rule, agreement
with the dense judge, and the programs the rule leaves alone."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spnet
from helpers import arc_currents, random_aittsp, random_sptree
from spnet import electrical, sptree
from spnet.fileio import load_graph
from spnet.graph import make_graph
from spnet.h2 import CompositionalProvider, compositional_h2
from spnet.sptree import realize
from test_compiled import assert_matches_dense, assert_one_voltage_per_parallel_join, rel_err
from test_recognize import ladder
from test_scale import path, sp_tree
from test_shared import k4_subdivision, scrambled_ids

DEMO = Path(spnet.__file__).parent / "data" / "demo_graph.json"


def forced(mp):
    """Make every heavy path a chain, at every k."""
    mp.setattr(sptree, "CHAIN_MIN_JOINS", 1)
    mp.setattr(sptree, "CHAIN_MAX_K", 16)


def chains(program):
    return [step for step in program.plan if type(step) is sptree.Chain]


def per_join(program):
    """The program with every join swept in turn, no chain."""
    return replace(program, plan=tuple(range(len(program.joins))))


def sp_ladder(rng, k, rungs):
    """A ladder whose every rung is a realized random SP network of one to
    four edges, so the chain's shunts are SP networks, not only leaves."""
    g = ladder(rng, k, rungs)
    nodes, edges = list(g.nodes), [(e.id, e.tail, e.head, w) for e, w in zip(g.edges, g.weights) if e.id[0] != "r"]
    for i in range(rungs):
        sub, src, snk = realize(random_sptree(rng, k, int(rng.integers(1, 5)), prefix=f"r{i}_"))
        rename = {src: f"a{i}", snk: f"b{i}"}
        for n in sub.nodes:
            if n not in rename:
                rename[n] = f"m{i}_{n}"
                nodes.append(rename[n])
        edges += [(e.id, rename[e.tail], rename[e.head], w) for e, w in zip(sub.edges, sub.weights)]
    return make_graph(k, nodes, edges, leaders=sorted(g.leaders))


def assert_matches_sequential(g):
    """``solve_sources`` with the program's chains against the per-join sweep
    of the same program: every leaf voltage and every light child's current
    to 1e-12 relative, each chain top's value (R or G, as its parent takes
    it) to 1e-13; a chain's other joins get no value. Returns the program."""
    program = CompositionalProvider(g).program
    m = len(program.edges)
    cr = electrical.solve_sources(program, g.weights)
    seq = electrical.solve_sources(per_join(program), g.weights)
    assert rel_err(cr.roots, seq.roots) <= 1e-12
    for got, want in zip(cr.voltage, seq.voltage):
        assert rel_err(got, want) <= 1e-12
    cr_cur, seq_cur = arc_currents(cr), arc_currents(seq)
    for chain in chains(program):
        assert cr.takes_r[m + chain.top] == seq.takes_r[m + chain.top]
        assert rel_err(cr.value[m + chain.top], seq.value[m + chain.top]) <= 1e-13
        for arc in chain.arcs:
            assert rel_err(cr_cur[arc], seq_cur[arc]) <= 1e-12
        assert not cr.value[m + np.array(chain.joins[1:], dtype=int)].any()
    return program


FAMILIES = {
    "ladder": lambda rng, k: ladder(rng, k, int(rng.integers(2, 40))),
    "path": lambda rng, k: path(rng, k, int(rng.integers(3, 80))),
    "sp-ladder": lambda rng, k: sp_ladder(rng, k, int(rng.integers(2, 20))),
    "sp-tree": lambda rng, k: sp_tree(rng, k, int(rng.integers(2, 60))),
    "aittsp": lambda rng, k: random_aittsp(rng, k, int(rng.integers(2, 8)), leaves_per_link=12),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from(sorted(FAMILIES)))
def test_forced_chains_match_the_per_join_sweep(seed, k, family):
    rng = np.random.default_rng(seed)
    g = scrambled_ids(rng, FAMILIES[family](rng, k))  # shuffled ids and order, some edges reversed
    with pytest.MonkeyPatch.context() as mp:
        forced(mp)
        program = assert_matches_sequential(g)
    assert chains(program) or not program.joins


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 16]), st.integers(1, 16))
def test_forced_chains_match_dense_on_the_shared_families(seed, k, n_sources):
    rng = np.random.default_rng(seed)
    g = scrambled_ids(rng, random_aittsp(rng, k, n_sources, leaves_per_link=int(rng.integers(1, 7))))
    with pytest.MonkeyPatch.context() as mp:
        forced(mp)
        assert_matches_dense(g)
        assert_matches_dense(k4_subdivision(rng, k, int(rng.integers(1, 4))), per_edge=False)


def test_ladder_is_one_chain_of_rung_ports(rng):
    # 47 rungs: 3 * 47 - 3 joins, all on one heavy path from the a0 - b0 arc,
    # rung 0 the shunt of port 0 and each rail pair a coupling group.
    g = ladder(rng, 3, 47)
    program = assert_matches_sequential(g)
    (chain,) = chains(program)
    assert program.plan == (chain,) and len(chain.joins) == len(program.joins) == 138
    assert len(chain.ports) == 47 and chain.lead == 0 and len(chain.groups) == 46
    assert sorted(chain.arcs.tolist()) == [a for a, e in enumerate(program.edges) if not e.id.startswith("att")]


def test_path_is_one_lead_group(rng):
    # All series: the lead group sums every light child; the bottom leaf is the one port.
    program = assert_matches_sequential(path(rng, 2, 200))
    (chain,) = chains(program)
    assert len(chain.ports) == 1 and chain.lead == chain.series == len(chain.arcs) - 1


def test_rule_picks_long_chains_at_small_k(rng):
    # ladder-h2's instances (46 to 48 rungs, k = 3) fall inside the rule;
    # short chains, k = 16 and the demo fall outside.
    for rungs in (46, 48):
        assert len(chains(CompositionalProvider(ladder(rng, 3, rungs)).program)) == 1
    assert len(chains(CompositionalProvider(path(rng, 8, 300)).program)) == 1
    for g in (ladder(rng, 3, 15), ladder(rng, 16, 100), path(rng, 16, 300), load_graph(DEMO)):
        program = CompositionalProvider(g).program
        assert program.plan == tuple(range(len(program.joins)))
    for k in (1, 4, 16):
        for n_sources in (2, 8, 32):
            program = CompositionalProvider(random_aittsp(rng, k, n_sources, leaves_per_link=12)).program
            assert program.plan == tuple(range(len(program.joins)))


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_chain_shunts_share_their_port_voltage(rng, k):
    # Every shunt of a port gets one voltage array, on chains with one to four shunts a port.
    with pytest.MonkeyPatch.context() as mp:
        forced(mp)
        for g in (ladder(rng, k, 30), sp_ladder(rng, k, 12), random_aittsp(rng, k, 4, leaves_per_link=12)):
            program = CompositionalProvider(g).program
            assert chains(program)
            assert_one_voltage_per_parallel_join(program, electrical.solve_sources(program, g.weights))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_exact_h2_reads_the_chain_top(rng, k):
    # Exact H2 runs the same R sweep: with a chain it matches the per-join sweep.
    g = ladder(rng, k, 70)
    program = CompositionalProvider(g).program
    assert chains(program)
    *_, y_cr = electrical.skeleton_solve(program, g.weights)
    *_, y_seq = electrical.skeleton_solve(per_join(program), g.weights)
    assert rel_err(y_cr, y_seq) <= 1e-12
    exact = compositional_h2(g).per_source
    assert [exact[s] for s in program.sources] == [0.5 * float(np.trace(y_cr[c, c])) for c in range(len(exact))]
