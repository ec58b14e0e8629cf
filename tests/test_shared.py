"""One shared series-parallel reduction for every source: agreement with the
dense judge on scrambled networks, confluence with a reduction per source,
the joins one call sweeps, and rejection of a non-SP core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_aittsp
from spnet import electrical, sptree
from spnet.cli import run
from spnet.errors import NotSeriesParallelError
from spnet.fileio import save_graph
from spnet.graph import ground_leaders, make_graph
from spnet.h2 import (
    CompositionalProvider,
    compositional_h2,
    dense_provider,
    h2_exact_aittsp,
    h2_scalar_bound,
    source_trees,
)
from spnet.sptree import recognize
from test_recognize import ladder

I1 = np.eye(1)


def rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))


def scrambled_ids(rng, g):
    """Same network under fresh node and edge ids, shuffled node and edge
    order and some edges reversed; leaders follow their nodes."""
    names = {n: f"v{rng.integers(1 << 30):x}_{i}" for i, n in enumerate(g.nodes)}
    edges = []
    for i in rng.permutation(len(g.edges)):
        e = g.edges[i]
        tail, head = (e.head, e.tail) if rng.random() < 0.5 else (e.tail, e.head)
        edges.append((f"e{rng.integers(1 << 30):x}_{i}", names[tail], names[head], g.weights[i]))
    nodes = [names[g.nodes[i]] for i in rng.permutation(len(g.nodes))]
    return make_graph(g.k, nodes, edges, leaders=[names[n] for n in g.leaders])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 16]), st.integers(1, 32))
def test_provider_matches_dense_on_scrambled_networks(seed, k, n_sources):
    rng = np.random.default_rng(seed)
    g = scrambled_ids(rng, random_aittsp(rng, k, n_sources, leaves_per_link=int(rng.integers(1, 7))))
    comp_h2, comp_q = CompositionalProvider(g)(g)
    dense_h2, dense_q = dense_provider(g)
    assert list(comp_h2) == list(dense_h2) == list(g.sources)
    for s, v in dense_h2.items():
        assert comp_h2[s] == pytest.approx(v, rel=1e-9)
    assert comp_q.shape == dense_q.shape == (len(g.sources), len(g.edges), k, k)
    for got, want in zip(comp_q, dense_q):  # per source stack, no sign forgiven
        assert rel_err(got, want) <= 1e-9


def test_shared_reduction_is_confluent_with_one_per_source(rng, monkeypatch):
    builds = []
    build = sptree._build
    monkeypatch.setattr(sptree, "_build", lambda *a: builds.append(a) or build(*a))
    for _ in range(40):
        g = scrambled_ids(rng, random_aittsp(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)), 6))
        gg, sink = ground_leaders(g)
        per_source = h2_exact_aittsp({s: recognize(gg, s, sink) for s in gg.sources}).per_source
        shared = compositional_h2(g).per_source
        assert list(shared) == list(per_source)
        for s, v in per_source.items():
            assert shared[s] == pytest.approx(v, rel=1e-12)
        builds.clear()
        bound = compositional_h2(g, "bound").per_source
        assert builds == []  # the bound folds over the shared reduction and builds no tree
        trees, _, _ = source_trees(g)
        assert list(bound) == list(trees)
        for s, t in trees.items():
            assert 0.5 * np.trace(electrical.effective_resistance(t)[0]) == pytest.approx(per_source[s], rel=1e-12)
            assert bound[s] == h2_scalar_bound(t)


def test_two_source_ladder_sweeps_at_most_m_plus_4_joins(rng, monkeypatch):
    swept = []
    sweep = electrical.resistance_sweep
    monkeypatch.setattr(electrical, "resistance_sweep", lambda joins, r: swept.append(len(joins)) or sweep(joins, r))
    for rungs in (5, 40):
        g = ladder(rng, 2, rungs)
        m = len(g.edges)
        provider = CompositionalProvider(g)
        swept.clear()
        provider(g)
        assert len(swept) == 3  # the shared joins, then each source's own
        assert sum(swept) <= m + 4 < 2 * (m - 1)


def k4_core():
    """K4 on a b c d with sources a and b, and a pendant two-edge bundle at c."""
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    edges = [(f"e{i}", u, v, I1) for i, (u, v) in enumerate(pairs)]
    edges += [("att1", "r1", "a", I1), ("att2", "r2", "b", I1), ("x", "c", "y", I1), ("z", "y", "c", 2 * I1)]
    return make_graph(1, ["r1", "r2", "a", "b", "c", "d", "y"], edges, leaders=["r1", "r2"])


def test_k4_core_is_rejected(capsys, tmp_path):
    message = "reduction stalled with 9 edges; graph is not series-parallel between 'a' and 'l'"
    for build in (compositional_h2, CompositionalProvider, source_trees):
        with pytest.raises(NotSeriesParallelError) as info:
            build(k4_core())
        assert str(info.value) == message
    path = tmp_path / "k4.json"
    save_graph(k4_core(), path)
    assert run(["h2", "--graph", str(path), "--method", "exact"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["check", "--graph", str(path)]) == 2
