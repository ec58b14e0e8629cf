"""Scale tier: ``CompositionalProvider`` against ``dense_provider`` on the
larger members of the path, ladder and random SP tree family, to 10³ edges,
with ladders and paths on both sides of the rule that solves long chains by
cyclic reduction. H2² per source, each source's Q stack and the edge
gradients agree to 1e-9 relative, the tolerances of
``test_compiled.assert_matches_dense`` (Q over each source's whole stack,
since it decays along a long chain below the dense solve's own roundoff)."""

import numpy as np
import pytest

from helpers import random_spd, random_sptree
from spnet import sptree
from spnet.graph import make_graph
from spnet.h2 import CompositionalProvider, dense_provider
from spnet.optimize import edge_gradients
from spnet.sptree import realize
from test_compiled import rel_err
from test_recognize import ladder


def path(rng, k, m):
    """L0 - p0 - ... - p{m-2} - L1: m edges, the two ends identity attachments."""
    nodes = ["L0", "L1"] + [f"p{i}" for i in range(m - 1)]
    edges = [("a0", "L0", "p0", np.eye(k)), ("a1", f"p{m - 2}", "L1", np.eye(k))]
    edges += [(f"e{i}", f"p{i}", f"p{i + 1}", random_spd(rng, k)) for i in range(m - 2)]
    return make_graph(k, nodes, edges, leaders=["L0", "L1"])


def sp_tree(rng, k, n_leaves):
    """``realize`` of a random SP tree, leaders L0 and L1 attached to its terminals."""
    sub, src, snk = realize(random_sptree(rng, k, n_leaves))
    edges = [(e.id, e.tail, e.head, w) for e, w in zip(sub.edges, sub.weights)]
    edges += [("att0", "L0", src, np.eye(k)), ("att1", snk, "L1", np.eye(k))]
    return make_graph(k, list(sub.nodes) + ["L0", "L1"], edges, leaders=["L0", "L1"])


# id: (build, edges, whether a chain takes the long heavy path)
FAMILY = {
    "path-k1": (lambda rng: path(rng, 1, 1000), 1000, True),
    "path-k2": (lambda rng: path(rng, 2, 500), 500, True),
    "path-k4": (lambda rng: path(rng, 4, 300), 300, True),
    "path-k8": (lambda rng: path(rng, 8, 150), 150, True),
    "path-k16": (lambda rng: path(rng, 16, 100), 100, False),
    "ladder-k1": (lambda rng: ladder(rng, 1, 334), 1002, True),
    "short-ladder-k2": (lambda rng: ladder(rng, 2, 15), 45, False),
    "ladder-k2": (lambda rng: ladder(rng, 2, 334), 1002, True),
    "ladder-k4": (lambda rng: ladder(rng, 4, 100), 300, True),
    "short-ladder-k8": (lambda rng: ladder(rng, 8, 15), 45, False),
    "ladder-k8": (lambda rng: ladder(rng, 8, 60), 180, True),
    "ladder-k16": (lambda rng: ladder(rng, 16, 40), 120, False),
    "sp-tree-k1": (lambda rng: sp_tree(rng, 1, 1000), 1002, False),
    "sp-tree-k4": (lambda rng: sp_tree(rng, 4, 300), 302, False),
}


@pytest.mark.parametrize("build, edges, chained", FAMILY.values(), ids=list(FAMILY))
def test_provider_matches_dense(rng, build, edges, chained):
    g = build(rng)
    assert len(g.edges) == edges
    provider = CompositionalProvider(g)
    assert any(type(step) is sptree.Chain for step in provider.program.plan) == chained
    comp_h2, comp_q = provider(g)
    dense_h2, dense_q = dense_provider(g)
    assert comp_h2.keys() == dense_h2.keys() == set(g.sources)
    for s, v in dense_h2.items():
        assert comp_h2[s] == pytest.approx(v, rel=1e-9)
    assert comp_q.shape == dense_q.shape == (len(g.sources), edges, g.k, g.k)
    for got, want in zip(comp_q, dense_q):
        assert rel_err(got, want) <= 1e-9
    assert rel_err(edge_gradients(comp_q), edge_gradients(dense_q)) <= 1e-9
