"""Scale tier: ``CompositionalProvider`` against ``dense_provider`` on the
larger members of the path and ladder family, to 10³ edges. H2² per source,
each source's Q stack and the edge gradients agree to 1e-9 relative, the
tolerances of ``test_compiled.assert_matches_dense`` (Q over each source's
whole stack, since it decays along a long chain below the dense solve's own
roundoff)."""

import numpy as np
import pytest

from helpers import random_spd
from spnet.graph import make_graph
from spnet.h2 import CompositionalProvider, dense_provider
from spnet.optimize import edge_gradients
from test_compiled import rel_err
from test_recognize import ladder


def path(rng, k, m):
    """L0 - p0 - ... - p{m-2} - L1: m edges, the two ends identity attachments."""
    nodes = ["L0", "L1"] + [f"p{i}" for i in range(m - 1)]
    edges = [("a0", "L0", "p0", np.eye(k)), ("a1", f"p{m - 2}", "L1", np.eye(k))]
    edges += [(f"e{i}", f"p{i}", f"p{i + 1}", random_spd(rng, k)) for i in range(m - 2)]
    return make_graph(k, nodes, edges, leaders=["L0", "L1"])


@pytest.mark.parametrize(
    "build, edges",
    [
        (lambda rng: path(rng, 1, 1000), 1000),
        (lambda rng: ladder(rng, 1, 334), 1002),
        (lambda rng: ladder(rng, 4, 100), 300),
    ],
    ids=["path-k1", "ladder-k1", "ladder-k4"],
)
def test_provider_matches_dense(rng, build, edges):
    g = build(rng)
    assert len(g.edges) == edges
    comp_h2, comp_q = CompositionalProvider(g)(g)
    dense_h2, dense_q = dense_provider(g)
    assert comp_h2.keys() == dense_h2.keys() == set(g.sources)
    for s, v in dense_h2.items():
        assert comp_h2[s] == pytest.approx(v, rel=1e-9)
    assert comp_q.shape == dense_q.shape == (len(g.sources), edges, g.k, g.k)
    for got, want in zip(comp_q, dense_q):
        assert rel_err(got, want) <= 1e-9
    assert rel_err(edge_gradients(comp_q), edge_gradients(dense_q)) <= 1e-9
