"""The worklist reduction's output, pinned: join records, terminal skeleton
and chains on six graphs, each source's one-source reduction down to one
arc, and the ordering rule that re-queues a bundle's pair midway through its
merge.

``data/reduction_records.json`` holds, for each graph, its grounded topology
and what ``reduce_sources`` made of it when the file was written. Weights do
not enter the reduction, so the graphs are rebuilt with identity weights."""

import json
from pathlib import Path

import numpy as np
import pytest

from spnet.graph import make_graph
from spnet.sptree import Chain, reduce_sources

RECORDS = json.loads((Path(__file__).parent / "data" / "reduction_records.json").read_text())


def records(joins):
    return [[kind.__name__, a, fa, b, fb] for kind, a, fa, b, fb in joins]


@pytest.mark.parametrize("name", list(RECORDS))
def test_reduction_matches_the_pinned_records(name):
    want = RECORDS[name]
    spec = want["graph"]
    eye = np.eye(spec["k"])
    g = make_graph(spec["k"], spec["nodes"], [(*edge, eye) for edge in spec["edges"]], sources=spec["sources"])
    program = reduce_sources(g, tuple(spec["sources"]), {spec["sink"]})
    assert records(program.joins) == want["joins"]
    assert program.live.tolist() == want["live"]
    assert program.ends.tolist() == want["ends"]
    assert list(program.nodes) == want["nodes"]
    chains = [step for step in program.plan if type(step) is Chain]
    assert len(chains) == len(want["chains"])
    for chain, pinned in zip(chains, want["chains"]):
        assert chain.top == pinned["top"]
        assert list(chain.joins) == pinned["joins"]
        assert chain.arcs.tolist() == pinned["arcs"]
        assert chain.signs.reshape(-1).tolist() == pinned["signs"]
    for source in spec["sources"]:  # each source alone reduces to one arc, between it and the sink
        alone = reduce_sources(g, (source,), {spec["sink"]})
        assert len(alone.live) == 1 and sorted(alone.ends[0].tolist()) == [0, len(alone.nodes) - 1]


def test_partial_merge_requeues_its_pair():
    """s - y carries three arcs, so merging them leaves a two-arc bundle after
    the first join, and its pair is queued again then. Contracting z lands
    one more arc on s - y before that entry is popped, so s - y merges again
    ahead of y - t, whose pair contracting w queued in between."""
    pairs = [("e0", "s", "y"), ("e1", "y", "s"), ("e2", "s", "y"), ("sz", "s", "z"), ("zy", "z", "y")]
    pairs += [("yw", "y", "w"), ("wt", "w", "t"), ("yt", "y", "t")]
    g = make_graph(1, ["s", "y", "w", "z", "t"], [(eid, u, v, np.eye(1)) for eid, u, v in pairs])
    program = reduce_sources(g, ("s",), {"t"})
    assert records(program.joins) == [
        ["Parallel", 0, False, 1, True],
        ["Parallel", 8, False, 2, False],
        ["Series", 5, False, 6, False],
        ["Series", 3, False, 4, False],
        ["Parallel", 9, False, 11, False],
        ["Parallel", 7, False, 10, False],
        ["Series", 12, False, 13, False],
    ]
    assert program.live.tolist() == [14]
    assert program.ends.tolist() == [[0, 1]]  # one arc, from the source to the sink
