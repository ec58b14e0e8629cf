"""The worklist reduction's output, pinned: join records, terminal skeleton,
chains and every source's finish on six graphs, and the ordering rule that
re-queues a bundle's pair midway through its merge.

``data/reduction_records.json`` holds, for each graph, its grounded topology
and what ``reduce_sources`` made of it when the file was written. Weights do
not enter the reduction, so the graphs are rebuilt with identity weights."""

import json
from pathlib import Path

import numpy as np
import pytest

from spnet.errors import NotSeriesParallelError
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
    assert list(program.order) == want["order"]
    chains = [step for step in program.plan if type(step) is Chain]
    assert len(chains) == len(want["chains"])
    for chain, pinned in zip(chains, want["chains"]):
        assert chain.top == pinned["top"]
        assert list(chain.joins) == pinned["joins"]
        assert chain.arcs.tolist() == pinned["arcs"]
        assert chain.signs.reshape(-1).tolist() == pinned["signs"]
    for source, pinned in want["finish"].items():
        if pinned is None:
            with pytest.raises(NotSeriesParallelError):
                program.finish(source)
            continue
        joins, root, reversed_ = program.finish(source)
        assert [records(joins), root, reversed_] == pinned


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
    assert program.finish("s") == ([], 14, False)
