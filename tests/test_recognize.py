"""Worklist recognizer: orientation, rejection, determinism and depth."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import random_spd, random_sptree, root_resistance
from spnet.errors import NotSeriesParallelError
from spnet.graph import make_graph
from spnet.h2 import CompositionalProvider, compositional_h2, dense_h2, dense_provider
from spnet.sptree import Series, index_tree, leaves, realize, recognize, series

SRC = str(Path(__file__).resolve().parent.parent / "src")
I1 = np.eye(1)


def rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30))


def scrambled(rng, g):
    """Same multigraph with shuffled node and edge order and some edges reversed."""
    nodes = [g.nodes[i] for i in rng.permutation(len(g.nodes))]
    edges = []
    for i in rng.permutation(len(g.edges)):
        e = g.edges[i]
        tail, head = (e.head, e.tail) if rng.random() < 0.5 else (e.tail, e.head)
        edges.append((e.id, tail, head, g.weights[i]))
    return make_graph(g.k, nodes, edges)


def terminals(t):
    """(source, sink) node of a tree whose leaves carry endpoints, checking
    that every series join meets at one node and every parallel join's
    children share both terminals."""
    entries = index_tree(t)
    ends = {}
    for i in range(len(entries) - 1, -1, -1):
        node, li, ri = entries[i]
        if li < 0:
            ends[i] = (node.tail, node.head)
        elif isinstance(node, Series):
            assert ends[li][1] == ends[ri][0]
            ends[i] = (ends[li][0], ends[ri][1])
        else:
            assert ends[li] == ends[ri]
            ends[i] = ends[li]
    return ends[0]


def unit_graph(pairs, prefix="e"):
    nodes = []
    for u, v in pairs:
        nodes += [n for n in (u, v) if n not in nodes]
    return make_graph(1, nodes, [(f"{prefix}{i}", u, v, I1) for i, (u, v) in enumerate(pairs)])


def ladder_dict(rng, k, rungs):
    """Two-leader ladder: L0 - a0, b0 - L1, rails a_i - a_{i+1}, b_i - b_{i+1}, rungs a_i - b_i."""
    eye = np.eye(k).tolist()
    edges = [
        {"id": "att0", "tail": "L0", "head": "a0", "weight": eye},
        {"id": "att1", "tail": "b0", "head": "L1", "weight": eye},
    ]
    for i in range(rungs):
        edges.append({"id": f"r{i}", "tail": f"a{i}", "head": f"b{i}", "weight": random_spd(rng, k).tolist()})
        if i + 1 < rungs:
            for rail in "ab":
                w = random_spd(rng, k).tolist()
                edges.append({"id": f"{rail}{i}", "tail": f"{rail}{i}", "head": f"{rail}{i + 1}", "weight": w})
    nodes = ["L0", "L1"] + [f"{rail}{i}" for i in range(rungs) for rail in "ab"]
    return {"k": k, "nodes": nodes, "edges": edges, "leaders": ["L0", "L1"]}


def ladder(rng, k, rungs):
    d = ladder_dict(rng, k, rungs)
    edges = [(e["id"], e["tail"], e["head"], np.array(e["weight"])) for e in d["edges"]]
    return make_graph(k, d["nodes"], edges, leaders=d["leaders"])


class TestRandomSeriesParallel:
    def test_resistance_and_current_consistent_orientation(self, rng):
        reversed_leaves = 0
        for _ in range(60):
            k = int(rng.integers(1, 4))
            t = random_sptree(rng, k, int(rng.integers(1, 16)))
            g0, src, snk = realize(t)
            g = replace(scrambled(rng, g0), leaders=frozenset({snk}), sources=(src,))
            t2 = recognize(g, src, snk)
            np.testing.assert_allclose(root_resistance(t2), root_resistance(t), atol=1e-10)

            emap = {e.id: e for e in g.edges}
            for lf in leaves(t2):
                e = emap[lf.edge]
                assert {lf.tail, lf.head} == {e.tail, e.head}
                reversed_leaves += lf.tail != e.tail
            assert terminals(t2) == (src, snk)
            # Stored-orientation Q from the recognized tree must equal the
            # dense node-voltage drops exactly, sign included.
            _, comp_q = CompositionalProvider(g)(g)
            _, dense_q = dense_provider(g)
            assert comp_q.shape == dense_q.shape == (1, len(g.edges), k, k)
            for got, q in zip(comp_q[0], dense_q[0]):
                assert rel_err(got, q) <= 1e-9
        assert reversed_leaves > 0


class TestRejection:
    def test_k4_subdivision(self):
        k4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        pairs = []
        for u, v in k4:
            pairs += [(u, f"{u}{v}"), (f"{u}{v}", v)]
        with pytest.raises(NotSeriesParallelError):
            recognize(unit_graph(pairs), "a", "d")

    def test_k4_between_sp_parts(self):
        # s =(SP)= a, K4 on a b c d, d =(SP)= t: terminals outside the K4.
        pairs = [("s", "x"), ("x", "a"), ("s", "a"), ("s", "a")]
        pairs += [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        pairs += [("d", "y"), ("y", "t"), ("d", "z"), ("z", "t")]
        with pytest.raises(NotSeriesParallelError, match="stalled"):
            recognize(unit_graph(pairs), "s", "t")

    def test_pendant_tree(self, rng):
        t = series(random_sptree(rng, 1, 4, prefix="x"), random_sptree(rng, 1, 4, prefix="y"))
        g, src, snk = realize(t)
        inner = next(n for n in g.nodes if n not in (src, snk))
        pairs = [(e.tail, e.head) for e in g.edges]
        pairs += [(inner, "p0"), ("p0", "p1"), ("p0", "p2")]
        with pytest.raises(NotSeriesParallelError):
            recognize(unit_graph(pairs), src, snk)

    def test_ends_on_non_terminal_pair(self):
        g = make_graph(1, ["a", "b", "c"], [("e0", "a", "b", I1)])
        with pytest.raises(NotSeriesParallelError) as info:
            recognize(g, "a", "c")
        assert str(info.value) == "reduction ended on edge 'a'-'b', not on the terminal pair"

    def test_edgeless_graph_stalls(self):
        with pytest.raises(NotSeriesParallelError) as info:
            recognize(make_graph(1, ["a", "b"], []), "a", "b")
        assert str(info.value) == "reduction stalled with 0 edges; graph is not series-parallel between 'a' and 'b'"


class TestDeterminism:
    def test_decompose_independent_of_hash_seed(self, rng, tmp_path):
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(ladder_dict(rng, 2, 30)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        outputs = set()
        for seed in ("0", "1", "2"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "spnet.cli", "decompose", "--graph", str(path), "--source", "a0"],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["ops"][0]["op"] == "parallel"


class TestDepth:
    def test_long_path(self, rng):
        # Path L0 - p0 - ... - p5000 - L1: 5000 internal edges in path order.
        m = 5000
        r = rng.uniform(0.5, 2.0, m)
        edges = [("a0", "L0", "p0", I1), ("a1", f"p{m}", "L1", I1)]
        edges += [(f"e{i}", f"p{i}", f"p{i + 1}", np.array([[1.0 / r[i]]])) for i in range(m)]
        g = make_graph(1, ["L0", "L1"] + [f"p{i}" for i in range(m + 1)], edges, leaders=["L0", "L1"])
        report = compositional_h2(g)
        # Each source sees its unit attachment edge in parallel with the rest
        # of the cycle; a dense solve of this order takes seconds and ~1 GB.
        expected = 2 * 0.5 * (1.0 * (1.0 + r.sum()) / (2.0 + r.sum()))
        assert report.total == pytest.approx(expected, rel=1e-9)

    def test_long_ladder(self, rng):
        g = ladder(rng, 1, 1000)
        assert len(g.edges) == 3000
        assert compositional_h2(g).total == pytest.approx(dense_h2(g).total, rel=1e-9)
