"""The up sweep's waves against the per-join reference sweep: an arc whose
parent takes the other form is held, then inverted with its wave, one LAPACK
call for every arc held at once. LAPACK inverts a stack one matrix at a time,
so every value is the reference's bit for bit."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spnet
from helpers import per_join_resistance_sweep, plan_forms, random_aittsp
from spnet import electrical
from spnet.fileio import load_graph
from spnet.h2 import CompositionalProvider, compositional_h2
from spnet.sptree import Series
from test_chains import sp_ladder
from test_recognize import ladder, scrambled
from test_scale import FAMILY, sp_tree

DEMO = Path(spnet.__file__).parent / "data" / "demo_graph.json"


def scrambled_aittsp(k):
    """A ``random_aittsp`` network with its nodes, edges, edge directions and sources shuffled."""
    rng = np.random.default_rng(k)
    g = random_aittsp(rng, k, 6 if k == 16 else 24, leaves_per_link=8)
    sources = tuple(g.sources[i] for i in rng.permutation(len(g.sources)))
    return replace(scrambled(rng, g), leaders=g.leaders, sources=sources)


# The test_scale family holds the unchained k = 16 ladder (40 rungs) and the chained ladders; on the
# chained SP ladder (seed 6), the chain's step reads 11 rung networks' roots that are still held.
GRAPHS = {"demo": lambda: load_graph(DEMO)}
GRAPHS.update({name: lambda build=build: build(np.random.default_rng(3)) for name, (build, *_) in FAMILY.items()})
GRAPHS.update({f"scrambled-aittsp-k{k}": lambda k=k: scrambled_aittsp(k) for k in (1, 2, 4, 16)})
GRAPHS["chained-sp-ladder-k2"] = lambda: sp_ladder(np.random.default_rng(6), 2, 60)


def switches(program):
    """How many arcs the up sweep inverts: every swept join whose parent takes the other form."""
    m, forms = len(program.edges), program.takes_r
    tops = [step if type(step) is int else step.top for step in program.plan]
    return sum((program.joins[j][0] is Series) != forms[m + j] for j in tops)


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_waves_match_the_per_join_sweep(monkeypatch, name):
    g = GRAPHS[name]()
    program = CompositionalProvider(g).program
    assert program.takes_r.tolist() == plan_forms(program.joins, program.plan, len(program.edges)).tolist()
    runs = []
    for sweep in (electrical.resistance_sweep, per_join_resistance_sweep):
        monkeypatch.setattr(electrical, "resistance_sweep", sweep)
        val, _ = electrical.resistance_sweep(program.joins, g.weights, program.plan, program.takes_r)
        s = electrical.solve_sources(program, g.weights)
        h2 = [compositional_h2(g, method).per_source for method in ("exact", "bound")]
        runs.append((bits(val, s.roots, s.value, s.handed, s.voltage), [(list(d), bits(list(d.values()))) for d in h2]))
    assert runs[0] == runs[1]


def inverses(monkeypatch, g):
    """The shapes ``np.linalg.inv`` is called with in one up sweep of ``g``'s shared program, and the program."""
    program, calls, inv = CompositionalProvider(g).program, [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.shape(a)) or inv(a))
    electrical.resistance_sweep(program.joins, g.weights, program.plan, program.takes_r)
    return calls, program


def test_one_inverse_per_wave(monkeypatch):
    # 512 of the 999 joins switch form; the per-join sweep made one call for each.
    calls, program = inverses(monkeypatch, sp_tree(np.random.default_rng(3), 1, 1000))
    assert switches(program) == 512
    assert len(calls) <= 1 + 25  # the leaves a series join takes, then one call per wave
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in calls[1:]) == 512  # each arc inverted once


def test_a_lone_held_arc_is_one_matrix(monkeypatch):
    # Each join of the unchained k = 16 ladder reads the switch below it at once: a wave of one, one 16 x 16 inverse.
    g = ladder(np.random.default_rng(3), 16, 40)
    calls, program = inverses(monkeypatch, g)
    assert calls[1:] == [(16, 16)] * switches(program)
