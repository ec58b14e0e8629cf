"""Graph and config dicts load as stacks: each matrix converted once, each rule checked once.

The reference loader below is the one that ran before, edge by edge: field
and id checks, one ``np.asarray`` per matrix, ids and ends checked per edge,
then the stacked symmetry, definiteness and box checks, definiteness by the
eigenvalue test ``ref_spd``. The only rule added since, non-finite entries,
is checked where the stacked loader checks it. On
inputs with one fault at a random position the two raise the same exception
with the same message, and on inputs with several the loader names the first
in file order as the reference does; on valid inputs they store the same bits.
"""

import numpy as np
import pytest

from helpers import random_aittsp, random_spd
from spnet import matlin
from spnet.errors import GraphValidationError
from spnet.fileio import config_from_dict, graph_from_dict, graph_to_dict
from spnet.graph import attachment_edge_ids
from test_recognize import ladder
from test_scale import path
from test_validation import ref_spd

FIELDS = ("id", "tail", "head", "weight")


def ref_matrix(data, k, context):
    try:
        m = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(f"{context}: weight is not a numeric matrix") from exc
    if m.shape != (k, k):
        raise GraphValidationError(f"{context}: expected a {k}x{k} matrix, got shape {m.shape}")
    return m


def ref_graph(data, context="graph"):
    """(nodes, (id, tail, head) per edge, weights, leaders, sources) as the per-edge loader stored them."""
    for key in ("k", "nodes", "edges"):
        if key not in data:
            raise GraphValidationError(f"{context}: missing field {key!r}")
    k = data["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise GraphValidationError(f"{context}: k must be a positive integer")
    if not isinstance(data["edges"], list) or not all(isinstance(e, dict) for e in data["edges"]):
        raise GraphValidationError(f"{context}: 'edges' must be an array of objects")
    edges = []
    for n, e in enumerate(data["edges"]):
        for key in FIELDS:
            if key not in e:
                raise GraphValidationError(f"{context}: edge #{n} is missing field {key!r}")
        if any(isinstance(e[key], (list, dict)) for key in ("id", "tail", "head")):
            raise GraphValidationError(f"{context}: edge #{n} id, tail and head must be strings or numbers")
        edges.append((e["id"], e["tail"], e["head"], ref_matrix(e["weight"], k, f"{context}: edge {e['id']!r}")))
    leaders, sources = data.get("leaders", []), data.get("sources")
    listed = {"nodes": data["nodes"], "leaders": leaders, "sources": [] if sources is None else sources}
    for key, value in listed.items():
        if not isinstance(value, list) or any(isinstance(x, (list, dict)) for x in value):
            raise GraphValidationError(f"{context}: {key!r} must be an array of strings or numbers")
    try:
        return ref_make_graph(k, data["nodes"], edges, leaders, sources)
    except ValueError as exc:
        raise GraphValidationError(f"{context}: {exc}") from exc


def ref_make_graph(k, nodes, edges, leaders, sources):
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise GraphValidationError("duplicate node ids")
    node_set = set(nodes)
    seen_ids, ends, weights = set(), [], []
    for eid, tail, head, w in edges:
        eid = str(eid)
        if eid in seen_ids:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if tail not in node_set or head not in node_set:
            raise GraphValidationError(f"edge {eid!r} references unknown node")
        if tail == head:
            raise GraphValidationError(f"edge {eid!r} is a self-loop")
        if not np.isfinite(w).all():  # the added rule
            raise GraphValidationError(f"edge {eid!r} weight has a non-finite entry")
        ends.append((eid, tail, head))
        weights.append(w)
    weights = np.array(weights, dtype=float).reshape(len(weights), k, k)
    weights = matlin.as_symmetric(weights, describe=lambda i: f"edge {ends[i][0]!r} weight")
    bad = [eid for (eid, _, _), w in zip(ends, weights) if not ref_spd(w)]
    if bad:
        raise GraphValidationError(f"edge {bad[0]!r} weight is not strictly SPD")
    leaders = frozenset(leaders)
    if not leaders <= node_set:
        raise GraphValidationError("leader set contains unknown nodes")
    if sources is None:
        found = set()
        for (_, tail, head), w in zip(ends, weights):
            for a, b in ((tail, head), (head, tail)):
                if a in leaders and b not in leaders and np.abs(w - np.eye(k)).max() <= 1e-9:
                    found.add(b)
        sources = sorted(found)
    elif set(sources) - node_set or set(sources) & leaders:
        raise GraphValidationError("bad sources")  # no fault below reaches this
    return nodes, tuple(ends), weights, leaders, tuple(sources)


def ref_bounds(data, k, context="config"):
    """The boxes as the per-box loader stored them (the settings are not faulted here)."""
    bounds = {}
    for eid, pair in data["bounds"].items():
        for key in ("L", "U"):
            if key not in pair:
                raise GraphValidationError(f"{context}: bounds for edge {eid!r} miss {key!r}")
        bounds[eid] = (
            ref_matrix(pair["L"], k, f"{context}: L bound of edge {eid!r}"),
            ref_matrix(pair["U"], k, f"{context}: U bound of edge {eid!r}"),
        )
    for eid, (lo, up) in bounds.items():  # the added rule
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise GraphValidationError(f"{context}: bounds for edge {eid!r} have a non-finite entry")
    ids = list(bounds)
    lo, up = (np.array([box[j] for box in bounds.values()]) for j in (0, 1))
    try:
        lo = matlin.as_symmetric(lo, describe=lambda i: f"lower bound for edge {ids[i]!r}")
        bad = [eid for eid, m in zip(ids, lo) if not ref_spd(m)]
        if bad:
            raise ValueError(f"lower bound for edge {bad[0]!r} is not strictly SPD")
        up = matlin.as_symmetric(up, describe=lambda i: f"upper bound for edge {ids[i]!r}")
    except ValueError as exc:
        raise GraphValidationError(f"{context}: {exc}") from exc
    gap = np.linalg.eigvalsh(up - lo).min(axis=-1)
    bad = np.flatnonzero(~(gap >= -matlin.BOX_TOL))
    if bad.size:
        raise GraphValidationError(f"{context}: bounds for edge {ids[bad[0]]!r} are infeasible")
    return bounds


def outcome(load, *args):
    try:
        return load(*args), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


def entry(rng, m):
    """A random (row, column) of the nested list ``m``."""
    r = int(rng.integers(len(m)))
    return r, int(rng.integers(len(m[r])))


def set_entry(rng, m, value):
    r, c = entry(rng, m)
    m[r][c] = value


def other_id(rng, data, e):
    return str(rng.choice([x["id"] for x in data["edges"] if x is not e]))


NON_FINITE = (float("inf"), float("-inf"), float("nan"), None)  # JSON 1e400, -1e400, NaN, null
NON_NUMERIC = ("x", "1e", {"a": 1.0})

# fault -> mutation of one edge dict ``e`` of graph dict ``data``
GRAPH_FAULTS = {
    "missing field": lambda rng, data, e: e.pop(FIELDS[rng.integers(4)]),
    "array id": lambda rng, data, e: e.update({FIELDS[rng.integers(3)]: [e["id"]]}),
    "object head": lambda rng, data, e: e.update(head={"n": e["head"]}),
    "non-numeric entry": lambda rng, data, e: set_entry(rng, e["weight"], NON_NUMERIC[rng.integers(3)]),
    "ragged row": lambda rng, data, e: e["weight"][rng.integers(len(e["weight"]))].append(0.5),
    "short row": lambda rng, data, e: e["weight"][rng.integers(len(e["weight"]))].pop(),
    "wrong k": lambda rng, data, e: e.update(weight=random_spd(rng, len(e["weight"]) + 1).tolist()),
    "asymmetric": lambda rng, data, e: e["weight"][0].__setitem__(-1, e["weight"][0][-1] + 1.0),
    "not SPD": lambda rng, data, e: e.update(weight=(-np.array(e["weight"])).tolist()),
    "duplicate id": lambda rng, data, e: e.update(id=other_id(rng, data, e)),
    "unknown node": lambda rng, data, e: e.update({("tail", "head")[rng.integers(2)]: "nowhere"}),
    "self-loop": lambda rng, data, e: e.update(head=e["tail"]),
    "non-finite": lambda rng, data, e: set_entry(rng, e["weight"], NON_FINITE[rng.integers(4)]),
}

# fault -> mutation of one {"L", "U"} box dict
BOX_FAULTS = {
    "missing L or U": lambda rng, box: box.pop("LU"[rng.integers(2)]),
    "ragged bound": lambda rng, box: box["LU"[rng.integers(2)]][0].append(0.5),
    "non-numeric bound": lambda rng, box: set_entry(rng, box["LU"[rng.integers(2)]], NON_NUMERIC[rng.integers(3)]),
    "wrong k bound": lambda rng, box: box.update(U=np.eye(len(box["U"]) + 1).tolist()),
    "non-finite bound": lambda rng, box: set_entry(rng, box["LU"[rng.integers(2)]], NON_FINITE[rng.integers(4)]),
    "lower not SPD": lambda rng, box: box.update(L=(-np.array(box["L"])).tolist()),
    "lower asymmetric": lambda rng, box: box["L"][0].__setitem__(-1, box["L"][0][-1] + 1.0),
    "upper asymmetric": lambda rng, box: box["U"][0].__setitem__(-1, box["U"][0][-1] + 1.0),
    "infeasible": lambda rng, box: box.update(U=(0.5 * np.array(box["L"])).tolist()),
}
NEEDS_K2 = {"asymmetric", "lower asymmetric", "upper asymmetric"}  # a 1x1 matrix is symmetric


def path_dict(rng, k, n):
    """Leader r attached by identity to v0, then the path v0 - ... - v{n-1}; every matrix a nested list."""
    edges = [{"id": "att", "tail": "r", "head": "v0", "weight": np.eye(k).tolist()}]
    edges += [
        {"id": f"e{i}", "tail": f"v{i}", "head": f"v{i + 1}", "weight": random_spd(rng, k).tolist()}
        for i in range(n - 1)
    ]
    return {"k": k, "nodes": ["r"] + [f"v{i}" for i in range(n)], "edges": edges, "leaders": ["r"]}


def config_dict(rng, k, n):
    bounds = {}
    for i in range(n):
        w = random_spd(rng, k)
        bounds[f"e{i}"] = {"L": (0.5 * w).tolist(), "U": (2.0 * w).tolist()}
    return {"penalty_h": 0.5, "max_iters": 3, "bounds": bounds}


def assert_same_graph(g, ref):
    nodes, ends, weights, leaders, sources = ref
    assert g.nodes == nodes and g.leaders == leaders and g.sources == sources
    assert [(e.id, e.tail, e.head) for e in g.edges] == list(ends)
    assert np.array_equal(g.weights, weights) and g.weights.tobytes() == weights.tobytes()


def assert_same_bounds(bounds, ref):
    assert list(bounds) == list(ref)
    for eid, (lo, up) in ref.items():
        for new, old in zip(bounds[eid], (lo, up)):
            assert np.array_equal(new, old) and new.tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "k, fault", [(k, f) for k in (1, 3) for f in sorted(GRAPH_FAULTS) if k > 1 or f not in NEEDS_K2]
)
def test_one_graph_fault_keeps_its_message(k, fault):
    for seed in range(4):
        rng = np.random.default_rng([seed, k])
        data = path_dict(rng, k, 7)
        GRAPH_FAULTS[fault](rng, data, data["edges"][rng.integers(len(data["edges"]))])
        new, ref = outcome(graph_from_dict, data), outcome(ref_graph, data)
        assert new[1] is not None and new[1] == ref[1], (fault, seed)


@pytest.mark.parametrize(
    "k, fault", [(k, f) for k in (1, 3) for f in sorted(BOX_FAULTS) if k > 1 or f not in NEEDS_K2]
)
def test_one_box_fault_keeps_its_message(k, fault):
    for seed in range(4):
        rng = np.random.default_rng([seed, k])
        data = config_dict(rng, k, 6)
        BOX_FAULTS[fault](rng, data["bounds"][f"e{rng.integers(6)}"])
        new, ref = outcome(config_from_dict, data, k), outcome(ref_bounds, data, k)
        assert new[1] is not None and new[1] == ref[1], (fault, seed)


@pytest.mark.parametrize(
    "build",
    [lambda rng: random_aittsp(rng, 2, 6), lambda rng: ladder(rng, 3, 20), lambda rng: path(rng, 16, 12)],
    ids=["random_aittsp", "ladder", "k16 chain"],
)
def test_valid_inputs_store_the_same_bits(rng, build):
    g = build(rng)
    data = graph_to_dict(g)
    for e in data["edges"]:  # asymmetric within the rule's tolerance, so symmetrizing changes bits
        e["weight"][0][-1] *= 1.0 + 0.25 * matlin.SYM_RTOL
    inferred = {key: value for key, value in data.items() if key != "sources"}
    for d in (data, inferred):
        new, ref = outcome(graph_from_dict, d), outcome(ref_graph, d)
        assert new[1] is None and ref[1] is None
        assert_same_graph(new[0], ref[0])
    fixed = attachment_edge_ids(g)
    bounds = {e.id: (0.5 * w, 2.0 * w) for e, w in zip(g.edges, g.weights) if e.id not in fixed}
    config = {"penalty_h": 0.5, "bounds": {eid: {"L": lo.tolist(), "U": up.tolist()} for eid, (lo, up) in bounds.items()}}
    assert_same_bounds(config_from_dict(config, g.k).bounds, ref_bounds(config, g.k))


def test_non_finite_weight_is_one_validation_error():
    data = {
        "k": 1,
        "nodes": ["r", "a", "b"],
        "leaders": ["r"],
        "edges": [
            {"id": "att", "tail": "r", "head": "a", "weight": [[1.0]]},
            {"id": "ab", "tail": "a", "head": "b", "weight": [[float("inf")]]},
        ],
    }
    with pytest.raises(GraphValidationError, match=r"^graph: edge 'ab' weight has a non-finite entry$"):
        graph_from_dict(data)


HUGE = int("9" * 400)  # what JSON reads a 400-digit integer literal as: too large for a float


def test_huge_integer_weight_is_one_validation_error():
    data = path_dict(np.random.default_rng(0), 1, 3)
    data["edges"][1]["weight"] = [[HUGE]]
    with pytest.raises(GraphValidationError, match=r"^graph: edge 'e0': weight is not a numeric matrix$"):
        graph_from_dict(data)


NOT_A_NUMBER, EYE3 = [["x", 0.0], [0.0, 1.0]], np.eye(3).tolist()


@pytest.mark.parametrize(
    "u1, l2", [(NOT_A_NUMBER, NOT_A_NUMBER), (EYE3, EYE3), (EYE3, None)], ids=["not a number", "wrong k", "then missing"]
)
def test_first_bad_bound_in_file_order_is_named(u1, l2):
    # e1's U comes before e2's L in the file, so it is the one named, also when e2's L is missing (None).
    data = config_dict(np.random.default_rng(0), 2, 3)
    data["bounds"]["e1"]["U"] = u1
    data["bounds"]["e2"]["L"] = l2
    if l2 is None:
        del data["bounds"]["e2"]["L"]
    new, ref = outcome(config_from_dict, data, 2), outcome(ref_bounds, data, 2)
    assert new[1] == ref[1]
    assert ref[1][1].startswith("config: U bound of edge 'e1': ")


@pytest.mark.parametrize("field", ["head", "id"])
def test_first_bad_edge_in_file_order_is_named(field):
    # Edge e0's weight comes before edge #2's missing field in the file, so it is the one named.
    data = path_dict(np.random.default_rng(0), 2, 4)  # edge #0 is the attachment, #1 is e0
    data["edges"][1]["weight"] = EYE3
    del data["edges"][2][field]
    new, ref = outcome(graph_from_dict, data), outcome(ref_graph, data)
    assert new[1] == ref[1]
    assert ref[1][1] == "graph: edge 'e0': expected a 2x2 matrix, got shape (3, 3)"


# Every fault but "duplicate id", which copies another edge's id and so is drawn only first, while every id
# is there. The loader and ``make_graph`` each take an edge's rules in turn (the loader's fields, types and
# matrix; then unique id, known ends, no self-loop, finite entries), so the first faulty edge is named.
LATER_FAULTS = tuple(f for f in sorted(GRAPH_FAULTS) if f != "duplicate id")


@pytest.mark.parametrize("k", [1, 3])
def test_several_graph_faults_name_the_first_in_file_order(k):
    faults = [f for f in sorted(GRAPH_FAULTS) if k > 1 or f not in NEEDS_K2]
    later = [f for f in LATER_FAULTS if f in faults]
    for seed in range(40):
        rng = np.random.default_rng([seed, k, 2])
        data = path_dict(rng, k, 7)
        picks = rng.choice(len(data["edges"]), size=int(rng.integers(2, 5)), replace=False)
        for n, j in enumerate(picks):
            pool = faults if n == 0 else later
            GRAPH_FAULTS[pool[rng.integers(len(pool))]](rng, data, data["edges"][j])
        new, ref = outcome(graph_from_dict, data), outcome(ref_graph, data)
        assert new[1] is not None and new[1] == ref[1], seed


@pytest.mark.parametrize("k", [1, 3])
def test_several_box_faults_name_the_first_in_file_order(k):
    faults = [f for f in sorted(BOX_FAULTS) if k > 1 or f not in NEEDS_K2]
    for seed in range(40):
        rng = np.random.default_rng([seed, k, 2])
        data = config_dict(rng, k, 6)
        for j in rng.choice(6, size=int(rng.integers(2, 5)), replace=False):
            BOX_FAULTS[faults[rng.integers(len(faults))]](rng, data["bounds"][f"e{j}"])
        new, ref = outcome(config_from_dict, data, k), outcome(ref_bounds, data, k)
        assert new[1] is not None and new[1] == ref[1], seed


@pytest.mark.parametrize("side", ["L", "U"])
def test_huge_integer_bound_is_one_validation_error(side):
    data = config_dict(np.random.default_rng(0), 1, 3)
    data["bounds"]["e1"][side] = [[HUGE]]
    message = rf"^config: {side} bound of edge 'e1': weight is not a numeric matrix$"
    with pytest.raises(GraphValidationError, match=message):
        config_from_dict(data, 1)


# What float() converts but JSON does not write as a number: each is rejected as it loads.
NOT_NUMBERS = {
    "bool": [[True, False], [False, True]],
    "string": [["2", "0"], ["0", "2"]],
    "mixed": [[2.0, 0.0], [0.0, True]],
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_bool_or_string_weight_is_one_validation_error(case):
    data = path_dict(np.random.default_rng(0), 2, 3)
    data["edges"][1]["weight"] = NOT_NUMBERS[case]
    with pytest.raises(GraphValidationError, match=r"^graph: edge 'e0': weight is not a numeric matrix$"):
        graph_from_dict(data)
    data["edges"][1]["weight"] = [[2, 0], [0, 2]]  # JSON integers are numbers
    assert graph_from_dict(data).weights[1].tolist() == [[2.0, 0.0], [0.0, 2.0]]


@pytest.mark.parametrize("side", ["L", "U"])
@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_bool_or_string_bound_is_one_validation_error(case, side):
    data = config_dict(np.random.default_rng(0), 2, 3)
    data["bounds"]["e1"][side] = NOT_NUMBERS[case]
    message = rf"^config: {side} bound of edge 'e1': weight is not a numeric matrix$"
    with pytest.raises(GraphValidationError, match=message):
        config_from_dict(data, 2)
