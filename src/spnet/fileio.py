"""JSON/CSV serialization for graphs, trees, optimizer configs and trajectories."""

import csv
import json
import operator
from dataclasses import fields
from itertools import chain

import numpy as np

from .errors import GraphValidationError
from .graph import make_graph
from .optimize import OptConfig
from .sptree import from_json as tree_from_json


def _load_json(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise GraphValidationError(f"{path}: {exc.strerror}") from exc
    except RecursionError as exc:
        raise GraphValidationError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise GraphValidationError(f"{path}: not a JSON object")
    return data


def _numeric(matrices):
    """Whether every entry of the matrices is a JSON number, by one type pass: an int or float
    (null too, read as NaN for the non-finite rule), not a bool or a string float() would take."""
    types = set(map(type, chain.from_iterable(chain.from_iterable(matrices))))
    return all(t is not bool and issubclass(t, (int, float, type(None))) for t in types)


def _matrices(raw, k):
    """The k x k matrices ``raw`` as one (n, k, k) float stack, converted at once; None if any is refused."""
    try:
        stack = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    ok = (not raw or stack.shape == (len(raw), k, k)) and _numeric(raw)  # no matrices at all convert to shape (0,)
    return stack.reshape(len(raw), k, k) if ok else None


def _matrix_fault(m, k):
    """Why one matrix is not a k x k array of JSON numbers, or None."""
    try:
        shape = np.asarray(m, dtype=float).shape
    except (TypeError, ValueError, OverflowError):
        return "weight is not a numeric matrix"
    if shape != (k, k):
        return f"expected a {k}x{k} matrix, got shape {shape}"
    return None if _numeric([m]) else "weight is not a numeric matrix"


def graph_from_dict(data, context="graph"):
    for key in ("k", "nodes", "edges"):
        if key not in data:
            raise GraphValidationError(f"{context}: missing field {key!r}")
    k = data["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise GraphValidationError(f"{context}: k must be a positive integer")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise GraphValidationError(f"{context}: 'edges' must be an array of objects")
    # Each rule over every edge at once; if one fails, one scan in file order names the first edge at fault.
    names = ("id", "tail", "head", "weight")
    try:
        ids, tails, heads, raw = zip(*map(operator.itemgetter(*names), edges)) if edges else ((),) * 4
    except KeyError:
        weights = None
    else:
        plain = not any(issubclass(t, (list, dict)) for t in set(map(type, ids + tails + heads)))
        weights = _matrices(raw, k) if plain else None
    for n, e in enumerate(edges if weights is None else ()):
        key = next((key for key in names if key not in e), None)
        if key is not None:
            raise GraphValidationError(f"{context}: edge #{n} is missing field {key!r}")
        if any(isinstance(e[key], (list, dict)) for key in names[:3]):
            raise GraphValidationError(f"{context}: edge #{n} id, tail and head must be strings or numbers")
        if fault := _matrix_fault(e["weight"], k):
            raise GraphValidationError(f"{context}: edge {e['id']!r}: {fault}")
    leaders, sources = data.get("leaders", []), data.get("sources")
    listed = {"nodes": data["nodes"], "leaders": leaders, "sources": [] if sources is None else sources}
    for key, value in listed.items():
        if not isinstance(value, list) or any(isinstance(x, (list, dict)) for x in value):
            raise GraphValidationError(f"{context}: {key!r} must be an array of strings or numbers")
    try:
        return make_graph(k, data["nodes"], zip(ids, tails, heads), leaders, sources, weights=weights)
    except ValueError as exc:
        raise GraphValidationError(f"{context}: {exc}") from exc


def load_graph(path):
    return graph_from_dict(_load_json(path), context=str(path))


def graph_to_dict(g):
    return {
        "k": g.k,
        "nodes": list(g.nodes),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "weight": w.tolist()}
            for e, w in zip(g.edges, g.weights)
        ],
        "leaders": sorted(g.leaders),
        "sources": list(g.sources),
    }


def save_graph(g, path):
    with open(path, "w") as f:
        json.dump(graph_to_dict(g), f, indent=2)
        f.write("\n")


def load_tree(path, g):
    data = _load_json(path)
    try:
        return tree_from_json(data, g)
    except ValueError as exc:
        raise GraphValidationError(f"{path}: {exc}") from exc


def config_from_dict(data, k, context="config"):
    if "penalty_h" not in data:
        raise GraphValidationError(f"{context}: missing field 'penalty_h'")
    raw = data.get("bounds", {})
    if not isinstance(raw, dict) or not all(isinstance(pair, dict) for pair in raw.values()):
        raise GraphValidationError(f"{context}: 'bounds' must map each edge id to an object with 'L' and 'U'")
    try:  # L and U interleaved, box by box; if that fails, one scan in file order names the first box at fault
        stack = _matrices([pair[key] for pair in raw.values() for key in ("L", "U")], k)
    except KeyError:
        stack = None
    for eid, pair in raw.items() if stack is None else ():
        for key in ("L", "U"):
            if key not in pair:
                raise GraphValidationError(f"{context}: bounds for edge {eid!r} miss {key!r}")
        for key in ("L", "U"):
            if fault := _matrix_fault(pair[key], k):
                raise GraphValidationError(f"{context}: {key} bound of edge {eid!r}: {fault}")
    bounds = dict(zip(raw, zip(stack[0::2], stack[1::2])))
    # Keys the file leaves out keep OptConfig's defaults; unknown keys are ignored.
    settings = {f.name: data[f.name] for f in fields(OptConfig) if f.name != "bounds" and f.name in data}
    try:
        return OptConfig(bounds=bounds, **settings)
    except ValueError as exc:
        raise GraphValidationError(f"{context}: {exc}") from exc


def load_config(path, k):
    return config_from_dict(_load_json(path), k, context=str(path))


def weights_to_dict(weights):
    return {eid: w.tolist() for eid, w in sorted(weights.items())}


def write_trajectory_csv(traj, fileobj):
    writer = csv.writer(fileobj)
    writer.writerow(["iter", "objective", "h2_squared", "penalty", "grad_norm"])
    for r in traj.records:
        writer.writerow(
            [r.iteration, repr(r.objective), repr(r.h2_squared), repr(r.penalty), repr(r.grad_norm)]
        )
