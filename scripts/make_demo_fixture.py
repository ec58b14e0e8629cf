"""Regenerate the bundled demo fixtures under src/spnet/data/.

Usage (from the repository root, with spnet importable):

    python scripts/make_demo_fixture.py

The demo network has three leaders (identified to a single grounded node
when analyzed), k = 2 weights, multi-edges between neighbouring sources,
and randomized weights/bounds drawn from the fixed seed below. Initial
weights start near the lower bounds so the descent has room to move.
"""

import argparse
import json
import pathlib

import numpy as np

from spnet.fileio import graph_to_dict
from spnet.graph import make_graph

SEED = 20250823
K = 2

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "spnet" / "data"


def random_spd(rng, k, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    eig = rng.uniform(lo, hi, size=k)
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    rng = np.random.default_rng(SEED)
    identity = np.eye(K)

    free = [
        # three parallel edges between the first two sources
        ("e1", "s1", "s2"),
        ("e2", "s1", "s2"),
        ("e3", "s1", "s2"),
        # two-branch series-parallel network between the last two sources
        ("e4", "s2", "m1"),
        ("e5", "s2", "m1"),
        ("e6", "m1", "s3"),
        ("e7", "s2", "m2"),
        ("e8", "m2", "s3"),
    ]
    bounds = {}
    edges = [
        ("a1", "r1", "s1", identity),
        ("a2", "r2", "s2", identity),
        ("a3", "r3", "s3", identity),
    ]
    for eid, tail, head in free:
        lower = random_spd(rng, K, 0.1, 0.3)
        upper = lower + random_spd(rng, K, 2.0, 4.0)
        w0 = lower + 0.2 * (upper - lower)
        bounds[eid] = (lower, upper)
        edges.append((eid, tail, head, w0))

    g = make_graph(
        K,
        ["r1", "r2", "r3", "s1", "s2", "s3", "m1", "m2"],
        edges,
        leaders=["r1", "r2", "r3"],
    )
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    with open(DATA_DIR / "demo_graph.json", "w") as f:
        json.dump(graph_to_dict(g), f, indent=2)
        f.write("\n")

    config = {
        "penalty_h": 0.05,
        "max_iters": 100,
        "grad_tol": 1e-8,
        "voltage_mode": "compositional",
        "bounds": {
            eid: {"L": lo.tolist(), "U": up.tolist()} for eid, (lo, up) in bounds.items()
        },
    }
    with open(DATA_DIR / "demo_config.json", "w") as f:
        json.dump(config, f, indent=2)
        f.write("\n")

    unit_path = make_graph(1, ["r", "s"], [("a", "r", "s", np.eye(1))], leaders=["r"])
    with open(DATA_DIR / "unit_path.json", "w") as f:
        json.dump(graph_to_dict(unit_path), f, indent=2)
        f.write("\n")

    k4_nodes = ["a", "b", "c", "d"]
    k4_edges = [
        (f"e{i}", u, v, np.eye(1))
        for i, (u, v) in enumerate(
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        )
    ]
    k4 = make_graph(1, k4_nodes, k4_edges)
    with open(DATA_DIR / "k4.json", "w") as f:
        json.dump(graph_to_dict(k4), f, indent=2)
        f.write("\n")

    print(f"fixtures written to {DATA_DIR}")


if __name__ == "__main__":
    main()
