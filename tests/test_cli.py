import csv
import json
from pathlib import Path

import numpy as np
import pytest

import spnet
from spnet.cli import run
from spnet.fileio import graph_from_dict, graph_to_dict, load_graph, save_graph
from spnet.h2 import CompositionalProvider
from test_recognize import ladder_dict

DATA = Path(spnet.__file__).parent / "data"
DEMO = str(DATA / "demo_graph.json")
UNIT = str(DATA / "unit_path.json")
K4 = str(DATA / "k4.json")
GOLDEN = Path(__file__).parent / "data" / "demo_trajectory.csv"
DUP = {"tail": "s1", "head": "m1", "weight": [[1.0, 0.0], [0.0, 1.0]]}  # a demo graph edge, less its id
MISSING = object()  # a field the file leaves out


def k1_graph(nodes, pairs, leaders, **fields):
    """A k = 1 graph file's data: identity-weight edges e0, e1, ... on the node ``pairs``."""
    edges = [{"id": f"e{i}", "tail": u, "head": v, "weight": [[1.0]]} for i, (u, v) in enumerate(pairs)]
    return {"k": 1, "nodes": nodes, "edges": edges, "leaders": leaders, **fields}


RA = k1_graph(["r", "a"], [("r", "a")], ["r"])
# Leaders L0 and L1 on the path L0 - s - t - L1, with source s listed twice
REPEATED_SOURCE = k1_graph(
    ["L0", "L1", "s", "t"], [("L0", "s"), ("s", "t"), ("t", "L1")], ["L0", "L1"], sources=["s", "s"]
)
# case -> (command, graph file, error message), for the rules a graph file meets past its field and type checks
GRAPH_RULES = {
    "disconnected": (["h2"], k1_graph(["r", "a", "b"], [("r", "a")], ["r"]), "graph is not connected"),
    "two leader edges": (
        ["h2"],
        k1_graph(["r", "a", "b"], [("r", "a"), ("r", "b")], ["r"]),
        "leader 'r' has more than one edge",
    ),
    "no leader edge": (["h2"], k1_graph(["r"], [], ["r"]), "leaders with no attachment edge: ['r']"),
    "shared source": (
        ["h2"],
        k1_graph(["r1", "r2", "a"], [("r1", "a"), ("r2", "a")], ["r1", "r2"]),
        "two leaders share a source node",
    ),
    "no source": (["h2"], dict(RA, sources=[]), "graph has no source nodes"),
    "no source, oracle": (["h2", "--method", "oracle"], dict(RA, sources=[]), "graph has no source nodes"),
    "repeated source": (["h2"], REPEATED_SOURCE, "duplicate source ids"),
    "repeated source, bound": (["h2", "--method", "bound"], REPEATED_SOURCE, "duplicate source ids"),
    "repeated source, oracle": (["h2", "--method", "oracle"], REPEATED_SOURCE, "duplicate source ids"),
    "repeated source, check": (["check"], REPEATED_SOURCE, "duplicate source ids"),
    "unknown sink": (["decompose", "--source", "a", "--sink", "b"], RA, "terminal 'b' is not a node of the graph"),
    "sink is source": (["decompose", "--source", "a", "--sink", "a"], RA, "source and sink must differ"),
    "k = 17": (
        ["h2"],
        dict(RA, k=17, edges=[dict(RA["edges"][0], weight=np.eye(17).tolist())]),
        "dimension 17 exceeds supported maximum 16",
    ),
}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestH2Command:
    def test_oracle_unit_path(self, capsys):
        code, data = run_json(capsys, ["h2", "--graph", UNIT, "--method", "oracle"])
        assert code == 0
        assert data["total_h2_squared"] == pytest.approx(0.5)

    def test_exact_matches_oracle_on_demo(self, capsys):
        code, exact = run_json(capsys, ["h2", "--graph", DEMO, "--method", "exact"])
        assert code == 0
        code, oracle = run_json(capsys, ["h2", "--graph", DEMO, "--method", "oracle"])
        assert code == 0
        assert exact["total_h2_squared"] == pytest.approx(
            oracle["total_h2_squared"], rel=1e-9
        )
        for s, v in oracle["per_source"].items():
            assert exact["per_source"][s] == pytest.approx(v, rel=1e-9)

    def test_bound_dominates_exact(self, capsys):
        _, exact = run_json(capsys, ["h2", "--graph", DEMO, "--method", "exact"])
        _, bound = run_json(capsys, ["h2", "--graph", DEMO, "--method", "bound"])
        assert bound["total_h2_squared"] >= exact["total_h2_squared"] - 1e-9


class TestDecomposeCommand:
    def test_unit_path(self, capsys):
        code, tree = run_json(capsys, ["decompose", "--graph", UNIT, "--source", "s"])
        assert code == 0
        assert tree == {"format": "spnet-tree/2", "ops": [{"op": "leaf", "edge": "a"}]}

    def test_demo_source(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        g = load_graph(DEMO)
        code = run(["decompose", "--graph", DEMO, "--source", g.sources[0], "--out", str(out)])
        assert code == 0
        tree = json.loads(out.read_text())
        assert tree["format"] == "spnet-tree/2"
        kinds = [op["op"] for op in tree["ops"]]
        assert set(kinds) <= {"leaf", "series", "parallel"}
        assert kinds.count("leaf") == len(kinds) - kinds.count("leaf") + 1

    def test_k4_rejected(self, capsys):
        code = run(["decompose", "--graph", K4, "--source", "a", "--sink", "d"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, pinned",
    [(["h2", "--method", m], f"demo_h2_{m}.json") for m in ("exact", "bound")]
    + [(["decompose", "--source", s], f"demo_decompose_{s}.json") for s in ("s1", "s2", "s3")],
)
def test_demo_output_is_pinned(capsys, argv, pinned):
    # Byte for byte: exact H2 and the bound from the skeleton solve, and each
    # source's tree may not move a digit.
    assert run([argv[0], "--graph", DEMO, *argv[1:]]) == 0
    assert capsys.readouterr().out == (GOLDEN.parent / pinned).read_text()


@pytest.mark.parametrize("source", ["s1", "s2", "s3"])
def test_demo_resistance_is_pinned(capsys, source):
    # Every block of `resistance` on each demo source's pinned tree, to 1e-12
    # relative to the block's largest entry: solves may move it by roundoff only.
    tree = GOLDEN.parent / f"demo_decompose_{source}.json"
    code, got = run_json(capsys, ["resistance", "--graph", DEMO, "--tree", str(tree)])
    want = json.loads((GOLDEN.parent / f"demo_resistance_{source}.json").read_text())
    assert code == 0
    assert list(got) == list(want)
    for i, blocks in want.items():
        assert list(got[i]) == list(blocks) == ["resistance", "current", "voltage"]
        for name, block in blocks.items():
            a, b = np.array(got[i][name]), np.array(block)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (i, name)


class TestResistanceCommand:
    def test_unit_path_annotations(self, capsys, tmp_path):
        tree_path = tmp_path / "tree.json"
        assert run(["decompose", "--graph", UNIT, "--source", "s", "--out", str(tree_path)]) == 0
        code, data = run_json(capsys, ["resistance", "--graph", UNIT, "--tree", str(tree_path)])
        assert code == 0
        np.testing.assert_allclose(data["0"]["resistance"], [[1.0]])
        np.testing.assert_allclose(data["0"]["current"], [[1.0]])
        np.testing.assert_allclose(data["0"]["voltage"], [[1.0]])


class TestOptimizeCommand:
    def test_demo_run(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        weights_path = tmp_path / "weights.json"
        code = run(
            [
                "optimize",
                "--graph", DEMO,
                "--config", str(DATA / "demo_config.json"),
                "--out", str(csv_path),
                "--weights-out", str(weights_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,h2_squared,penalty,grad_norm"
        objectives = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert objectives[-1] < objectives[0]
        result = json.loads(weights_path.read_text())
        assert result["final_objective"] < result["initial_objective"]
        g = load_graph(DEMO)
        for eid, w in result["final_weights"].items():
            assert np.asarray(w).shape == (g.k, g.k)

    def test_demo_trajectory_is_pinned(self, tmp_path):
        # Refactors may move the demo run by roundoff only. grad_norm ends
        # near 1e-8, where roundoff is already 1e-8 relative, so it gets an
        # absolute bound.
        csv_path = tmp_path / "traj.csv"
        argv = ["optimize", "--graph", DEMO, "--config", str(DATA / "demo_config.json")]
        assert run(argv + ["--out", str(csv_path), "--weights-out", str(tmp_path / "w.json")]) == 0
        with open(GOLDEN) as f:
            want = list(csv.DictReader(f))
        with open(csv_path) as f:
            got = list(csv.DictReader(f))
        assert len(got) == len(want) == 70
        assert [row["iter"] for row in got] == [row["iter"] for row in want]
        for col in ("objective", "h2_squared", "penalty"):
            assert [float(row[col]) for row in got] == pytest.approx(
                [float(row[col]) for row in want], rel=1e-12, abs=0
            )
        assert [float(row["grad_norm"]) for row in got] == pytest.approx(
            [float(row["grad_norm"]) for row in want], rel=0, abs=1e-12
        )

    def test_unconverged_projection_exits_1(self, capsys, monkeypatch, tmp_path):
        # Tight boxes can keep Dykstra from meeting its stop rule; that is a
        # reported error, not a traceback.
        monkeypatch.setattr(spnet.matlin, "project_box", lambda x, lower, upper: (x, False))
        argv = ["optimize", "--graph", DEMO, "--config", str(DATA / "demo_config.json")]
        code = run(argv + ["--out", str(tmp_path / "t.csv"), "--weights-out", str(tmp_path / "w.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: box projection did not converge at step 1")
        assert "Traceback" not in err


class TestCheckCommand:
    def test_demo_passes(self, capsys):
        code, data = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 0
        assert data["ok"]
        assert data["max_relative_error"] <= 1e-9

    def test_long_ladder_passes(self, capsys, tmp_path):
        # The far rungs' Q blocks are ~1e-18, below the dense solve's
        # roundoff: Q and gradients are scaled per stack, not per block.
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(ladder_dict(np.random.default_rng(3), 2, 100)))
        code, data = run_json(capsys, ["check", "--graph", str(path), "--tol", "1e-9"])
        assert code == 0
        assert data["ok"]
        assert data["errors"]["leaf_voltages"] <= 1e-12
        assert data["errors"]["gradients"] <= 1e-12

    def test_impossible_tolerance_fails(self, capsys):
        code, data = run_json(capsys, ["check", "--graph", DEMO, "--tol", "1e-30"])
        assert code == 1
        assert not data["ok"]


    def test_one_dense_solve(self, capsys, monkeypatch):
        # The dense provider's one solve serves the H2^2 total as well as Q.
        import spnet.h2

        solves = []
        solve = spnet.h2.dense_solve
        monkeypatch.setattr(spnet.h2, "dense_solve", lambda g, sources: solves.append(g) or solve(g, sources))
        code, _ = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 0
        assert len(solves) == 1

    def test_negated_leaf_voltage_fails(self, capsys, monkeypatch):
        # Leaf voltages are compared in one orientation, so a single sign
        # flip in the compositional provider must fail the check.
        call = CompositionalProvider.__call__

        def negate_one(self, g):
            h2, q = call(self, g)
            q[0, 0] = -q[0, 0]
            return h2, q

        monkeypatch.setattr(CompositionalProvider, "__call__", negate_one)
        code, data = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 1
        assert data["errors"]["leaf_voltages"] == pytest.approx(2.0)

    def test_inflated_parallel_split_fails_flow_conservation(self, capsys, monkeypatch):
        # Each leaf a series join takes gets 1.01 W^-1: the sweeps still agree
        # with each other, on other weights, so only Kirchhoff's law can catch it.
        from spnet import electrical

        convert = electrical.leaf_resistances
        monkeypatch.setattr(electrical, "leaf_resistances", lambda w: 1.01 * convert(w))
        code, data = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 1
        assert data["errors"]["flow_conservation"] > 1e-3


def ill_conditioned_pair(e):
    """k = 2 graph data: L0 - s, two parallel s - t edges weighted R(theta) diag(10^-e, 10^e) R(theta)^T at
    theta = 30 and 75 degrees, each of condition number 10^2e while their sum's is 5.8, then t - L1."""

    def w(theta):
        r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        return ((r * [10.0**-e, 10.0**e]) @ r.T).tolist()

    eye = [[1.0, 0.0], [0.0, 1.0]]
    pairs = [("a0", "L0", "s", eye), ("p1", "s", "t", w(np.pi / 6)), ("p2", "s", "t", w(5 * np.pi / 12))]
    edges = [{"id": i, "tail": u, "head": v, "weight": x} for i, u, v, x in pairs + [("a1", "t", "L1", eye)]]
    return {"k": 2, "nodes": ["L0", "L1", "s", "t"], "leaders": ["L0", "L1"], "edges": edges}


@pytest.mark.parametrize("e", [5, 6])
class TestIllConditionedParallelPair:
    """Each child of the parallel join is handed the join's one voltage and
    makes its current as W V, so nothing is lost to W^-1."""

    def test_check_passes(self, capsys, tmp_path, e):
        graph = tmp_path / "pair.json"
        graph.write_text(json.dumps(ill_conditioned_pair(e)))
        code, data = run_json(capsys, ["check", "--graph", str(graph), "--tol", "1e-9"])
        assert code == 0 and data["ok"]
        assert data["errors"]["flow_conservation"] <= 1e-10

    def test_optimize_matches_dense_mode(self, capsys, tmp_path, e):
        data = ill_conditioned_pair(e)
        graph = tmp_path / "pair.json"
        graph.write_text(json.dumps(data))
        boxes = {x["id"]: {"L": (0.5 * np.array(x["weight"])).tolist(), "U": (2 * np.array(x["weight"])).tolist()}
                 for x in data["edges"] if x["id"][0] == "p"}
        runs = {}
        for mode in ("compositional", "dense"):
            config = tmp_path / f"{mode}.json"
            config.write_text(json.dumps({"penalty_h": 0.05, "max_iters": 5, "voltage_mode": mode, "bounds": boxes}))
            out, weights = tmp_path / f"{mode}.csv", tmp_path / f"{mode}_weights.json"
            argv = ["optimize", "--graph", str(graph), "--config", str(config), "--out", str(out)]
            assert run(argv + ["--weights-out", str(weights)]) == 0
            with open(out) as f:
                runs[mode] = [float(row["h2_squared"]) for row in csv.DictReader(f)], json.loads(weights.read_text())
        (comp_h2, comp), (dense_h2, dense) = runs["compositional"], runs["dense"]
        assert comp["final_objective"] == pytest.approx(dense["final_objective"], rel=1e-12)
        assert comp_h2 == pytest.approx(dense_h2, rel=1e-9)


class TestFileErrors:
    def test_malformed_json_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 1,\n  "nodes": [}\n')
        code = run(["h2", "--graph", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

    def test_asymmetric_weight_names_file_and_edge(self, capsys, tmp_path):
        data = json.loads(Path(DEMO).read_text())
        edge = data["edges"][3]
        edge["weight"][0][1] += 1e-3
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps(data))
        assert run(["h2", "--graph", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: edge {edge['id']!r} weight is not symmetric within tolerance\n"

    def test_asymmetric_upper_bound_names_file_and_edge(self, capsys, tmp_path):
        config = json.loads((DATA / "demo_config.json").read_text())
        eid = sorted(config["bounds"])[1]
        config["bounds"][eid]["U"][0][1] += 1e-3
        bad = tmp_path / "asym_config.json"
        bad.write_text(json.dumps(config))
        argv = ["optimize", "--graph", DEMO, "--config", str(bad), "--out", str(tmp_path / "t.csv")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: upper bound for edge {eid!r} is not symmetric within tolerance\n"

    def test_deep_json_is_one_error_line(self, capsys, tmp_path):
        # json.load recurses, and a tree file in the old nested format from a
        # 2000-edge path is about this deep too.
        graph = tmp_path / "deep_graph.json"
        graph.write_text('{"k": ' + "[" * 3000 + "]" * 3000 + "}")
        assert run(["h2", "--graph", str(graph)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {graph}: ") and err.count("\n") == 1
        tree = tmp_path / "deep_tree.json"
        tree.write_text('{"op": "series", "children": [' * 3000 + '{"op": "leaf", "edge": "a"}' + "]}" * 3000)
        assert run(["resistance", "--graph", UNIT, "--tree", str(tree)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_tree_file_is_named(self, capsys, tmp_path):
        # Which of the graph and tree files is stale shows only if the error names the tree file.
        tree = tmp_path / "stale_tree.json"
        leaf = {"op": "leaf", "edge": "a"}
        for data, msg in (
            ({"format": "spnet-tree/2", "ops": [{"op": "series"}, leaf, leaf]}, "tree op #2 uses edge 'a' twice"),
            ({"format": "spnet-tree/2", "ops": [{"op": "leaf", "edge": "zz"}]}, "unknown edge 'zz'"),
            (leaf, "not a spnet-tree/2 tree file"),
            ([leaf], "not a JSON object"),
        ):
            tree.write_text(json.dumps(data))
            assert run(["resistance", "--graph", UNIT, "--tree", str(tree)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {tree}: ") and msg in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, field, value, msg",
        [
            ("config", "bounds", [1], "'bounds' must map each edge id"),
            ("config", "bounds", {"a1": 5}, "'bounds' must map each edge id"),
            ("config", "penalty_h", None, "penalty_h must be a number, not NoneType"),
            ("config", "penalty_h", [1], "penalty_h must be a number, not list"),
            ("config", "penalty_h", True, "penalty_h must be a number, not bool"),
            ("config", "max_iters", "5", "max_iters must be an integer, not str"),
            ("config", "max_iters", 2.5, "max_iters must be an integer, not float"),
            ("config", "max_iters", False, "max_iters must be an integer, not bool"),
            ("config", "grad_tol", "x", "grad_tol must be a number, not str"),
            ("graph", "k", True, "k must be a positive integer"),
            ("graph", "nodes", "abc", "'nodes' must be an array"),
            ("graph", "edges", 3, "'edges' must be an array of objects"),
            ("graph", "edges", [5], "'edges' must be an array of objects"),
            ("graph", "leaders", 5, "'leaders' must be an array"),
            ("graph", "leaders", [["r1"]], "'leaders' must be an array"),
            ("graph", "sources", {"s1": 1}, "'sources' must be an array"),
            ("graph", "edge id", [1], "edge #0 id, tail and head must be strings or numbers"),
            ("graph", "edge tail", {"n": 1}, "edge #0 id, tail and head must be strings or numbers"),
            # Ids are compared as the strings they become, so 1 and "1" name one edge.
            ("graph", "edges", [dict(DUP, id=1), dict(DUP, id="1")], "duplicate edge id '1'"),
            ("config", "penalty_h", float("nan"), "penalty_h must be finite and positive"),
            ("config", "penalty_h", float("inf"), "penalty_h must be finite and positive"),
            ("config", "grad_tol", float("nan"), "grad_tol must be a number, not NaN"),
            ("graph", "k", MISSING, "missing field 'k'"),
            ("config", "penalty_h", MISSING, "missing field 'penalty_h'"),
            ("graph", "nodes", ["r1", "r2", "r3", "s1", "s2", "s3", "m1", "m2", "m1"], "duplicate node ids"),
            ("graph", "leaders", ["r1", "nowhere"], "leader set contains unknown nodes"),
            ("graph", "sources", ["s1", "nowhere"], "unknown source nodes ['nowhere']"),
            ("graph", "sources", ["s1", "r2"], "a source node cannot be a leader"),
            ("graph", "sources", ["s1", "s2", "s1"], "duplicate source ids"),
        ],
    )
    def test_wrongly_typed_field_is_one_error_line(self, capsys, tmp_path, kind, field, value, msg):
        data = {
            "graph": json.loads(Path(DEMO).read_text()),
            "config": json.loads((DATA / "demo_config.json").read_text()),
        }
        if field.startswith("edge "):
            data[kind]["edges"][0][field.split()[1]] = value
        elif value is MISSING:
            del data[kind][field]
        else:
            data[kind][field] = value
        paths = {name: tmp_path / f"{name}.json" for name in data}
        for name, path in paths.items():
            path.write_text(json.dumps(data[name]))
        argv = ["optimize", "--graph", str(paths["graph"]), "--config", str(paths["config"])]
        assert run(argv + ["--out", str(tmp_path / "t.csv"), "--weights-out", str(tmp_path / "w.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[kind]}: ") and msg in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", list(GRAPH_RULES))
    def test_rule_a_graph_file_breaks_is_one_error_line(self, capsys, tmp_path, case):
        argv, graph, msg = GRAPH_RULES[case]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        assert run([argv[0], "--graph", str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{msg}\n") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        assert run(["h2", "--graph", "/no/such/file.json"]) == 1

    def test_shape_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad_shape.json"
        bad.write_text(
            json.dumps(
                {
                    "k": 2,
                    "nodes": ["a", "b"],
                    "edges": [{"id": "e", "tail": "a", "head": "b", "weight": [[1.0]]}],
                }
            )
        )
        code = run(["h2", "--graph", str(bad)])
        assert code == 1
        assert "2x2" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, msg",
        [
            (["h2"], "the following arguments are required: --graph"),
            (["h2", "--graph", DEMO, "--method", "nope"], "argument --method: invalid choice: 'nope'"),
            (["check", "--graph", DEMO, "--tol", "nan"], "--tol must be a non-negative number, not nan"),
            (["check", "--graph", DEMO, "--tol", "-1"], "--tol must be a non-negative number, not -1.0"),
        ],
    )
    def test_is_one_error_line(self, capsys, argv, msg):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {msg}") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["h2", "--help"])
        assert info.value.code == 0
        assert "usage: spnet h2" in capsys.readouterr().out

    def test_infinite_tolerance_passes(self, capsys):
        code, data = run_json(capsys, ["check", "--graph", DEMO, "--tol", "inf"])
        assert code == 0 and data["ok"]


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        g = load_graph(DEMO)
        path = tmp_path / "copy.json"
        save_graph(g, path)
        g2 = load_graph(str(path))
        assert graph_to_dict(g) == graph_to_dict(g2)

    def test_dict_round_trip(self):
        g = load_graph(UNIT)
        assert graph_to_dict(graph_from_dict(graph_to_dict(g))) == graph_to_dict(g)


class TestDemoFixtureScript:
    """``scripts/make_demo_fixture.py`` writes the bundled fixtures, and only
    when called without arguments."""

    @staticmethod
    def load(monkeypatch, out_dir):
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_fixture.py"
        spec = importlib.util.spec_from_file_location("make_demo_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "DATA_DIR", out_dir)
        return module

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
    def test_options_exit_without_writing(self, monkeypatch, tmp_path, capsys, argv, code):
        script = self.load(monkeypatch, tmp_path / "data")
        with pytest.raises(SystemExit) as info:
            script.main(argv)
        assert info.value.code == code
        assert "usage: " in capsys.readouterr()[code != 0]
        assert not (tmp_path / "data").exists()

    def test_rewrites_the_bundled_fixtures_byte_identically(self, monkeypatch, tmp_path):
        self.load(monkeypatch, tmp_path).main([])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in DATA.glob("*.json"))
        for p in tmp_path.iterdir():
            assert p.read_bytes() == (DATA / p.name).read_bytes()
