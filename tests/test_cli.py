import json
from pathlib import Path

import numpy as np
import pytest

import spnet
from spnet.cli import run
from spnet.fileio import graph_from_dict, graph_to_dict, load_graph, save_graph
from spnet.h2 import CompositionalProvider

DATA = Path(spnet.__file__).parent / "data"
DEMO = str(DATA / "demo_graph.json")
UNIT = str(DATA / "unit_path.json")
K4 = str(DATA / "k4.json")


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
        assert tree == {"op": "leaf", "edge": "a"}

    def test_demo_source(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        g = load_graph(DEMO)
        code = run(["decompose", "--graph", DEMO, "--source", g.sources[0], "--out", str(out)])
        assert code == 0
        tree = json.loads(out.read_text())
        assert tree["op"] in ("leaf", "series", "parallel")

    def test_k4_rejected(self, capsys):
        code = run(["decompose", "--graph", K4, "--source", "a", "--sink", "d"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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


class TestCheckCommand:
    def test_demo_passes(self, capsys):
        code, data = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 0
        assert data["ok"]
        assert data["max_relative_error"] <= 1e-9

    def test_impossible_tolerance_fails(self, capsys):
        code, data = run_json(capsys, ["check", "--graph", DEMO, "--tol", "1e-30"])
        assert code == 1
        assert not data["ok"]


    def test_negated_leaf_voltage_fails(self, capsys, monkeypatch):
        # Leaf voltages are compared in one orientation, so a single sign
        # flip in the compositional provider must fail the check.
        read = CompositionalProvider.read

        def negate_one(self, solutions):
            h2, q = read(self, solutions)
            per_edge = next(iter(q.values()))
            eid = next(iter(per_edge))
            per_edge[eid] = -per_edge[eid]
            return h2, q

        monkeypatch.setattr(CompositionalProvider, "read", negate_one)
        code, data = run_json(capsys, ["check", "--graph", DEMO])
        assert code == 1
        assert data["errors"]["leaf_voltages"] == pytest.approx(2.0)


class TestFileErrors:
    def test_malformed_json_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 1,\n  "nodes": [}\n')
        code = run(["h2", "--graph", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

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
