import re

import numpy as np
import pytest

from helpers import enumerate_sptrees, random_sptree, root_resistance
from spnet.electrical import solve_tree
from spnet.errors import NotSeriesParallelError
from spnet.graph import make_graph
from spnet.h2 import h2_scalar_bound
from spnet.sptree import (
    Leaf,
    Parallel,
    Series,
    check_height_bounds,
    flatten,
    from_json,
    leaf,
    parallel,
    realize,
    recognize,
    series,
    stats,
    to_json,
)

I1 = np.eye(1)

# Every whole-tree reader: each checks the tree once, through ``flatten`` or ``to_json``.
READERS = pytest.mark.parametrize(
    "reader", [flatten, solve_tree, h2_scalar_bound, stats, realize, to_json], ids=lambda f: f.__name__
)


def unit_leaf(eid):
    return leaf(eid, I1)


class TestConstructors:
    def test_series_counts(self):
        t = series(unit_leaf("a"), unit_leaf("b"))
        st = stats(t)
        assert (st.leaves, st.series, st.parallel, st.height) == (2, 1, 0, 1)

    def test_parallel_counts(self):
        t = parallel(unit_leaf("a"), unit_leaf("b"))
        st = stats(t)
        assert (st.leaves, st.series, st.parallel, st.height) == (2, 0, 1, 1)

    @READERS
    def test_dimension_mismatch(self, reader):
        t = series(unit_leaf("a"), leaf("b", np.eye(2)))  # a join checks nothing
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: 1 vs 2")):
            reader(t)

    @READERS
    def test_duplicate_edge_id(self, reader):
        t = parallel(unit_leaf("a"), unit_leaf("a"))
        with pytest.raises(ValueError, match=re.escape("duplicate leaf edge ids ['a']")):
            reader(t)

    def test_non_spd_leaf(self):
        with pytest.raises(ValueError):
            leaf("a", np.array([[0.0]]))

    @pytest.mark.parametrize("weight", [np.stack([np.eye(2), np.eye(2)]), np.ones(3), 1.0, [[[1.0]]]])
    def test_leaf_weight_is_one_matrix(self, weight):
        shape = re.escape(str(np.shape(weight)))
        with pytest.raises(ValueError, match=f"^leaf weight for edge 'a': expected a square matrix, got shape {shape}$"):
            leaf("a", weight)


class TestStats:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: unit_leaf("a"), (1, 0, 0, 0, 2)),
            (lambda: series(unit_leaf("a"), unit_leaf("b")), (2, 1, 0, 1, 3)),
            (lambda: parallel(unit_leaf("a"), unit_leaf("b")), (2, 0, 1, 1, 2)),
        ],
    )
    def test_small_cases(self, build, expected):
        st = stats(build())
        assert (st.leaves, st.series, st.parallel, st.height, st.nodes) == expected

    def test_join_counts_sum_to_leaves_minus_one(self, rng):
        for _ in range(50):
            t = random_sptree(rng, 1, int(rng.integers(1, 12)))
            st = stats(t)
            assert st.parallel + st.series == st.leaves - 1


class TestHeightBounds:
    def test_parallel_pair_tight(self):
        assert check_height_bounds(parallel(unit_leaf("a"), unit_leaf("b")))

    def test_series_comb_upper_bound_tight(self):
        t = unit_leaf("e0")
        for i in range(1, 5):
            t = series(t, unit_leaf(f"e{i}"))
        st = stats(t)
        assert st.height == st.leaves - 1 == 4
        assert check_height_bounds(t)

    def test_exhaustive_small_trees(self):
        for n in range(1, 7):
            for t in enumerate_sptrees(n):
                assert check_height_bounds(t)


class TestRealize:
    def test_leaf(self):
        g, src, snk = realize(unit_leaf("a"))
        assert len(g.nodes) == 2 and len(g.edges) == 1
        assert {src, snk} == set(g.nodes)

    def test_triangle(self):
        t = parallel(unit_leaf("a"), series(unit_leaf("b"), unit_leaf("c")))
        g, src, snk = realize(t)
        assert len(g.nodes) == 3 and len(g.edges) == 3

    def test_node_count_matches_stats(self, rng):
        for _ in range(30):
            t = random_sptree(rng, 2, int(rng.integers(1, 10)))
            g, _, _ = realize(t)
            assert len(g.nodes) == stats(t).nodes


class TestRecognize:
    def test_single_edge(self):
        g, src, snk = realize(unit_leaf("a"))
        t = recognize(g, src, snk)
        assert isinstance(t, Leaf) and t.edge == "a"

    def test_triangle(self):
        t0 = parallel(unit_leaf("a"), series(unit_leaf("b"), unit_leaf("c")))
        g, src, snk = realize(t0)
        t = recognize(g, src, snk)
        assert isinstance(t, Parallel)
        kinds = sorted(type(c).__name__ for c in (t.left, t.right))
        assert kinds == ["Leaf", "Series"]

    def test_k4_rejected(self):
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        g = make_graph(
            1, ["a", "b", "c", "d"], [(f"e{i}", u, v, I1) for i, (u, v) in enumerate(pairs)]
        )
        with pytest.raises(NotSeriesParallelError):
            recognize(g, "a", "d")

    def test_round_trip_preserves_resistance(self, rng):
        for _ in range(30):
            t = random_sptree(rng, 2, int(rng.integers(1, 12)))
            g, src, snk = realize(t)
            t2 = recognize(g, src, snk)
            r1 = root_resistance(t)
            r2 = root_resistance(t2)
            np.testing.assert_allclose(r1, r2, atol=1e-10)

    def test_leaf_orientation_matches_flow(self, rng):
        # Recovered leaves carry oriented endpoints; both must be real nodes.
        t = random_sptree(rng, 1, 6)
        g, src, snk = realize(t)
        t2 = recognize(g, src, snk)
        from spnet.sptree import leaves

        for lf in leaves(t2):
            assert lf.tail in g.nodes and lf.head in g.nodes


@pytest.mark.parametrize("join", [series, parallel])
@pytest.mark.parametrize("lean", ["left", "right"])
def test_comb(join, lean):
    """A 2000-leaf comb, the tree of height l - 1, built one join at a time."""
    n = 2000
    t = unit_leaf("e0")
    for i in range(1, n):
        t = join(t, unit_leaf(f"e{i}")) if lean == "left" else join(unit_leaf(f"e{i}"), t)
    want = n * I1 if join is series else I1 / n
    np.testing.assert_allclose(solve_tree(t)[0][0], want, rtol=1e-12, atol=0)
    g, _, _ = realize(t)
    assert len(g.edges) == n and len(g.nodes) == (n + 1 if join is series else 2)
    assert to_json(from_json(to_json(t), g)) == to_json(t)


class TestJson:
    def test_round_trip(self, rng):
        t = random_sptree(rng, 2, 7)
        g, _, _ = realize(t)
        data = to_json(t)
        t2 = from_json(data, g)
        assert to_json(t2) == data
        np.testing.assert_allclose(
            root_resistance(t), root_resistance(t2), atol=1e-12
        )
