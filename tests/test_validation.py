"""Input checks run once per stack, where the input enters the program.

The equivalence tests keep a copy of the per-matrix checks that ran before
(one ``as_symmetric`` and one eigenvalue SPD test per edge weight, and per
box that SPD test on L and a ``loewner_leq``, with the SPD test's own
absolute symmetry rule) and compare the stacked checks with them: same exception
type, an edge named by the old message still named, and any edge named is
the one the old loop stopped at. Valid weights are stored bit for bit as
the old checks stored them.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_spd
from spnet import matlin
from spnet.errors import GraphValidationError, InfeasibleBoundsError
from spnet.graph import make_graph
from spnet.optimize import OptConfig
from spnet.sptree import leaf

SYM_RTOL, BOX_TOL, MAX_DIM = matlin.SYM_RTOL, matlin.BOX_TOL, matlin.MAX_DIM


def ref_as_symmetric(m, rtol=SYM_RTOL):
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds supported maximum {MAX_DIM}")
    mt = m.swapaxes(-1, -2)
    if np.abs(m - mt).max() > rtol * np.abs(m).max():
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (m + mt)


def ref_spd(m, tol=0.0):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if np.abs(m - m.T).max() > SYM_RTOL * max(np.abs(m).max(), 1.0):
        return False
    return float(np.linalg.eigvalsh(0.5 * (m + m.T)).min()) > tol


def ref_loewner_leq(a, b, tol=BOX_TOL):
    a, b = ref_as_symmetric(a), ref_as_symmetric(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.eigvalsh(b - a).min()) >= -tol


def ref_edge_weights(k, edges):
    """make_graph's old weight loop: (stored weights, None) or (None, (exception, edge id))."""
    stored = []
    for eid, _, _, w in edges:
        try:
            w = ref_as_symmetric(w)
            if w.shape[0] != k:
                raise GraphValidationError(f"edge {eid!r} weight has dim {w.shape[0]}, expected {k}")
            if not ref_spd(w):
                raise GraphValidationError(f"edge {eid!r} weight is not strictly SPD")
        except ValueError as exc:
            return None, (exc, eid)
        stored.append(w)
    return stored, None


def ref_box_fault(bounds):
    """OptConfig's old box loop: None, or (exception, edge id)."""
    for eid, (lo, up) in bounds.items():
        try:
            if not ref_spd(np.asarray(lo, dtype=float)):
                raise ValueError(f"lower bound for edge {eid!r} is not strictly SPD")
            if not ref_loewner_leq(lo, up):
                raise ValueError(f"bounds for edge {eid!r} are infeasible")
        except ValueError as exc:
            return exc, eid
    return None


def named_edge(exc):
    found = re.search(r"edge '([^']*)'", str(exc))
    return found and found[1]


def assert_same_fault(new, ref):
    old, eid = ref
    assert type(new) is type(old), (new, old)
    assert named_edge(new) in (None, eid), (new, old)
    if named_edge(old) is not None:
        assert named_edge(new) == eid, (new, old)


def small_spd(rng, k):
    """SPD with its largest entry below 1, where the old absolute and the
    relative symmetry rules disagree."""
    return random_spd(rng, k, 0.01, 0.1)


def nudge(m, rel):
    """``m`` with its (0, 1) entry moved by ``rel`` times SYM_RTOL times its largest entry."""
    m = m.copy()
    m[0, 1] += rel * SYM_RTOL * np.abs(m).max()
    return m


def indefinite(rng, k):
    m = random_spd(rng, k)  # eigenvalues in [0.5, 2], so e0' M e0 turns negative
    m[0, 0] -= 2.5
    return m


WEIGHT_FAULTS = {
    "none": lambda rng, k: random_spd(rng, k),
    "small": lambda rng, k: small_spd(rng, k),
    "asymmetric": lambda rng, k: nudge(random_spd(rng, k), 1e9),
    "asymmetric at the rule's edge": lambda rng, k: nudge(small_spd(rng, k), 2.0),
    "symmetric at the rule's edge": lambda rng, k: nudge(small_spd(rng, k), 0.5),
    "not SPD": indefinite,
    "negative definite": lambda rng, k: -random_spd(rng, k),
    "wrong dimension": lambda rng, k: random_spd(rng, k + 1),
    "not square": lambda rng, k: np.ones((k, k + 1)),
}
NEEDS_K2 = {"asymmetric", "asymmetric at the rule's edge", "symmetric at the rule's edge"}  # 1x1 is symmetric


def path_edges(weights):
    return [(f"e{i}", f"v{i}", f"v{i + 1}", w) for i, w in enumerate(weights)]


def check_make_graph(seed, k, n, fault, at):
    rng = np.random.default_rng(seed)
    weights = [random_spd(rng, k) for _ in range(n)]
    weights[at] = WEIGHT_FAULTS[fault](rng, k)
    edges = path_edges(weights)
    nodes = [f"v{i}" for i in range(n + 1)]
    stored, ref = ref_edge_weights(k, edges)
    if ref is not None:
        with pytest.raises(ValueError) as info:
            make_graph(k, nodes, edges)
        assert_same_fault(info.value, ref)
        return
    g = make_graph(k, nodes, edges)
    assert [w.tobytes() for w in g.weights] == [w.tobytes() for w in stored]


@pytest.mark.parametrize(
    "k, fault", [(k, f) for k in (1, 3, 16) for f in sorted(WEIGHT_FAULTS) if k > 1 or f not in NEEDS_K2]
)
def test_make_graph_matches_per_edge_checks(k, fault):
    for seed, (n, at) in enumerate([(1, 0), (5, 0), (5, 2), (5, 4)]):
        check_make_graph(seed, k, n, fault, at)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 16]), st.integers(1, 6), st.data())
def test_make_graph_matches_per_edge_checks_anywhere(seed, k, n, data):
    fault = data.draw(st.sampled_from(sorted(WEIGHT_FAULTS)))
    assume(k > 1 or fault not in NEEDS_K2)
    check_make_graph(seed, k, n, fault, data.draw(st.integers(0, n - 1)))


BOX_FAULTS = {
    "none": lambda rng, lo: (lo, lo + random_spd(rng, len(lo), 0.1, 0.5)),
    "point box": lambda rng, lo: (lo, lo),
    "gap of +BOX_TOL/2": lambda rng, lo: (lo, lo + 0.5 * BOX_TOL * np.eye(len(lo))),
    "gap of -BOX_TOL/2": lambda rng, lo: (lo, lo - 0.5 * BOX_TOL * np.eye(len(lo))),
    "gap of -3 BOX_TOL/2": lambda rng, lo: (lo, lo - 1.5 * BOX_TOL * np.eye(len(lo))),
    "empty box": lambda rng, lo: (lo, lo - 1e-3 * np.eye(len(lo))),
    "lower not SPD": lambda rng, lo: (indefinite(rng, len(lo)), lo),
    "lower asymmetric": lambda rng, lo: (nudge(lo, 1e9), 2 * lo),
    "lower asymmetric at the rule's edge": lambda rng, lo: (nudge(lo, 2.0), 2 * lo),
    "lower symmetric at the rule's edge": lambda rng, lo: (nudge(lo, 0.5), 2 * lo),
    "upper asymmetric at the rule's edge": lambda rng, lo: (lo, nudge(2 * lo, 2.0)),
    "upper symmetric at the rule's edge": lambda rng, lo: (lo, nudge(2 * lo, 0.5)),
    "lower of wrong dimension": lambda rng, lo: (random_spd(rng, len(lo) + 1), 2 * lo),
    "upper not square": lambda rng, lo: (lo, np.ones((len(lo), len(lo) + 1))),
}
BOX_NEEDS_K2 = {name for name in BOX_FAULTS if "asymmetric" in name or "symmetric at" in name}


def check_opt_config(seed, k, n, fault, at):
    rng = np.random.default_rng(seed)
    bounds = {f"e{i}": BOX_FAULTS["none"](rng, small_spd(rng, k)) for i in range(n)}
    bounds[f"e{at}"] = BOX_FAULTS[fault](rng, small_spd(rng, k))
    ref = ref_box_fault(bounds)
    if ref is None:
        OptConfig(penalty_h=1.0, bounds=bounds)
    else:
        with pytest.raises(ValueError) as info:
            OptConfig(penalty_h=1.0, bounds=bounds)
        assert_same_fault(info.value, ref)


@pytest.mark.parametrize(
    "k, fault", [(k, f) for k in (1, 3, 16) for f in sorted(BOX_FAULTS) if k > 1 or f not in BOX_NEEDS_K2]
)
def test_opt_config_matches_per_box_checks(k, fault):
    for seed, (n, at) in enumerate([(1, 0), (5, 0), (5, 2), (5, 4)]):
        check_opt_config(seed, k, n, fault, at)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 16]), st.integers(1, 6), st.data())
def test_opt_config_matches_per_box_checks_anywhere(seed, k, n, data):
    fault = data.draw(st.sampled_from(sorted(BOX_FAULTS)))
    assume(k > 1 or fault not in BOX_NEEDS_K2)
    check_opt_config(seed, k, n, fault, data.draw(st.integers(0, n - 1)))


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    return calls


@pytest.mark.parametrize("n", [3, 300])
def test_one_symmetric_check_per_call(monkeypatch, rng, n):
    weights = [random_spd(rng, 3) for _ in range(n)]
    bounds = {f"e{i}": (0.5 * w, 2.0 * w) for i, w in enumerate(weights)}
    # One symmetry check and one factorization per stack: the weights' in make_graph, then L's
    # and U's in OptConfig, as_symmetric then has_cholesky on L, and U's factorization is the box rule's.
    sym = count_calls(monkeypatch, matlin, "is_symmetric")
    chol = count_calls(monkeypatch, matlin, "has_cholesky")
    box = count_calls(monkeypatch, matlin, "box_nonempty")
    make_graph(3, [f"v{i}" for i in range(n + 1)], path_edges(weights))
    assert (len(sym), len(chol), len(box)) == (1, 1, 0)
    OptConfig(penalty_h=1.0, bounds=bounds)
    assert (len(sym), len(chol), len(box)) == (3, 3, 1)


class TestOneSymmetryRule:
    def test_spd_rule_uses_the_relative_rule(self, rng):
        # The old SPD test measured asymmetry against max(|M|, 1), so this
        # small matrix passed it although as_symmetric rejects it.
        m = nudge(small_spd(rng, 3), 2.0)
        with pytest.raises(ValueError, match="not symmetric"):
            matlin.as_symmetric(m)
        assert not matlin.is_symmetric(m)
        with pytest.raises(ValueError, match="leaf weight for edge 'e' is not symmetric within tolerance"):
            leaf("e", m)
        assert matlin.has_cholesky(matlin.as_symmetric(nudge(small_spd(rng, 3), 0.5)))

    def test_stack_gives_one_bool_per_matrix(self, rng):
        m = np.array([random_spd(rng, 3), -random_spd(rng, 3), nudge(random_spd(rng, 3), 1e9), random_spd(rng, 3)])
        assert matlin.is_symmetric(m).tolist() == [True, True, False, True]
        with pytest.raises(ValueError, match="matrix 2 is not symmetric"):
            matlin.as_symmetric(m, describe=lambda i: f"matrix {i}")
        spd = [True, False, True]
        assert matlin.has_cholesky(matlin.as_symmetric(m[[0, 1, 3]])).tolist() == spd
        assert [bool(matlin.has_cholesky(matlin.as_symmetric(a))) for a in m[[0, 1, 3]]] == spd

    def test_asymmetric_lower_bound_is_named(self):
        with pytest.raises(ValueError, match="^lower bound for edge 'e' is not symmetric within tolerance$"):
            OptConfig(penalty_h=1.0, bounds={"e": ([[1.0, 0.1], [0.0, 1.0]], 2 * np.eye(2))})

    def test_asymmetric_leaf_weight_is_named(self):
        with pytest.raises(ValueError, match="^leaf weight for edge 'a' is not symmetric within tolerance$"):
            leaf("a", [[1.0, 0.1], [0.0, 1.0]])

    def test_first_bad_edge_is_named(self, rng):
        weights = [random_spd(rng, 2) for _ in range(6)]
        weights[2] = weights[4] = -weights[2]
        with pytest.raises(GraphValidationError, match="edge 'e2'"):
            make_graph(2, [f"v{i}" for i in range(7)], path_edges(weights))
        bounds = {f"e{i}": (w, w) for i, w in enumerate(random_spd(rng, 2) for _ in range(6))}
        for eid in ("e3", "e5"):
            bounds[eid] = (bounds[eid][0], bounds[eid][0] - 1e-3 * np.eye(2))
        with pytest.raises(ValueError, match="edge 'e3' are infeasible"):
            OptConfig(penalty_h=1.0, bounds=bounds)


class TestCholeskyRules:
    """Where the factorization rules sit on the eigenvalue boundary, and non-finite input."""

    def test_singular_weight_is_refused(self):
        # The eigenvalue rule refuses the singular PSD weight and accepts diag(1, 1e-300) too.
        eye, singular, tiny = np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 1e-300])
        assert not ref_spd(singular) and ref_spd(tiny)
        assert matlin.has_cholesky(matlin.as_symmetric([tiny, singular, tiny])).tolist() == [True, False, True]
        edges = path_edges([eye, singular, eye])
        with pytest.raises(GraphValidationError, match="edge 'e1' weight is not strictly SPD"):
            make_graph(2, [f"v{i}" for i in range(4)], edges)
        with pytest.raises(ValueError, match="not strictly SPD"):
            leaf("e", singular)
        g = make_graph(2, [f"v{i}" for i in range(4)], path_edges([eye, tiny, eye]))
        assert g.weights[1].tobytes() == tiny.tobytes()
        leaf("e", tiny)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_non_finite_weight_is_refused(self, value, where):
        m = np.array([[2.0, 0.0], [0.0, 3.0]])
        m[where] = m[where[::-1]] = value
        assert not matlin.has_cholesky(matlin.as_symmetric(m))
        assert matlin.has_cholesky(matlin.as_symmetric([np.eye(2), m])).tolist() == [True, False]
        with pytest.raises(ValueError, match="leaf weight for edge 'e' is not strictly SPD"):
            leaf("e", m)

    @pytest.mark.parametrize("gap, ok", [(0.0, True), (-0.5, True), (-2.0, False)])
    def test_box_at_the_tolerance(self, rng, gap, ok):
        # A point box, U a half BOX_TOL below L, and U two BOX_TOL below L.
        lo = random_spd(rng, 3)
        up = lo + gap * BOX_TOL * np.eye(3)
        if ok:
            OptConfig(penalty_h=1.0, bounds={"e": (lo, up)})
            matlin.project_box(lo, lo, up)
            return
        with pytest.raises(ValueError, match="bounds for edge 'e' are infeasible"):
            OptConfig(penalty_h=1.0, bounds={"e": (lo, up)})
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(lo, lo, up)

    def test_first_of_two_empty_boxes_is_named(self, rng):
        bounds = {f"e{i}": (w, w) for i, w in enumerate(random_spd(rng, 2) for _ in range(6))}
        for eid in ("e2", "e4"):  # the 3rd and the 5th
            bounds[eid] = (bounds[eid][0], bounds[eid][0] - 2 * BOX_TOL * np.eye(2))
        with pytest.raises(ValueError, match="bounds for edge 'e2' are infeasible"):
            OptConfig(penalty_h=1.0, bounds=bounds)
        lo, up = (np.array(side) for side in zip(*bounds.values()))
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(lo, lo, up)
