import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_psd, random_spd
from spnet import matlin
from spnet.errors import InfeasibleBoundsError


class TestParallelAdd:
    def test_scalar(self):
        out = matlin.parallel_add(np.array([[2.0]]), np.array([[3.0]]))
        assert out == pytest.approx(np.array([[1.2]]))

    def test_identity_pair(self):
        out = matlin.parallel_add(np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, 0.5 * np.eye(2))

    def test_matches_harmonic_mean_oracle(self, rng):
        # Independent oracle: direct dense inversion of the sum of inverses.
        for _ in range(20):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            expected = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
            np.testing.assert_allclose(matlin.parallel_add(a, b), expected, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matlin.parallel_add(np.eye(2), np.eye(3))

    def test_asymmetry_rejected(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            matlin.parallel_add(m, np.eye(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_commutative(self, seed, k):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, k), random_spd(rng, k)
        np.testing.assert_allclose(matlin.parallel_add(a, b), matlin.parallel_add(b, a), rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_associative(self, seed, k):
        rng = np.random.default_rng(seed)
        a, b, c = (random_spd(rng, k) for _ in range(3))
        lhs = matlin.parallel_add(matlin.parallel_add(a, b), c)
        rhs = matlin.parallel_add(a, matlin.parallel_add(b, c))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_below_both_arguments(self, seed, k):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, k), random_spd(rng, k)
        p = matlin.parallel_add(a, b)
        assert matlin.loewner_leq(p, a, tol=1e-10)
        assert matlin.loewner_leq(p, b, tol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_trace_inequality(self, seed, k):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, k), random_spd(rng, k)
        lhs = np.trace(matlin.parallel_add(a, b))
        rhs = np.trace(a) * np.trace(b) / (np.trace(a) + np.trace(b))
        assert lhs <= rhs + 1e-10

    def test_trace_equality_in_proportional_case(self, rng):
        for c in (0.5, 1.0, 2.0):
            a = random_spd(rng, 3)
            b = c * a
            lhs = np.trace(matlin.parallel_add(a, b))
            rhs = np.trace(a) * np.trace(b) / (np.trace(a) + np.trace(b))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(matlin.pinv(np.eye(3)), np.eye(3))

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(matlin.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_defining_property(self, rng):
        m = random_spd(rng, 4)
        np.testing.assert_allclose(m @ matlin.pinv(m), np.eye(4), atol=1e-10)

    def test_involutive_on_spd(self, rng):
        m = random_spd(rng, 3)
        np.testing.assert_allclose(matlin.pinv(matlin.pinv(m)), m, rtol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matlin.pinv(np.diag([1.0, -1.0]))


class TestLoewner:
    def test_identity_ordering(self):
        assert matlin.loewner_leq(np.eye(2), 2 * np.eye(2))
        assert not matlin.loewner_leq(2 * np.eye(2), np.eye(2))

    def test_indefinite_difference(self):
        assert not matlin.loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matlin.loewner_leq(np.eye(2), np.eye(3))


class TestProjectBox:
    def test_interior_point_unchanged(self, rng):
        x = random_spd(rng, 2, lo=1.0, hi=2.0)
        y, ok = matlin.project_box(x, 0.5 * np.eye(2), 3 * np.eye(2))
        assert ok
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_scalar_clamp(self):
        y, ok = matlin.project_box(np.array([[3.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert ok
        assert y == pytest.approx(np.array([[2.0]]), abs=1e-10)

    def test_point_constraint(self, rng):
        w = random_spd(rng, 2)
        y, ok = matlin.project_box(random_spd(rng, 2) + 5 * np.eye(2), w, w)
        assert ok
        np.testing.assert_allclose(y, w, atol=1e-9)

    def test_infeasible_bounds(self):
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(np.eye(2), 2 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2, 2)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="^expected a square matrix or a stack of them"):
            matlin.project_box(*np.ones((3, *shape)))

    def test_output_satisfies_bounds(self, rng):
        for _ in range(10):
            lo = random_spd(rng, 3, lo=0.2, hi=0.5)
            up = lo + random_spd(rng, 3, lo=1.0, hi=2.0)
            x = 0.5 * (np.random.default_rng(0).standard_normal((3, 3)))
            x = x + x.T
            y, ok = matlin.project_box(x, lo, up)
            assert ok
            assert matlin.loewner_leq(lo, y, tol=1e-8)
            assert matlin.loewner_leq(y, up, tol=1e-8)

    def test_optimality_against_random_feasible_points(self, rng):
        # Oracle: no randomly sampled feasible point may be closer to X.
        k = 2
        lo = random_spd(rng, k, lo=0.2, hi=0.5)
        up = lo + random_spd(rng, k, lo=1.5, hi=2.5)
        x = 4.0 * np.eye(k) + random_spd(rng, k)
        y, ok = matlin.project_box(x, lo, up)
        assert ok
        dist = np.linalg.norm(y - x, "fro")
        gap_sqrt = np.linalg.cholesky(up - lo)
        for _ in range(1000):
            c = random_psd(rng, k, hi=1.0)
            z = lo + gap_sqrt @ c @ gap_sqrt.T
            assert dist <= np.linalg.norm(z - x, "fro") + 1e-9


def box_stack(rng, n, k):
    """(X, L, U) stacks mixing tight boxes, with X far outside, and wide ones
    holding X inside, so rows need different numbers of Dykstra iterations."""
    xs, los, ups = [], [], []
    for i in range(n):
        lo = random_spd(rng, k, 0.5, 2.0)
        if i % 3:
            up = lo + random_spd(rng, k, 0.01, 0.2)
            d = rng.standard_normal((k, k))
            x = 0.5 * (lo + up) + 0.1 * (d + d.T) / np.sqrt(k)
        else:
            up = lo + random_spd(rng, k, 5.0, 6.0)
            x = lo + random_spd(rng, k, 0.5, 1.0)
        xs.append(x)
        los.append(lo)
        ups.append(up)
    return np.array(xs), np.array(los), np.array(ups)


class TestProjectBoxStack:
    @staticmethod
    def iterations(monkeypatch, x, lo, up):
        """Dykstra iterations of one call: each iteration clips twice."""
        calls = []
        clip = matlin.psd_part
        monkeypatch.setattr(matlin, "psd_part", lambda m: calls.append(1) or clip(m))
        matlin.project_box(x, lo, up)
        monkeypatch.setattr(matlin, "psd_part", clip)
        return len(calls) // 2

    @pytest.mark.parametrize("k", [1, 3, 4, 16])
    def test_rows_match_one_matrix_calls(self, rng, monkeypatch, k):
        x, lo, up = box_stack(rng, 9, k)
        y, ok = matlin.project_box(x, lo, up)
        assert ok is True
        assert y.shape == x.shape
        for row, args in zip(y, zip(x, lo, up)):
            single, single_ok = matlin.project_box(*args)
            assert single_ok
            assert np.abs(row - single).max() <= 1e-13 * np.abs(single).max()
        if k > 1:
            counts = {self.iterations(monkeypatch, *args) for args in zip(x, lo, up)}
            assert len(counts) > 1
            assert self.iterations(monkeypatch, x, lo, up) == max(counts)

    def test_converged_is_one_bool_over_rows(self, rng):
        x, lo, up = box_stack(rng, 6, 4)
        for max_iter in (1, 2, 3, 500):
            flags = [matlin.project_box(*args, max_iter=max_iter)[1] for args in zip(x, lo, up)]
            y, ok = matlin.project_box(x, lo, up, max_iter=max_iter)
            assert type(ok) is bool
            assert ok == all(flags)
            for row, args in zip(y, zip(x, lo, up)):
                np.testing.assert_allclose(row, matlin.project_box(*args, max_iter=max_iter)[0], rtol=1e-13, atol=0)
        assert not matlin.project_box(x, lo, up, max_iter=1)[1]

    def test_one_empty_box_raises(self, rng):
        x, lo, up = box_stack(rng, 5, 3)
        up[3] = lo[3] - 1e-3 * np.eye(3)
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(x, lo, up)

    def test_one_asymmetric_matrix_raises(self, rng):
        x, lo, up = box_stack(rng, 5, 3)
        x[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            matlin.project_box(x, lo, up)

    def test_point_boxes_pin_every_row(self, rng):
        x, lo, _ = box_stack(rng, 4, 2)
        y, ok = matlin.project_box(x, lo, lo)
        assert ok
        np.testing.assert_allclose(y, lo, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_first_pass_certificate_stops_rows(self, rng, monkeypatch, k):
        # Wide boxes with X inside, X above U only and X below L only: one
        # pass meets the KKT conditions, though the iterate still moved.
        lo = np.array([random_spd(rng, k, 0.5, 1.0) for _ in range(3)])
        up = lo + np.array([random_spd(rng, k, 5.0, 6.0) for _ in range(3)])
        x = lo + np.array([random_spd(rng, k, 1.0, 2.0), up[1] - lo[1], np.zeros((k, k))])
        x[1:] += np.array([random_spd(rng, k, 0.1, 0.2), -random_spd(rng, k, 0.1, 0.2)])
        for args in zip(x, lo, up):
            assert self.iterations(monkeypatch, *args) == 1
            assert matlin.project_box(*args, max_iter=1)[1] is True
        assert self.iterations(monkeypatch, x, lo, up) == 1
        y, ok = matlin.project_box(x, lo, up)
        assert ok is True
        for row, want in zip(y, (x[0], up[1], lo[2])):
            assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("gap", [0.0, -0.5e-12, -2e-12, -1e-10])
    def test_box_rule_matches_loewner_leq(self, rng, gap):
        lo = random_spd(rng, 3)
        up = lo + gap * np.eye(3)
        feasible = matlin.loewner_leq(lo, up)
        assert feasible == (gap >= -matlin.BOX_TOL)
        if feasible:
            matlin.project_box(lo, lo, up)
        else:
            with pytest.raises(InfeasibleBoundsError):
                matlin.project_box(lo, lo, up)


def plain_dykstra(x, lo, up, tol=1e-10, max_iter=500):
    """Plain Dykstra, the loop ``project_box`` accelerates, with the same
    arithmetic and stop rule: (Y, iterations taken). Works on one matrix or
    an (n, k, k) stack; a stack stops only when every row would."""
    y, p, q = x, np.zeros_like(x), np.zeros_like(x)
    for it in range(1, max_iter + 1):
        z = lo + matlin.psd_part(y + p - lo)
        p = y + p - z
        y_prev, y = y, up - matlin.psd_part(up - (z + q))
        q = z + q - y
        if (np.linalg.norm(y - y_prev, axis=(-2, -1)) < tol).all():
            break
    return y, it


def tight_boxes(rng, n, k):
    """(X, L, U) stacks with eig(U - L) in [0.01, 0.2] and X the box midpoint
    plus symmetric noise: the boxes on which plain Dykstra is slowest."""
    lo = np.array([random_spd(rng, k, 0.5, 2.0) for _ in range(n)])
    up = lo + np.array([random_spd(rng, k, 0.01, 0.2) for _ in range(n)])
    d = rng.standard_normal((n, k, k))
    return 0.5 * (lo + up) + 0.5 * (d + d.swapaxes(1, 2)), lo, up


class TestAcceleratedProjection:
    @pytest.mark.parametrize("k, n", [(4, 4), (16, 1)])
    def test_matches_long_plain_dykstra(self, rng, k, n):
        x, lo, up = tight_boxes(rng, n, k)
        y, ok = matlin.project_box(x, lo, up)
        assert ok
        want, _ = plain_dykstra(x, lo, up, tol=0.0, max_iter=5000)
        for row, ref, a, b in zip(y, want, lo, up):
            assert np.abs(row - ref).max() <= 1e-8 * np.abs(ref).max()
            assert matlin.loewner_leq(a, row, tol=1e-9)
            assert matlin.loewner_leq(row, b, tol=1e-9)

    def test_tight_boxes_all_converge(self, rng):
        x, lo, up = tight_boxes(rng, 200, 4)
        y, ok = matlin.project_box(x, lo, up)
        assert ok is True
        gaps = np.concatenate([np.linalg.eigvalsh(y - lo), np.linalg.eigvalsh(up - y)], axis=1)
        assert gaps.min() >= -1e-9

    def test_fewer_clips_than_plain_dykstra(self, rng, monkeypatch):
        x, lo, up = tight_boxes(rng, 3, 16)
        plain = sum(plain_dykstra(*args)[1] for args in zip(x, lo, up))
        accelerated = sum(TestProjectBoxStack.iterations(monkeypatch, *args) for args in zip(x, lo, up))
        assert accelerated < 0.5 * plain

    @pytest.mark.parametrize("k, n", [(4, 200), (16, 40)])
    @pytest.mark.parametrize("seed", range(3))
    def test_converged_rows_are_feasible(self, seed, k, n):
        # The step rule alone stops rows up to ~1e-9 below L; the stop also
        # asks min eig(Y - L) >= -STOP_TOL, and Y <= U holds by construction.
        x, lo, up = tight_boxes(np.random.default_rng(seed), n, k)
        y, ok = matlin.project_box(x, lo, up)
        assert ok is True
        assert np.linalg.eigvalsh(y - lo).min() >= -matlin.STOP_TOL
        assert np.linalg.eigvalsh(up - y).min() >= -1e-14 * np.abs(up).max()

    @pytest.mark.parametrize("stack", [tight_boxes, box_stack])
    def test_rows_are_exactly_symmetric(self, rng, stack):
        # optimize_weights writes the rows into its weight stack as they are.
        x, lo, up = stack(rng, 9, 16)
        y, ok = matlin.project_box(x, lo, up)
        assert ok
        np.testing.assert_array_equal(y, y.swapaxes(-1, -2))

    @pytest.mark.parametrize("k", [4, 16])
    def test_rows_stopping_within_two_iterations_are_plain_dykstra(self, rng, k):
        # Wide boxes holding X stop after one iteration; wide boxes with X
        # just above U after two; tight boxes run on with extrapolation. A
        # row the first pass certifies returns that pass's Y, which plain
        # Dykstra's second pass moves by rounding only.
        x, lo, up = box_stack(rng, 9, k)
        x[3::3] = up[3::3] + random_spd(rng, k, 0.1, 0.2)
        y, ok = matlin.project_box(x, lo, up)
        assert ok
        iters = []
        for row, args in zip(y, zip(x, lo, up)):
            want, it = plain_dykstra(*args)
            iters.append(it)
            if it == 1:
                np.testing.assert_array_equal(row, want)
            elif it == 2:
                assert np.abs(row - want).max() <= 1e-15 * np.abs(want).max()
        assert {1, 2} <= set(iters) and max(iters) > 2


def first_pass_rows(rng, k, rows):
    """(X, L, U) stacks, one row per (wide, where) pair: a wide or tight box
    and X inside it, above U only, below L only, or outside on both sides."""
    xs, los, ups = [], [], []
    for wide, where in rows:
        lo = random_spd(rng, k, 0.5, 2.0)
        up = lo + (random_spd(rng, k, 5.0, 6.0) if wide else random_spd(rng, k, 0.01, 0.2))
        if where == "inside":
            x = lo + rng.uniform(0.1, 0.9) * (up - lo)
        elif where == "above":
            x = up + random_spd(rng, k, 0.05, 1.0)
        elif where == "below":
            x = lo - random_spd(rng, k, 0.05, 1.0)
        else:
            d = rng.standard_normal((k, k))
            x = 0.5 * (lo + up) + 0.5 * (d + d.T)
        xs.append(x)
        los.append(lo)
        ups.append(up)
    return np.array(xs), np.array(los), np.array(ups)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 2, 4, 16]),
    st.lists(
        st.tuples(st.booleans(), st.sampled_from(["inside", "above", "below", "outside"])), min_size=1, max_size=4
    ),
    st.sampled_from([1e-3, 2e-12]),
)
def test_rows_stopped_by_the_first_pass_are_projections(seed, k, rows, emptiness):
    rng = np.random.default_rng(seed)
    x, lo, up = first_pass_rows(rng, k, rows)
    y, _ = matlin.project_box(x, lo, up)
    one_pass = np.array([matlin.project_box(*args, max_iter=1)[1] for args in zip(x, lo, up)])
    if one_pass.any():
        want, _ = plain_dykstra(x[one_pass], lo[one_pass], up[one_pass], tol=0.0, max_iter=5000)
        for row, ref, a, b in zip(y[one_pass], want, lo[one_pass], up[one_pass]):
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.linalg.eigvalsh(row - a).min() >= -1e-9
            assert np.linalg.eigvalsh(b - row).min() >= -1e-9

    # One empty box beside rows the first pass stops still raises, with or
    # without a pass: X = U makes that pass look as good as it can.
    bad = random_spd(rng, k)
    bad_up = bad - emptiness * np.eye(k)
    x, lo, up = (np.concatenate([m[one_pass], [extra]]) for m, extra in ((x, bad_up), (lo, bad), (up, bad_up)))
    for max_iter in (500, 0):
        with pytest.raises(InfeasibleBoundsError):
            matlin.project_box(x, lo, up, max_iter=max_iter)


class TestSymmetricStack:
    def test_stack_matches_one_matrix_calls(self, rng):
        m = np.array([random_spd(rng, 3) for _ in range(4)])
        np.testing.assert_array_equal(matlin.as_symmetric(m), [matlin.as_symmetric(a) for a in m])

    def test_each_matrix_on_its_own_scale(self, rng):
        # An asymmetry far below the largest entry of the stack is still
        # caught in the small matrix that carries it.
        m = np.array([1e6 * np.eye(2), 1e-3 * np.eye(2)])
        m[1, 0, 1] = 1e-9
        with pytest.raises(ValueError):
            matlin.as_symmetric(m)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2, 2), (2, 3, 2)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            matlin.as_symmetric(np.zeros(shape))


EPS = np.finfo(float).eps


def spectrum_stack(rng, k, n, centre=0.0):
    """(n, k, k) symmetric stack with largest eigenvalue 1 and smallest
    ``centre`` plus or minus 10^-u, u uniform in [4, 18] (at k = 1 the one
    eigenvalue is that smallest one); the others are uniform in [0.1, 1]."""
    lam = rng.uniform(0.1, 1.0, (n, k))
    lam[:, -1] = 1.0
    lam[:, 0] = centre + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-18, -4, n)
    q = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    return matlin.symmetrize((q * lam[:, None, :]) @ q.swapaxes(1, 2))


def clear_of_rounding(m, centre=0.0):
    """(smallest eigenvalue of each matrix, True where it lies further than k eps ||M||_2 from ``centre``)."""
    lam = np.linalg.eigvalsh(m)
    return lam[:, 0], np.abs(lam[:, 0] - centre) > m.shape[-1] * EPS * np.abs(lam).max(axis=1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
def test_cholesky_rules_match_eigenvalues_off_the_rounding_band(k):
    # The yes/no rules factor where the old ones took eigenvalues: they must
    # agree wherever min eig is further than k eps ||M||_2 from the boundary.
    rng = np.random.default_rng([36, k])
    m = spectrum_stack(rng, k, 5000)
    low, clear = clear_of_rounding(m)
    assert clear.sum() > 1000
    np.testing.assert_array_equal(matlin.is_spd(m)[clear], (low > 0)[clear])
    lo = np.array([random_spd(rng, k) for _ in range(len(m))])
    up = lo + spectrum_stack(rng, k, len(m), centre=-matlin.BOX_TOL)
    low, clear = clear_of_rounding(up - lo, centre=-matlin.BOX_TOL)
    assert clear.sum() > 1000
    np.testing.assert_array_equal(matlin.box_nonempty(lo, up)[clear], (low >= -matlin.BOX_TOL)[clear])


NON_FINITE = [
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, np.inf]],
    [[2.0, np.nan], [np.nan, 3.0]],
    [[1.0, 0.0], [0.0, -np.inf]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, -np.inf], [-np.inf, 1.0]],
]


class TestBoxRule:
    def test_one_bool_per_box(self, rng):
        lo = np.array([random_spd(rng, 2) for _ in range(6)])
        up = lo.copy()
        up[[2, 4]] -= 2 * matlin.BOX_TOL * np.eye(2)
        up[5, 0, 0] = np.nan
        assert matlin.box_nonempty(lo, up).tolist() == [True, True, False, True, False, False]
        assert matlin.box_nonempty(lo[:0], up[:0]).shape == (0,)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_box_is_empty(self, bad):
        # A NaN pivot need not fail the factorization, so the box rule tests finiteness on its own.
        bad = np.array(bad)
        for lo, up in ((np.eye(2), bad), (bad, 2 * np.eye(2))):
            for max_iter in (500, 0):
                with pytest.raises(InfeasibleBoundsError):
                    matlin.project_box(np.eye(2), lo, up, max_iter=max_iter)
