"""Objective constructors: values, gradients, constants, accounting."""

import concurrent.futures

import numpy as np
import pytest

from ssdopt import (
    ConfigurationError,
    Objective,
    ProblemSpec,
    isotropic_quadratic,
    nesterov_worst,
    rank_deficient_least_squares,
)


def central_diff(f, x, h=1e-5):
    g = np.empty(x.size)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def orthonormal_columns(rows, cols, seed):
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((rows, cols)))
    return q


class TestIsotropicQuadratic:
    def test_value_and_gradient(self):
        obj = isotropic_quadratic(2)
        x = np.array([3.0, 4.0])
        assert obj.evaluate(x) == 12.5
        assert np.array_equal(obj.reference_gradient(x), x)

    def test_constants(self):
        obj = isotropic_quadratic(7)
        assert obj.d == 7
        assert obj.minimum_value == 0.0
        assert obj.lipschitz_constant == 1.0
        assert obj.pl_constant == 1.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            isotropic_quadratic(0)


class TestNesterovWorst:
    def test_zero_point(self):
        assert nesterov_worst(8.0, 4, 10).evaluate(np.zeros(10)) == 0.0

    def test_first_basis_vector_for_chain(self):
        # The +z0^2 boundary term and the (z0 - z1)^2 link cancel the
        # linear part exactly when only the first coordinate is lit.
        for r, d in [(2, 5), (5, 8), (10, 20)]:
            obj = nesterov_worst(3.0, r, d)
            e1 = np.zeros(d)
            e1[0] = 1.0
            assert obj.evaluate(e1) == pytest.approx(0.0, abs=1e-15)

    def test_minimum_value_formula(self):
        assert nesterov_worst(8.0, 1, 4).minimum_value == pytest.approx(-0.5)
        assert nesterov_worst(2.0, 3, 10).minimum_value == pytest.approx(-0.1875)

    def test_minimum_attained_at_linear_profile(self):
        lam, r, d = 5.0, 6, 11
        obj = nesterov_worst(lam, r, d)
        xstar = np.zeros(d)
        xstar[:r] = 1.0 - (np.arange(1, r + 1) / (r + 1.0))
        assert obj.evaluate(xstar) == pytest.approx(obj.minimum_value, rel=1e-12)
        assert np.linalg.norm(obj.reference_gradient(xstar)) < 1e-12

    def test_global_lower_bound_random_points(self):
        obj = nesterov_worst(4.0, 5, 8)
        gen = np.random.default_rng(11)
        pts = gen.uniform(-5.0, 5.0, size=(10_000, 8))
        vals = np.array([obj.evaluate(p) for p in pts])
        assert np.all(vals >= obj.minimum_value - 1e-9)

    def test_constants(self):
        obj = nesterov_worst(6.0, 3, 9)
        assert obj.d == 9
        assert obj.lipschitz_constant == 6.0

    @pytest.mark.parametrize(
        "lam,r,d",
        [(0.0, 2, 5), (-1.0, 2, 5), (5.0, 0, 5), (5.0, 5, 5), (5.0, 6, 5),
         (float("nan"), 2, 5), (float("inf"), 2, 5)],
    )
    def test_rejects_bad_parameters(self, lam, r, d):
        with pytest.raises(ConfigurationError):
            nesterov_worst(lam, r, d)


class TestRankDeficientLeastSquares:
    def test_consistent_system_along_nullspace(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 0.0])
        obj = rank_deficient_least_squares(A, b)
        # Second coordinate lies in the nullspace: any value of it is optimal.
        assert obj.evaluate(np.array([1.0, 5.0])) == 0.0
        assert obj.minimum_value == pytest.approx(0.0, abs=1e-24)

    def test_gradient_identity_matrix(self):
        obj = rank_deficient_least_squares(np.eye(2), np.array([1.0, 1.0]))
        assert np.allclose(obj.reference_gradient(np.zeros(2)), [-1.0, -1.0])

    def test_unreachable_residual_sets_minimum(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])
        obj = rank_deficient_least_squares(A, b)
        assert obj.minimum_value == pytest.approx(0.5)

    def test_constants_from_singular_values(self):
        u = orthonormal_columns(5, 2, seed=3)
        v = orthonormal_columns(4, 2, seed=4)
        A = 2.0 * np.outer(u[:, 0], v[:, 0]) + 0.5 * np.outer(u[:, 1], v[:, 1])
        obj = rank_deficient_least_squares(A, np.ones(5))
        assert obj.lipschitz_constant == pytest.approx(4.0)
        assert obj.pl_constant == pytest.approx(0.25)

    def test_pl_inequality_random_points(self):
        gen = np.random.default_rng(7)
        u = orthonormal_columns(6, 3, seed=8)
        v = orthonormal_columns(5, 3, seed=9)
        A = u @ np.diag([3.0, 1.5, 0.7]) @ v.T
        b = gen.standard_normal(6)
        obj = rank_deficient_least_squares(A, b)
        mu = obj.pl_constant
        fstar = obj.minimum_value
        pts = gen.uniform(-4.0, 4.0, size=(10_000, 5))
        for p in pts:
            g = obj.reference_gradient(p)
            gap = obj.evaluate(p) - fstar
            assert 0.5 * float(g @ g) >= mu * gap - 1e-9

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigurationError):
            rank_deficient_least_squares(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ConfigurationError, match="identically zero"):
            rank_deficient_least_squares(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ConfigurationError):
            rank_deficient_least_squares(np.eye(3), np.zeros(2))


@pytest.mark.parametrize(
    "obj,box",
    [
        (isotropic_quadratic(6), 3.0),
        (nesterov_worst(4.0, 5, 8), 2.0),
        (
            rank_deficient_least_squares(
                np.random.default_rng(1).standard_normal((7, 5)),
                np.random.default_rng(2).standard_normal(7),
            ),
            2.0,
        ),
    ],
    ids=["quadratic", "nesterov", "lstsq"],
)
def test_reference_gradient_matches_central_differences(obj, box):
    gen = np.random.default_rng(13)
    for _ in range(100):
        x = gen.uniform(-box, box, size=obj.d)
        g = obj.reference_gradient(x)
        num = central_diff(obj.evaluator, x)
        assert np.allclose(g, num, rtol=1e-6, atol=1e-7)


class TestEvaluateAccounting:
    def test_counter_increments_per_call(self):
        obj = isotropic_quadratic(3)
        assert obj.eval_count == 0
        for k in range(1, 6):
            obj.evaluate(np.zeros(3))
            assert obj.eval_count == k

    def test_shape_rejection_does_not_charge(self):
        obj = isotropic_quadratic(3)
        with pytest.raises(ConfigurationError):
            obj.evaluate(np.zeros(4))
        assert obj.eval_count == 0

    def test_reference_gradient_is_free(self):
        obj = nesterov_worst(2.0, 3, 6)
        obj.reference_gradient(np.ones(6))
        assert obj.eval_count == 0

    def test_counter_is_thread_safe(self):
        obj = isotropic_quadratic(4)
        x = np.ones(4)

        def worker(_):
            for _ in range(100):
                obj.evaluate(x)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        assert obj.eval_count == 800

    def test_custom_objective_defaults(self):
        obj = Objective(d=2, evaluator=lambda x: float(x @ x))
        assert obj.minimum_value is None
        assert obj.reference_gradient is None
        assert obj.evaluate(np.array([1.0, 2.0])) == 5.0


def lstsq(m, d, rank):
    return ProblemSpec.make("lstsq", {"m": m, "d": d, "rank": rank, "seed": 0}).build()


def probe_blocks(x, ell, seed):
    """The blocks the oracles pass to ``evaluate_many``, in their layouts:
    ``x[None]``, C-ordered coordinate shifts and F-ordered ``x +- steps``."""
    d = x.size
    cols = np.random.default_rng(seed).standard_normal((d, ell))
    h = 1e-4 * (1.0 + np.abs(x).max())
    steps = h * (cols / np.linalg.norm(cols, axis=0)).T
    shifted = np.tile(x, (d, 1))
    shifted.flat[:: d + 1] += h
    return [x[None], shifted, x + steps, x - steps]


class TestEvaluateMany:
    @pytest.mark.parametrize("obj", [isotropic_quadratic(16), lstsq(10, 16, 5)],
                             ids=["loop", "many"])
    def test_charges_one_unit_per_row(self, obj):
        points = np.random.default_rng(0).standard_normal((7, 16))
        values = obj.evaluate_many(points)
        assert obj.eval_count == 7
        assert values.tolist() == [obj.evaluator(p) for p in points]
        obj.evaluate_many(points[:1])
        assert obj.eval_count == 8

    @pytest.mark.parametrize("m,d,rank", [(60, 200, 20), (10, 16, 5)])
    def test_lstsq_batch_matches_each_row_bit_for_bit(self, m, d, rank):
        value = lstsq(m, d, rank).evaluator
        gen = np.random.default_rng(d)
        for trial in range(4):
            x = gen.standard_normal(d) * 10.0 ** (trial - 2)
            blocks = probe_blocks(x, 10, trial)
            assert blocks[1].flags.c_contiguous and blocks[2].flags.f_contiguous
            for block in blocks:
                rows = np.array([value(p) for p in block])
                assert value.many(block).tobytes() == rows.tobytes()

    def test_a_replaced_evaluator_drops_the_batch_form(self):
        obj = lstsq(10, 16, 5)
        inner, seen = obj.evaluator, []
        obj.evaluator = lambda x: seen.append(x) or inner(x)
        obj.evaluate_many(np.ones((3, 16)))
        assert len(seen) == 3 and obj.eval_count == 3

    @pytest.mark.parametrize("shape", [(4,), (3, 1), ()])
    def test_wrong_batch_shape_raises_and_charges_nothing(self, shape):
        def f(x):
            return float(x @ x)

        f.many = lambda X: np.zeros(shape)
        obj = Objective(d=2, evaluator=f)
        with pytest.raises(ConfigurationError, match="batch evaluator returned shape"):
            obj.evaluate_many(np.ones((3, 2)))
        assert obj.eval_count == 0

    def test_points_of_the_wrong_width_are_refused_uncharged(self):
        obj = lstsq(10, 16, 5)
        with pytest.raises(ConfigurationError, match="objective expects"):
            obj.evaluate_many(np.ones((3, 15)))
        assert obj.eval_count == 0
