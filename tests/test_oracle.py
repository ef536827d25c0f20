"""Derivative oracles: exactness, accounting, the exact kind."""

import math

import numpy as np
import pytest

from ssdopt import (
    ConfigurationError,
    EvaluationError,
    FdScheme,
    FixedStep,
    Objective,
    ProblemSpec,
    RngStream,
    Sketch,
    SsdConfig,
    default_step,
    directional_derivatives,
    draw_haar,
    full_gradient_fd,
    isotropic_quadratic,
    nesterov_worst,
    run_fd_gd,
)

EPS = float(np.finfo(float).eps)


class TestDefaultStep:
    def test_forward_scaling(self):
        x = np.array([3.0, -4.0])
        assert default_step(x, "forward") == pytest.approx(math.sqrt(EPS) * 5.0)

    def test_centered_scaling(self):
        x = np.array([3.0, -4.0])
        assert default_step(x, "centered") == pytest.approx(EPS ** (1 / 3) * 5.0)

    def test_origin_uses_unit_scale(self):
        assert default_step(np.zeros(3), "forward") == pytest.approx(math.sqrt(EPS))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown finite-difference"):
            default_step(np.zeros(2), "complex")


def linear_objective(c):
    c = np.asarray(c, dtype=float)
    return Objective(d=c.size, evaluator=lambda x: float(c @ x))


class TestDirectionalDerivatives:
    def test_forward_exact_on_linear(self):
        c = np.array([2.0, -1.0, 0.5, 3.0, 1.0])
        obj = linear_objective(c)
        P = draw_haar(5, 2, RngStream(1, 0, 0))
        x = np.array([0.3, -0.7, 1.1, 0.0, 2.0])
        s, fx = directional_derivatives(obj, x, P, FdScheme("forward"), return_value=True)
        assert obj.eval_count == 3  # ell + 1, base point shared
        assert fx == pytest.approx(float(c @ x))
        assert np.allclose(s, P.apply_transpose(c), atol=1e-6)

    def test_centered_exact_on_quadratic(self):
        obj = isotropic_quadratic(6)
        P = draw_haar(6, 3, RngStream(2, 0, 0))
        x = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25])
        s, fx = directional_derivatives(obj, x, P, FdScheme("centered"), return_value=True)
        assert obj.eval_count == 6  # 2 ell, no base value
        assert fx is None
        assert np.allclose(s, P.apply_transpose(x), atol=1e-9)

    def test_forward_error_is_first_order_in_h(self):
        obj = Objective(d=4, evaluator=lambda x: float(np.sum(np.exp(x))))
        x = np.array([0.2, -0.4, 0.1, 0.3])
        g = np.exp(x)
        P = draw_haar(4, 2, RngStream(3, 0, 0))
        exact = P.apply_transpose(g)
        errs = []
        for h in (1e-3, 5e-4):
            s = directional_derivatives(obj, x, P, FdScheme("forward", step=h))
            errs.append(np.linalg.norm(s - exact))
        assert 1.8 < errs[0] / errs[1] < 2.2

    def test_matches_reference_gradient_projection(self):
        obj = nesterov_worst(4.0, 7, 20)
        gen = np.random.default_rng(5)
        for k in range(100):
            x = gen.uniform(-2.0, 2.0, size=20)
            P = draw_haar(20, 4, RngStream(17, 0, k))
            s = directional_derivatives(obj, x, P, FdScheme("centered"))
            want = P.apply_transpose(obj.reference_gradient(x))
            assert np.allclose(s, want, rtol=1e-5, atol=1e-5)

    def test_zero_column_gives_zero_component(self):
        m = np.zeros((4, 2))
        m[1, 0] = 2.0  # second column left identically zero
        P = Sketch(m, 4, 2, "gaussian")
        obj = isotropic_quadratic(4)
        s = directional_derivatives(obj, np.ones(4), P, FdScheme("centered"))
        assert s[1] == 0.0
        assert s[0] == pytest.approx(2.0, rel=1e-8)

    def test_dimension_mismatch(self):
        P = draw_haar(5, 2, RngStream(0))
        with pytest.raises(ConfigurationError, match="dimension"):
            directional_derivatives(isotropic_quadratic(4), np.ones(4), P, FdScheme())

    def test_nonpositive_step(self):
        P = draw_haar(4, 2, RngStream(0))
        for h in (0.0, -1e-3):
            with pytest.raises(ConfigurationError, match="positive"):
                directional_derivatives(
                    isotropic_quadratic(4), np.ones(4), P, FdScheme("forward", step=h)
                )

    def test_unknown_scheme_kind(self):
        P = draw_haar(4, 2, RngStream(0))
        with pytest.raises(ConfigurationError):
            directional_derivatives(
                isotropic_quadratic(4), np.ones(4), P, FdScheme("onesided")
            )

    def test_nonfinite_value_reports_probe_point(self):
        def capped(x):
            return float(x @ x) if np.linalg.norm(x) <= 1.2 else float("nan")

        obj = Objective(d=3, evaluator=capped)
        P = draw_haar(3, 2, RngStream(4, 0, 0))
        x = np.full(3, 1.2 / np.sqrt(3.0))
        with pytest.raises(EvaluationError) as info:
            directional_derivatives(obj, x, P, FdScheme("forward", step=0.5))
        assert info.value.point.shape == (3,)
        assert np.linalg.norm(info.value.point) > 1.2


class TestFullGradient:
    def test_centered_exact_on_quadratic(self):
        obj = isotropic_quadratic(2)
        g, fx = full_gradient_fd(obj, np.array([3.0, 4.0]), FdScheme("centered"), return_value=True)
        assert fx is None
        assert obj.eval_count == 4
        assert np.allclose(g, [3.0, 4.0], atol=1e-9)

    def test_forward_accounting_and_value(self):
        obj = isotropic_quadratic(7)
        x = np.arange(7.0)
        g, fx = full_gradient_fd(obj, x, FdScheme("forward"), return_value=True)
        assert obj.eval_count == 8  # d + 1
        assert fx == pytest.approx(float(0.5 * x @ x))
        assert np.allclose(g, x, rtol=1e-6, atol=1e-5)

    def test_forward_exact_on_linear(self):
        c = np.array([1.0, -2.0, 3.0])
        g = full_gradient_fd(linear_objective(c), np.zeros(3), FdScheme("forward"))
        assert np.allclose(g, c, atol=1e-6)

    def test_shape_check(self):
        with pytest.raises(ConfigurationError, match="shape"):
            full_gradient_fd(isotropic_quadratic(3), np.ones(4), FdScheme())


# Each oracle call as (obj, x, scheme) -> (estimate, value), with the sketch
# of a d = 20, ell = 4 Haar draw where it takes one.
ORACLES = {
    "directional": lambda obj, x, scheme: directional_derivatives(
        obj, x, draw_haar(obj.d, 4, RngStream(8, 0, 0)), scheme, return_value=True),
    "full": lambda obj, x, scheme: full_gradient_fd(obj, x, scheme, return_value=True),
}


class TestExactKind:
    def test_returns_the_reference_gradient_at_no_cost(self):
        obj = nesterov_worst(4.0, 7, 20)
        x = np.linspace(-1.0, 2.0, 20)
        g = obj.reference_gradient(x)
        P = draw_haar(20, 4, RngStream(8, 0, 0))
        s, fx = ORACLES["directional"](obj, x, FdScheme("exact"))
        assert np.array_equal(s, P.matrix.T @ g) and fx is None
        full, fx = ORACLES["full"](obj, x, FdScheme("exact"))
        assert np.array_equal(full, g) and fx is None
        assert obj.eval_count == 0

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_takes_no_step(self, oracle):
        with pytest.raises(ConfigurationError, match="no step"):
            ORACLES[oracle](nesterov_worst(4.0, 7, 20), np.zeros(20), FdScheme("exact", step=1e-3))

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_needs_a_reference_gradient(self, oracle):
        obj = linear_objective(np.arange(20.0))
        with pytest.raises(ConfigurationError, match="reference_gradient"):
            ORACLES[oracle](obj, np.zeros(20), FdScheme("exact"))
        assert obj.eval_count == 0


def loop_probes(x, cols, h, kind):
    """Probe points built one column at a time: what the oracle must equal bit for bit."""
    norms = np.linalg.norm(cols, axis=0)
    units = cols / np.where(norms > 0.0, norms, 1.0)
    plus = [x + h * units[:, j] for j in range(cols.shape[1])]
    if kind == "forward":
        return [x] + plus
    return plus + [x - h * units[:, j] for j in range(cols.shape[1])]


def loop_shifts(x, h, kind):
    """Coordinate probes built one copy at a time: the full-gradient reference."""

    def shifted(i, delta):
        p = x.copy()
        p[i] += delta
        return p

    plus = [shifted(i, h) for i in range(x.size)]
    if kind == "forward":
        return [x] + plus
    return plus + [shifted(i, -h) for i in range(x.size)]


def recording_objective(d):
    seen = []

    def f(x):
        seen.append(x.tobytes())
        return float(np.arange(1.0, d + 1.0) @ np.sin(x))

    return Objective(d, f), seen


class TestProbesMatchLoopReference:
    @pytest.mark.parametrize("kind", ["forward", "centered"])
    @pytest.mark.parametrize("d,ell", [(1, 1), (7, 3), (7, 7), (101, 3)])
    def test_directional_probes(self, kind, d, ell):
        gen = np.random.default_rng(d * 10 + ell)
        for trial in range(3):
            cols = gen.standard_normal((d, ell)) * 10.0 ** gen.integers(-3, 4)
            if trial == 1:
                cols[:, 0] = 0.0  # zero column: zero direction
            x = gen.standard_normal(d)
            x[0] = -0.0
            obj, seen = recording_objective(d)
            directional_derivatives(obj, x, Sketch(cols, d, ell, "gaussian"), FdScheme(kind))
            h = default_step(x, kind)
            assert seen == [p.tobytes() for p in loop_probes(x, cols, h, kind)]

    @pytest.mark.parametrize("kind", ["forward", "centered"])
    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_coordinate_probes(self, kind, d):
        x = np.random.default_rng(d).standard_normal(d)
        x[-1] = -0.0
        obj, seen = recording_objective(d)
        full_gradient_fd(obj, x, FdScheme(kind, step=1e-3))
        assert seen == [p.tobytes() for p in loop_shifts(x, 1e-3, kind)]


def lstsq():
    return ProblemSpec.make("lstsq", {"m": 10, "d": 16, "rank": 5, "seed": 2}).build()


class TestProbeBatches:
    def test_a_wrapped_evaluator_sees_every_probe_of_a_run(self):
        obj = lstsq()
        inner, log = obj.evaluator, []

        def recorded(x):
            log.append(inner(x))
            return log[-1]

        obj.evaluator = recorded
        cfg = SsdConfig(ell=1, step_rule=FixedStep(0.01), max_iters=30, seed=0)
        trace = run_fd_gd(obj, np.ones(16), cfg)
        assert len(log) == obj.eval_count > 30 * 17
        # The batch path gives the same run, bit for bit.
        assert run_fd_gd(lstsq(), np.ones(16), cfg).entries == trace.entries

    @pytest.mark.parametrize("oracle", ["directional", "full"])
    def test_nonfinite_batch_value_names_its_probe_at_the_loop_charge(self, oracle):
        def capped(x):
            return float(x @ x) if x[0] <= 1.0 else float("nan")

        def batched(x):
            return capped(x)

        batched.many = lambda X: np.array([capped(p) for p in X])
        raised = []
        for f in (capped, batched):
            obj = Objective(d=3, evaluator=f)
            x = np.array([1.0, 0.0, 0.0])
            scheme = FdScheme("forward", step=0.5)
            with pytest.raises(EvaluationError) as info:
                if oracle == "full":
                    full_gradient_fd(obj, x, scheme)
                else:
                    directional_derivatives(obj, x, Sketch(np.eye(3)[:, :2], 3, 2, "coordinate"), scheme)
            raised.append((info.value.point.tolist(), obj.eval_count))
        assert raised[0] == raised[1]
        assert raised[0] == ([1.5, 0.0, 0.0], 4 if oracle == "full" else 3)


@pytest.mark.parametrize("oracle", ["directional", "full"])
@pytest.mark.parametrize("kind", ["forward", "centered"])
def test_known_base_value_gives_the_same_estimate_without_evaluating_it(oracle, kind):
    # A forward call takes a known f(x) as its base: the same bits, one
    # evaluation fewer, and x itself is never evaluated.  Centered calls
    # have no base value and ignore it.
    d, ell = 40, 4
    x = np.linspace(-1.0, 1.0, d)
    P = draw_haar(d, ell, RngStream(6, 0, 2))

    def call(fx):
        base, seen = nesterov_worst(8.0, 10, d), []

        def logged(p):
            seen.append(np.asarray(p).tobytes())
            return base.evaluator(p)

        obj = Objective(d, logged)
        if oracle == "directional":
            est, value = directional_derivatives(obj, x, P, FdScheme(kind), return_value=True,
                                                 fx=fx)
        else:
            est, value = full_gradient_fd(obj, x, FdScheme(kind), return_value=True, fx=fx)
        return est.tobytes(), value, seen

    est, value, seen = call(None)
    known = nesterov_worst(8.0, 10, d).evaluate(x)
    est_known, value_known, seen_known = call(known)
    assert est_known == est
    if kind == "forward":
        assert value == value_known == known
        assert seen_known == seen[1:] and seen[0] == x.tobytes()
    else:
        assert value is value_known is None
        assert seen_known == seen


@pytest.mark.parametrize("kind", ["forward", "centered"])
def test_integer_sketch_matrix_probes_like_its_float_copy(kind):
    # A hand-built sketch may hold integers; the oracle works in float64.
    d = 5
    x = np.linspace(-1.0, 1.0, d)
    cols = np.eye(d, dtype=int)[:, :2] * 2

    def estimate(matrix):
        obj = nesterov_worst(4.0, 3, d)
        s = directional_derivatives(obj, x, Sketch(matrix, d, 2, "coordinate"), FdScheme(kind))
        return s.tobytes(), obj.eval_count

    assert estimate(cols) == estimate(cols.astype(float))
