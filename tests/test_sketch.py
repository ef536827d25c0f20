"""Sketch families: per-draw identities, moments, addressed randomness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from ssdopt import (
    ConfigurationError,
    RngStream,
    draw,
    draw_coordinate_block,
    draw_gaussian,
    draw_haar,
    sample_gaussian,
    sample_haar,
)
from ssdopt.sketch import orthonormal_signed

GRID = [(2, 1), (5, 2), (5, 5), (12, 3), (30, 7)]


class TestRngStream:
    def test_same_address_same_draw(self):
        a = draw_haar(8, 3, RngStream(42, 0, 17)).matrix
        b = draw_haar(8, 3, RngStream(42, 0, 17)).matrix
        assert np.array_equal(a, b)

    def test_distinct_inner_distinct_draw(self):
        a = draw_haar(8, 3, RngStream(42, 0, 17)).matrix
        b = draw_haar(8, 3, RngStream(42, 0, 18)).matrix
        assert not np.array_equal(a, b)

    def test_distinct_outer_distinct_draw(self):
        a = draw_gaussian(6, 2, RngStream(7, 0, 3)).matrix
        b = draw_gaussian(6, 2, RngStream(7, 1, 3)).matrix
        assert not np.array_equal(a, b)

    def test_at_rebinds_one_coordinate(self):
        s = RngStream(9, 2, 5)
        assert s.at(inner=6) == RngStream(9, 2, 6)
        assert s.at(outer=0) == RngStream(9, 0, 5)
        assert s.at() == s

    def test_generator_is_independent_of_draw_history(self):
        s = RngStream(3, 0, 0)
        first = s.generator().standard_normal(4)
        s.generator().standard_normal(1000)  # burn a separate generator
        again = s.generator().standard_normal(4)
        assert np.array_equal(first, again)


class TestHaar:
    @pytest.mark.parametrize("d,ell", GRID)
    def test_columns_orthogonal_with_exact_scaling(self, d, ell):
        P = draw_haar(d, ell, RngStream(1, 0, 0)).matrix
        assert np.max(np.abs(P.T @ P - (d / ell) * np.eye(ell))) < 1e-10

    def test_square_case_is_scaled_orthogonal(self):
        P = draw_haar(6, 6, RngStream(2, 0, 0)).matrix
        assert np.max(np.abs(P @ P.T - np.eye(6))) < 1e-10

    def test_transpose_identity_on_vectors(self):
        d, ell = 11, 4
        sk = draw_haar(d, ell, RngStream(3, 0, 1))
        v = np.random.default_rng(0).standard_normal(d)
        lhs = sk.apply_transpose(sk.apply(sk.apply_transpose(v)))
        assert np.allclose(lhs, (d / ell) * sk.apply_transpose(v), atol=1e-10)

    def test_batch_sampler_matches_identity_per_slice(self):
        d, ell = 9, 3
        mats = sample_haar(d, ell, 64, np.random.default_rng(5))
        assert mats.shape == (64, d, ell)
        gram = np.einsum("kdi,kdj->kij", mats, mats)
        assert np.max(np.abs(gram - (d / ell) * np.eye(ell))) < 1e-10

    def test_mean_projector_is_identity(self):
        d, ell, n = 5, 2, 100_000
        mats = sample_haar(d, ell, n, np.random.default_rng(8))
        mean = np.einsum("kir,kjr->ij", mats, mats) / n
        assert np.max(np.abs(mean - np.eye(d))) < 0.02

    def test_rotational_symmetry_of_projections(self):
        # P^T u and P^T v must be identically distributed for any two unit
        # vectors; compare first components of 10^4 independent draws.
        d, ell, n = 20, 4, 10_000
        gen = np.random.default_rng(21)
        u = np.zeros(d)
        u[0] = 1.0
        v = gen.standard_normal(d)
        v /= np.linalg.norm(v)
        mats = sample_haar(d, ell, 2 * n, gen)
        a = mats[:n].transpose(0, 2, 1) @ u
        b = mats[n:].transpose(0, 2, 1) @ v
        res = stats.ks_2samp(a[:, 0], b[:, 0])
        assert res.pvalue > 0.01


class TestCoordinate:
    def test_single_column_is_scaled_basis_vector(self):
        sk = draw_coordinate_block(9, 1, RngStream(4, 0, 0))
        col = sk.matrix[:, 0]
        assert np.count_nonzero(col) == 1
        assert col[col != 0][0] == pytest.approx(3.0)

    @pytest.mark.parametrize("d,ell", GRID)
    def test_block_structure(self, d, ell):
        P = draw_coordinate_block(d, ell, RngStream(5, 0, 2)).matrix
        rows = np.nonzero(P)[0]
        assert len(set(rows.tolist())) == ell  # distinct coordinates
        assert np.allclose(P[P != 0], np.sqrt(d / ell))
        assert np.max(np.abs(P.T @ P - (d / ell) * np.eye(ell))) < 1e-12

    def test_square_case_is_permutation(self):
        P = draw_coordinate_block(7, 7, RngStream(6, 0, 0)).matrix
        assert np.array_equal(np.sort(np.nonzero(P)[0]), np.arange(7))
        assert np.max(np.abs(P @ P.T - np.eye(7))) < 1e-12

    def test_mean_projector_is_identity(self):
        d, ell, n = 6, 2, 40_000
        acc = np.zeros((d, d))
        for k in range(n):
            P = draw_coordinate_block(d, ell, RngStream(30, 0, k)).matrix
            acc += P @ P.T
        mean = acc / n
        assert np.max(np.abs(np.diag(mean) - 1.0)) < 0.05
        assert np.max(np.abs(mean - np.diag(np.diag(mean)))) == 0.0


class TestGaussian:
    def test_entry_scale(self):
        mats = sample_gaussian(4, 2, 200_000, np.random.default_rng(9))
        assert float(np.var(mats)) == pytest.approx(0.5, abs=0.01)

    def test_mean_projector_is_identity(self):
        mats = sample_gaussian(5, 2, 100_000, np.random.default_rng(10))
        mean = np.einsum("kir,kjr->ij", mats, mats) / len(mats)
        assert np.max(np.abs(mean - np.eye(5))) < 0.02

    def test_projection_norm_moments(self):
        # ||P^T e_1||^2 = chi^2_ell / ell: mean 1 for every ell, variance
        # 2/ell, so ell = 1 sits at 2 while the orthogonal families shrink.
        gen = np.random.default_rng(12)
        one = sample_gaussian(7, 1, 100_000, gen)[:, 0, 0] ** 2
        assert float(np.mean(one)) == pytest.approx(1.0, abs=0.02)
        assert float(np.var(one)) == pytest.approx(2.0, abs=0.2)
        three = sample_gaussian(7, 3, 100_000, gen)
        norms = np.sum(three[:, 0, :] ** 2, axis=1)
        assert float(np.mean(norms)) == pytest.approx(1.0, abs=0.02)

    def test_single_draw_matches_batch_scale(self):
        sk = draw_gaussian(50, 10, RngStream(11, 0, 0))
        assert sk.matrix.shape == (50, 10)
        assert float(np.var(sk.matrix)) == pytest.approx(0.1, rel=0.25)


class TestDispatchAndErrors:
    def test_draw_routes_by_name(self):
        s = RngStream(13, 0, 7)
        for name, fn in [
            ("haar", draw_haar),
            ("coordinate", draw_coordinate_block),
            ("gaussian", draw_gaussian),
        ]:
            via_dispatch = draw(name, 10, 3, s)
            direct = fn(10, 3, s)
            assert via_dispatch.distribution == name
            assert np.array_equal(via_dispatch.matrix, direct.matrix)

    def test_unknown_distribution(self):
        with pytest.raises(ConfigurationError, match="unknown sketch distribution"):
            draw("rademacher", 4, 2, RngStream(0))

    @pytest.mark.parametrize("d,ell", [(0, 1), (4, 0), (4, 5), (-2, 1)])
    def test_dimension_bounds(self, d, ell):
        for fn in (draw_haar, draw_coordinate_block, draw_gaussian):
            with pytest.raises(ConfigurationError):
                fn(d, ell, RngStream(0))
        for fn in (sample_haar, sample_gaussian):
            with pytest.raises(ConfigurationError):
                fn(d, ell, 3, np.random.default_rng(0))

    def test_apply_shape_checks(self):
        sk = draw_haar(6, 2, RngStream(14, 0, 0))
        assert sk.apply(np.ones(2)).shape == (6,)
        assert sk.apply_transpose(np.ones(6)).shape == (2,)
        with pytest.raises(ConfigurationError):
            sk.apply(np.ones(6))
        with pytest.raises(ConfigurationError):
            sk.apply_transpose(np.ones(2))


def reference_signed_qr(x):
    """np.linalg.qr with the R-diagonal sign flip: the map the frame must equal."""
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag < 0, -1.0, 1.0)[..., None, :], diag


def outcome(fn, x):
    try:
        q, diag = fn(x)
    except Exception as exc:  # the failure itself is compared
        return type(exc), str(exc)
    return q.shape, q.tobytes(), diag.shape, diag.tobytes()


class TestOrthonormalSigned:
    # ell = 1, ell = d and d = 1, alone and stacked, up to the d = 1000
    # frames where OpenBLAS runs threaded.
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (6, 1), (6, 6), (101, 3), (200, 10), (1000, 10),
         (4, 1, 1), (5, 7, 2), (3, 4, 4), (64, 101, 3)],
    )
    def test_bit_equal_to_numpy_qr(self, shape):
        gen = np.random.default_rng(sum(shape))
        for _ in range(3):
            x = gen.standard_normal(shape)
            before = x.copy()
            assert outcome(orthonormal_signed, x) == outcome(reference_signed_qr, x)
            assert np.array_equal(x, before)

    def test_integer_input_is_factored_as_float(self):
        x = np.arange(12).reshape(4, 3) - 5
        assert outcome(orthonormal_signed, x) == outcome(reference_signed_qr, x)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)])
    def test_all_nan_input_behaves_like_numpy_qr(self, shape):
        x = np.full(shape, np.nan)
        assert outcome(orthonormal_signed, x) == outcome(reference_signed_qr, x)

    def test_nonnegative_pivots(self):
        gen = np.random.default_rng(15)
        x = gen.standard_normal((8, 3))
        q, _ = orthonormal_signed(x)
        assert np.all(np.diagonal(q.T @ x) >= 0.0)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_batched_input(self):
        gen = np.random.default_rng(16)
        x = gen.standard_normal((5, 7, 2))
        q, diag = orthonormal_signed(x)
        assert q.shape == (5, 7, 2)
        assert diag.shape == (5, 2)
        recomputed = np.einsum("kij,kil->kjl", q, x)
        assert np.all(np.diagonal(recomputed, axis1=-2, axis2=-1) >= 0.0)

    def test_sign_convention_makes_draws_deterministic(self):
        # Without the flip, LAPACK would be free to negate columns.
        x = np.array([[-2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q, _ = orthonormal_signed(x)
        assert np.allclose(q.T @ x, np.diag([2.0, 3.0]), atol=1e-14)


@given(
    d=st.integers(min_value=1, max_value=16),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_orthogonal_families_satisfy_gram_identity(d, data, seed):
    ell = data.draw(st.integers(min_value=1, max_value=d))
    for name in ("haar", "coordinate"):
        P = draw(name, d, ell, RngStream(seed, 0, 0)).matrix
        assert np.max(np.abs(P.T @ P - (d / ell) * np.eye(ell))) < 1e-10
