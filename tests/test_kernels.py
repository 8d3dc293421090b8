"""Compact-support kernel, interpolation, power function and error constants."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_factor

from narxmpc import (
    AffineNormalization,
    Dataset,
    KernelFitError,
    KernelSpec,
    NarxDims,
    estimate_error_constants,
    fill_distance,
    fit_interpolant,
    generate_dataset,
    kernel_matrix,
    min_pairwise_distance,
    wendland_phi,
)
from narxmpc.bench import probe_sites
from oracles import FunctionDynamics, one_step_sweep

PHI_AT_ZERO = 1.0 / 30.0
PHI_AT_HALF = 0.0036458333333333334
SQRT_PHI_AT_ZERO = 0.18257418583505536


def _identity_norm() -> AffineNormalization:
    return AffineNormalization(
        y_ref=np.array([0.0]),
        y_scale=np.array([1.0]),
        u_ref=np.array([0.0]),
        u_scale=np.array([1.0]),
    )


def _k(spec: KernelSpec, a, b) -> float:
    """Kernel value between two single sites."""
    return float(kernel_matrix(spec, np.atleast_2d(a), np.atleast_2d(b))[0, 0])


def _dataset(sites, targets) -> Dataset:
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    dims = NarxDims(p=1, m=1, nu=1)
    return Dataset(
        sites=sites,
        targets=np.reshape(targets, (sites.shape[0], 1)),
        dims=dims,
        normalization=_identity_norm(),
        contains_origin=False,
    )


class TestProfile:
    def test_value_at_zero(self):
        assert wendland_phi(np.array(0.0)) == pytest.approx(PHI_AT_ZERO, rel=1e-15)

    def test_support_boundary_and_beyond(self):
        assert_allclose(wendland_phi(np.array([1.0, 1.5, 2.0])), np.zeros(3), atol=0.0)

    def test_value_at_half(self):
        assert wendland_phi(np.array(0.5)) == pytest.approx(PHI_AT_HALF, rel=1e-15)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            wendland_phi(np.array(-0.1))

    def test_products_match_the_power_form(self):
        r = np.linspace(0.0, 1.2, 241)
        one_minus = np.maximum(1.0 - r, 0.0)
        assert_allclose(wendland_phi(r), one_minus**5 * (5.0 * r + 1.0) / 30.0, rtol=1e-14, atol=0.0)

    def test_argument_is_left_unchanged(self):
        r = np.array([0.0, 0.5, 0.99, 2.0])
        wendland_phi(r)
        assert_array_equal(r, [0.0, 0.5, 0.99, 2.0])

    def test_non_finite_radii(self):
        # NaN stays NaN and an infinite radius lies outside the support;
        # neither may raise a floating-point warning.
        r = np.array([np.nan, np.inf])
        assert_array_equal(wendland_phi(r), [np.nan, 0.0])


class TestKernelEval:
    def test_coincident_points(self):
        spec = KernelSpec(input_dim=2)
        xi = np.array([0.3, -0.2])
        assert _k(spec, xi, xi) == pytest.approx(PHI_AT_ZERO, rel=1e-15)

    def test_compact_support(self):
        spec = KernelSpec(input_dim=2, lengthscale=1.0)
        assert _k(spec, np.zeros(2), np.array([1.0, 0.0])) == 0.0
        assert _k(spec, np.zeros(2), np.array([3.0, 4.0])) == 0.0

    def test_lengthscale_rescales_radius(self):
        spec = KernelSpec(input_dim=2, lengthscale=2.0)
        got = _k(spec, np.zeros(2), np.array([1.0, 0.0]))
        assert got == pytest.approx(PHI_AT_HALF, rel=1e-15)

    def test_symmetry(self):
        spec = KernelSpec(input_dim=3, lengthscale=1.7)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert _k(spec, a, b) == _k(spec, b, a)

    def test_matrix_matches_pointwise(self):
        spec = KernelSpec(input_dim=2, lengthscale=1.5)
        rng = np.random.default_rng(6)
        A = rng.uniform(0.0, 1.0, size=(7, 2))
        K = kernel_matrix(spec, A)
        manual = np.array([[_k(spec, a, b) for b in A] for a in A])
        assert_allclose(K, manual, rtol=0.0, atol=1e-16)
        assert_allclose(K, K.T, rtol=0.0, atol=0.0)
        assert_allclose(np.diag(K), np.full(7, PHI_AT_ZERO), rtol=1e-15)

    def test_spec_dimension_limit(self):
        # positive definiteness of this profile holds only up to dimension 5
        with pytest.raises(ValueError):
            KernelSpec(input_dim=6)
        with pytest.raises(ValueError):
            KernelSpec(input_dim=2, lengthscale=0.0)


class TestInterpolant:
    def test_single_site_coefficient(self):
        data = _dataset([[0.3, 0.4]], [0.7])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        assert_allclose(model.coefficients, [[30.0 * 0.7]], rtol=1e-12)
        assert_allclose(model.output(np.array([0.3]), np.array([0.4])), [0.7], rtol=1e-12)
        assert model.site_residual <= 1e-12

    def test_disjoint_supports_decouple(self):
        data = _dataset([[0.0, 0.0], [5.0, 5.0]], [0.4, -1.1])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        assert_allclose(model.coefficients.ravel(), [30.0 * 0.4, 30.0 * -1.1], rtol=1e-12)

    def test_prediction_vanishes_off_support(self):
        data = _dataset([[0.0, 0.0]], [0.9])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        assert model.output(np.array([2.0]), np.array([2.0]))[0] == 0.0

    def test_output_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        data = _dataset(rng.uniform(0.0, 1.0, size=(12, 2)), rng.standard_normal(12))
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        Xi = rng.uniform(0.0, 1.0, size=(25, 2))
        n = model.dims.n
        batch = model.output_batch(Xi[:, :n], Xi[:, n:])
        single = np.concatenate([one_step_sweep(model, xi[None])[0] for xi in Xi])
        assert_allclose(batch, single, rtol=0.0, atol=1e-14)

    def test_benchmark_fit_interpolates(self, fit_101):
        data, model = fit_101
        assert model.site_residual <= 1e-8
        n = model.dims.n
        pred = model.output_batch(data.sites[:, :n], data.sites[:, n:])
        assert np.max(np.abs(pred - data.targets)) <= 1e-8
        # the equilibrium site is the first row and maps to target zero
        assert abs(one_step_sweep(model, data.sites[:1])[0][0, 0]) <= 1e-8

    def test_jacobian_matches_finite_difference(self, fit_101):
        _, model = fit_101
        rng = np.random.default_rng(9)
        xi = rng.uniform(-0.05, 0.3, size=4)
        n = model.dims.n
        jac = one_step_sweep(model, xi[None])[1][0]
        h = 1e-6
        fd = np.zeros_like(jac)
        for j in range(xi.size):
            e = np.zeros(xi.size)
            e[j] = h
            plus, minus = xi + e, xi - e
            fd[:, j] = (model.output(plus[:n], plus[n:]) - model.output(minus[:n], minus[n:])) / (2.0 * h)
        assert_allclose(jac, fd, rtol=0.0, atol=1e-7)

    def test_singular_kernel_matrix_is_a_fit_error(self):
        # At a lengthscale of 1e12 every entry rounds to phi(0): the matrix
        # has rank one, and the fit names the smallest site separation,
        # sqrt(0.5) between the first two sites and the last two.
        data = _dataset([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]], [0.1, 0.2, 0.3])
        spec = KernelSpec(input_dim=2, lengthscale=1e12)
        assert np.all(kernel_matrix(spec, data.sites) == PHI_AT_ZERO)
        with pytest.raises(
            KernelFitError,
            match=r"^kernel matrix factorization failed \(smallest site separation 7\.071068e-01\); "
            "enlarge the site separation$",
        ):
            fit_interpolant(spec, data)


class TestPowerFunction:
    def test_zero_at_sites(self, fit_101):
        data, model = fit_101
        values = model.power_function(data.sites)
        assert np.max(values) <= 1e-7

    def test_far_field_limit(self):
        data = _dataset([[0.0, 0.0]], [1.0])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        far = model.power_function(np.array([[10.0, 10.0]]))
        assert far[0] == pytest.approx(SQRT_PHI_AT_ZERO, rel=1e-15)

    def test_appending_probe_removes_uncertainty(self):
        rng = np.random.default_rng(10)
        sites = rng.uniform(0.0, 1.0, size=(6, 2))
        probe = np.array([0.77, 0.13])
        small = fit_interpolant(KernelSpec(input_dim=2), _dataset(sites, np.zeros(6)))
        assert small.power_function(probe[None, :])[0] > 1e-4
        grown = fit_interpolant(
            KernelSpec(input_dim=2), _dataset(np.vstack([sites, probe]), np.zeros(7))
        )
        assert grown.power_function(probe[None, :])[0] <= 1e-7

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probes_rejected(self, bad):
        model = fit_interpolant(KernelSpec(input_dim=2), _dataset([[0.0, 0.0]], [1.0]))
        with pytest.raises(ValueError, match="power-function probes must be finite"):
            model.power_function(np.array([[0.2, 0.1], [bad, 0.3]]))

    def test_monotone_under_site_refinement(self):
        rng = np.random.default_rng(12)
        sites = rng.uniform(0.0, 1.0, size=(9, 2))
        subset = fit_interpolant(KernelSpec(input_dim=2), _dataset(sites[:5], np.zeros(5)))
        full = fit_interpolant(KernelSpec(input_dim=2), _dataset(sites, np.zeros(9)))
        probes = rng.uniform(0.0, 1.0, size=(200, 2))
        p_sub = subset.power_function(probes)
        p_full = full.power_function(probes)
        assert np.all(p_full <= p_sub + 1e-10)


class TestMemory:
    """A fitted model holds one D x D array, and batches of kernel rows
    are evaluated in blocks.  tracemalloc sees numpy's buffers."""

    @pytest.fixture(scope="class")
    def data_1001(self, cfg):
        return generate_dataset(replace(cfg, d=1001))[0]

    @staticmethod
    def _traced(call):
        """Result, peak and held bytes allocated by ``call``."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - start, held - start

    def test_fit_holds_one_gram_sized_array(self, cfg, data_1001):
        spec = KernelSpec(input_dim=data_1001.sites.shape[1], lengthscale=cfg.sigma)
        factored = []

        def factor_spy(a, **kwargs):
            factored.append((a, cho_factor(a, **kwargs)[0]))
            return factored[-1][1], kwargs["lower"]

        with patch("narxmpc.kernels.cho_factor", factor_spy):
            model, peak, held = self._traced(
                lambda: fit_interpolant(spec, data_1001)
            )
        gram_bytes = data_1001.size**2 * 8
        assert peak <= 1.25 * gram_bytes
        assert held <= 1.05 * gram_bytes
        # LAPACK wrote the factor into the array that held the Gram matrix.
        ((gram, factor),) = factored
        assert np.shares_memory(factor, gram)
        assert model.site_residual <= 1e-8

    @pytest.fixture(scope="class")
    def model_1001(self, cfg, data_1001):
        spec = KernelSpec(input_dim=data_1001.sites.shape[1], lengthscale=cfg.sigma)
        return fit_interpolant(spec, data_1001)

    def test_kernel_row_batches_stay_small(self, cfg, data_1001, model_1001):
        """A 400-row value pass holds the three buffers of one 64-row
        block (radii, profile and ``(1 - r)^4``) and a few small arrays; a
        fourth block-sized temporary would pass 3.5 blocks."""
        probes = probe_sites(cfg, 2000, seed=cfg.seed + 23)
        _, fill_peak, _ = self._traced(lambda: fill_distance(data_1001.sites, probes))
        n = model_1001.dims.n
        _, predict_peak, _ = self._traced(lambda: model_1001.output_batch(probes[:400, :n], probes[:400, n:]))
        assert fill_peak < 3e6
        assert predict_peak < 3.5 * 64 * data_1001.size * 8

    def test_sweep_temporaries_stay_small(self, cfg, model_1001):
        """A sweep keeps each row's ``(1 - r)^4`` only until 64 rows have
        built up, and the Jacobian pass adds only its sums, a few numbers a
        row, so 50 rows over 20 steps peak at about 1.7 MB: two steps' kept
        factors (0.8 MB) and one step's value temporaries (0.8 MB), where
        all twenty steps' factors would take 8 MB."""
        dims = model_1001.dims
        rng = np.random.default_rng(cfg.seed)
        X0 = rng.uniform(-1.0, 1.0, size=(50, dims.n))
        U = rng.uniform(-1.0, 1.0, size=(50, 20, dims.m))
        sweep, peak, _ = self._traced(lambda: model_1001.sweep(X0, U))
        assert sweep.jac.shape == (50, 20, dims.p, dims.n + dims.m)
        assert peak < 2.5e6


class TestNativeNorm:
    def test_zero_targets(self):
        data = _dataset([[0.1, 0.2], [0.6, 0.7]], [0.0, 0.0])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        assert model.rkhs_norm() == pytest.approx(0.0, abs=1e-14)

    def test_single_site_closed_form(self):
        data = _dataset([[0.3, 0.4]], [0.7])
        model = fit_interpolant(KernelSpec(input_dim=2), data)
        assert model.rkhs_norm() == pytest.approx(0.7 * np.sqrt(30.0), rel=1e-12)

    def test_representer_quadratic_form(self):
        rng = np.random.default_rng(13)
        sites = rng.uniform(0.0, 1.0, size=(8, 2))
        spec = KernelSpec(input_dim=2)
        K = kernel_matrix(spec, sites)
        beta = rng.standard_normal((8, 1))
        model = fit_interpolant(spec, _dataset(sites, K @ beta))
        assert_allclose(model.coefficients, beta, rtol=0.0, atol=1e-9)
        expected = float(np.sqrt((beta.T @ K @ beta).item()))
        assert model.rkhs_norm() == pytest.approx(expected, rel=1e-9)


class TestFillDistance:
    def test_center_site_unit_square(self):
        sites = np.array([[0.5, 0.5]])
        probes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert fill_distance(sites, probes) == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_probes_inside_sites(self):
        rng = np.random.default_rng(14)
        sites = rng.uniform(0.0, 1.0, size=(20, 3))
        assert fill_distance(sites, sites[::2]) == 0.0

    def test_refinement_never_increases(self):
        rng = np.random.default_rng(15)
        sites = rng.uniform(0.0, 1.0, size=(30, 2))
        probes = rng.uniform(0.0, 1.0, size=(100, 2))
        assert fill_distance(sites, probes) <= fill_distance(sites[:10], probes)

    def test_min_pairwise_distance(self):
        sites = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert min_pairwise_distance(sites) == pytest.approx(1.0, rel=1e-15)


class TestDatasetValidation:
    def test_near_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            _dataset([[0.1, 0.1], [0.1, 0.1 + 1e-13]], [0.0, 0.0])

    def test_row_count_mismatch(self):
        dims = NarxDims(p=1, m=1, nu=1)
        with pytest.raises(ValueError):
            Dataset(
                sites=np.zeros((2, 2)),
                targets=np.zeros((3, 1)),
                dims=dims,
                normalization=_identity_norm(),
            )

    def test_site_width_mismatch(self):
        dims = NarxDims(p=1, m=1, nu=2)
        with pytest.raises(ValueError):
            Dataset(
                sites=np.zeros((1, 2)),
                targets=np.zeros((1, 1)),
                dims=dims,
                normalization=_identity_norm(),
            )

    def test_origin_flag_requires_origin_site(self):
        dims = NarxDims(p=1, m=1, nu=1)
        with pytest.raises(ValueError):
            Dataset(
                sites=np.array([[0.5, 0.5]]),
                targets=np.zeros((1, 1)),
                dims=dims,
                normalization=_identity_norm(),
                contains_origin=True,
            )

    @pytest.mark.parametrize(
        "sites, targets, name",
        [
            ([[0.1, 0.2], [0.3, np.nan], [0.5, 0.5]], [0.0, 1.0, 2.0], "sites"),
            ([[0.1, 0.2], [0.3, 0.4], [np.inf, 0.5]], [0.0, 1.0, 2.0], "sites"),
            ([[0.1, 0.2], [0.3, 0.4], [0.5, 0.5]], [0.0, np.inf, 2.0], "targets"),
        ],
    )
    def test_non_finite_data_rejected(self, sites, targets, name):
        """A NaN or inf is rejected where the data enter, naming the rows,
        before it can reach the factorization."""
        with pytest.raises(ValueError, match=rf"^non-finite {name}: 1 row\(s\) hold NaN or inf"):
            _dataset(sites, targets)

    @pytest.mark.parametrize("jitter", [1e-10, -1e-3, np.nan, np.inf])
    def test_the_fit_is_always_an_interpolant(self, jitter):
        """The ``jitter`` keyword is kept for one caller and takes only 0."""
        spec, data = KernelSpec(input_dim=2), _dataset([[0.1, 0.2]], [0.3])
        with pytest.raises(ValueError, match=r"^jitter must be 0 \(the fit is an interpolant\)"):
            fit_interpolant(spec, data, jitter=jitter)
        zero = fit_interpolant(spec, data, jitter=0.0)
        assert zero.coefficients.tobytes() == fit_interpolant(spec, data).coefficients.tobytes()

    def test_spec_width_checked_at_fit(self):
        data = _dataset([[0.1, 0.2]], [0.3])
        with pytest.raises(ValueError):
            fit_interpolant(KernelSpec(input_dim=3), data)


def _scalar_dims() -> NarxDims:
    return NarxDims(p=1, m=1, nu=1)


def _samples(count: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(count, 1))
    U = rng.uniform(-1.0, 1.0, size=(count, 1))
    X[0] = 0.0
    U[0] = 0.0
    return X, U


class TestErrorConstants:
    def test_exact_model_gives_zero_constants(self):
        dims = _scalar_dims()
        fn = lambda x, u: np.array([0.5 * x[0] - 0.2 * u[0]])
        truth = FunctionDynamics(dims, fn)
        model = FunctionDynamics(dims, fn)
        X, U = _samples(150, 16)
        constants = estimate_error_constants(truth, model, X, U)
        assert constants.c_x == 0.0
        assert constants.c_u == 0.0

    def test_state_proportional_bias_recovered(self):
        dims = _scalar_dims()
        truth = FunctionDynamics(dims, lambda x, u: np.array([0.5 * x[0]]))
        model = FunctionDynamics(
            dims, lambda x, u: np.array([0.5 * x[0] + 0.01 * np.linalg.norm(x)])
        )
        X, U = _samples(200, 17)
        constants = estimate_error_constants(truth, model, X, U)
        assert constants.c_x == pytest.approx(0.01, rel=1e-9)
        assert constants.c_u == 0.0
        x_norm, u_norm = np.linalg.norm(X, axis=1), np.linalg.norm(U, axis=1)
        residual = np.linalg.norm(truth.output_batch(X, U) - model.output_batch(X, U), axis=1)
        assert np.all(residual <= constants.bound(x_norm, u_norm) + 1e-12)

    def test_input_proportional_bias_recovered(self):
        dims = _scalar_dims()
        truth = FunctionDynamics(dims, lambda x, u: np.array([0.5 * x[0]]))
        model = FunctionDynamics(
            dims, lambda x, u: np.array([0.5 * x[0] + 0.2 * np.linalg.norm(u)])
        )
        X, U = _samples(200, 18)
        constants = estimate_error_constants(truth, model, X, U)
        assert constants.c_x + constants.c_u <= 0.2 + 1e-6
        bound = constants.bound(
            np.linalg.norm(X, axis=1), np.linalg.norm(U, axis=1)
        )
        residual = 0.2 * np.abs(U).ravel()
        assert np.all(residual <= bound + 1e-9)

    def test_too_few_samples_rejected(self):
        dims = _scalar_dims()
        f = FunctionDynamics(dims, lambda x, u: np.zeros(1))
        X, U = _samples(99, 19)
        with pytest.raises(ValueError):
            estimate_error_constants(f, f, X, U)

    def test_equilibrium_mismatch_rejected(self):
        dims = _scalar_dims()
        truth = FunctionDynamics(dims, lambda x, u: np.zeros(1))
        model = FunctionDynamics(dims, lambda x, u: np.array([0.5]))
        X, U = _samples(150, 20)
        with pytest.raises(ValueError):
            estimate_error_constants(truth, model, X, U)

