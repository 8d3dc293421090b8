"""Storage function, detectability, growth bounds and the decrease certificate."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
    Box,
    GrowthBoundEstimate,
    MpcConfig,
    NarxDims,
    SolverConfig,
    StageCostWeights,
    decay_r2,
    estimate_growth_bound,
    gamma_bar,
    generate_dataset,
    fit_interpolant,
    KernelSpec,
    make_mpc_config,
    min_horizon,
    plant_views,
    run_closed_loop,
    solve_ocp_batch,
    storage_matrix,
    storage_value,
    verify_decrease,
)
from narxmpc.bench import certify_trace, simulate_loop
from narxmpc.stability import (
    VERDICT_EQUILIBRIUM,
    VERDICT_VERIFIED,
    VERDICT_VIOLATED,
)
from oracles import FunctionDynamics, check_detectability, sample_domain, storage_value_lagsum

WEIGHTS = StageCostWeights(Q=1.0, R=0.1)
DIMS = NarxDims(p=1, m=1, nu=2)
MIN_HORIZON_10_2 = 65.39663084091907

#: The h0 sweep: 24 initial levels (m) of the closed loop on the plant.
SWEEP_LEVELS = tuple(round(0.02 * i, 2) for i in range(1, 25))

#: The sweep's levels at which the D=101 surrogate's loop at N=20 violates
#: the decrease on the plant.
VIOLATING_LEVELS_D101 = (
    0.02, 0.08, 0.10, 0.16, 0.18, 0.22, 0.26, 0.28, 0.30, 0.34, 0.38, 0.42, 0.44, 0.48,
)


def _linear_dynamics(a: float = 0.8, b: float = 0.5) -> FunctionDynamics:
    return FunctionDynamics(
        DIMS,
        lambda x, u: np.array([a * x[0] + b * u[0]]),
        jacobian_fn=lambda x, u: (np.array([[a, 0.0, 0.0]]), np.array([[b]])),
    )


def _tanh_dynamics(a: float = 0.8, b: float = 0.2) -> FunctionDynamics:
    def slope(x, u):
        return 1.0 - np.tanh(a * x[0] + b * u[0]) ** 2

    return FunctionDynamics(
        DIMS,
        lambda x, u: np.array([np.tanh(a * x[0] + b * u[0])]),
        jacobian_fn=lambda x, u: (slope(x, u) * np.array([[a, 0.0, 0.0]]), slope(x, u) * np.array([[b]])),
    )


def _zero_dynamics() -> FunctionDynamics:
    return FunctionDynamics(
        DIMS,
        lambda x, u: np.zeros(1),
        jacobian_fn=lambda x, u: (np.zeros((1, 3)), np.zeros((1, 1))),
    )


def _config(horizon: int) -> MpcConfig:
    return MpcConfig(
        horizon=horizon,
        weights=WEIGHTS,
        input_box=Box(lo=np.array([-10.0]), hi=np.array([10.0])),
        dims=DIMS,
        solver=SolverConfig(max_iters=2000),
    )


class TestStorageMatrix:
    def test_benchmark_diagonal(self, storage):
        assert_array_equal(storage.P, np.diag([1.0, 0.5, 0.1]))
        assert storage.eta == 0.5
        assert storage.sigma_min == pytest.approx(0.1, rel=1e-15)

    def test_single_lag_reduces_to_output_weight(self):
        dims = NarxDims(p=2, m=1, nu=1)
        weights = StageCostWeights(Q=np.array([2.0, 3.0]), R=1.0)
        storage = storage_matrix(dims, weights)
        assert_array_equal(storage.P, np.diag([2.0, 3.0]))
        assert storage.eta == 0.0

    def test_three_lag_weights(self):
        dims = NarxDims(p=1, m=1, nu=3)
        storage = storage_matrix(dims, StageCostWeights(Q=1.0, R=1.0))
        assert_allclose(
            np.diag(storage.P), [1.0, 2.0 / 3.0, 1.0 / 3.0, 1.0, 2.0 / 3.0], rtol=1e-15
        )
        assert storage.eta == pytest.approx(2.0 / 3.0)
        assert storage.sigma_min == pytest.approx(1.0 / 3.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            storage_matrix(NarxDims(p=2, m=1, nu=2), WEIGHTS)


class TestStorageValue:
    def test_origin(self, storage):
        assert storage_value(np.zeros(3), storage) == 0.0

    def test_hand_value(self, storage):
        assert storage_value(np.ones(3), storage) == pytest.approx(1.6, rel=1e-15)

    def test_batched(self, storage):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 3))
        batched = storage_value(X, storage)
        singles = [storage_value(x, storage) for x in X]
        assert_allclose(batched, singles, rtol=1e-14)

    def test_matches_lag_sum(self, storage):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        assert_allclose(
            storage_value(X, storage),
            storage_value_lagsum(X, storage.dims, storage.weights),
            rtol=1e-12,
        )

    def test_matches_lag_sum_vector_case(self):
        dims = NarxDims(p=2, m=1, nu=3)
        weights = StageCostWeights(Q=np.array([1.0, 2.0]), R=0.5)
        storage = storage_matrix(dims, weights)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, dims.n))
        assert_allclose(
            storage_value(X, storage),
            storage_value_lagsum(X, dims, weights),
            rtol=1e-12,
        )


class TestDetectability:
    def test_surrogate_on_sampled_domain(self, cfg, storage, fit_101):
        _, model = fit_101
        X, U = sample_domain(cfg, 1000, cfg.seed + 3)
        report = check_detectability(model, storage, X, U)
        assert report.ok
        assert report.max_violation <= 1e-10
        assert report.sample_count == 1000

    def test_plant_view_on_sampled_domain(self, cfg, storage, plant_view):
        X, U = sample_domain(cfg, 200, cfg.seed + 5)
        report = check_detectability(plant_view, storage, X, U)
        assert report.ok

    def test_origin_sample_is_tight(self, storage):
        report = check_detectability(
            _zero_dynamics(), storage, np.zeros((1, 3)), np.zeros((1, 1))
        )
        assert report.max_violation == 0.0

    def test_memoryless_case(self):
        dims = NarxDims(p=1, m=1, nu=1)
        storage = storage_matrix(dims, WEIGHTS)
        f = FunctionDynamics(dims, lambda x, u: np.array([math.sin(x[0]) + u[0] ** 2]))
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 1))
        U = rng.standard_normal((200, 1))
        report = check_detectability(f, storage, X, U)
        assert report.ok
        assert report.max_violation <= 0.0

    def test_non_finite_output_is_a_violation(self, storage):
        dims = DIMS
        f = FunctionDynamics(dims, lambda x, u: np.array([np.nan]))
        report = check_detectability(f, storage, np.ones((3, 3)), np.ones((3, 1)))
        assert not report.ok
        assert report.max_violation == np.inf
        assert report.violation_count >= 1


class TestGrowthBound:
    def test_zero_dynamics_has_zero_growth(self):
        rng = np.random.default_rng(5)
        states = rng.uniform(0.2, 1.0, size=(4, 3))
        growth = estimate_growth_bound(_zero_dynamics(), _config(3), states, 3)
        assert_allclose(growth.b_values, np.zeros(3), atol=1e-12)
        assert growth.solver_failures == 0

    def test_b_values_nondecreasing(self):
        rng = np.random.default_rng(6)
        states = rng.uniform(0.2, 1.0, size=(5, 3))
        growth = estimate_growth_bound(_linear_dynamics(), _config(4), states, 4)
        assert np.all(np.diff(growth.b_values) >= 0.0)
        assert growth.b_values[0] > 0.0
        assert growth.ratios.shape == (5, 4)

    def test_origin_state_rejected(self):
        states = np.vstack([np.zeros(3), np.ones(3)])
        with pytest.raises(ValueError):
            estimate_growth_bound(_zero_dynamics(), _config(2), states, 2)

    def test_horizon_floor(self):
        with pytest.raises(ValueError):
            estimate_growth_bound(_zero_dynamics(), _config(2), np.ones((1, 3)), 0)

    @pytest.mark.parametrize("model", ["surrogate", "plant"])
    def test_grid_with_no_state_rejected(self, model, fit_101, plant_view, mpc_cfg):
        f = fit_101[1] if model == "surrogate" else plant_view
        with pytest.raises(ValueError, match="need at least one state"):
            estimate_growth_bound(f, mpc_cfg, np.empty((0, f.dims.n)), 3)


class TestGammaBar:
    def _estimate(self, b_values):
        b = np.asarray(b_values, dtype=float)
        return GrowthBoundEstimate(
            b_values=b,
            ratios=np.tile(b, (1, 1)),
            states=np.ones((1, 3)),
        )

    def test_zero_growth(self, storage):
        assert gamma_bar(self._estimate([0.0, 0.0]), storage) == 0.0

    def test_scaling_by_sigma_min(self, storage):
        assert gamma_bar(self._estimate([0.4, 0.8]), storage) == pytest.approx(8.0)

    def test_lighter_input_weight_raises_envelope(self):
        dims = DIMS
        heavy = storage_matrix(dims, StageCostWeights(Q=1.0, R=0.1))
        light = storage_matrix(dims, StageCostWeights(Q=1.0, R=0.01))
        est = self._estimate([0.5])
        assert gamma_bar(est, light) > gamma_bar(est, heavy)


class TestMinHorizon:
    def test_reference_value(self):
        hand = 1.0 + (math.log(10.0) - math.log(0.5)) / (
            math.log(11.0) - math.log(10.5)
        )
        assert min_horizon(10.0, 2) == pytest.approx(hand, abs=1e-12)
        assert min_horizon(10.0, 2) == pytest.approx(MIN_HORIZON_10_2, abs=1e-9)

    def test_unit_at_reciprocal_lag(self):
        assert min_horizon(0.5, 2) == pytest.approx(1.0, abs=1e-12)
        assert min_horizon(1.0 / 3.0, 3) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_in_gamma(self):
        values = [min_horizon(g, 2) for g in np.linspace(0.6, 50.0, 60)]
        assert np.all(np.diff(values) > 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            min_horizon(0.0, 2)
        with pytest.raises(ValueError):
            min_horizon(-1.0, 2)
        with pytest.raises(ValueError):
            min_horizon(1.0, 0)


class TestLyapunovValue:
    """The candidate ``Y = V + W`` that the closed loop records per state."""

    def test_zero_at_origin(self, storage):
        f = _linear_dynamics()
        trace = run_closed_loop(f, f, _config(4), np.zeros(3), steps=1,
                                storage_matrix=storage.P)
        assert trace.lyapunov[0] == pytest.approx(0.0, abs=1e-12)

    def test_dominates_storage(self, storage):
        x = np.array([0.5, -0.2, 0.3])
        f = _linear_dynamics()
        trace = run_closed_loop(f, f, _config(4), x, steps=1, storage_matrix=storage.P)
        assert trace.lyapunov[0] >= float(storage_value(x, storage))


class TestVerifyDecrease:
    def test_resting_trace_is_at_equilibrium(self, storage):
        f = _zero_dynamics()
        trace = run_closed_loop(f, f, _config(3), np.zeros(3), steps=3,
                                storage_matrix=storage.P)
        report = verify_decrease(trace, storage)
        assert report.verdict == VERDICT_EQUILIBRIUM
        assert report.ok
        assert report.alpha is None
        assert report.active_steps == 0

    def test_stable_linear_loop_verifies(self, storage):
        f = _linear_dynamics()
        trace = run_closed_loop(f, f, _config(8), np.array([0.5, 0.0, 0.0]),
                                steps=15, storage_matrix=storage.P)
        report = verify_decrease(trace, storage)
        assert report.verdict == VERDICT_VERIFIED
        assert report.ok
        assert report.alpha > 0.0
        assert report.first_violation is None
        # deltas obey the uniform-decrease inequality reported
        norms = report.state_norms[:-1]
        active = norms > report.deadband
        assert np.all(
            report.deltas[active] <= -report.alpha * norms[active] ** 2 + 1e-12
        )

    def test_growth_annotations(self, storage):
        f = _linear_dynamics()
        cfg = _config(8)
        trace = run_closed_loop(f, f, cfg, np.array([0.5, 0.0, 0.0]), steps=10,
                                storage_matrix=storage.P)
        rng = np.random.default_rng(7)
        states = rng.uniform(0.2, 0.8, size=(5, 3))
        growth = estimate_growth_bound(f, cfg, states, 4)
        report = verify_decrease(trace, storage, growth=growth)
        assert report.gamma_bar > 0.0
        assert report.min_horizon_value is not None
        assert isinstance(report.horizon_sufficient, bool)
        assert_array_equal(report.b_values, growth.b_values)
        assert report.capped_solves is None

    def test_capped_solves_count_trace_and_grid(self, storage):
        f = _tanh_dynamics()
        cfg = _config(8)
        capped_cfg = replace(cfg, solver=replace(cfg.solver, max_iters=1))
        states = np.random.default_rng(7).uniform(0.2, 0.8, size=(5, 3))
        for run_cfg in (cfg, capped_cfg):
            trace = run_closed_loop(f, f, run_cfg, np.array([0.5, 0.0, 0.0]), steps=10,
                                    storage_matrix=storage.P)
            growth = estimate_growth_bound(f, run_cfg, states, 4)
            max_iters = run_cfg.solver.max_iters
            report = verify_decrease(trace, storage, growth=growth, max_iters=max_iters)
            capped = ~trace.converged & (trace.iterations >= max_iters)
            in_trace = int(np.sum(capped))
            assert report.capped_solves == in_trace + growth.capped
            grid = solve_ocp_batch(f, states, replace(run_cfg, horizon=4))
            worst = [sol.grad_norm for sol in grid if not sol.converged and sol.iterations >= max_iters]
            worst += list(trace.grad_norms[capped])
            assert report.capped_max_grad_norm == (max(worst) if worst else None)
        # One iteration cannot converge from these starts: the dynamics are not
        # linear, where the Gauss-Newton step is exact, and the weak input keeps
        # the state away from the origin for all ten steps.  Every solve is
        # capped, and the grid solves each state once.
        assert in_trace == trace.iterations.size and growth.capped == states.shape[0]

    def test_corrupted_surrogate_is_flagged(self, cfg, storage):
        """A surrogate scaled 10x off the plant must fail the certificate."""
        small = replace(cfg, d=51, steps=12, horizon=5)
        data, _ = generate_dataset(small)
        spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=small.sigma)
        model = fit_interpolant(spec, data)

        def jacobian_fn(x, u):
            sweep = model.sweep(x[None], u[None, None])
            jac = 10.0 * sweep.jac[0, 0]
            return jac[:, : model.dims.n], jac[:, model.dims.n :]

        bad = FunctionDynamics(small.dims, lambda x, u: 10.0 * model.output(x, u), jacobian_fn=jacobian_fn)
        _, stateful = plant_views(small)
        mpc_cfg = make_mpc_config(small)
        x0, _ = small.initial_condition()
        trace = run_closed_loop(stateful, bad, mpc_cfg, x0, steps=small.steps,
                                storage_matrix=storage.P)
        report = verify_decrease(trace, storage)
        assert report.verdict == VERDICT_VIOLATED
        assert not report.ok
        assert report.first_violation is not None
        assert report.alpha == 0.0


class TestPlantVerdicts:
    """Closed loops on the plant, with the exact plant view or a surrogate
    as the controller's model."""

    @pytest.mark.parametrize("h0", [0.02, 0.48])
    def test_exact_model_loop_verifies(self, cfg, storage, h0):
        """MPC on the exact plant view at N=20 verifies the decrease from
        the lowest and the highest initial level of the h0 sweep, with no
        failed step: the reference for surrogate loops from these levels."""
        exact = replace(cfg, horizon=20, h0=h0)
        model, plant = plant_views(exact)
        x0, _ = exact.initial_condition()
        trace = run_closed_loop(
            plant, model, make_mpc_config(exact), x0, exact.steps,
            storage_matrix=storage.P, normalization=exact.normalization(),
        )
        assert trace.failed_step is None and trace.failure is None
        assert verify_decrease(trace, storage).verdict == VERDICT_VERIFIED

    def test_h0_sweep_at_d101_violates_on_the_pinned_levels(self, cfg, storage, fit_101):
        """Standing falsification check: the D=101 surrogate's loops at
        N=20 from the 24 levels of the h0 sweep violate the decrease on the
        plant at exactly the pinned levels, with no failed step and no
        capped solve.  A change that claims something for the plant must
        face these violations; one that moves them must re-pin them."""
        _, model = fit_101
        violating, capped, failed = [], 0, 0
        for h0 in SWEEP_LEVELS:
            level = replace(cfg, horizon=20, h0=h0)
            trace = simulate_loop(level, model)
            report = verify_decrease(trace, storage, max_iters=make_mpc_config(level).solver.max_iters)
            if report.verdict == VERDICT_VIOLATED:
                violating.append(h0)
            capped += report.capped_solves
            failed += trace.failure is not None
        assert tuple(violating) == VIOLATING_LEVELS_D101
        assert (capped, failed) == (0, 0)

    def test_horizon_sufficient_is_not_a_plant_guarantee(self, cfg, fit_101):
        """At D=101 and N=48 the standard grid's sampled growth bound makes
        ``horizon_sufficient`` true (min_horizon 43.4 < 48), yet the
        surrogate's loop on the plant from h0 = 0.02 violates the decrease.
        The flag is a condition on the surrogate's growth bound alone."""
        longer = replace(cfg, horizon=48, h0=0.02)
        _, model = fit_101
        trace = simulate_loop(longer, model)
        _, report = certify_trace(longer, model, trace)
        assert report.horizon_sufficient is True
        assert report.min_horizon_value == pytest.approx(43.4, abs=0.05)
        assert report.verdict == VERDICT_VIOLATED

    def test_the_printed_error_bound_fails_on_the_d2501_trace(self, benchmark_run):
        """Standing falsification check of the proportional error bound on
        the benchmark's own loops: the D=2501 trace's one-step model errors
        exceed ``c_x ||x|| + c_u ||u||`` on 10 of its 20 active steps, by up
        to 1.84 (``error_bound_on_trace`` false), while D=101 stays below
        it (0.76, true).  A change that makes D=2501 true must say how."""
        result, _ = benchmark_run
        for d, ratio, above, active_steps in ((101, 0.76, 0, 18), (2501, 1.84, 10, 20)):
            arm = result.arms[d]
            report, trace = arm.report, arm.trace
            x, u = trace.states[:-1], trace.inputs
            errors = np.linalg.norm(trace.outputs - arm.model.output_batch(x, u), axis=1)
            assert_array_equal(report.model_errors, np.append(errors, np.nan))
            active = report.state_norms[:-1] > report.deadband
            assert int(np.count_nonzero(active)) == report.active_steps == active_steps
            x_norms, u_norms = np.linalg.norm(x, axis=1)[active], np.linalg.norm(u, axis=1)[active]
            ratios = errors[active] / arm.constants.bound(x_norms, u_norms)
            assert report.trace_bound_ratio == pytest.approx(ratios.max(), rel=1e-12)
            assert report.trace_bound_ratio == pytest.approx(ratio, abs=0.005)
            assert int(np.count_nonzero(ratios > 1.0)) == above
            assert report.error_bound_on_trace is (above == 0)
            data_only = np.max(errors[active] / np.hypot(x_norms, u_norms))
            assert report.trace_error_ratio == pytest.approx(data_only, rel=1e-12)


class TestDecayFit:
    def test_geometric_series(self):
        assert decay_r2(0.5 ** np.arange(12)) == pytest.approx(1.0, abs=1e-12)

    def test_window_stops_at_relative_floor(self):
        """The window ends at the first error at or below 1% of the first; a
        line through the flat tail as well would give r2 = 0.484."""
        errors = np.concatenate([0.1 ** np.arange(5), np.full(20, 1e-9)])
        assert decay_r2(errors) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_series(self):
        assert math.isnan(decay_r2(np.zeros(5)))
        assert math.isnan(decay_r2(np.array([1.0, 0.5])))
