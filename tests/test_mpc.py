"""Stage cost, open-loop value, adjoint gradients and the receding-horizon loop."""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import mpc
from narxmpc import (
    Box,
    MpcConfig,
    NarxDims,
    SolverConfig,
    StageCostWeights,
    run_closed_loop,
    solve_ocp,
    solve_ocp_batch,
    shift_state,
    stage_cost,
    storage_matrix,
)
from oracles import FunctionDynamics, central_difference_gradient, cost_gradient, cost_J_batch, identity_normalization

WEIGHTS = StageCostWeights(Q=1.0, R=0.1)
DIMS = NarxDims(p=1, m=1, nu=2)
#: The storage matrix and the normalization of the closed loops of the test problems.
LOOP = {"storage_matrix": storage_matrix(DIMS, WEIGHTS).P, "normalization": identity_normalization(DIMS)}


def _linear_dynamics(a: float, b: float) -> FunctionDynamics:
    """Scalar one-lag-output map y+ = a*y + b*u wrapped with exact Jacobians."""
    return FunctionDynamics(
        DIMS,
        lambda x, u: np.array([a * x[0] + b * u[0]]),
        jacobian_fn=lambda x, u: (np.array([[a, 0.0, 0.0]]), np.array([[b]])),
    )


def _tanh_dynamics() -> FunctionDynamics:
    """Scalar map y+ = tanh(0.9 y - 0.3 y_prev + 1.5 u), whose cost the
    Gauss-Newton Hessian does not match."""
    def slope(x, u):
        return 1.0 - np.tanh(0.9 * x[0] - 0.3 * x[1] + 1.5 * u[0]) ** 2

    return FunctionDynamics(
        DIMS,
        lambda x, u: np.array([np.tanh(0.9 * x[0] - 0.3 * x[1] + 1.5 * u[0])]),
        jacobian_fn=lambda x, u: (slope(x, u) * np.array([[0.9, -0.3, 0.0]]), slope(x, u) * np.array([[1.5]])),
    )


def _zero_dynamics() -> FunctionDynamics:
    return FunctionDynamics(
        DIMS,
        lambda x, u: np.zeros(1),
        jacobian_fn=lambda x, u: (np.zeros((1, 3)), np.zeros((1, 1))),
    )


def _cost(f, x0, u_seq, weights) -> float:
    """Open-loop cost of one sequence, as a batch of one."""
    return float(cost_J_batch(f, np.asarray(x0, dtype=float)[None], np.asarray(u_seq, dtype=float)[None], weights)[0])


def _solo(gradient, f, x0, u_seq, weights) -> np.ndarray:
    """Gradient of one sequence, as a batch of one."""
    return gradient(f, np.asarray(x0, dtype=float)[None], np.asarray(u_seq, dtype=float)[None], weights)[0]


def _stepwise_cost(f, x0, u_seq, weights) -> float:
    """Reference cost from single evaluations and explicit shifts."""
    x, total = np.asarray(x0, dtype=float), 0.0
    for u in u_seq:
        y = f.output(x, u)
        total += float(stage_cost(y, u, weights))
        x = shift_state(x, y, u, f.dims)
    return total


def _config(horizon: int, lo: float = -10.0, hi: float = 10.0) -> MpcConfig:
    return MpcConfig(
        horizon=horizon,
        weights=WEIGHTS,
        input_box=Box(lo=np.array([lo]), hi=np.array([hi])),
        dims=DIMS,
    )


class TestStageCost:
    def test_zero(self):
        assert stage_cost(np.zeros(1), np.zeros(1), WEIGHTS) == 0.0

    def test_hand_value(self):
        assert stage_cost(np.array([2.0]), np.array([1.0]), WEIGHTS) == pytest.approx(4.1)

    def test_sign_invariance(self):
        rng = np.random.default_rng(1)
        y, u = rng.standard_normal(1), rng.standard_normal(1)
        assert stage_cost(y, u, WEIGHTS) == stage_cost(-y, -u, WEIGHTS)

    def test_batched_shape(self):
        rng = np.random.default_rng(2)
        Y, U = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
        batched = stage_cost(Y, U, WEIGHTS)
        assert batched.shape == (6,)
        singles = [stage_cost(Y[i], U[i], WEIGHTS) for i in range(6)]
        assert_allclose(batched, singles, rtol=1e-14)

    def test_matrix_weights(self):
        w = StageCostWeights(Q=np.array([[2.0, 0.5], [0.5, 2.0]]), R=np.array([1.0]))
        y = np.array([1.0, -1.0])
        # y^T Q y = 2 - 0.5 - 0.5 + 2 = 3
        assert stage_cost(y, np.zeros(1), w) == pytest.approx(3.0)

    def test_weights_must_fit_the_vectors(self):
        w = StageCostWeights(Q=np.eye(2), R=np.eye(1))
        with pytest.raises(ValueError, match=r"weight of shape \(2, 2\) for vectors of shape \(4, 3\)"):
            stage_cost(np.ones((4, 3)), np.ones((4, 1)), w)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            StageCostWeights(Q=0.0, R=1.0)
        with pytest.raises(ValueError):
            StageCostWeights(Q=np.array([[1.0, 2.0], [0.0, 1.0]]), R=1.0)
        with pytest.raises(ValueError):
            StageCostWeights(Q=np.array([[1.0, 0.0, 0.0]]), R=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="Q must be finite"):
            StageCostWeights(Q=bad, R=1.0)
        with pytest.raises(ValueError, match="R must be finite"):
            StageCostWeights(Q=1.0, R=np.array([[1.0, bad], [bad, 1.0]]))


class TestCostJ:
    def test_origin_rest_costs_nothing(self):
        f = _zero_dynamics()
        assert _cost(f, np.zeros(3), np.zeros((4, 1)), WEIGHTS) == 0.0

    def test_single_stage(self):
        f = _linear_dynamics(0.8, 0.5)
        x0 = np.array([0.3, -0.1, 0.2])
        u0 = np.array([[0.4]])
        y1 = 0.8 * 0.3 + 0.5 * 0.4
        expected = y1**2 + 0.1 * 0.4**2
        assert _cost(f, x0, u0, WEIGHTS) == pytest.approx(expected, rel=1e-14)

    def test_two_stage_hand_expansion(self):
        a, b = 0.8, 0.5
        f = _linear_dynamics(a, b)
        x1 = 0.3
        u0, u1 = 0.4, -0.2
        y1 = a * x1 + b * u0
        y2 = a * y1 + b * u1
        expected = y1**2 + y2**2 + 0.1 * (u0**2 + u1**2)
        got = _cost(f, np.array([x1, 0.0, 0.0]), np.array([[u0], [u1]]), WEIGHTS)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_batch_matches_loop(self):
        f = _linear_dynamics(0.7, 0.4)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(3)
        U = rng.standard_normal((8, 5, 1))
        batched = cost_J_batch(f, np.tile(x0, (8, 1)), U, WEIGHTS)
        singles = [_stepwise_cost(f, x0, U[i], WEIGHTS) for i in range(8)]
        assert_allclose(batched, singles, rtol=1e-12)

    def test_appending_zero_input_never_decreases_cost(self):
        f = _linear_dynamics(0.9, 0.3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x0 = rng.standard_normal(3)
            u = rng.uniform(-1.0, 1.0, size=(6, 1))
            longer = np.vstack([u, np.zeros((1, 1))])
            assert _cost(f, x0, longer, WEIGHTS) >= _cost(f, x0, u, WEIGHTS) - 1e-12


class TestGradient:
    def test_decoupled_input_gradient(self):
        f = _zero_dynamics()
        rng = np.random.default_rng(5)
        u = rng.standard_normal((7, 1))
        grad = _solo(cost_gradient, f, rng.standard_normal(3), u, WEIGHTS)
        assert_allclose(grad, 2.0 * 0.1 * u, rtol=1e-13)

    def test_matches_finite_difference_linear(self):
        f = _linear_dynamics(0.8, 0.5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x0 = rng.standard_normal(3)
            u = rng.uniform(-1.0, 1.0, size=(4, 1))
            g = _solo(cost_gradient, f, x0, u, WEIGHTS)
            g_fd = _solo(central_difference_gradient, f, x0, u, WEIGHTS)
            assert_allclose(g, g_fd, rtol=0.0, atol=1e-7)

    def test_matches_finite_difference_surrogate(self, fit_101, mpc_cfg):
        _, f = fit_101
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-0.05, 0.2, size=3)
        u = rng.uniform(-0.05, 0.2, size=(5, 1))
        g = _solo(cost_gradient, f, x0, u, mpc_cfg.weights)
        g_fd = _solo(central_difference_gradient, f, x0, u, mpc_cfg.weights)
        denom = max(float(np.linalg.norm(g_fd)), 1e-12)
        assert float(np.linalg.norm(g - g_fd)) / denom <= 1e-4

    def test_vanishes_at_interior_optimum(self):
        f = _linear_dynamics(0.8, 0.5)
        cfg = _config(4)
        sol = solve_ocp(f, np.array([0.5, 0.0, 0.0]), cfg)
        assert sol.converged
        g = _solo(cost_gradient, f, np.array([0.5, 0.0, 0.0]), sol.u_star, WEIGHTS)
        assert np.max(np.abs(g)) <= 1e-6


class TestSolveOcp:
    def test_origin_is_fixed_point(self):
        f = _linear_dynamics(0.8, 0.5)
        sol = solve_ocp(f, np.zeros(3), _config(6))
        assert sol.converged
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(sol.u_star, np.zeros((6, 1)), atol=1e-8)

    def test_zero_dynamics_turns_input_off(self):
        f = _zero_dynamics()
        rng = np.random.default_rng(8)
        warm = rng.uniform(-1.0, 1.0, size=(5, 1))
        sol = solve_ocp(f, rng.standard_normal(3), _config(5), warm=warm)
        assert sol.converged
        assert np.max(np.abs(sol.u_star)) <= 1e-6
        assert sol.value <= 1e-10

    def test_matches_normal_equations(self):
        a, b = 0.8, 0.5
        f = _linear_dynamics(a, b)
        x1 = 0.7
        # y = c + G u with c = (a x1, a^2 x1), G = [[b, 0], [a b, b]]
        c = np.array([a * x1, a * a * x1])
        G = np.array([[b, 0.0], [a * b, b]])
        u_ref = np.linalg.solve(G.T @ G + 0.1 * np.eye(2), -G.T @ c)
        sol = solve_ocp(f, np.array([x1, 0.0, 0.0]), _config(2))
        assert sol.converged
        assert_allclose(sol.u_star.ravel(), u_ref, rtol=0.0, atol=1e-6)

    def test_solution_respects_box(self):
        f = _linear_dynamics(0.9, 1.0)
        cfg = _config(5, lo=-0.01, hi=0.01)
        sol = solve_ocp(f, np.array([2.0, 0.0, 0.0]), cfg)
        box = cfg.input_box
        assert_array_equal(sol.u_star, np.clip(sol.u_star, box.lo, box.hi))

    def test_resolve_from_solution_is_stable(self):
        f = _linear_dynamics(0.8, 0.5)
        cfg = _config(4)
        x0 = np.array([0.6, -0.2, 0.1])
        first = solve_ocp(f, x0, cfg)
        second = solve_ocp(f, x0, cfg, warm=first.u_star)
        assert abs(second.value - first.value) <= 1e-10 * max(first.value, 1.0)

    def test_value_nonnegative(self):
        f = _linear_dynamics(0.8, 0.5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            sol = solve_ocp(f, rng.standard_normal(3), _config(3))
            assert sol.value >= 0.0

    @pytest.mark.parametrize("model", ["surrogate", "plant"])
    def test_batch_of_zero(self, model, fit_101, plant_view, mpc_cfg):
        """No rows give empty values and an empty sweep, and the solver
        returns no solutions."""
        f = fit_101[1] if model == "surrogate" else plant_view
        dims, horizon = f.dims, mpc_cfg.horizon
        X0 = np.empty((0, dims.n))
        assert f.output_batch(X0, np.empty((0, dims.m))).shape == (0, dims.p)
        sweep = f.sweep(X0, np.empty((0, horizon, dims.m)))
        assert sweep.outputs.shape == (0, horizon, dims.p)
        assert sweep.jac.shape == (0, horizon, dims.p, dims.n + dims.m)
        assert solve_ocp_batch(f, X0, mpc_cfg) == []

    @pytest.mark.parametrize(
        "name, value", [("GRAD_TOL", 1e-1), ("NOISE_FLOOR", 1e-3), ("ARMIJO", 0.5), ("ACTIVE_WIDTH", 1.0)]
    )
    def test_the_round_reads_the_public_constants(self, cfg, fit_101, mpc_cfg, monkeypatch, name, value):
        """A solve reads the module's stopping and line-search constants
        at its call: the D=101 solve from the reference start stops after
        fewer iterations under a looser ``GRAD_TOL`` or ``NOISE_FLOOR``,
        and takes other steps under another ``ARMIJO`` or ``ACTIVE_WIDTH``."""
        x0, _ = cfg.initial_condition()
        default = solve_ocp(fit_101[1], x0, mpc_cfg)
        monkeypatch.setattr(mpc, name, value)
        patched = solve_ocp(fit_101[1], x0, mpc_cfg)
        assert patched.converged
        assert (patched.iterations, patched.backtracks) != (default.iterations, default.backtracks)
        if name in ("GRAD_TOL", "NOISE_FLOOR"):
            assert patched.iterations < default.iterations
            assert patched.grad_norm <= mpc.GRAD_TOL or patched.predicted_decrease <= mpc.NOISE_FLOOR * patched.value


class TestStartValidation:
    """A warm start of the wrong shape, or a warm secant part with a
    non-finite entry, is refused before any cost is evaluated; a zero or
    a huge secant part leaves the cold solve."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"warm": np.zeros((4, 1))}, r"warm must have shape \(3, 1\), got \(4, 1\)"),
            ({"warm": np.zeros(3)}, r"warm must have shape \(3, 1\), got \(3,\)"),
            ({"secant": np.zeros((3, 2))}, r"secant must have shape \(3, 3\), got \(3, 2\)"),
            ({"secant": np.diag([1.0, np.nan, 1.0])}, "secant must have finite entries"),
            ({"secant": np.diag([1.0, np.inf, 1.0])}, "secant must have finite entries"),
        ],
    )
    def test_solve_ocp(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            solve_ocp(_tanh_dynamics(), np.zeros(3), _config(3), **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"warm": np.zeros((2, 3))}, r"warm must have shape \(2, 3, 1\), got \(2, 3\)"),
            ({"warm": np.zeros((1, 3, 1))}, r"warm must have shape \(2, 3, 1\), got \(1, 3, 1\)"),
            ({"secant": np.zeros((3, 3))}, r"secant must have shape \(2, 3, 3\), got \(3, 3\)"),
            ({"secant": np.full((2, 3, 3), -np.inf)}, "secant must have finite entries"),
        ],
    )
    def test_solve_ocp_batch(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            solve_ocp_batch(_tanh_dynamics(), np.zeros((2, 3)), _config(3), **kwargs)

    def test_a_zero_secant_is_the_cold_start(self):
        f, cfg, x0 = _tanh_dynamics(), _config(4), np.array([0.5, -0.3, 0.2])
        cold, zero = solve_ocp(f, x0, cfg), solve_ocp(f, x0, cfg, secant=np.zeros((4, 4)))
        assert cold.u_star.tobytes() == zero.u_star.tobytes()
        assert cold.secant.tobytes() == zero.secant.tobytes()
        assert (cold.value, cold.iterations) == (zero.value, zero.iterations)

    def test_a_huge_secant_does_not_stop_a_solve_at_its_start(self):
        """A positive definite secant part of ``1e300`` scale makes the
        first full step promise almost nothing.  The solve drops the start
        and goes on as the cold start does, rather than report convergence
        where the projected gradient is large."""
        f, cfg, x0 = _tanh_dynamics(), _config(4), np.array([0.5, -0.3, 0.2])
        cold, huge = solve_ocp(f, x0, cfg), solve_ocp(f, x0, cfg, secant=1e300 * np.eye(4))
        assert cold.iterations > 0 and cold.converged
        assert huge.u_star.tobytes() == cold.u_star.tobytes()
        assert huge.secant.tobytes() == cold.secant.tobytes()
        assert (huge.value, huge.iterations, huge.grad_norm, huge.converged) == (
            cold.value, cold.iterations, cold.grad_norm, cold.converged
        )


def test_horizon_blocks_are_built_once_and_read_only():
    cfg = _config(4)
    q_bar, r_bar, eye = cfg.horizon_blocks
    assert cfg.horizon_blocks[0] is q_bar
    assert_array_equal(q_bar, np.kron(np.eye(4), WEIGHTS.Q))
    assert_array_equal(r_bar, np.kron(np.eye(4), WEIGHTS.R))
    assert_array_equal(eye, np.eye(4))
    assert not any(block.flags.writeable for block in (q_bar, r_bar, eye))


class TestGradientStop:
    """A row whose projected gradient passes the gradient test leaves its
    round before a step is formed: no free step, no direction and a NaN
    promised decrease."""

    @pytest.fixture(scope="class")
    def episode(self, cfg, fit_101):
        """The measured states of the D=101 reference episode."""
        from narxmpc.bench import simulate_loop

        return simulate_loop(cfg, fit_101[1]).states

    @staticmethod
    def _free_step_rows(monkeypatch) -> list[int]:
        """The row count of every ``_free_step`` call made from now on."""
        rows, free_step = [], mpc._free_step

        def counted(B, *args):
            rows.append(B.shape[0])
            return free_step(B, *args)

        monkeypatch.setattr(mpc, "_free_step", counted)
        return rows

    def test_a_solve_stopped_at_its_start_forms_no_step(self, episode, fit_101, mpc_cfg, monkeypatch):
        k = mpc_cfg.horizon * mpc_cfg.dims.m
        rows = self._free_step_rows(monkeypatch)
        sol = solve_ocp(
            fit_101[1], episode[60], mpc_cfg, warm=np.zeros((mpc_cfg.horizon, mpc_cfg.dims.m)), secant=np.zeros((k, k))
        )
        assert sol.converged and sol.iterations == 0 and sol.grad_norm <= mpc.GRAD_TOL
        assert np.isnan(sol.predicted_decrease)
        assert rows == []

    def test_only_the_rows_that_go_on_form_steps(self, episode, fit_101, mpc_cfg, monkeypatch):
        """In a batch of four where two rows stop at their start, the free
        steps cover the rows of the two that descend, as their batches of
        one do, and every row equals its batch of one bit for bit."""
        model, X0 = fit_101[1], episode[[60, 0, 80, 5]]
        rows = self._free_step_rows(monkeypatch)
        batch = solve_ocp_batch(model, X0, mpc_cfg)
        batch_rows = sum(rows)
        rows.clear()
        solo, solo_rows = [], []
        for x in X0:
            rows.clear()
            solo.append(solve_ocp(model, x, mpc_cfg))
            solo_rows.append(sum(rows))
        assert [sol.iterations == 0 for sol in solo] == [True, False, True, False]
        assert solo_rows[0] == solo_rows[2] == 0
        assert batch_rows == sum(solo_rows) > 0
        for got, want in zip(batch, solo):
            assert got.u_star.tobytes() == want.u_star.tobytes()
            assert got.secant.tobytes() == want.secant.tobytes()
            assert (got.value, got.iterations, got.backtracks, got.grad_norm, got.converged) == (
                want.value, want.iterations, want.backtracks, want.grad_norm, want.converged
            )
            assert_array_equal(got.predicted_decrease, want.predicted_decrease)


class TestClosedLoop:
    def test_each_solve_starts_from_the_shifted_solution(self):
        """The first solve starts cold; every later one from its
        predecessor's inputs and secant part, shifted by one step."""
        f, cfg = _tanh_dynamics(), _config(4)
        starts, solutions = [], []

        def recorded(*args, warm, secant):
            starts.append((warm, secant))
            solutions.append(solve(*args, warm=warm, secant=secant))
            return solutions[-1]

        solve = mpc.solve_ocp
        with patch.object(mpc, "solve_ocp", recorded):
            trace = run_closed_loop(f, f, cfg, np.array([0.5, -0.3, 0.2]), steps=5, **LOOP)
        assert trace.failed_step is None and len(solutions) == 6
        assert starts[0] == (None, None)
        assert any(np.any(sol.secant != 0.0) for sol in solutions)
        for (warm, secant), previous in zip(starts[1:], solutions):
            assert_array_equal(warm, np.vstack([previous.u_star[1:], [[0.0]]]))
            shifted = np.zeros((4, 4))
            shifted[:3, :3] = previous.secant[1:, 1:]
            assert secant.tobytes() == shifted.tobytes()

    def test_zero_plant_stays_home(self):
        plant = _zero_dynamics()
        surrogate = _zero_dynamics()
        cfg = _config(4)
        x0 = np.array([0.5, -0.3, 0.2])
        trace = run_closed_loop(plant, surrogate, cfg, x0, steps=6, **LOOP)
        assert trace.failed_step is None
        assert_allclose(trace.inputs, np.zeros((6, 1)), atol=1e-8)
        assert_allclose(trace.outputs, np.zeros((6, 1)), atol=1e-12)
        # the history flushes after nu steps of zero outputs and inputs
        assert np.max(np.abs(trace.states[DIMS.nu :])) <= 1e-8
        assert trace.values.shape == (7,)

    def test_storage_columns_populated(self):
        plant = _zero_dynamics()
        cfg = _config(3)
        storage = storage_matrix(DIMS, WEIGHTS)
        trace = run_closed_loop(
            plant, plant, cfg, np.array([0.4, 0.1, 0.0]), steps=4,
            storage_matrix=storage.P, normalization=LOOP["normalization"],
        )
        assert trace.storage_values is not None and trace.lyapunov is not None
        assert trace.storage_values.shape == (5,)
        assert_allclose(trace.lyapunov, trace.values + trace.storage_values, rtol=1e-12)

    def test_zero_steps_still_end_in_a_terminal_entry(self):
        plant = _zero_dynamics()
        storage = storage_matrix(DIMS, WEIGHTS)
        trace = run_closed_loop(
            plant, plant, _config(3), np.array([0.4, 0.1, 0.0]), steps=0,
            storage_matrix=storage.P, normalization=LOOP["normalization"],
        )
        assert trace.steps == 0 and trace.states.shape == (1, 3)
        for per_state in (trace.values, trace.grad_norms, trace.iterations,
                          trace.converged, trace.storage_values, trace.lyapunov):
            assert per_state.shape == (1,)
        assert np.isnan(trace.values[0]) and np.isnan(trace.grad_norms[0])
        assert trace.iterations[0] == 0 and not trace.converged[0]
        assert np.isnan(trace.lyapunov[0])

    def test_two_tank_equilibrium_rest(self, cfg, mpc_cfg, storage, fit_101):
        from narxmpc import TwoTankPlant

        _, model = fit_101
        h1_eq, h2_eq = cfg.equilibrium
        trace = run_closed_loop(
            TwoTankPlant(cfg, h1_eq, h2_eq), model, mpc_cfg, np.zeros(3), steps=5,
            storage_matrix=storage.P, normalization=cfg.normalization(),
        )
        assert trace.failed_step is None
        assert np.max(np.abs(trace.inputs)) <= 1e-6
        assert np.max(np.abs(trace.outputs)) <= 1e-6

    def test_one_ulp_in_the_coefficients_keeps_every_iteration_count(self, cfg, storage, fit_101):
        """Each solve starts from the shifted inputs and secant part of the
        solve before it, so a last-bit difference could carry from step to
        step.  Surrogate coefficients one ulp off (each entry up or down,
        seeded) must still leave the iteration count of every closed-loop
        step as it was and move alpha by at most 1e-9 relative."""
        from narxmpc import KernelInterpolant, verify_decrease
        from narxmpc.bench import simulate_loop

        _, model = fit_101
        trace = simulate_loop(cfg, model)
        alpha = verify_decrease(trace, storage).alpha
        assert alpha > 0.0
        c = model.coefficients
        for seed in range(3):
            toward = np.where(np.random.default_rng(seed).random(c.shape) < 0.5, -np.inf, np.inf)
            bumped = KernelInterpolant(
                model.spec, model.data, model._store, np.nextafter(c, toward), model.site_residual
            )
            other = simulate_loop(cfg, bumped)
            assert_array_equal(other.iterations, trace.iterations)
            assert verify_decrease(other, storage).alpha == pytest.approx(alpha, rel=1e-9, abs=0.0)

    def test_solver_failure_truncates_trace(self):
        bad = FunctionDynamics(
            DIMS,
            lambda x, u: np.array([np.nan]),
            jacobian_fn=lambda x, u: (np.zeros((1, 3)), np.zeros((1, 1))),
        )
        plant = _zero_dynamics()
        trace = run_closed_loop(plant, bad, _config(3), np.array([0.2, 0.0, 0.0]), steps=5, **LOOP)
        assert trace.failed_step == 0
        assert trace.failure is not None
        assert trace.steps == 0

    def test_plant_failure_cuts_the_trace_at_the_failed_step(self):
        class FailsOnThirdCall:
            dims = DIMS

            def __init__(self):
                self.calls = 0

            def output(self, x, u):
                self.calls += 1
                if self.calls == 3:
                    raise ValueError("levels outside the domain")
                return np.zeros(1)

        trace = run_closed_loop(
            FailsOnThirdCall(), _zero_dynamics(), _config(3), np.array([0.4, 0.1, 0.0]), steps=5, **LOOP
        )
        assert trace.failed_step == 2
        assert trace.states.shape == (3, 3)
        assert trace.inputs.shape == (2, 1) and trace.outputs.shape == (2, 1)
        assert trace.stage_costs.shape == (2,)
        for per_state in (trace.values, trace.grad_norms, trace.iterations, trace.converged):
            assert per_state.shape == (3,)
        assert np.isnan(trace.values[2]) and np.isnan(trace.grad_norms[2])
        assert trace.iterations[2] == 0 and not trace.converged[2]
        assert trace.failure.startswith("plant rejected the applied input")

    def test_failed_terminal_solve_keeps_every_applied_step(self, monkeypatch):
        import narxmpc.mpc as mpc

        steps = 4
        calls = []
        solve = mpc.solve_ocp

        def fails_on_the_terminal_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == steps + 1:
                raise mpc.SolverError("non-finite cost")
            return solve(*args, **kwargs)

        monkeypatch.setattr(mpc, "solve_ocp", fails_on_the_terminal_call)
        f = _zero_dynamics()
        trace = run_closed_loop(f, f, _config(3), np.array([0.4, 0.1, 0.0]), steps=steps, **LOOP)
        assert len(calls) == steps + 1
        assert trace.failed_step is None
        assert trace.failure.startswith("terminal diagnostic solve failed")
        assert trace.states.shape == (steps + 1, 3)
        for per_step in (trace.inputs, trace.outputs, trace.stage_costs):
            assert per_step.shape[0] == steps
        assert np.isnan(trace.values[-1]) and np.isnan(trace.grad_norms[-1])
        assert trace.iterations[-1] == 0 and not trace.converged[-1]
        assert np.all(np.isfinite(trace.values[:-1]))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_initial_state_of_another_length_rejected(self, steps):
        plant = _zero_dynamics()
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, _config(3), np.array([0.4]), steps=steps, **LOOP)

    def test_negative_steps_rejected(self):
        f = _zero_dynamics()
        with pytest.raises(ValueError):
            run_closed_loop(f, f, _config(2), np.zeros(3), steps=-1, **LOOP)


class TestConfigValidation:
    def test_solver_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            _config(0)

    def test_box_must_contain_origin(self):
        with pytest.raises(ValueError):
            MpcConfig(
                horizon=3,
                weights=WEIGHTS,
                input_box=Box(lo=np.array([0.5]), hi=np.array([1.0])),
                dims=DIMS,
            )

    def test_box_dimension_checked(self):
        with pytest.raises(ValueError):
            MpcConfig(
                horizon=3,
                weights=WEIGHTS,
                input_box=Box(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0])),
                dims=DIMS,
            )

