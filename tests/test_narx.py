"""Regressor stacking, the state-space lift and normalization."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
    AffineNormalization,
    Box,
    DimensionMismatchError,
    NarxDims,
    NarxDynamics,
    TwoTankNarxDynamics,
    TwoTankPlant,
    build_regressor,
    shift_state,
    two_tank_step,
)
from oracles import FunctionDynamics, stepwise_rollout


def _lift(f, x, u):
    """One lifted step through the single-evaluation path."""
    y = f.output(x, u)
    return shift_state(x, y, u, f.dims), y


def _rollout(f, x0, u_seq):
    """Roll one sequence out, one ``output_batch`` per step: the states
    ``x(0..N)`` and the outputs ``y(1..N)``."""
    outputs = stepwise_rollout(f, x0, u_seq)
    states = [np.asarray(x0, dtype=float)]
    for y, u in zip(outputs, u_seq):
        states.append(shift_state(states[-1], y, u, f.dims))
    return np.array(states), outputs


def test_the_model_contract_is_two_methods():
    """One step of values and the N-step sweep: a third evaluation path
    cannot come back unnoticed."""
    assert NarxDynamics.__abstractmethods__ == {"output_batch", "sweep"}


class TestDims:
    def test_regressor_length(self):
        assert NarxDims(p=1, m=1, nu=2).n == 3
        assert NarxDims(p=2, m=3, nu=1).n == 2
        assert NarxDims(p=2, m=3, nu=2).n == 7
        assert NarxDims(p=1, m=1, nu=3).n == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(DimensionMismatchError):
            NarxDims(p=0, m=1, nu=2)
        with pytest.raises(DimensionMismatchError):
            NarxDims(p=1, m=1, nu=0)


class TestBuildRegressor:
    def test_scalar_lag_two(self):
        dims = NarxDims(p=1, m=1, nu=2)
        x = build_regressor(np.array([[0.2], [0.1]]), np.array([[0.05]]), dims)
        assert_array_equal(x, [0.2, 0.1, 0.05])

    def test_lag_one_has_no_input_block(self):
        dims = NarxDims(p=2, m=3, nu=1)
        x = build_regressor(np.array([[1.0, 2.0]]), np.empty((0, 3)), dims)
        assert_array_equal(x, [1.0, 2.0])
        assert x.shape == (dims.n,)

    def test_zero_histories_give_zero_vector(self):
        dims = NarxDims(p=1, m=1, nu=2)
        x = build_regressor(np.zeros((2, 1)), np.zeros((1, 1)), dims)
        assert_array_equal(x, np.zeros(3))

    def test_shape_mismatch_raises(self):
        dims = NarxDims(p=1, m=1, nu=2)
        with pytest.raises(DimensionMismatchError):
            build_regressor(np.zeros((3, 1)), np.zeros((1, 1)), dims)


class TestLiftStep:
    def test_shift_structure(self):
        dims = NarxDims(p=1, m=1, nu=2)
        f = FunctionDynamics(dims, lambda x, u: np.array([7.5]))
        x_next, y = _lift(f, np.array([1.0, 2.0, 3.0]), np.array([4.0]))
        assert_array_equal(x_next, [7.5, 1.0, 4.0])
        assert_array_equal(y, [7.5])

    def test_equilibrium_is_preserved(self):
        dims = NarxDims(p=1, m=1, nu=2)
        f = FunctionDynamics(dims, lambda x, u: np.zeros(1))
        x_next, y = _lift(f, np.zeros(3), np.zeros(1))
        assert_array_equal(x_next, np.zeros(3))
        assert_array_equal(y, np.zeros(1))

    def test_lag_three_shift(self):
        dims = NarxDims(p=1, m=1, nu=3)
        f = FunctionDynamics(dims, lambda x, u: np.array([9.0]))
        x = np.array([10.0, 11.0, 12.0, 21.0, 22.0])
        x_next, _ = _lift(f, x, np.array([20.0]))
        assert_array_equal(x_next, [9.0, 10.0, 11.0, 20.0, 21.0])

    def test_history_blocks_copied_bitwise(self):
        dims = NarxDims(p=1, m=2, nu=3)
        rng = np.random.default_rng(3)
        f = FunctionDynamics(dims, lambda x, u: np.array([0.5]))
        for _ in range(50):
            x = rng.standard_normal(dims.n)
            u = rng.standard_normal(dims.m)
            x_next = shift_state(x, f.output(x, u), u, dims)
            nb = dims.n_outputs_block
            # outputs shift down by p, inputs by m; copies must be exact
            assert_array_equal(x_next[dims.p : nb], x[: nb - dims.p])
            assert_array_equal(x_next[nb : nb + dims.m], u)
            assert_array_equal(x_next[nb + dims.m :], x[nb : dims.n - dims.m])


class TestRollout:
    def test_zero_dynamics_flushes_history(self):
        dims = NarxDims(p=1, m=1, nu=2)
        f = FunctionDynamics(dims, lambda x, u: np.zeros(1))
        states, outputs = _rollout(f, np.array([0.4, -0.2, 0.7]), np.zeros((3, 1)))
        assert_array_equal(outputs, np.zeros((3, 1)))
        # after nu steps every stale history entry has shifted out
        assert_array_equal(states[dims.nu :], np.zeros((2, 3)))

    def test_single_step_equals_lift(self):
        dims = NarxDims(p=1, m=1, nu=2)
        f = FunctionDynamics(dims, lambda x, u: np.array([x[0] + u[0]]))
        x0 = np.array([1.0, 2.0, 3.0])
        u = np.array([[0.5]])
        states, outputs = _rollout(f, x0, u)
        x1, y1 = _lift(f, x0, u[0])
        assert_array_equal(states[1], x1)
        assert_array_equal(outputs[0], y1)

    def test_plant_view_fixed_point(self, cfg, plant_view):
        """Constant equilibrium input holds the equilibrium output."""
        x0 = cfg.equilibrium_regressor()
        _, outputs = _rollout(plant_view, x0, np.zeros((10, 1)))
        raw = cfg.normalization().denormalize_output(outputs)
        h1_eq, _ = cfg.equilibrium
        assert np.max(np.abs(raw - h1_eq)) < 1e-6

    def test_plant_view_matches_direct_simulation(self, cfg, plant_view):
        """The pure NARX view reproduces the stateful plant step for step."""
        norm = cfg.normalization()
        rng = np.random.default_rng(11)
        h1_prev, h2_prev, u_prev = 0.22, 0.31, 2.1e-5
        y_cur, h2_cur = two_tank_step(h1_prev, h2_prev, u_prev, cfg.dt)
        x0 = norm.normalize_state(np.array([float(y_cur), h1_prev, u_prev]), cfg.dims)
        u_raw = rng.uniform(cfg.u_lo, cfg.u_hi, size=(6, 1))
        u_seq = norm.normalize_input(u_raw)
        _, outputs = _rollout(plant_view, x0, u_seq)
        plant = TwoTankPlant(cfg, float(y_cur), float(h2_cur))
        direct = [plant.step(u) for u in u_raw.ravel()]
        assert_allclose(
            norm.denormalize_output(outputs).ravel(), direct, rtol=0.0, atol=1e-10
        )

    def test_bad_shapes_raise(self, plant_view, fit_101):
        """Every model's sweep checks its shapes (n = 3, m = 1 here)."""
        for f in (plant_view, fit_101[1]):
            with pytest.raises(DimensionMismatchError):
                f.sweep(np.zeros((1, 4)), np.zeros((1, 2, 1)))
            with pytest.raises(DimensionMismatchError):
                f.sweep(np.zeros((1, 3)), np.zeros((1, 2, 2)))
            with pytest.raises(DimensionMismatchError):
                f.sweep(np.zeros((2, 3)), np.zeros((1, 2, 1)))


class TestNormalization:
    def test_reference_maps_to_origin(self):
        norm = AffineNormalization(
            y_ref=np.array([0.0438]),
            y_scale=np.array([0.5]),
            u_ref=np.array([5.461e-6]),
            u_scale=np.array([4.444e-5]),
        )
        assert_allclose(norm.normalize_output(np.array([0.0438])), [0.0], atol=0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        norm = AffineNormalization(
            y_ref=np.array([0.3, -0.1]),
            y_scale=np.array([0.5, 2.0]),
            u_ref=np.array([1e-5]),
            u_scale=np.array([4e-5]),
        )
        dims = NarxDims(p=2, m=1, nu=2)
        for _ in range(1000):
            v = rng.standard_normal(dims.n)
            back = norm.denormalize_state(norm.normalize_state(v, dims), dims)
            assert_allclose(back, v, rtol=1e-12, atol=1e-12)

    def test_pump_range_upper_end(self, norm):
        """The admissible flow maximum lands at the computed box edge."""
        expected = (4.76e-5 - 5.461e-6) / (4.76e-5 - 3.16e-6)
        got = norm.normalize_input(np.array([4.76e-5]))
        assert_allclose(got, [expected], rtol=1e-12)
        assert_allclose(got, [0.9482223222322231], rtol=1e-12)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            AffineNormalization(
                y_ref=np.array([0.0]),
                y_scale=np.array([0.0]),
                u_ref=np.array([0.0]),
                u_scale=np.array([1.0]),
            )


class TestBox:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Box(lo=np.array([1.0]), hi=np.array([0.0]))

    def test_rejects_non_finite_bounds(self):
        """A NaN bound would fail every solve at its first cost; an infinite
        one is no box."""
        with pytest.raises(ValueError, match="box bound lo must be finite"):
            Box(lo=np.array([np.nan]), hi=np.array([1.0]))
        with pytest.raises(ValueError, match="box bound hi must be finite"):
            Box(lo=np.array([-1.0]), hi=np.array([np.inf]))
