"""Two-tank plant model, hidden-level recovery, dataset generation and sampling."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
    BenchmarkConfig,
    DomainError,
    NarxDims,
    TwoTankNarxDynamics,
    TwoTankParams,
    TwoTankPlant,
    equilibrium_levels,
    generate_dataset,
    min_pairwise_distance,
    reconstruct_hidden_level,
    sample_consistent_states,
    sample_state_grid,
    two_tank_rhs,
    two_tank_step,
)
from narxmpc import twotank
from narxmpc.twotank import ScrambledHalton, _reachable_draws, _total_step
from oracles import rk4_step, sample_domain, state_box, stepwise_rollout

PARAMS = TwoTankParams()
CFG = BenchmarkConfig()
U_EQ = 5.461e-6
H1_EQ = 0.04377874810998076
H2_EQ = 0.09000374810998076
RHS_NORM_AT_ROUNDED_EQ = 3.1676642566830263e-06
H2_INITIAL = 0.3851178558686378


class TestRhs:
    def test_near_zero_at_rounded_equilibrium(self):
        d1, d2 = two_tank_rhs(0.0438, 0.09, U_EQ, PARAMS)
        norm = float(np.hypot(d1, d2))
        assert_allclose(norm, RHS_NORM_AT_ROUNDED_EQ, rtol=1e-12)
        assert norm < 1e-4

    def test_exactly_zero_at_equilibrium(self):
        d1, d2 = two_tank_rhs(H1_EQ, H2_EQ, U_EQ, PARAMS)
        assert float(d1) == 0.0
        assert float(d2) == 0.0

    def test_equal_levels_drain_only(self):
        d1, d2 = two_tank_rhs(0.25, 0.25, 0.0, PARAMS)
        assert float(d1) == -PARAMS.c2 * 0.5
        assert float(d2) == 0.0

    def test_empty_tanks_at_rest(self):
        d1, d2 = two_tank_rhs(0.0, 0.0, 0.0, PARAMS)
        assert float(d1) == 0.0
        assert float(d2) == 0.0

    def test_pump_term(self):
        _, d2 = two_tank_rhs(0.1, 0.1, 1e-5, PARAMS)
        assert float(d2) == pytest.approx(1e-5 / PARAMS.A1, rel=1e-15)

    def test_domain_violations_raise(self):
        # the derivatives mark the violation with NaN ...
        d1, d2 = two_tank_rhs(-0.1, 0.5, 0.0, PARAMS)
        assert np.isnan(d1) and np.isfinite(d2)
        d1, d2 = two_tank_rhs(0.3, 0.2, 0.0, PARAMS)
        assert np.isnan(d1) and np.isnan(d2)
        # ... and the plant raises where substeps cannot recover: a negative
        # pump flow empties the upper tank below the lower one
        plant = TwoTankPlant(CFG, 0.0, 0.0)
        with pytest.raises(DomainError, match="stayed invalid down to 64 substeps"):
            plant.step(-1e-3)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            TwoTankParams(A1=0.0)
        with pytest.raises(ValueError):
            TwoTankParams(dt=-1.0)

    @pytest.mark.parametrize("name", ["A1", "c12", "c2", "dt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            TwoTankParams(**{name: bad})


class TestRk4:
    def test_zero_rhs_is_identity(self):
        state = np.array([0.3, 0.7])
        out = rk4_step(lambda s, u: np.zeros_like(s), state, None, 10.0)
        assert_array_equal(out, state)

    def test_linear_decay_factor(self):
        # one step of ds/dt = -s at dt = 0.1: the degree-4 Taylor factor
        out = rk4_step(lambda s, u: -s, np.array([1.0]), None, 0.1)
        assert float(out[0]) == 0.9048375

    def test_fourth_order_global_convergence(self):
        def integrate(n):
            s = np.array([1.0])
            for _ in range(n):
                s = rk4_step(lambda v, u: -v, s, None, 1.0 / n)
            return float(s[0])

        exact = np.exp(-1.0)
        coarse = abs(integrate(16) - exact)
        fine = abs(integrate(32) - exact)
        assert 12.0 <= coarse / fine <= 20.0

    def test_stage_index_reported(self):
        def rhs(s, u):
            if s[0] < 0.95:
                raise DomainError("left the domain")
            return -np.ones_like(s)

        with pytest.raises(DomainError, match="stage 2 of 4"):
            rk4_step(rhs, np.array([1.0]), None, 1.0)


class TestSampledStep:
    def test_matches_rk4_composition(self):
        def rhs(s, u):
            d1, d2 = two_tank_rhs(s[..., 0], s[..., 1], u, PARAMS)
            return np.stack([d1, d2], axis=-1)

        direct = rk4_step(rhs, np.array([0.2, 0.35]), 2e-5, PARAMS.dt)
        h1, h2 = two_tank_step(0.2, 0.35, 2e-5, PARAMS)
        assert_array_equal([float(h1), float(h2)], direct)

    def test_equilibrium_is_fixed_point(self):
        h1, h2 = two_tank_step(H1_EQ, H2_EQ, U_EQ, PARAMS)
        assert float(h1) == H1_EQ
        assert float(h2) == H2_EQ

    def test_masked_mode_propagates_nan(self):
        h1, h2 = two_tank_step(np.array([0.2, 0.3]), np.array([0.35, 0.2]), 0.0, PARAMS)
        assert np.isfinite(h1[0]) and np.isfinite(h2[0])
        assert np.isnan(h1[1]) and np.isnan(h2[1])

    def test_equilibrium_holds_for_100_steps(self):
        plant = TwoTankPlant(CFG, H1_EQ, H2_EQ)
        outputs = np.array([plant.step(U_EQ) for _ in range(100)])
        assert np.max(np.abs(outputs - H1_EQ)) <= 1e-12

    def test_unpumped_drain_decays_then_leaves_domain(self):
        plant = TwoTankPlant(CFG, 0.3, 0.4)
        levels = [plant.h1]
        for _ in range(40):
            try:
                levels.append(plant.step(0.0))
            except DomainError as exc:
                assert "stayed invalid down to 64 substeps" in str(exc)
                break
        else:
            pytest.fail("expected the drain to leave the domain within 40 steps")
        assert len(levels) >= 5
        assert np.all(np.diff(levels) < 0.0)


class TestEquilibriumLevels:
    def test_closed_form(self):
        h1, h2 = equilibrium_levels(U_EQ, PARAMS)
        drive = U_EQ / PARAMS.A1
        assert h1 == pytest.approx((drive / PARAMS.c2) ** 2, rel=1e-15)
        assert h2 == pytest.approx(h1 + (drive / PARAMS.c12) ** 2, rel=1e-15)
        assert h1 == pytest.approx(H1_EQ, rel=1e-15)
        assert h2 == pytest.approx(H2_EQ, rel=1e-15)

    def test_zero_flow_empties(self):
        assert equilibrium_levels(0.0, PARAMS) == (0.0, 0.0)

    def test_negative_flow_rejected(self):
        with pytest.raises(DomainError):
            equilibrium_levels(-1e-6, PARAMS)


class TestHiddenLevelRecovery:
    def test_exact_on_consistent_transition(self):
        h1_prev, h2_prev, u_prev = 0.22, 0.31, 2.1e-5
        y_cur, h2_cur = two_tank_step(h1_prev, h2_prev, u_prev, PARAMS)
        got = reconstruct_hidden_level(h1_prev, float(y_cur), u_prev, PARAMS)
        assert float(got) == pytest.approx(float(h2_cur), abs=1e-9)

    def test_batched_consistent_transitions(self):
        rng = np.random.default_rng(30)
        h1 = rng.uniform(0.05, 0.4, size=20)
        h2 = h1 + rng.uniform(0.01, 0.3, size=20)
        u = rng.uniform(3.16e-6, 4.76e-5, size=20)
        y_cur, h2_cur = two_tank_step(h1, h2, u, PARAMS)
        got = reconstruct_hidden_level(h1, y_cur, u, PARAMS)
        assert_allclose(got, h2_cur, rtol=0.0, atol=1e-8)

    def test_holding_record_value(self):
        got = reconstruct_hidden_level(0.2, 0.2, U_EQ, PARAMS)
        assert float(got) == pytest.approx(H2_INITIAL, rel=1e-12)

    def test_unreachable_target_clamps(self):
        # no upper level in the bracket pushes 0.1 up to 1.9 in one step
        got = reconstruct_hidden_level(0.1, 1.9, 3.16e-6, PARAMS)
        assert float(got) >= 1.9


class TestPlant:
    def test_rejects_inverted_levels(self):
        with pytest.raises(DomainError):
            TwoTankPlant(CFG, 0.5, 0.3)
        with pytest.raises(DomainError):
            TwoTankPlant(CFG, -0.1, 0.2)

    def test_step_updates_levels(self):
        plant = TwoTankPlant(CFG, 0.2, 0.35)
        y = plant.step(2e-5)
        assert y == plant.h1
        h1_ref, h2_ref = two_tank_step(0.2, 0.35, 2e-5, PARAMS)
        assert plant.h1 == pytest.approx(float(h1_ref), rel=1e-15)
        assert plant.h2 == pytest.approx(float(h2_ref), rel=1e-15)

    def test_recovers_stage_crossing_like_the_narx_view(self):
        # Nearly equal levels and a weak pump: a single Runge-Kutta step
        # drives a stage point below h2 >= h1; substeps recover the flow.
        h1, h2, u = 0.026965351190828213, 0.027415631064599783, 4.415645394818535e-06
        plant = TwoTankPlant(CFG, h1, h2)
        y = plant.step(u)
        ref1, ref2 = _total_step(h1, h2, u, PARAMS)
        assert (y, plant.h2) == (float(ref1[0]), float(ref2[0]))
        assert (y, plant.h2) == (0.0198118778681811, 0.04150606764222124)


class TestNarxView:
    def test_requires_two_lags(self, cfg):
        with pytest.raises(ValueError):
            TwoTankNarxDynamics(PARAMS, cfg.normalization(), NarxDims(p=1, m=1, nu=1))

    def test_batch_matches_scalar(self, cfg, plant_view):
        X = sample_consistent_states(cfg, 20, seed=31)
        rng = np.random.default_rng(32)
        U = cfg.normalization().normalize_input(
            rng.uniform(cfg.u_lo, cfg.u_hi, size=(20, 1))
        )
        batch = plant_view.output_batch(X, U)
        singles = np.stack([plant_view.output(x, u) for x, u in zip(X, U)])
        assert_allclose(batch, singles, rtol=0.0, atol=1e-12)

    def test_negative_level_row_raises_in_every_path(self, cfg, plant_view):
        """One row encoding a negative measured level fails the whole batch."""
        norm = cfg.normalization()
        X = sample_consistent_states(cfg, 4, seed=35)
        X[2] = norm.normalize_state(np.array([-0.01, 0.2, 2e-5]), cfg.dims)
        U = np.zeros((4, 1))
        with pytest.raises(DomainError, match="negative measured level"):
            plant_view.output_batch(X, U)
        with pytest.raises(DomainError, match="negative measured level"):
            plant_view.sweep(X, np.zeros((4, 3, 1)))
        with pytest.raises(DomainError, match="negative measured level"):
            plant_view.output(X[2], U[2])

    def test_sweep_matches_stepwise_rollout(self, cfg, plant_view):
        """The sweep carries the hidden level; the stepwise rollout
        reconstructs it at every step from the regressor."""
        X0 = sample_consistent_states(cfg, 3, seed=33)
        rng = np.random.default_rng(34)
        U_raw = rng.uniform(cfg.u_lo, cfg.u_hi, size=(3, 5, 1))
        U = cfg.normalization().normalize_input(U_raw)
        outputs = plant_view.sweep(X0, U).outputs
        for i in range(3):
            assert_allclose(outputs[i], stepwise_rollout(plant_view, X0[i], U[i]), rtol=0.0, atol=1e-9)


class TestConfig:
    def test_equilibrium_property(self, cfg):
        assert cfg.equilibrium[0] == pytest.approx(H1_EQ, rel=1e-15)
        assert cfg.equilibrium[1] == pytest.approx(H2_EQ, rel=1e-15)

    def test_normalization_scales(self, norm):
        assert float(norm.y_scale[0]) == 0.5
        assert float(norm.u_scale[0]) == pytest.approx(4.76e-5 - 3.16e-6, rel=1e-15)
        assert float(norm.y_ref[0]) == pytest.approx(H1_EQ, rel=1e-15)

    def test_input_box_brackets_origin(self, cfg):
        box = cfg.input_box()
        assert float(box.lo[0]) < 0.0 < float(box.hi[0])
        assert float(box.hi[0]) == pytest.approx(0.9482223222322231, rel=1e-12)

    def test_equilibrium_regressor_is_origin(self, cfg):
        assert_allclose(cfg.equilibrium_regressor(), np.zeros(3), atol=1e-15)

    def test_initial_condition(self, cfg):
        x0, (h1_0, h2_0) = cfg.initial_condition()
        assert h1_0 == cfg.h0
        assert h2_0 == pytest.approx(H2_INITIAL, rel=1e-12)
        assert x0[0] == x0[1]
        raw = cfg.normalization().denormalize_state(x0, cfg.dims)
        assert_allclose(raw, [cfg.h0, cfg.h0, cfg.u_eq], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(d=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(u_lo=1e-5, u_hi=1e-6)
        with pytest.raises(ValueError):
            BenchmarkConfig(mode="spiral")
        with pytest.raises(ValueError):
            BenchmarkConfig(u_lo=1e-5)

    def test_negative_pump_bound_rejected(self):
        with pytest.raises(ValueError, match="u_lo must be nonnegative"):
            BenchmarkConfig(u_lo=-2e-5)
        BenchmarkConfig(u_lo=0.0)  # a stopped pump is an admissible bound

    @pytest.mark.parametrize("name", ["q_weight", "r_weight", "u_lo", "u_hi", "dt", "sigma", "jitter", "h0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BenchmarkConfig(**{name: bad})


class TestGenerateDataset:
    def test_single_site_is_equilibrium(self, cfg):
        data, _ = generate_dataset(replace(cfg, d=1))
        assert data.size == 1
        assert data.contains_origin
        assert_allclose(data.sites, np.zeros((1, 4)), atol=1e-15)
        assert_allclose(data.targets, np.zeros((1, 1)), atol=1e-15)

    def test_state_grid_properties(self, cfg, fit_101):
        data, _ = fit_101
        assert data.size == 101
        assert data.contains_origin
        assert_allclose(data.sites[0], np.zeros(4), atol=1e-15)
        assert np.all(np.isfinite(data.targets))
        box = state_box(cfg)
        input_box = cfg.input_box()
        assert np.all(data.sites[:, :3] >= box.lo - 1e-12)
        assert np.all(data.sites[:, :3] <= box.hi + 1e-12)
        assert np.all(data.sites[:, 3:] >= input_box.lo - 1e-12)
        assert np.all(data.sites[:, 3:] <= input_box.hi + 1e-12)

    def test_provenance_and_separation(self, cfg):
        data, provenance = generate_dataset(replace(cfg, d=51))
        assert provenance["mode"] == "state_grid"
        assert provenance["min_pairwise_distance"] == pytest.approx(
            min_pairwise_distance(data.sites), rel=1e-15
        )
        assert provenance["min_pairwise_distance"] >= provenance["min_separation"] - 1e-12

    def test_deterministic(self, cfg):
        a, _ = generate_dataset(replace(cfg, d=31))
        b, _ = generate_dataset(replace(cfg, d=31))
        assert_array_equal(a.sites, b.sites)
        assert_array_equal(a.targets, b.targets)

    def test_targets_consistent_with_plant_view(self, cfg, plant_view, fit_101):
        data, _ = fit_101
        X, U = data.sites[:, :3], data.sites[:, 3:]
        predicted = plant_view.output_batch(X, U)
        assert np.max(np.abs(predicted - data.targets)) <= 1e-9

    @pytest.mark.parametrize(
        "d, mode, sites_sha, targets_sha",
        [
            (
                101,
                "state_grid",
                "a7c4b2ca20554c4df46733cd809e5cc5bffb1a7df803cf1e0bca5365f5849a77",
                "b2ec5f08b515657b8d395199b93c91085d94624fbbd9da5e883112f4ef78f785",
            ),
            (
                2501,
                "state_grid",
                "d2524f5d8ba9589a42820ebd19d4a50c488b51f8bc6c4acbb82965f7550f76d5",
                "97db80e06345c01be67e020edf6ff631d7550fe2fc2732df5b98f10c6aefe351",
            ),
            (
                101,
                "trajectory",
                "e7d12eb7e3a6c17f88f885708145d8aa3a378e43eb229cce592ba0f1381f2428",
                "fa23a22d4a55d0d3c0f9b0cc221bac5962e303a42d7d2c1a16fe3a9dd5dbb412",
            ),
        ],
    )
    def test_standard_datasets_are_pinned(self, cfg, d, mode, sites_sha, targets_sha):
        """The sampler and the site acceptance leave the standard datasets
        (seed 0) unchanged to the last bit."""
        data, _ = generate_dataset(replace(cfg, d=d, mode=mode, seed=0))
        assert hashlib.sha256(data.sites.tobytes()).hexdigest() == sites_sha
        assert hashlib.sha256(data.targets.tobytes()).hexdigest() == targets_sha

    def test_trajectory_mode(self, cfg, plant_view):
        traj_cfg = replace(cfg, d=51, mode="trajectory")
        data, provenance = generate_dataset(traj_cfg)
        assert data.size == 51
        assert provenance["mode"] == "trajectory"
        assert provenance["trajectories"] >= 1
        X, U = data.sites[:, :3], data.sites[:, 3:]
        predicted = plant_view.output_batch(X, U)
        assert np.max(np.abs(predicted - data.targets)) <= 1e-9


class TestSampling:
    def test_state_grid_sampler(self, cfg):
        states = sample_state_grid(cfg, 40, seed=35)
        assert states.shape == (40, 3)
        assert np.all(np.linalg.norm(states, axis=1) > 1e-3)
        box = state_box(cfg)
        assert np.all(states >= box.lo - 1e-12)
        assert np.all(states <= box.hi + 1e-12)
        again = sample_state_grid(cfg, 40, seed=35)
        assert_array_equal(states, again)

    def test_consistent_state_sampler(self, cfg):
        states = sample_consistent_states(cfg, 30, seed=36)
        assert states.shape == (30, 3)
        assert np.all(np.linalg.norm(states, axis=1) > 1e-3)
        raw = cfg.normalization().denormalize_state(states, cfg.dims)
        assert np.all(raw[:, 0] >= cfg.y_lo) and np.all(raw[:, 0] <= cfg.y_hi)
        assert np.all(raw[:, 2] >= cfg.u_lo) and np.all(raw[:, 2] <= cfg.u_hi)

    @pytest.mark.parametrize("count", [0, -3])
    def test_samplers_need_a_state(self, cfg, count):
        for sampler in (sample_state_grid, sample_consistent_states):
            with pytest.raises(ValueError, match="need at least one state"):
                sampler(cfg, count, seed=35)

    def test_domain_sampler(self, cfg):
        X, U = sample_domain(cfg, 50, seed=37)
        assert X.shape == (50, 3) and U.shape == (50, 1)
        box = cfg.input_box()
        assert np.all(U >= box.lo - 1e-12) and np.all(U <= box.hi + 1e-12)


class TestAcceptSpaced:
    def test_a_candidate_exactly_sep_away_is_accepted(self):
        sites = np.zeros((3, 2))
        targets = np.zeros((3, 1))
        candidates = np.array([[0.25, 0.0], [0.5, 0.0], [0.5, 0.125]])
        count, skipped = twotank._accept_spaced(
            sites, targets, 1, candidates, np.ones((3, 1)), 0.25
        )
        assert (count, skipped) == (3, 0)
        assert_array_equal(sites, [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]])


class TestScrambledHalton:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 29, 4_294_967_295])
    def test_equals_scipy_halton(self, d, seed):
        """Consecutive draws of mixed sizes equal scipy's scrambled Halton
        sequence of the same seed bit for bit."""
        from scipy.stats import qmc

        ours = ScrambledHalton(d, seed)
        theirs = qmc.Halton(d=d, scramble=True, seed=seed)
        for n in (2048, 256, 7, 2048):
            points = ours.random(n)
            assert points.shape == (n, d)
            assert points.tobytes() == np.ascontiguousarray(theirs.random(n)).tobytes()

    def test_points_lie_in_the_unit_cube(self):
        points = ScrambledHalton(5, 3).random(4096)
        assert np.all(points >= 0.0) and np.all(points < 1.0)

    def test_reachable_draws_do_not_depend_on_the_block_size(self, cfg):
        def rows(block, count):
            with patch.object(twotank, "_HALTON_BLOCK", block):
                draws = _reachable_draws(cfg, 7)
                parts = [next(draws) for _ in range(count)]
            return [np.concatenate(column) for column in zip(*parts)]

        small = rows(512, 8)
        large = rows(4096, 1)
        for a, b in zip(small, large):
            assert_array_equal(a, b)

    def test_leading_coordinates_are_the_lower_dimensional_sequence(self):
        four = ScrambledHalton(4, 11).random(3000)
        three = ScrambledHalton(3, 11).random(3000)
        assert four[:, :3].tobytes() == np.ascontiguousarray(three).tobytes()
