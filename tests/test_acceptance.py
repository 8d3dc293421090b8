"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line (also to the
real stdout so it is visible under capture) and then asserts.  The
expensive artifacts -- the full benchmark run, the plant-side growth
bound and the shared evaluation grid -- come from session fixtures, so
the whole suite performs one benchmark run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from narxmpc import (
    Dataset,
    KernelSpec,
    TwoTankPlant,
    equilibrium_levels,
    fit_interpolant,
    kernel_matrix,
    min_horizon,
    run_closed_loop,
    sample_state_grid,
    solve_ocp,
    two_tank_rhs,
)
from oracles import (
    central_difference_gradient,
    check_detectability,
    cost_gradient,
    cost_J_batch,
    sample_domain,
)

MIN_HORIZON_AT_10 = 65.39663084091907
RHS_NORM_AT_ROUNDED_EQ = 3.1676642566830263e-06
#: Level error (m) that counts as settled; the benchmark's closed-loop
#: workloads (``perfbench/workloads.py``) use the same tolerance.
LEVEL_TOLERANCE = 1e-6


def _first_step_below(errors: np.ndarray, level: float) -> int:
    """First step whose error is below ``level`` (the length if none is)."""
    below = np.flatnonzero(errors < level)
    return int(below[0]) if below.size else errors.size


@pytest.fixture
def verdict(capsys):
    """Print one ``criterion NN: PASS/FAIL`` line on the real stdout."""

    def _emit(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        print(line)
        assert ok, line

    return _emit


class TestAcceptance:
    def test_c01_closed_loop_converges_and_more_data_lands_closer(self, benchmark_run, verdict):
        """Both loops reach the setpoint; the dense model settles first; the
        transient decays geometrically; the whole benchmark stays under
        ten minutes.

        "Settles first" compares the steps at which the level errors drop
        below ``LEVEL_TOLERANCE``, not the terminal errors: once both loops
        have settled, their last errors are rounding noise of 1e-16 to
        1e-15 m and their order says nothing about the models."""
        result, elapsed = benchmark_run
        header, table = result.comparison_header, result.comparison
        err = {d: table[:, header.index(f"err_D{d}")] for d in (101, 2501)}
        ratio = {d: err[d][-1] / err[d][0] for d in (101, 2501)}
        settle = {d: _first_step_below(err[d], LEVEL_TOLERANCE) for d in (101, 2501)}
        r2 = {d: result.arms[d].report.decay_r2 for d in (101, 2501)}
        ok = (
            ratio[101] < 0.05
            and ratio[2501] < 0.05
            and settle[2501] < settle[101]
            and r2[101] >= 0.8
            and r2[2501] >= 0.8
            and elapsed <= 600.0
        )
        verdict(
            1,
            ok,
            f"terminal/initial {ratio[101]:.1e} and {ratio[2501]:.1e}, "
            f"below {LEVEL_TOLERANCE:g} m from step {settle[2501]} < {settle[101]}, "
            f"decay r2 {r2[101]:.3f}/{r2[2501]:.3f}, {elapsed:.0f} s",
        )

    def test_c02_storage_dissipation_on_dense_domain_sample(
        self, cfg, storage, plant_view, benchmark_run, verdict
    ):
        """The lag-weighted storage dissipates along the exact dynamics and
        both surrogates on 10,000 admissible regressor/input pairs."""
        result, _ = benchmark_run
        X, U = sample_domain(cfg, 10_000, cfg.seed + 41)
        dynamics = {
            "plant": plant_view,
            "D101": result.arms[101].model,
            "D2501": result.arms[2501].model,
        }
        worst = -math.inf
        ok = True
        for f in dynamics.values():
            rep = check_detectability(f, storage, X, U, tolerance=1e-10)
            ok = ok and rep.ok
            worst = max(worst, rep.max_violation)
        verdict(2, ok, f"max violation {worst:.2e} on {X.shape[0]} pairs x 3 models")

    def test_c03_interpolation_error_within_power_function_bound(self, cfg, verdict):
        """For functions built inside the kernel's native space, the
        interpolation error at any probe is bounded by the power function
        times the function norm."""
        spec = KernelSpec(input_dim=cfg.dims.n + cfg.dims.m, lengthscale=cfg.sigma)
        worst_margin = -math.inf
        for j in range(20):
            centers = np.hstack(sample_domain(cfg, 40, 2000 + 3 * j))
            sites = np.hstack(sample_domain(cfg, 60, 2001 + 3 * j))
            probes = np.hstack(sample_domain(cfg, 1000, 2002 + 3 * j))
            beta = np.random.default_rng(3000 + j).normal(size=40)
            norm_f = math.sqrt(float(beta @ kernel_matrix(spec, centers) @ beta))
            data = Dataset(
                sites=sites,
                targets=(kernel_matrix(spec, sites, centers) @ beta).reshape(-1, 1),
                dims=cfg.dims,
                normalization=cfg.normalization(),
            )
            model = fit_interpolant(spec, data, jitter=0.0)
            f_vals = kernel_matrix(spec, probes, centers) @ beta
            n = cfg.dims.n
            errors = np.abs(f_vals - model.output_batch(probes[:, :n], probes[:, n:])[:, 0])
            bound = model.power_function(probes) * norm_f + 1e-9
            worst_margin = max(worst_margin, float(np.max(errors - bound)))
        ok = worst_margin <= 0.0
        verdict(3, ok, f"worst error minus bound {worst_margin:.2e} over 20 functions")

    def test_c04_interpolants_reproduce_their_sites(self, benchmark_run, verdict):
        """Both fitted models reproduce every training target to 1e-8."""
        result, _ = benchmark_run
        worst = 0.0
        for d in (101, 2501):
            model = result.arms[d].model
            sites, n = model.data.sites, model.dims.n
            direct = float(
                np.max(np.abs(model.output_batch(sites[:, :n], sites[:, n:]) - model.data.targets))
            )
            worst = max(worst, model.site_residual, direct)
        ok = worst <= 1e-8
        verdict(4, ok, f"max site residual {worst:.2e} at D=101 and D=2501")

    def test_c05_adjoint_gradient_matches_finite_differences(
        self, cfg, dims, norm, mpc_cfg, benchmark_run, verdict
    ):
        """The adjoint cost gradient agrees with central differences to
        1e-4 relative error on 50 random instances."""
        result, _ = benchmark_run
        models = [result.arms[d].model for d in (101, 2501)]
        rng = np.random.default_rng(cfg.seed + 53)
        worst = 0.0
        for i in range(50):
            f = models[i % 2]
            horizon = int(rng.integers(1, 9))
            raw_x = np.array(
                [
                    rng.uniform(cfg.y_lo, cfg.y_hi),
                    rng.uniform(cfg.y_lo, cfg.y_hi),
                    rng.uniform(cfg.u_lo, cfg.u_hi),
                ]
            )
            x0 = norm.normalize_state(raw_x, dims)
            u_seq = norm.normalize_input(
                rng.uniform(cfg.u_lo, cfg.u_hi, size=(horizon, dims.m))
            )
            g_adj = cost_gradient(f, x0[None], u_seq[None], mpc_cfg.weights)
            g_fd = central_difference_gradient(f, x0[None], u_seq[None], mpc_cfg.weights)
            rel = np.linalg.norm(g_adj - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            worst = max(worst, float(rel))
        ok = worst <= 1e-4
        verdict(5, ok, f"max relative gradient mismatch {worst:.2e} on 50 instances")

    def test_c06_optimal_value_lower_bounds_feasible_sequences(
        self, cfg, dims, mpc_cfg, benchmark_run, verdict
    ):
        """The solver's value never exceeds the cost of any sampled
        feasible input sequence (100 sequences at each of 20 states)."""
        result, _ = benchmark_run
        surrogate = result.arms[101].model
        states = sample_state_grid(cfg, 20, seed=cfg.seed + 59)
        rng = np.random.default_rng(cfg.seed + 61)
        box = mpc_cfg.input_box
        worst = -math.inf
        for x0 in states:
            sol = solve_ocp(surrogate, x0, mpc_cfg)
            u_batch = rng.uniform(
                box.lo, box.hi, size=(100, mpc_cfg.horizon, dims.m)
            )
            costs = cost_J_batch(surrogate, np.tile(x0, (len(u_batch), 1)), u_batch, mpc_cfg.weights)
            worst = max(worst, float(sol.value - np.min(costs)))
        ok = worst <= 1e-8
        verdict(6, ok, f"max value minus sampled cost {worst:.2e}")

    def test_c07_growth_bounds_tighten_with_more_data(
        self, benchmark_run, plant_growth, verdict
    ):
        """On the shared standard grid, the dense model's horizon growth
        bounds track the plant's more closely than the sparse model's."""
        result, _ = benchmark_run
        dev = {}
        grids_match = True
        for d in (101, 2501):
            growth = result.arms[d].growth
            grids_match = grids_match and np.allclose(
                growth.states, plant_growth.states, atol=1e-12
            )
            dev[d] = float(np.max(np.abs(growth.b_values - plant_growth.b_values)))
        ok = grids_match and dev[2501] < dev[101]
        horizon = plant_growth.b_values.size
        verdict(
            7, ok, f"max bound deviation {dev[2501]:.3f} < {dev[101]:.3f} over N<={horizon}"
        )

    def test_c08_horizon_threshold_formula(self, verdict):
        """The minimum-horizon formula matches a hand evaluation, equals
        one at the boundary growth level and increases with growth."""
        expected = 1.0 + (math.log(10.0) - math.log(0.5)) / (
            math.log(11.0) - math.log(10.5)
        )
        value = min_horizon(10.0, 2)
        grid = [0.6, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        values = [min_horizon(g, 2) for g in grid]
        ok = (
            abs(value - expected) <= 1e-9
            and abs(value - MIN_HORIZON_AT_10) <= 1e-9
            and min_horizon(0.5, 2) == 1.0
            and all(b > a for a, b in zip(values, values[1:]))
        )
        verdict(8, ok, f"N_min(10) = {value:.9f}, boundary 1.0, increasing")

    def test_c09_equilibrium_is_consistent_and_holds(
        self, cfg, dims, norm, mpc_cfg, storage, benchmark_run, verdict
    ):
        """The derived steady state zeroes the vector field (within 1e-4
        at the rounded reference levels, exactly at the solved ones) and
        the closed loop started there stays within 1e-5 for 100 steps."""
        result, _ = benchmark_run
        h1_eq, h2_eq = equilibrium_levels(cfg.u_eq, cfg.params)
        rhs_rounded = np.asarray(two_tank_rhs(0.0438, 0.09, cfg.u_eq, cfg.params))
        rhs_exact = np.asarray(two_tank_rhs(h1_eq, h2_eq, cfg.u_eq, cfg.params))
        norm_rounded = float(np.linalg.norm(rhs_rounded))
        plant = TwoTankPlant(cfg, h1_eq, h2_eq)
        trace = run_closed_loop(
            plant,
            result.arms[101].model,
            mpc_cfg,
            np.zeros(dims.n),
            100,
            storage_matrix=storage.P,
            normalization=norm,
        )
        states_raw = norm.denormalize_state(trace.states, dims)
        eq_raw = norm.denormalize_state(np.zeros(dims.n), dims)
        hold = float(np.max(np.abs(states_raw - eq_raw)))
        ok = (
            norm_rounded < 1e-4
            and abs(norm_rounded - RHS_NORM_AT_ROUNDED_EQ) <= 1e-12 * norm_rounded
            and np.all(rhs_exact == 0.0)
            and trace.steps == 100
            and hold <= 1e-5
        )
        verdict(
            9,
            ok,
            f"|rhs| {norm_rounded:.2e} at reference, 0 at solution, "
            f"100-step drift {hold:.2e}",
        )

    def test_c10_error_constants_and_fill_shrink_with_more_data(self, benchmark_run, verdict):
        """The dense model carries error constants no larger than the
        sparse one and a strictly smaller fill distance."""
        result, _ = benchmark_run
        small, large = result.arms[101], result.arms[2501]
        ok = (
            large.constants.c_x <= small.constants.c_x
            and large.constants.c_u <= small.constants.c_u
            and large.fit_entries["fill_distance"] < small.fit_entries["fill_distance"]
        )
        verdict(
            10,
            ok,
            f"c_x {large.constants.c_x:.3f} <= {small.constants.c_x:.3f}, "
            f"c_u {large.constants.c_u:.3f} <= {small.constants.c_u:.3f}, "
            f"fill {large.fit_entries['fill_distance']:.3f} < {small.fit_entries['fill_distance']:.3f}",
        )

    def test_c11_uniform_lyapunov_decrease_for_dense_model(self, benchmark_run, verdict):
        """The dense-model loop is certified: outside the dead band every
        step drops the Lyapunov function by at least alpha ||x||^2."""
        result, _ = benchmark_run
        report = result.arms[2501].report
        norms = report.state_norms[:-1]
        active = (norms > report.deadband) & np.isfinite(report.deltas)
        alpha = report.alpha or 0.0
        uniform = bool(
            np.all(report.deltas[active] <= -alpha * norms[active] ** 2 + 1e-12)
        )
        ok = (
            report.verdict == "decrease_verified"
            and alpha > 0.0
            and int(np.sum(active)) > 0
            and uniform
        )
        verdict(
            11,
            ok,
            f"alpha {alpha:.4f} over {int(np.sum(active))} active steps, "
            f"verdict {report.verdict}",
        )
