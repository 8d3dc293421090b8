"""Property tests: paths that must agree on arbitrary inputs.

Examples are drawn under the derandomized profile registered in
``conftest.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from narxmpc import (
    Box,
    KernelInterpolant,
    KernelSpec,
    MpcConfig,
    NarxDims,
    SolverConfig,
    SolverError,
    StageCostWeights,
    TwoTankParams,
    cost_gradient,
    cost_J_batch,
    estimate_growth_bound,
    fill_distance,
    finite_difference_gradient,
    kernel_matrix,
    min_pairwise_distance,
    solve_ocp,
    solve_ocp_batch,
    stage_cost,
    two_tank_rhs,
    two_tank_step,
)
from narxmpc import mpc, stability, twotank
from narxmpc.kernels import KernelFitError, _gram_product, fit_interpolant
from narxmpc.mpc import ACTIVE_WIDTH, NOISE_FLOOR, forward_sweep
from oracles import FunctionDynamics, rk4_step, sample_domain

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# (h1, h2, u) rows; h2 is None for equal levels, and independent draws
# put h2 below h1 about half the time.
levels = st.floats(-0.05, 0.6)
tank_rows = st.lists(
    st.tuples(levels, st.one_of(levels, st.none()), st.floats(0.0, 5e-5)),
    min_size=1,
    max_size=8,
)


def _tank_arrays(rows):
    h1 = np.array([r[0] for r in rows])
    h2 = np.array([r[0] if r[1] is None else r[1] for r in rows])
    u = np.array([r[2] for r in rows])
    return h1, h2, u


def _interpolant(rng, input_dim: int, size: int, lengthscale: float, p: int, dims=None):
    """Interpolant with random sites and coefficients; no fit is needed to
    compare two ways of evaluating the same kernel expansion.  Without
    ``dims`` the sites split into regressor and input before their last
    column; any split gives the same expansion."""
    sites = rng.uniform(0.0, 1.0, size=(size, input_dim))
    return KernelInterpolant(
        KernelSpec(input_dim=input_dim, lengthscale=lengthscale),
        SimpleNamespace(sites=sites, dims=dims or SimpleNamespace(n=input_dim - 1)),
        jitter=0.0,
        store=None,
        coefficients=rng.standard_normal((size, p)),
        site_residual=0.0,
    )


def _linearize_sites(model, Xi):
    """``model.linearize`` at site rows ``Xi`` (split at ``model.dims.n``),
    with the regressor and input Jacobians joined into one over the site."""
    n = model.dims.n
    value, jac_x, jac_u = model.linearize(Xi[:, :n], Xi[:, n:])
    return value, np.concatenate([jac_x, jac_u], axis=-1)


@given(
    seed=seeds,
    input_dim=st.integers(1, 5),
    size=st.integers(2, 60),
    lengthscale=st.floats(0.2, 3.0),
    p=st.integers(1, 2),
    at_site=st.booleans(),
)
def test_linearize_matches_predict_batch_and_central_differences(
    seed, input_dim, size, lengthscale, p, at_site
):
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, input_dim, size, lengthscale, p)
    if at_site:
        xi = model.data.sites[rng.integers(size)].copy()
    else:
        xi = rng.uniform(-0.2, 1.2, size=input_dim)
    value, jac = (part[0] for part in _linearize_sites(model, xi[None]))
    assert value.shape == (p,) and jac.shape == (p, input_dim)
    assert_array_equal(value, model.predict_batch(xi)[0])
    h = 1e-6 * lengthscale
    steps = h * np.eye(input_dim)
    fd = (model.predict_batch(xi + steps) - model.predict_batch(xi - steps)).T / (2.0 * h)
    assert_allclose(jac, fd, rtol=0.0, atol=1e-6 * (1.0 + np.max(np.abs(jac))))


@given(
    seed=seeds,
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    rows=st.integers(1, 6),
)
def test_function_dynamics_single_equals_batch_row(seed, p, m, nu, rows):
    dims = NarxDims(p=p, m=m, nu=nu)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, dims.n))
    B = rng.standard_normal((p, m))
    f = FunctionDynamics(dims, lambda x, u: np.tanh(A @ x + B @ u))
    X = rng.standard_normal((rows, dims.n))
    U = rng.standard_normal((rows, m))
    batch = f.output_batch(X, U)
    assert batch.shape == (rows, p)
    for i in range(rows):
        assert_array_equal(f.output(X[i], U[i]), batch[i])


@given(seed=seeds, rows=st.integers(1, 6))
def test_two_tank_view_single_equals_batch_row(cfg, plant_view, seed, rows):
    X, U = sample_domain(cfg, rows, seed)
    batch = plant_view.output_batch(X, U)
    assert batch.shape == (rows, 1)
    for i in range(rows):
        assert_array_equal(plant_view.output(X[i], U[i]), batch[i])


@given(rows=tank_rows)
def test_two_tank_step_is_rk4_on_the_stacked_rhs(rows):
    params = TwoTankParams()
    h1, h2, u = _tank_arrays(rows)

    def rhs(s, uu):
        return np.stack(two_tank_rhs(s[..., 0], s[..., 1], uu, params), axis=-1)

    ref = rk4_step(rhs, np.stack([h1, h2], axis=-1), u, params.dt)
    got = np.stack(two_tank_step(h1, h2, u, params), axis=-1)
    assert_array_equal(got, ref)
    assert_array_equal(np.signbit(got), np.signbit(ref))


@given(rows=tank_rows)
def test_two_tank_step_single_equals_batch_row(rows):
    params = TwoTankParams()
    h1, h2, u = _tank_arrays(rows)
    batch = np.stack(two_tank_step(h1, h2, u, params), axis=-1)
    for i in range(len(rows)):
        single = np.stack(two_tank_step(h1[i], h2[i], u[i], params))
        assert_array_equal(single, batch[i])
        assert_array_equal(np.signbit(single), np.signbit(batch[i]))


@given(
    seed=seeds,
    rows=st.integers(1, 1500),
    probes=st.integers(1, 1500),
    dim=st.integers(1, 5),
)
@example(seed=0, rows=65, probes=1500, dim=4)
@example(seed=1, rows=1500, probes=64, dim=1)
def test_nearest_site_distances_match_brute_force(seed, rows, probes, dim):
    """The chunked nearest-site loop gives the min and max of one full
    distance matrix, bit for bit, on both sides of the chunk boundary."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 1.0, size=(rows, dim))
    points = rng.uniform(-0.2, 1.2, size=(probes, dim))
    pairwise = cdist(sites, sites)
    np.fill_diagonal(pairwise, np.inf)
    assert min_pairwise_distance(sites) == pairwise.min()
    assert fill_distance(sites, points) == cdist(points, sites).min(axis=1).max()


@given(
    seed=seeds,
    rows=st.integers(1, 300),
    dim=st.integers(1, 5),
    lengthscale=st.floats(0.05, 3.0),
)
@example(seed=0, rows=1, dim=4, lengthscale=1.0)
@example(seed=1, rows=65, dim=3, lengthscale=1.0)
@example(seed=2, rows=129, dim=2, lengthscale=0.5)
def test_gram_matrix_equals_the_cross_kernel_matrix(seed, rows, dim, lengthscale):
    """The Gram path (blocks of rows mirrored into the upper triangle)
    equals the cross-kernel matrix of the sites with themselves."""
    spec = KernelSpec(input_dim=dim, lengthscale=lengthscale)
    sites = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, dim))
    gram = kernel_matrix(spec, sites)
    assert gram.shape == (rows, rows)
    assert gram.tobytes() == kernel_matrix(spec, sites, sites).tobytes()


def _dense_fit(spec, sites, targets, jitter):
    """The fit with a separate factor array and dense Gram products, the
    reference that the fit on one D x D array must reproduce."""
    gram = kernel_matrix(spec, sites)
    if jitter > 0:
        gram = gram + jitter * np.eye(len(sites))
    cho = cho_factor(gram, lower=True)
    x = cho_solve(cho, targets)
    for _ in range(2):
        x = x + cho_solve(cho, targets - gram @ x)
    return gram, cho, x, float(np.max(np.abs(targets - gram @ x)))


def _dense_power_function(spec, sites, gram, cho, Xi):
    """The power function from the dense reference fit, with the scale
    ``phi(0) + 2 |k|.|c| + |c|^T |K| |c|`` of the terms that form P^2."""
    Kx = kernel_matrix(spec, sites, Xi)
    C = cho_solve(cho, Kx)
    for _ in range(2):
        C = C + cho_solve(cho, Kx - gram @ C)
    p2 = spec.diag_value - 2.0 * np.einsum("ij,ij->j", Kx, C) + np.einsum("ij,ij->j", C, gram @ C)
    scale = (
        spec.diag_value
        + 2.0 * np.einsum("ij,ij->j", np.abs(Kx), np.abs(C))
        + np.einsum("ij,ij->j", np.abs(C), np.abs(gram) @ np.abs(C))
    )
    return np.sqrt(np.where(p2 > 0.0, p2, 0.0)), scale


def _random_fit(seed, size, dim, lengthscale, jitter, p):
    """A fit on random sites next to its dense reference; None where the
    reference factor fails, after checking that the fit fails too."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec(input_dim=dim, lengthscale=lengthscale)
    sites = rng.uniform(0.0, 1.0, size=(size, dim))
    targets = rng.standard_normal((size, p))
    data = SimpleNamespace(sites=sites, targets=targets, size=size)
    try:
        reference = _dense_fit(spec, sites, targets, jitter)
    except LinAlgError:
        with pytest.raises(KernelFitError):
            fit_interpolant(spec, data, jitter=jitter)
        return None
    return rng, fit_interpolant(spec, data, jitter=jitter), reference


sizes = st.integers(1, 300)
lengthscales = st.floats(0.05, 3.0)
jitters = st.sampled_from([0.0, 1e-10])


@given(seed=seeds, size=sizes, dim=st.integers(1, 5), lengthscale=lengthscales, jitter=jitters)
@example(seed=0, size=1, dim=2, lengthscale=0.5, jitter=0.0)
@example(seed=1, size=64, dim=4, lengthscale=0.3, jitter=0.0)
@example(seed=2, size=65, dim=2, lengthscale=1.0, jitter=1e-10)
@example(seed=3, size=129, dim=4, lengthscale=2.0, jitter=0.0)
@example(seed=4, size=130, dim=5, lengthscale=0.5, jitter=1e-10)
@example(seed=5, size=300, dim=4, lengthscale=0.2, jitter=0.0)
def test_fit_on_one_array_equals_the_dense_fit(seed, size, dim, lengthscale, jitter):
    """One target column: the factor, the Gram entries kept beside it, the
    coefficients, the site residual and every one-column Gram product
    equal the dense reference bit for bit."""
    fitted = _random_fit(seed, size, dim, lengthscale, jitter, p=1)
    if fitted is None:
        return
    rng, model, (gram, cho, coefficients, site_residual) = fitted
    store = model._store
    assert store.shape == gram.shape
    assert np.triu(store).tobytes() == np.tril(cho[0]).T.tobytes()
    assert np.tril(store, -1).tobytes() == np.tril(gram, -1).tobytes()
    assert model.coefficients.tobytes() == coefficients.tobytes()
    assert model.site_residual == site_residual
    diagonal = model.spec.diag_value + jitter
    x = rng.standard_normal((size, 1))
    assert _gram_product(store, diagonal, x).tobytes() == (gram @ x).tobytes()


@given(
    seed=seeds,
    size=sizes,
    dim=st.integers(2, 5),
    lengthscale=lengthscales,
    jitter=jitters,
    columns=st.integers(2, 9),
)
@example(seed=0, size=65, dim=4, lengthscale=2.0, jitter=0.0, columns=2)
@example(seed=1, size=300, dim=4, lengthscale=0.2, jitter=1e-10, columns=7)
def test_several_column_products_agree_with_the_dense_fit(seed, size, dim, lengthscale, jitter, columns):
    """With several columns the Gram product and the power function sum in
    another order than the dense reference; they agree within bounds
    fixed from float64 rounding."""
    fitted = _random_fit(seed, size, dim, lengthscale, jitter, p=2)
    if fitted is None:
        return
    rng, model, (gram, cho, _, _) = fitted
    X = rng.standard_normal((size, columns))
    product = _gram_product(model._store, model.spec.diag_value + jitter, X)
    # Each entry is a sum of size + 1 rounded products (the diagonal is
    # corrected after the sum); |G_ii| <= 1 and the factor's |L_ii| <= 1.
    eps = np.finfo(float).eps
    bound = 2.0 * (size + 2) * eps * (np.abs(gram) @ np.abs(X) + np.abs(X))
    assert np.all(np.abs(product - gram @ X) <= bound)
    Xi = rng.uniform(-0.2, 1.2, size=(columns, dim))
    power = model.power_function(Xi)
    reference, scale = _dense_power_function(model.spec, model.data.sites, gram, cho, Xi)
    # P^2 is stationary in the solve, so what moves it is the rounding of
    # its terms, whose size grows with the conditioning of the Gram matrix.
    assert np.all(np.abs(power**2 - reference**2) <= 2.0 * (size + 2) * eps * scale)


def _accept_one_at_a_time(sites, targets, count, candidates, values, sep):
    """The sequential site acceptance that the blocked one must reproduce."""
    skipped = 0
    for site, value in zip(candidates, values):
        if count == sites.shape[0]:
            break
        if np.min(np.linalg.norm(sites[:count] - site, axis=1)) < sep:
            skipped += 1
            continue
        sites[count] = site
        targets[count] = value
        count += 1
    return count, skipped


@given(
    seed=seeds,
    dim=st.integers(2, 5),
    accepted=st.integers(1, 40),
    fresh=st.integers(0, 200),
    planted=st.integers(0, 60),
    room=st.integers(0, 260),
    sep=st.floats(0.02, 0.4),
    chunk=st.sampled_from([1, 3, 64, 512]),
    one_by_one=st.booleans(),
)
@example(seed=0, dim=4, accepted=1, fresh=200, planted=60, room=260, sep=0.1, chunk=512, one_by_one=False)
@example(seed=1, dim=3, accepted=5, fresh=50, planted=30, room=20, sep=0.3, chunk=3, one_by_one=True)
def test_blocked_site_acceptance_equals_the_sequential_loop(
    seed, dim, accepted, fresh, planted, room, sep, chunk, one_by_one
):
    """Blocked acceptance makes the decisions of the one-at-a-time loop, with
    near-duplicates of accepted sites and of earlier candidates planted among
    the candidates, in single-candidate calls (trajectory mode) and in blocks
    across chunk boundaries."""
    rng = np.random.default_rng(seed)
    old = rng.uniform(0.0, 1.0, size=(accepted, dim))
    candidates = rng.uniform(0.0, 1.0, size=(fresh, dim))
    pool = np.vstack([old, candidates])
    if planted:
        twins = pool[rng.integers(0, len(pool), size=planted)]
        twins = twins + rng.uniform(-0.8, 0.8, size=twins.shape) * sep / np.sqrt(dim)
        candidates = np.vstack([candidates, twins])[rng.permutation(fresh + planted)]
    values = rng.normal(size=(len(candidates), 1))
    capacity = accepted + room
    results = []
    for accept in (_accept_one_at_a_time, twotank._accept_spaced):
        sites = np.full((capacity, dim), np.nan)
        targets = np.full((capacity, 1), np.nan)
        sites[:accepted], targets[:accepted] = old, 0.0
        count, skipped = accepted, 0
        with patch.object(twotank, "_ACCEPT_CHUNK", chunk):
            if one_by_one:
                for i in range(len(candidates)):
                    count, more = accept(
                        sites, targets, count, candidates[i : i + 1], values[i : i + 1], sep
                    )
                    skipped += more
            else:
                count, skipped = accept(sites, targets, count, candidates, values, sep)
        results.append((count, skipped, sites, targets))
    (count, skipped, sites, targets), (b_count, b_skipped, b_sites, b_targets) = results
    assert (b_count, b_skipped) == (count, skipped)
    assert b_sites.tobytes() == sites.tobytes()
    assert b_targets.tobytes() == targets.tobytes()


class CountingDynamics(FunctionDynamics):
    """:class:`FunctionDynamics` that count their calls of ``output_batch``
    and ``rollout_batch`` and their batched calls of ``linearize``."""

    def __init__(self, dims, fn, jacobian_fn=None):
        super().__init__(dims, fn, jacobian_fn)
        self.calls = Counter()

    def output_batch(self, X, U):
        self.calls["output_batch"] += 1
        return super().output_batch(X, U)

    def rollout_batch(self, X0, U_seq):
        self.calls["rollout_batch"] += 1
        return super().rollout_batch(X0, U_seq)

    def linearize(self, x, u):
        self.calls["linearize"] += 1
        return super().linearize(x, u)


def _random_dynamics(rng, dims: NarxDims, linear: bool, differentiable: bool = True):
    """Stable random dynamics ``tanh(A x + B u)`` (or ``A x + B u``) whose
    output is NaN for regressors with a first entry above 50; they count
    their evaluations."""
    A = 0.4 * rng.standard_normal((dims.p, dims.n)) / np.sqrt(dims.n)
    B = rng.standard_normal((dims.p, dims.m))

    def fn(x, u):
        if x[0] > 50.0:
            return np.full(dims.p, np.nan)
        z = A @ x + B @ u
        return z if linear else np.tanh(z)

    def jacobian_fn(x, u):
        slope = np.ones(dims.p) if linear else 1.0 - np.tanh(A @ x + B @ u) ** 2
        return slope[:, None] * A, slope[:, None] * B

    return CountingDynamics(dims, fn, jacobian_fn if differentiable else None)


def _random_problem(rng, p, m, nu, horizon):
    dims = NarxDims(p=p, m=m, nu=nu)
    lo = -rng.uniform(0.1, 1.0, size=m)
    return MpcConfig(
        horizon=horizon,
        weights=StageCostWeights(Q=rng.uniform(0.5, 2.0, size=p), R=rng.uniform(0.05, 1.0, size=m)),
        input_box=Box(lo, -lo * rng.uniform(0.5, 2.0, size=m)),
        dims=dims,
        solver=SolverConfig(max_iters=25),
    )


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh", "tanh_fd"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 4),
    rows=st.integers(1, 6),
    warm_rows=st.sampled_from(["none", "some", "all"]),
    poisoned=st.booleans(),
)
def test_solve_ocp_batch_rows_equal_solo_solves(
    seed, kind, p, m, nu, horizon, rows, warm_rows, poisoned
):
    """Every row of a lockstep solve is its batch of one, bit for bit; a
    row whose start cost is not finite fails alone."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, kind == "linear", differentiable=kind != "tanh_fd")
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    if poisoned:
        X0[rng.integers(rows), 0] = 100.0
    warm = None
    if warm_rows != "none":
        warm = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
        if warm_rows == "some":
            warm[rng.random(rows) < 0.5] = 0.0
    results = solve_ocp_batch(f, X0, cfg, warm)
    assert len(results) == rows
    for i, got in enumerate(results):
        try:
            solo = solve_ocp(f, X0[i], cfg, None if warm is None else warm[i])
        except SolverError as exc:
            assert isinstance(got, SolverError) and str(got) == str(exc)
            assert X0[i, 0] == 100.0
            continue
        assert not isinstance(got, SolverError)
        assert_array_equal(got.u_star, solo.u_star)
        assert got.value == solo.value
        assert got.iterations == solo.iterations
        assert got.grad_norm == solo.grad_norm
        assert got.converged == solo.converged


@given(seed=seeds, rows=st.sampled_from([1, 2, 7, 50, 65, 129]), p=st.integers(1, 2), input_dim=st.integers(1, 5))
def test_batched_kernel_rows_equal_single_rows(seed, rows, p, input_dim):
    """predict_batch and linearize give each row the bits of its own call,
    also for batches longer than one block of kernel rows."""
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, input_dim, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0), p)
    Xi = rng.uniform(-0.2, 1.2, size=(rows, input_dim))
    values = model.predict_batch(Xi)
    lin_values, jacobians = _linearize_sites(model, Xi)
    assert lin_values.shape == (rows, p) and jacobians.shape == (rows, p, input_dim)
    assert_array_equal(lin_values, values)
    for i in range(rows):
        assert_array_equal(values[i], model.predict_batch(Xi[i])[0])
        value, jac = _linearize_sites(model, Xi[i : i + 1])
        assert_array_equal(lin_values[i], value[0])
        assert_array_equal(jacobians[i], jac[0])


@given(
    seed=seeds,
    kind=st.sampled_from(["function", "kernel"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 5),
    rows=st.integers(1, 7),
)
def test_linearize_outputs_and_sweep_costs_equal_the_rollout(seed, kind, p, m, nu, horizon, rows):
    """``linearize`` gives the outputs of ``output_batch`` bit for bit, so
    the costs of a forward sweep are the costs of ``cost_J_batch``: the
    solver takes every cost from a sweep."""
    cfg = _random_problem(np.random.default_rng(seed), p, m, nu, horizon)
    dims = cfg.dims
    assume(kind == "function" or dims.n + m <= 5)
    rng = np.random.default_rng(seed + 1)
    if kind == "function":
        f = _random_dynamics(rng, dims, linear=False)
    else:
        f = _interpolant(rng, dims.n + m, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0), p, dims)
    X = rng.uniform(-0.2, 1.2, size=(rows, dims.n))
    U = rng.uniform(-0.2, 1.2, size=(rows, horizon, m))
    outputs, _, _ = f.linearize(X, U[:, 0])
    assert_array_equal(outputs, f.output_batch(X, U[:, 0]))
    for i in range(rows):
        assert_array_equal(f.linearize(X[i : i + 1], U[i : i + 1, 0])[0][0], f.output(X[i], U[i, 0]))
    sweep = forward_sweep(f, X, U)
    costs = np.sum(stage_cost(sweep.outputs, U, cfg.weights), axis=1)
    assert_array_equal(costs, cost_J_batch(f, X, U, cfg.weights))


@given(
    seed=seeds,
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 5),
    rows=st.integers(1, 4),
)
def test_batched_cost_gradient_matches_central_differences(seed, p, m, nu, horizon, rows):
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, linear=False)
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    U = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
    grad = cost_gradient(f, X0, U, cfg.weights)
    assert grad.shape == U.shape
    h = 1e-6
    for i in range(rows):
        assert_array_equal(grad[i], cost_gradient(f, X0[i : i + 1], U[i : i + 1], cfg.weights)[0])
        steps = h * np.eye(horizon * m).reshape(-1, horizon, m)
        x0 = np.tile(X0[i], (horizon * m, 1))
        plus = cost_J_batch(f, x0, U[i] + steps, cfg.weights)
        minus = cost_J_batch(f, x0, U[i] - steps, cfg.weights)
        central = ((plus - minus) / (2.0 * h)).reshape(horizon, m)
        assert_allclose(grad[i], central, rtol=1e-6, atol=1e-6)


def _scalar_descent(f, x0, cfg, start):
    """Two-metric projected quasi-Newton descent written out for one
    problem: Python branches, 2-D products and one line search at a time.
    Costs and gradients are batches of one."""
    box, weights = cfg.input_box, cfg.weights
    gradient = cost_gradient if f.differentiable else finite_difference_gradient
    shape = start.shape
    lo, hi = np.tile(box.lo, shape[0]), np.tile(box.hi, shape[0])
    X0 = x0[None]

    def cost(u):
        return float(cost_J_batch(f, X0, u.reshape(1, *shape), weights)[0])

    u = np.clip(start.ravel(), lo, hi)
    value = cost(u)
    k = u.size
    H, scale, fresh = np.eye(k), 1.0, True
    grad_norm = decrease = np.inf
    iterations, converged = 0, False
    for it in range(cfg.solver.max_iters):
        g = gradient(f, X0, u.reshape(1, *shape), weights).ravel()
        if it:
            y = g - g_old
            sy = s @ y
            if sy > 0:
                scale = sy / (y @ y)
                if fresh:
                    H, fresh = scale * np.eye(k), False
                rho = 1.0 / sy
                Hy = H @ y
                H = (
                    H
                    - rho * (np.outer(s, Hy) + np.outer(Hy, s))
                    + (rho * rho * (y @ Hy) + rho) * np.outer(s, s)
                )
        pg = u - np.clip(u - g, lo, hi)
        grad_norm = float(np.sqrt(pg @ pg))
        eps = min(grad_norm, ACTIVE_WIDTH)
        active = ((u <= lo + eps) & (g > 0)) | ((u >= hi - eps) & (g < 0))
        free = ~active
        d = np.where(np.outer(free, free), H, 0.0) @ g
        slope = g @ d
        if not slope > 0 and np.any(free & (g != 0)):
            H = scale * np.eye(k)
            d = np.where(np.outer(free, free), H, 0.0) @ g
            slope = g @ d
        d = np.where(active, g, d)
        g_active = np.where(active, g, 0.0)
        decrease = float(slope + g_active @ (u - np.clip(u - d, lo, hi)))
        if grad_norm <= mpc.GRAD_TOL or decrease <= NOISE_FLOOR * abs(value):
            converged = True
            break
        iterations += 1
        t = 1.0
        while t >= 1e-18:
            cand = np.clip(u - t * d, lo, hi)
            cand_value = cost(cand)
            sufficient = mpc.ARMIJO * (t * slope + g_active @ (u - cand))
            if np.isfinite(cand_value) and cand_value <= value - sufficient:
                break
            t *= mpc.SHRINK
        else:
            break
        s, g_old = cand - u, g
        u, value = cand, cand_value
    return u.reshape(shape), value, iterations, grad_norm, decrease, converged


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh", "tanh_fd"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 4),
    max_iters=st.integers(1, 40),
)
def test_solo_solve_equals_the_scalar_descent(seed, kind, p, m, nu, horizon, max_iters):
    """A batch of one takes the iterates, curvature updates, stopping tests
    and step lengths of the plain scalar descent, bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear", differentiable=kind != "tanh_fd")
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    start = rng.uniform(-1.0, 1.0, size=(horizon, m))
    sol = solve_ocp(f, x0, cfg, warm=start)
    u, value, iterations, grad_norm, decrease, converged = _scalar_descent(f, x0, cfg, start)
    assert_array_equal(sol.u_star, u)
    assert (sol.value, sol.iterations, sol.grad_norm, sol.predicted_decrease, sol.converged) == (
        value, iterations, grad_norm, decrease, converged
    )


def _spy(name: str):
    """Count the calls of ``mpc.<name>``, which the solver looks up as a
    module global."""
    return patch.object(mpc, name, wraps=getattr(mpc, name))


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh", "tanh_fd"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 4),
    max_iters=st.integers(1, 40),
)
def test_a_solve_evaluates_each_cost_by_one_sweep(seed, kind, p, m, nu, horizon, max_iters):
    """A differentiable solve makes one N-step forward sweep per start and
    per line-search trial, each gradient is a backward sweep over a kept
    sweep, and nothing calls ``output_batch`` or ``rollout_batch``.  The
    scalar descent makes one rollout per cost and one ``cost_gradient``
    (an N-step sweep) per gradient, so its counts give the expected ones.
    Without Jacobians the solve still goes through ``cost_J_batch`` and
    ``finite_difference_gradient``."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear", differentiable=kind != "tanh_fd")
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    start = rng.uniform(-1.0, 1.0, size=(horizon, m))
    with (
        _spy("forward_sweep") as sweeps,
        _spy("backward_sweep") as backward,
        _spy("cost_J_batch") as costs,
        _spy("finite_difference_gradient") as differences,
    ):
        solve_ocp(f, x0, cfg, warm=start)
    solver, f.calls = f.calls, Counter()
    if not f.differentiable:
        assert sweeps.call_count == backward.call_count == solver["linearize"] == 0
        assert differences.call_count >= 1 and costs.call_count >= 1 + differences.call_count
        return
    _scalar_descent(f, x0, cfg, start)
    scalar = f.calls
    assert solver["output_batch"] == solver["rollout_batch"] == 0
    assert costs.call_count == differences.call_count == 0
    assert sweeps.call_count == scalar["rollout_batch"]
    assert solver["linearize"] == horizon * sweeps.call_count
    assert horizon * backward.call_count == scalar["linearize"]


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh", "tanh_fd"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 6),
    rows=st.integers(1, 4),
    max_iters=st.integers(1, 60),
)
def test_solves_meet_a_stopping_test_and_never_lose_value(
    seed, kind, p, m, nu, horizon, rows, max_iters
):
    """A converged solve meets the gradient test or the noise-floor test at
    its returned sequence, whose value is at most its start's value."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear", differentiable=kind != "tanh_fd")
    gradient = cost_gradient if f.differentiable else finite_difference_gradient
    box = cfg.input_box
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    warm = rng.uniform(-1.5, 1.5, size=(rows, horizon, m))
    start_values = cost_J_batch(f, X0, np.clip(warm, box.lo, box.hi), cfg.weights)
    for i, sol in enumerate(solve_ocp_batch(f, X0, cfg, warm)):
        assert sol.value <= start_values[i]
        assert sol.value == cost_J_batch(f, X0[i : i + 1], sol.u_star[None], cfg.weights)[0]
        if sol.iterations < max_iters:
            # The stopping quantities were taken at u_star itself.
            g = gradient(f, X0[i : i + 1], sol.u_star[None], cfg.weights)[0]
            pg = sol.u_star - np.clip(sol.u_star - g, box.lo, box.hi)
            assert sol.grad_norm == np.linalg.norm(pg)
        if sol.converged:
            assert sol.iterations < max_iters
            assert sol.grad_norm <= mpc.GRAD_TOL or (
                0.0 <= sol.predicted_decrease <= NOISE_FLOOR * abs(sol.value)
            )


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh", "tanh_fd"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    n_max=st.integers(1, 10),
    rows=st.integers(1, 5),
    poisoned=st.booleans(),
)
def test_growth_bounds_are_prefix_costs_of_one_solve_per_state(
    seed, kind, p, m, nu, n_max, rows, poisoned
):
    """The grid is one ``solve_ocp_batch`` call at ``n_max``.  Each
    ``ratios[i, N-1] * ||x_i||^2`` is the cost of the first N inputs of
    state i's solution, every row is nondecreasing in N bit for bit, and a
    state whose solve fails leaves a NaN row and counts as one failure."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, 1)
    f = _random_dynamics(rng, cfg.dims, kind == "linear", differentiable=kind != "tanh_fd")
    states = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    norms_sq = np.einsum("ij,ij->i", states, states)
    assume(np.all(norms_sq >= 1e-10))
    if poisoned:
        states[rng.integers(rows), 0] = 100.0
        norms_sq = np.einsum("ij,ij->i", states, states)
    with patch.object(stability, "solve_ocp_batch", wraps=stability.solve_ocp_batch) as solves:
        try:
            growth = estimate_growth_bound(f, cfg, states, n_max)
        except SolverError:
            assert poisoned and rows == 1 and solves.call_count == 1
            return
    assert solves.call_count == 1
    assert growth.ratios.shape == (rows, n_max) and growth.iterations.shape == (rows,)
    results = solve_ocp_batch(f, states, replace(cfg, horizon=n_max))
    failed = [isinstance(sol, SolverError) for sol in results]
    assert growth.solver_failures == sum(failed) == int(poisoned)
    for i, sol in enumerate(results):
        if failed[i]:
            assert np.all(np.isnan(growth.ratios[i])) and growth.iterations[i] == 0
            continue
        assert growth.iterations[i] == sol.iterations
        assert np.all(np.diff(growth.ratios[i]) >= 0.0)
        prefix = [
            cost_J_batch(f, states[i : i + 1], sol.u_star[None, :horizon], cfg.weights)[0]
            for horizon in range(1, n_max + 1)
        ]
        # The running sum and np.sum add in different orders from N = 8 on.
        assert_allclose(growth.ratios[i] * norms_sq[i], prefix, rtol=1e-12)
    assert_array_equal(growth.b_values, np.nanmax(growth.ratios, axis=0))
