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
    estimate_growth_bound,
    fill_distance,
    kernel_matrix,
    min_pairwise_distance,
    sample_consistent_states,
    shift_state,
    solve_ocp,
    solve_ocp_batch,
    stage_cost,
    two_tank_rhs,
    two_tank_step,
    wendland_phi,
)
from narxmpc import bench, kernels, mpc, stability, twotank
from narxmpc.kernels import KernelFitError, _gram_product, _profile, _wendland_terms, fit_interpolant
from narxmpc.mpc import ACTIVE_WIDTH, NOISE_FLOOR, backward_sweep
from narxmpc.narx import Sweep
from oracles import (
    FunctionDynamics,
    backward_sweep_reference,
    cost_gradient,
    cost_J_batch,
    kernel_jacobian_reference,
    one_step_sweep,
    rk4_step,
    sample_domain,
    stepwise_rollout,
    stepwise_sweep,
    wendland_reference,
)

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


def _interpolant(rng, dims: NarxDims, size: int, lengthscale: float):
    """Interpolant on the sites of ``dims`` (n + m columns, p outputs) with
    random sites and coefficients; no fit is needed to compare two ways
    of evaluating the same kernel expansion.  Evaluation reads only the
    spec's lengthscale, so sites may be wider than the profile's
    dimension limit of five, as lag depth 3 needs."""
    sites = rng.uniform(0.0, 1.0, size=(size, dims.n + dims.m))
    return KernelInterpolant(
        SimpleNamespace(lengthscale=lengthscale),
        SimpleNamespace(sites=sites, dims=dims),
        jitter=0.0,
        store=None,
        coefficients=rng.standard_normal((size, dims.p)),
        site_residual=0.0,
    )


# Site layouts of one-step kernel evaluations: 2 to 5 columns at lag
# depth one, and wider ones at lag depth two.
site_dims = st.builds(NarxDims, p=st.integers(1, 2), m=st.integers(1, 3), nu=st.integers(1, 2))


def _split(model, Xi):
    """``output_batch`` at site rows ``Xi``, split at ``model.dims.n``."""
    return model.output_batch(Xi[:, : model.dims.n], Xi[:, model.dims.n :])


@given(
    seed=seeds,
    dims=site_dims,
    size=st.integers(2, 60),
    lengthscale=st.floats(0.2, 3.0),
    at_site=st.booleans(),
)
def test_one_step_sweep_matches_output_batch_and_central_differences(seed, dims, size, lengthscale, at_site):
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, dims, size, lengthscale)
    input_dim, p = dims.n + dims.m, dims.p
    if at_site:
        xi = model.data.sites[rng.integers(size)].copy()
    else:
        xi = rng.uniform(-0.2, 1.2, size=input_dim)
    value, jac = (part[0] for part in one_step_sweep(model, xi[None]))
    assert value.shape == (p,) and jac.shape == (p, input_dim)
    assert_array_equal(value, _split(model, xi[None])[0])
    h = 1e-6 * lengthscale
    steps = h * np.eye(input_dim)
    fd = (_split(model, xi + steps) - _split(model, xi - steps)).T / (2.0 * h)
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


@given(rows=tank_rows, seed=seeds, directions=st.integers(0, 3))
def test_dual_two_tank_step_keeps_the_plain_values(rows, seed, directions):
    """With tangents on a trailing axis, the step's values are the bits of
    the plain step, NaN rows and signs of zero included, and no
    floating-point warning is raised."""
    params = TwoTankParams()
    h1, h2, u = _tank_arrays(rows)
    rng = np.random.default_rng(seed)
    duals = [np.column_stack([v, rng.standard_normal((v.size, directions))]) for v in (h1, h2, u)]
    got = np.stack([part[:, 0] for part in two_tank_step(*duals, params, dual=True)], axis=-1)
    plain = np.stack(two_tank_step(h1, h2, u, params), axis=-1)
    assert_array_equal(got, plain)
    assert_array_equal(np.signbit(got), np.signbit(plain))


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
    and ``sweep``."""

    def __init__(self, dims, fn, jacobian_fn=None):
        super().__init__(dims, fn, jacobian_fn)
        self.calls = Counter()

    def output_batch(self, X, U):
        self.calls["output_batch"] += 1
        return super().output_batch(X, U)

    def sweep(self, X0, U):
        self.calls["sweep"] += 1
        return super().sweep(X0, U)


def _random_dynamics(rng, dims: NarxDims, linear: bool):
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

    return CountingDynamics(dims, fn, jacobian_fn)


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
    kind=st.sampled_from(["linear", "tanh"]),
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
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
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


@given(
    radii=st.lists(
        st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, np.inf, np.nan])),
        min_size=1,
        max_size=40,
    )
)
@example(radii=[0.0, 1.0, np.inf, np.nan, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 3.0])
def test_wendland_terms_equal_the_clamped_reference(radii):
    """The profile and the kept ``(1 - r)^4``, formed from ``1 - min(r, 1)``,
    are the bits of the ``max(1 - r, 0)`` form, sign of zero and NaN
    included, at, beyond and just inside the support's edge."""
    r = np.array(radii)
    phi, fourth = wendland_reference(r)
    terms = _wendland_terms(r.copy())
    assert terms[2].tobytes() == fourth.tobytes()
    assert _profile(*terms).tobytes() == phi.tobytes()
    assert wendland_phi(r).tobytes() == phi.tobytes()


@given(
    seed=seeds,
    rows=st.sampled_from([1, 2, 5, 7, 64, 70]),
    dims=site_dims,
    lengthscale=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
)
def test_jacobian_blocks_leave_the_bits_unchanged(seed, rows, dims, lengthscale):
    """The Jacobian pass takes its rows in blocks of at most
    ``_JACOBIAN_BYTES`` of site differences, and each row is its own
    product: blocks of 1, 2 and 3 rows give the arrays of the default
    blocks (64 rows here) bit for bit, and those of the reference formula,
    also for rows outside every site's support, whose Jacobians are
    signed zeros, and at the unit lengthscale, whose radii skip the
    division."""
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, dims, int(rng.integers(2, 80)), lengthscale)
    Xi = rng.uniform(-0.2, 1.2, size=(rows, dims.n + dims.m))
    Xi[::3] += 4.0
    default = one_step_sweep(model, Xi)[1]
    assert default.tobytes() == kernel_jacobian_reference(model, Xi).tobytes()
    for block in (1, 2, 3):
        with patch.object(kernels, "_JACOBIAN_BYTES", block * 8 * model.data.sites.size):
            assert one_step_sweep(model, Xi)[1].tobytes() == default.tobytes()


@given(seed=seeds, rows=st.sampled_from([1, 2, 7, 50, 65, 129]), dims=site_dims)
def test_batched_kernel_rows_equal_single_rows(seed, rows, dims):
    """``output_batch`` and the one-step sweep give each row the bits of
    its own call, also for batches longer than one block of kernel rows,
    and the Jacobians are those of the broadcast reference formula bit
    for bit."""
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
    input_dim, p = dims.n + dims.m, dims.p
    Xi = rng.uniform(-0.2, 1.2, size=(rows, input_dim))
    values = _split(model, Xi)
    sweep_values, jacobians = one_step_sweep(model, Xi)
    assert sweep_values.shape == (rows, p) and jacobians.shape == (rows, p, input_dim)
    assert_array_equal(sweep_values, values)
    assert_array_equal(jacobians, kernel_jacobian_reference(model, Xi))
    for i in range(rows):
        assert_array_equal(values[i], _split(model, Xi[i : i + 1])[0])
        value, jac = one_step_sweep(model, Xi[i : i + 1])
        assert_array_equal(sweep_values[i], value[0])
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
def test_sweep_outputs_and_costs_equal_the_stepwise_rollout(seed, kind, p, m, nu, horizon, rows):
    """A one-step sweep gives the outputs of ``output_batch`` bit for bit,
    and an N-step sweep the outputs of the stepwise rollout, so the costs
    of a forward sweep are the costs of ``cost_J_batch``: the solver
    takes every cost from a sweep."""
    cfg = _random_problem(np.random.default_rng(seed), p, m, nu, horizon)
    dims = cfg.dims
    assume(kind == "function" or dims.n + m <= 5)
    rng = np.random.default_rng(seed + 1)
    if kind == "function":
        f = _random_dynamics(rng, dims, linear=False)
    else:
        f = _interpolant(rng, dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
    X = rng.uniform(-0.2, 1.2, size=(rows, dims.n))
    U = rng.uniform(-0.2, 1.2, size=(rows, horizon, m))
    outputs = f.sweep(X, U[:, :1]).outputs[:, 0]
    assert_array_equal(outputs, f.output_batch(X, U[:, 0]))
    for i in range(rows):
        assert_array_equal(f.sweep(X[i : i + 1], U[i : i + 1, :1]).outputs[0, 0], f.output(X[i], U[i, 0]))
    sweep = f.sweep(X, U)
    assert_array_equal(sweep.outputs, stepwise_rollout(f, X, U))
    costs = np.sum(stage_cost(sweep.outputs, U, cfg.weights), axis=1)
    assert_array_equal(costs, cost_J_batch(f, X, U, cfg.weights))


@given(
    seed=seeds,
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    rows=st.integers(1, 70),
    horizon=st.integers(1, 25),
)
@example(seed=0, p=1, m=1, nu=3, rows=70, horizon=25)
@example(seed=1, p=2, m=1, nu=2, rows=3, horizon=25)
@example(seed=2, p=1, m=2, nu=1, rows=64, horizon=2)
def test_kernel_sweep_and_rollout_equal_the_generic_per_step_paths(seed, p, m, nu, rows, horizon):
    """The kernel's two-pass sweep (a value pass per step, a Jacobian pass
    per 64 rows or more) gives the arrays of the per-step sweep, one
    one-step sweep per step, bit for bit, and its outputs are those of
    the per-step rollout, one ``output_batch`` per step; each row equals
    its batch of one.  The drawn batches cross the 64-row block of the
    Jacobian pass and the horizons its step chunks."""
    rng = np.random.default_rng(seed)
    dims = NarxDims(p=p, m=m, nu=nu)
    f = _interpolant(rng, dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
    X = rng.uniform(-0.2, 1.2, size=(rows, dims.n))
    U = rng.uniform(-0.2, 1.2, size=(rows, horizon, m))
    sweep, generic = f.sweep(X, U), stepwise_sweep(f, X, U)
    outputs = stepwise_rollout(f, X, U)
    for name in ("outputs", "jac_x", "jac_u"):
        assert_array_equal(getattr(sweep, name), getattr(generic, name))
    assert_array_equal(sweep.outputs, outputs)
    for i in range(rows):
        single = f.sweep(X[i : i + 1], U[i : i + 1])
        for name in ("outputs", "jac_x", "jac_u"):
            assert_array_equal(getattr(single, name)[0], getattr(sweep, name)[i])
        assert_array_equal(stepwise_rollout(f, X[i], U[i]), outputs[i])


@given(
    seed=seeds,
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 12),
    rows=st.integers(1, 8),
)
def test_backward_sweep_equals_the_per_step_adjoint_loop(seed, p, m, nu, horizon, rows):
    """Forming the input gradients after the adjoint loop, all steps in one
    stacked product, gives the bits of forming each inside it."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    dims = cfg.dims
    sweep = Sweep(*(rng.standard_normal((rows, horizon, p, *tail)) for tail in ((), (dims.n,), (m,))))
    U = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
    assert_array_equal(
        backward_sweep(dims, sweep, U, cfg.weights), backward_sweep_reference(dims, sweep, U, cfg.weights)
    )


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
        g = cost_gradient(f, X0, u.reshape(1, *shape), weights).ravel()
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
    kind=st.sampled_from(["linear", "tanh"]),
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
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
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
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 4),
    max_iters=st.integers(1, 40),
)
def test_a_solve_evaluates_each_cost_by_one_sweep(seed, kind, p, m, nu, horizon, max_iters):
    """A solve makes one N-step forward sweep per start and per
    line-search trial, each gradient is a backward sweep over a kept
    sweep, and nothing calls ``output_batch``.  The scalar descent makes
    one stepwise rollout (N ``output_batch`` calls) per cost and one
    ``cost_gradient`` (an N-step sweep) per gradient, so its counts give
    the expected ones."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    start = rng.uniform(-1.0, 1.0, size=(horizon, m))
    with _spy("backward_sweep") as backward:
        solve_ocp(f, x0, cfg, warm=start)
    solver, f.calls = f.calls, Counter()
    _scalar_descent(f, x0, cfg, start)
    scalar = f.calls
    assert solver["output_batch"] == 0
    assert horizon * solver["sweep"] == scalar["output_batch"]
    assert backward.call_count == scalar["sweep"]


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
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
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    box = cfg.input_box
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    warm = rng.uniform(-1.5, 1.5, size=(rows, horizon, m))
    start_values = cost_J_batch(f, X0, np.clip(warm, box.lo, box.hi), cfg.weights)
    for i, sol in enumerate(solve_ocp_batch(f, X0, cfg, warm)):
        assert sol.value <= start_values[i]
        assert sol.value == cost_J_batch(f, X0[i : i + 1], sol.u_star[None], cfg.weights)[0]
        if sol.iterations < max_iters:
            # The stopping quantities were taken at u_star itself.
            g = cost_gradient(f, X0[i : i + 1], sol.u_star[None], cfg.weights)[0]
            pg = sol.u_star - np.clip(sol.u_star - g, box.lo, box.hi)
            assert sol.grad_norm == np.linalg.norm(pg)
        if sol.converged:
            assert sol.iterations < max_iters
            assert sol.grad_norm <= mpc.GRAD_TOL or (
                0.0 <= sol.predicted_decrease <= NOISE_FLOOR * abs(sol.value)
            )


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
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
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
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


@given(
    seed=seeds,
    kind=st.sampled_from(["function", "kernel", "plant"]),
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 6),
    rows=st.integers(1, 5),
)
def test_solutions_carry_the_outputs_of_their_inputs(cfg, plant_view, seed, kind, p, m, nu, horizon, rows):
    """``OcpSolution.outputs`` are the outputs of ``u_star`` bit for bit,
    for each row of a batch and for that row as a batch of one: those of
    the stepwise rollout for a :class:`FunctionDynamics` and the kernel,
    and for the plant view those of its plain carried rollout, which the
    stepwise rollout matches to 1e-9 from reachable states.  The growth
    ratios are the cumulative stage costs of those outputs over
    ``||x||^2``, bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "plant":
        mpc_cfg = replace(bench.make_mpc_config(cfg), horizon=horizon, solver=SolverConfig(max_iters=25))
        f = plant_view
        X = sample_consistent_states(cfg, rows, seed % 2**16)
    else:
        mpc_cfg = _random_problem(rng, p, m, nu, horizon)
        if kind == "function":
            f = _random_dynamics(rng, mpc_cfg.dims, linear=False)
        else:
            f = _interpolant(rng, mpc_cfg.dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
        X = rng.uniform(-1.0, 1.0, size=(rows, mpc_cfg.dims.n))
    sols = solve_ocp_batch(f, X, mpc_cfg)
    U = np.stack([sol.u_star for sol in sols])
    stepwise = stepwise_rollout(f, X, U)
    if kind == "plant":
        reference = f.norm.normalize_output(f._carry(X, U, dual=False)[0][..., None])
        assert_allclose(stepwise, reference, rtol=0.0, atol=1e-9)
    else:
        reference = stepwise
    for i, sol in enumerate(sols):
        assert sol.outputs.shape == (horizon, mpc_cfg.dims.p)
        assert_array_equal(sol.outputs, reference[i])
        assert_array_equal(solve_ocp(f, X[i], mpc_cfg).outputs, reference[i])
    norms_sq = np.einsum("ij,ij->i", X, X)
    assume(np.all(norms_sq >= 1e-10))
    growth = estimate_growth_bound(f, mpc_cfg, X, horizon)
    costs = np.cumsum(stage_cost(reference, U, mpc_cfg.weights), axis=1) / norms_sq[:, None]
    assert_array_equal(growth.ratios, costs)


def _regular_plant_rows(cfg, X, U, margin=1e-4):
    """Rows of the plant view's rollouts from ``X`` (B, n) under ``U``
    (B, N, 1) that take no clamp and no substep: the bisection root lies
    inside its bracket, and at the root and at every step a single
    Runge-Kutta step is finite, with both levels and their gap above
    ``margin`` (m).  Central differences there see one smooth branch."""
    params, norm = cfg.params, cfg.normalization()
    raw = norm.denormalize_state(X, cfg.dims)
    y_cur, y_prev, u_prev = raw[:, 0], raw[:, 1], raw[:, cfg.dims.nu]
    head = twotank._previous_upper_level(y_prev, y_cur, u_prev, params)
    regular = (y_prev > margin) & (head - y_prev > margin) & (head < twotank.HIDDEN_LEVEL_MAX - margin)
    _, h2 = two_tank_step(y_prev, head, u_prev, params)
    h1 = y_cur
    for u in norm.denormalize_input(U)[..., 0].T:
        regular &= (h1 > margin) & (h2 - h1 > margin)
        h1, h2 = two_tank_step(h1, h2, u, params)
    return regular & np.isfinite(h1) & np.isfinite(h2)


@given(seed=seeds, rows=st.integers(1, 6), horizon=st.integers(1, 5), reachable=st.booleans())
def test_plant_view_sweep_is_the_rollout_with_exact_jacobians(cfg, plant_view, seed, rows, horizon, reachable):
    """The plant view's sweep gives the outputs of its plain carried
    rollout bit for bit, and from reachable states those of the stepwise
    rollout, which reconstructs the hidden level at every step, to 1e-9;
    each row is its batch of one, and on rows that take no clamp and no
    substep every step's Jacobians match central differences (step 1e-6)
    of the one-step outputs at that step's regressor and input."""
    dims = cfg.dims
    rng = np.random.default_rng(seed)
    if reachable:
        X = sample_consistent_states(cfg, rows, seed % 2**16)
    else:
        X, _ = sample_domain(cfg, rows, seed)
    box = cfg.input_box()
    U = rng.uniform(box.lo, box.hi, size=(rows, horizon, 1))
    sweep = plant_view.sweep(X, U)
    carried = plant_view.norm.normalize_output(plant_view._carry(X, U, dual=False)[0][..., None])
    assert_array_equal(sweep.outputs, carried)
    if reachable:
        assert_allclose(sweep.outputs, stepwise_rollout(plant_view, X, U), rtol=0.0, atol=1e-9)
    states = np.empty((rows, horizon + 1, dims.n))
    states[:, 0] = X
    for k in range(horizon):
        states[:, k + 1] = shift_state(states[:, k], sweep.outputs[:, k], U[:, k], dims)
    for i in range(rows):
        single = plant_view.sweep(X[i : i + 1], U[i : i + 1])
        assert_array_equal(single.outputs[0], sweep.outputs[i])
        assert_array_equal(single.jac_x[0], sweep.jac_x[i])
        assert_array_equal(single.jac_u[0], sweep.jac_u[i])
    assert np.all(np.isfinite(sweep.jac_x)) and np.all(np.isfinite(sweep.jac_u))
    regular = _regular_plant_rows(cfg, X, U)
    if not regular.any():
        return
    # Perturb the newest output, the previous output, the previous input
    # and the input of every step's regressor-input pair, all in one batch.
    n, h = dims.n, 1e-6
    columns = [0, 1, dims.nu, n]
    pairs = np.concatenate([states[regular, :-1], U[regular]], axis=-1).reshape(-1, n + 1)
    steps = h * np.eye(n + 1)[columns]
    probes = np.stack([pairs[None] + steps[:, None], pairs[None] - steps[:, None]])
    out = plant_view.output_batch(probes[..., :n].reshape(-1, n), probes[..., n:].reshape(-1, 1))
    out = out.reshape(2, len(columns), -1)
    central = ((out[0] - out[1]) / (2.0 * h)).T
    exact = np.concatenate([sweep.jac_x[regular][..., 0, columns[:-1]], sweep.jac_u[regular][..., 0, :]], axis=-1)
    exact = exact.reshape(-1, len(columns))
    assert_allclose(exact, central, rtol=1e-5, atol=1e-6 * (1.0 + np.max(np.abs(exact))))
