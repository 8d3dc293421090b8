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
from scipy.linalg.lapack import dtbtrs
from scipy.spatial.distance import cdist

from narxmpc import (
    Box,
    KernelInterpolant,
    KernelSpec,
    MpcConfig,
    NarxDims,
    NarxDynamics,
    SolverConfig,
    SolverError,
    StageCostWeights,
    estimate_error_constants,
    estimate_growth_bound,
    fill_distance,
    kernel_matrix,
    min_pairwise_distance,
    sample_consistent_states,
    shift_state,
    solve_ocp,
    solve_ocp_batch,
    stage_cost,
    two_tank_step,
    wendland_phi,
)
from narxmpc import bench, fileio, mpc, stability, twotank
from narxmpc.kernels import (
    KernelFitError,
    _constants_from,
    _euclidean,
    _gram_product,
    _profile,
    _wendland_terms,
    fit_interpolant,
)
from narxmpc.mpc import ACTIVE_WIDTH, NOISE_FLOOR
from narxmpc.narx import Sweep
from oracles import (
    FunctionDynamics,
    backward_sweep_reference,
    bisected_upper_level,
    cost_gradient,
    cost_J_batch,
    error_constants_by_candidate,
    identity_normalization,
    kernel_jacobian_reference,
    kernel_value_reference,
    one_step_sweep,
    rk4_step,
    sample_domain,
    stepwise_rollout,
    stepwise_sweep,
    two_tank_rhs,
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


@given(
    seed=seeds,
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    a=st.floats(0.0, 10.0),
    b=st.floats(0.0, 10.0),
    scale=st.floats(1e-3, 10.0),
    rows=st.integers(100, 160),
)
@example(seed=0, p=1, m=1, a=0.0, b=0.0, scale=1.0, rows=100)
def test_error_constants_cover_every_estimation_sample(seed, p, m, a, b, scale, rows):
    """For ``model = truth + a ||x|| + b ||u||`` on samples that include
    the origin, the estimated constants bound the residual of every
    sample, up to rounding."""
    dims = NarxDims(p=p, m=m, nu=2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, dims.n))
    B = rng.standard_normal((p, m))
    truth = FunctionDynamics(dims, lambda x, u: np.tanh(A @ x + B @ u))
    model = FunctionDynamics(
        dims, lambda x, u: np.tanh(A @ x + B @ u) + a * np.linalg.norm(x) + b * np.linalg.norm(u)
    )
    X = scale * rng.uniform(-1.0, 1.0, size=(rows, dims.n))
    U = scale * rng.uniform(-1.0, 1.0, size=(rows, m))
    X[0], U[0] = 0.0, 0.0
    constants = estimate_error_constants(truth, model, X, U)
    residual = np.linalg.norm(truth.output_batch(X, U) - model.output_batch(X, U), axis=1)
    bound = constants.bound(np.linalg.norm(X, axis=1), np.linalg.norm(U, axis=1))
    assert np.all(residual <= bound + 1e-12 * (1.0 + bound))


# Norms from a few repeated values, so that samples tie, states vanish
# and samples sit at the origin, mixed with arbitrary ones.
norms = st.one_of(st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))


def _outcome(estimate, *args):
    try:
        c_x, c_u = estimate(*args)
    except ValueError as exc:
        return str(exc)
    return np.array([c_x, c_u]).tobytes()


@given(samples=st.lists(st.tuples(norms, norms, norms), min_size=1, max_size=40))
@example(samples=[(1.0, 1.0, 1.0)] * 3)
@example(samples=[(0.0, 0.0, 0.0), (0.5, 0.0, 1.0), (0.0, 0.0, 2.0)])
@example(samples=[(1e-3, 0.0, 0.0)])
@example(samples=[(12345678.9, 0.0, 1.3), (1.0, 1.0, 1.0)])
def test_error_constants_equal_the_per_candidate_loop(samples):
    """The constants from one pass over all candidates are the loop's bit
    for bit, the first candidate winning ties, and both raise the same
    error for a sample at the origin with a residual and for vanishing
    states that no candidate covers. Each sample is (residual, ||x||, ||u||)."""
    residual, x_norm, u_norm = np.array(samples).T

    def vectorized(*args):
        constants = _constants_from(*args)
        assert type(constants.c_x) is float and type(constants.c_u) is float
        assert constants.sample_count == len(samples)
        return constants.c_x, constants.c_u

    args = (residual, x_norm, u_norm)
    assert _outcome(vectorized, *args) == _outcome(error_constants_by_candidate, *args)


@given(seed=seeds, rows=st.integers(1, 6))
def test_two_tank_view_single_equals_batch_row(cfg, plant_view, seed, rows):
    X, U = sample_domain(cfg, rows, seed)
    batch = plant_view.output_batch(X, U)
    assert batch.shape == (rows, 1)
    for i in range(rows):
        assert_array_equal(plant_view.output(X[i], U[i]), batch[i])


@given(rows=tank_rows)
def test_two_tank_step_is_rk4_on_the_stacked_rhs(rows):
    dt = twotank.BenchmarkConfig().dt
    h1, h2, u = _tank_arrays(rows)

    def rhs(s, uu):
        return np.stack(two_tank_rhs(s[..., 0], s[..., 1], uu), axis=-1)

    ref = rk4_step(rhs, np.stack([h1, h2], axis=-1), u, dt)
    got = np.stack(two_tank_step(h1, h2, u, dt), axis=-1)
    assert_array_equal(got, ref)
    assert_array_equal(np.signbit(got), np.signbit(ref))


@given(rows=tank_rows)
def test_two_tank_step_single_equals_batch_row(rows):
    dt = twotank.BenchmarkConfig().dt
    h1, h2, u = _tank_arrays(rows)
    batch = np.stack(two_tank_step(h1, h2, u, dt), axis=-1)
    for i in range(len(rows)):
        single = np.stack(two_tank_step(h1[i], h2[i], u[i], dt))
        assert_array_equal(single, batch[i])
        assert_array_equal(np.signbit(single), np.signbit(batch[i]))


# (h1, h2 - h1, weak pump) start rows of closed-loop plants: equal,
# nearly equal or independent levels, and inputs up to 1e-5 m^3/s on a
# weak pump, where a step from nearly equal levels needs substeps.
plant_starts = st.lists(
    st.tuples(st.floats(0.0, 0.5), st.one_of(st.just(0.0), st.floats(1e-12, 1e-3), st.floats(0.0, 0.3)), st.booleans()),
    min_size=1,
    max_size=6,
)


def _plant_levels(starts, seed, count: int):
    """The levels ``(h1, h2)`` of the rows of :data:`plant_starts` and
    ``count`` held inputs per row, uniform up to each row's pump limit."""
    h1 = np.array([row[0] for row in starts])
    h2 = h1 + np.array([row[1] for row in starts])
    top = np.where([row[2] for row in starts], 1e-5, twotank.BenchmarkConfig.u_hi)
    return h1, h2, np.random.default_rng(seed).uniform(0.0, 1.0, (count, len(starts))) * top


@given(starts=plant_starts, seed=seeds, directions=st.integers(0, 3))
@example(starts=[(0.0, 1e-6, True), (0.026965351190828213, 0.00045027987377157, True), (0.2, 0.1, False)], seed=0, directions=2)
def test_dual_total_step_keeps_the_plain_values(starts, seed, directions):
    """With tangents on a trailing axis, the total step that the plant
    view's sweep takes gives the bits of the plain total step as its
    values, signs of zero included, also on the rows from nearly equal
    levels whose single Runge-Kutta step fails and substeps recover, and
    raises no floating-point warning; where the plain step raises, the
    dual step raises too."""
    h1, h2, (u,) = _plant_levels(starts, seed, 1)
    rng = np.random.default_rng(seed + 1)
    duals = [np.column_stack([v, rng.standard_normal((v.size, directions))]) for v in (h1, h2, u)]
    dt = twotank.BenchmarkConfig().dt
    try:
        plain = np.stack(twotank._total_step(h1, h2, u, dt), axis=-1)
    except twotank.DomainError:
        with pytest.raises(twotank.DomainError):
            twotank._total_step(*duals, dt, dual=True)
        return
    got = np.stack([part[:, 0] for part in twotank._total_step(*duals, dt, dual=True)], axis=-1)
    assert_array_equal(got, plain)
    assert_array_equal(np.signbit(got), np.signbit(plain))


@given(starts=plant_starts, steps=st.integers(1, 12), seed=seeds)
@example(starts=[(0.026965351190828213, 0.00045027987377157, True)], steps=3, seed=0)
def test_plant_steps_are_rows_of_one_batched_total_step(starts, steps, seed):
    """Closed-loop plants driven by random held inputs give, bit for bit,
    the rows of one batched ``_total_step`` per step from the same levels
    (signs of zero included), also where the single Runge-Kutta step
    fails and substeps recover it.  When the batch raises, a plant raises
    at that step too."""
    cfg = twotank.BenchmarkConfig()
    h1, h2, inputs = _plant_levels(starts, seed, steps)
    plants = [twotank.TwoTankPlant(cfg, a, b) for a, b in zip(h1, h2)]
    for u in inputs:
        try:
            h1, h2 = twotank._total_step(h1, np.maximum(h2, h1), u, cfg.dt)
        except twotank.DomainError:
            with pytest.raises(twotank.DomainError):
                for plant, held in zip(plants, u):
                    plant.step(held)
            return
        for plant, held in zip(plants, u):
            plant.step(held)
        levels = np.array([[plant.h1, plant.h2] for plant in plants])
        assert_array_equal(levels, np.column_stack([h1, h2]))
        assert_array_equal(np.signbit(levels), np.signbit(np.column_stack([h1, h2])))


def _laid_out(rng, rows: int, cols: int, layout: str, special: bool) -> np.ndarray:
    """A (rows, cols) array with entries of magnitude 1e-150 to 1e150, a
    tenth of its rows holding NaN or inf when ``special``, laid out
    C-ordered, as a column slice of a wider array, or as every other row
    and column of a Fortran-ordered one."""
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(rows, cols))
    if special:
        hit = np.flatnonzero(rng.random(rows) < 0.1)
        values[hit, rng.integers(cols, size=hit.size)] = rng.choice([np.nan, np.inf, -np.inf], size=hit.size)
    if layout == "sliced":
        wide = np.zeros((rows, cols + 3))
        wide[:, 1 : cols + 1] = values
        return wide[:, 1 : cols + 1]
    if layout == "strided":
        big = np.zeros((2 * rows, 2 * cols), order="F")
        big[::2, ::2] = values
        return big[::2, ::2]
    return values


@given(
    seed=seeds,
    a_rows=st.integers(1, 130),
    b_rows=st.integers(1, 300),
    cols=st.integers(1, 5),
    layouts=st.tuples(*[st.sampled_from(["C", "sliced", "strided"])] * 2),
    special=st.booleans(),
)
@example(seed=0, a_rows=130, b_rows=300, cols=5, layouts=("strided", "sliced"), special=True)
@example(seed=1, a_rows=65, b_rows=1, cols=1, layouts=("C", "strided"), special=False)
def test_the_direct_distance_kernel_gives_the_bits_of_cdist(seed, a_rows, b_rows, cols, layouts, special):
    """``kernels`` calls scipy's compiled Euclidean kernel without the
    public wrapper, and it gives the bits of ``cdist(A, B)`` on inputs of
    any layout, of any scale and with rows that hold NaN or inf, also
    written into an ``out`` array.  A tripwire for a scipy release in which
    ``cdist`` stops calling that kernel or changes what it computes."""
    rng = np.random.default_rng(seed)
    A = _laid_out(rng, a_rows, cols, layouts[0], special)
    B = _laid_out(rng, b_rows, cols, layouts[1], special)
    expected = cdist(A, B).tobytes()
    assert _euclidean(A, B).tobytes() == expected
    out = np.empty((a_rows, b_rows))
    assert _euclidean(A, B, out=out) is out and out.tobytes() == expected
    # By position, as the value pass passes it: (A, B, w, out).
    out = np.empty((a_rows, b_rows))
    assert _euclidean(A, B, None, out) is out and out.tobytes() == expected


@given(
    seed=seeds,
    rows=st.integers(1, 1500),
    probes=st.integers(1, 1500),
    dim=st.integers(1, 5),
    ties=st.booleans(),
)
@example(seed=0, rows=65, probes=1500, dim=4, ties=False)
@example(seed=1, rows=1500, probes=64, dim=1, ties=False)
@example(seed=2, rows=2, probes=1, dim=3, ties=False)
@example(seed=3, rows=65, probes=65, dim=2, ties=True)
@example(seed=4, rows=200, probes=2, dim=1, ties=True)
def test_nearest_site_distances_match_brute_force(seed, rows, probes, dim, ties):
    """The closest-pair check, which takes each block of rows only against
    the rows up to its end, gives the minimum over i < j of one full
    distance matrix, bit for bit, and the chunked fill distance gives its
    max of row minima: on both sides of the chunk boundary, at two sites,
    and with tied distances (sites on a coarse grid, repeated sites too)."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 1.0, size=(rows, dim))
    if ties:
        sites = np.round(4.0 * sites) / 4.0
    points = rng.uniform(-0.2, 1.2, size=(probes, dim))
    upper = cdist(sites, sites)[np.triu_indices(rows, 1)]
    expected = upper.min() if rows > 1 else np.inf
    assert np.float64(min_pairwise_distance(sites)).tobytes() == np.float64(expected).tobytes()
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


def _dense_fit(spec, sites, targets):
    """The fit with a separate factor array, the reference that the fit on
    one D x D array must reproduce."""
    gram = kernel_matrix(spec, sites)
    cho = cho_factor(gram, lower=True)
    return gram, cho, cho_solve(cho, targets)


def _dense_power_function(spec, sites, gram, cho, Xi):
    """The power function from the dense reference fit, with the scale
    ``phi(0) + 2 |k|.|c| + |c|^T |K| |c|`` of the terms that form P^2."""
    Kx = kernel_matrix(spec, sites, Xi)
    C = cho_solve(cho, Kx)
    p2 = spec.diag_value - 2.0 * np.einsum("ij,ij->j", Kx, C) + np.einsum("ij,ij->j", C, gram @ C)
    scale = (
        spec.diag_value
        + 2.0 * np.einsum("ij,ij->j", np.abs(Kx), np.abs(C))
        + np.einsum("ij,ij->j", np.abs(C), np.abs(gram) @ np.abs(C))
    )
    return np.sqrt(np.where(p2 > 0.0, p2, 0.0)), scale


def _random_fit(seed, size, dim, lengthscale, p):
    """A fit on random sites next to its dense reference; None where the
    reference factor fails, after checking that the fit fails too."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec(input_dim=dim, lengthscale=lengthscale)
    sites = rng.uniform(0.0, 1.0, size=(size, dim))
    targets = rng.standard_normal((size, p))
    data = SimpleNamespace(sites=sites, targets=targets, size=size)
    try:
        reference = _dense_fit(spec, sites, targets)
    except LinAlgError:
        with pytest.raises(KernelFitError):
            fit_interpolant(spec, data)
        return None
    return rng, fit_interpolant(spec, data), reference


sizes = st.integers(1, 300)
lengthscales = st.floats(0.05, 3.0)


@given(seed=seeds, size=sizes, dim=st.integers(1, 5), lengthscale=lengthscales)
@example(seed=0, size=1, dim=2, lengthscale=0.5)
@example(seed=1, size=64, dim=4, lengthscale=0.3)
@example(seed=2, size=65, dim=2, lengthscale=1.0)
@example(seed=3, size=129, dim=4, lengthscale=2.0)
@example(seed=4, size=130, dim=5, lengthscale=0.5)
@example(seed=5, size=300, dim=4, lengthscale=0.2)
def test_fit_on_one_array_equals_the_dense_fit(seed, size, dim, lengthscale):
    """One target column: the factor, the Gram entries kept beside it and
    the coefficients equal the dense reference bit for bit."""
    fitted = _random_fit(seed, size, dim, lengthscale, p=1)
    if fitted is None:
        return
    _, model, (gram, cho, coefficients) = fitted
    store = model._store
    assert store.shape == gram.shape
    assert np.triu(store).tobytes() == np.tril(cho[0]).T.tobytes()
    assert np.tril(store, -1).tobytes() == np.tril(gram, -1).tobytes()
    assert model.coefficients.tobytes() == coefficients.tobytes()


@given(
    seed=seeds,
    size=sizes,
    dim=st.integers(2, 5),
    lengthscale=lengthscales,
    columns=st.integers(1, 9),
)
@example(seed=0, size=65, dim=4, lengthscale=2.0, columns=2)
@example(seed=1, size=300, dim=4, lengthscale=0.2, columns=7)
@example(seed=2, size=129, dim=3, lengthscale=1.0, columns=1)
def test_several_column_products_agree_with_the_dense_fit(seed, size, dim, lengthscale, columns):
    """The Gram product (BLAS symm on the stored lower triangle), the site
    residual and the power function sum in another order than the dense
    reference; they agree within bounds fixed from float64 rounding."""
    fitted = _random_fit(seed, size, dim, lengthscale, p=2)
    if fitted is None:
        return
    rng, model, (gram, cho, _) = fitted
    eps = np.finfo(float).eps

    def product_bound(X):
        # Each entry is a sum of size + 1 rounded products (the diagonal is
        # corrected after the sum); |G_ii| <= 1 and the factor's |L_ii| <= 1.
        return 2.0 * (size + 2) * eps * (np.abs(gram) @ np.abs(X) + np.abs(X))

    X = rng.standard_normal((size, columns))
    assert np.all(np.abs(_gram_product(model._store, model.spec.diag_value, X) - gram @ X) <= product_bound(X))
    # The residual's subtraction rounds once more, by at most eps of its size.
    targets, coefficients = model.data.targets, model.coefficients
    dense_residual = float(np.max(np.abs(targets - gram @ coefficients)))
    slack = np.max(product_bound(coefficients)) + eps * (model.site_residual + dense_residual)
    assert abs(model.site_residual - dense_residual) <= slack
    Xi = rng.uniform(-0.2, 1.2, size=(columns, dim))
    power = model.power_function(Xi)
    reference, scale = _dense_power_function(model.spec, model.data.sites, gram, cho, Xi)
    # P^2 is stationary in the solve, so what moves it is the rounding of
    # its terms, whose size grows with the conditioning of the Gram matrix.
    assert np.all(np.abs(power**2 - reference**2) <= 2.0 * (size + 2) * eps * scale)


def _dataset_rule(cfg, points):
    """The rows of a dataset of ``cfg.d`` sites by its rule, from the
    (count, 4) scrambled Halton ``points`` in one array: the equilibrium
    row, then the first ``d - 1`` points whose upper level is at least
    the lower one, whose sampling step lands finite in the level range
    and whose target step is finite, as ``[site | target]`` rows in
    normalized coordinates.  Also returns how many points precede and
    include the last row taken (0 for ``d = 1``)."""
    norm, dims, dt = cfg.normalization(), cfg.dims, cfg.dt
    h1, h2 = (cfg.y_lo + (cfg.y_hi - cfg.y_lo) * points[:, c] for c in (0, 1))
    u_prev, u_now = (cfg.u_lo + (cfg.u_hi - cfg.u_lo) * points[:, c] for c in (2, 3))
    y_cur, h2_cur = two_tank_step(h1, h2, u_prev, dt)
    y_next, _ = two_tank_step(y_cur, np.maximum(h2_cur, y_cur), u_now, dt)
    taken = (h2 >= h1) & np.isfinite(y_cur) & (y_cur >= cfg.y_lo) & (y_cur <= cfg.y_hi) & np.isfinite(y_next)
    index = np.flatnonzero(taken)[: cfg.d - 1]
    assert len(index) == cfg.d - 1, "draw more Halton points"
    origin = np.concatenate([cfg.equilibrium_regressor(), norm.normalize_input(np.array([cfg.u_eq])), [0.0]])
    rows = np.hstack(
        [
            norm.normalize_state(np.stack([y_cur, h1, u_prev], axis=1)[index], dims),
            norm.normalize_input(u_now[index, None]),
            norm.normalize_output(y_next[index, None]),
        ]
    )
    return np.vstack([origin, rows]), int(index[-1]) + 1 if len(index) else 0


@given(seed=seeds, d=st.integers(1, 40), block=st.integers(1, 300))
@example(seed=18, d=5, block=2048)
@example(seed=0, d=1, block=2048)
def test_a_dataset_is_the_origin_and_the_first_finite_reachable_rows(seed, d, block):
    """``generate_dataset`` takes the equilibrium site, then the first
    ``d - 1`` reachable Halton rows whose target step is finite, bit for
    bit, wherever the blocks of its draws end, and records the points of
    the blocks it drew.  At seed 18 the first drawn site lies 0.087 from
    the equilibrium site."""
    cfg = twotank.BenchmarkConfig(d=d, seed=seed)
    with patch.object(twotank, "_HALTON_BLOCK", block):
        data, provenance = twotank.generate_dataset(cfg)
    with np.errstate(invalid="ignore"):
        rows, used = _dataset_rule(cfg, twotank.ScrambledHalton(4, seed).random(4096))
    width = cfg.dims.n + cfg.dims.m
    assert data.sites.tobytes() == rows[:, :width].tobytes()
    assert data.targets.tobytes() == rows[:, width:].tobytes()
    assert provenance["halton_points"] == -(-used // block) * block


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
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    rows=st.integers(1, 5),
    horizon=st.integers(1, 24),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e160]),
)
# A (1, 2) stack that an einsum over "...i,ij,...j" sums in another order
# than its single pairs.
@example(seed=0, p=1, m=2, rows=2, horizon=2, scale=1e-3)
@example(seed=1, p=3, m=3, rows=5, horizon=24, scale=1e160)
def test_stage_cost_rows_equal_their_batches_of_one(seed, p, m, rows, horizon, scale):
    """Every entry of a stacked (B, N) stage-cost call equals the call on
    its row alone and on its single ``(y, u)`` pair, bit for bit, under
    full weight matrices of any size; at ``1e160`` the costs overflow to
    inf without a warning."""
    rng = np.random.default_rng(seed)

    def weight(k):
        a = rng.standard_normal((k, k))
        w = a @ a.T
        return 0.5 * (w + w.T) + 0.1 * np.eye(k)

    weights = StageCostWeights(Q=weight(p), R=weight(m))
    Y = scale * rng.standard_normal((rows, horizon, p))
    U = rng.standard_normal((rows, horizon, m))
    costs = stage_cost(Y, U, weights)
    assert costs.shape == (rows, horizon)
    for b in range(rows):
        assert stage_cost(Y[b : b + 1], U[b : b + 1], weights).tobytes() == costs[b : b + 1].tobytes()
        for k in range(horizon):
            assert np.float64(stage_cost(Y[b, k], U[b, k], weights)).tobytes() == costs[b, k].tobytes()


def _random_secants(rng, rows: int, k: int) -> np.ndarray:
    """Warm secant parts (rows, k, k), each row one of four kinds: zero, a
    small symmetric matrix, a negative definite one (``-1e3 I``, which
    makes the first free step of most rows an ascent and so resets that
    row) and a huge symmetric one (``1e300`` scale).  The huge model is
    indefinite: its first free step is either an ascent, or so short that
    it would stop the row at its start by the noise-floor test; either
    way the row resets."""
    kinds = rng.integers(4, size=rows)
    noise = rng.standard_normal((rows, k, k))
    symmetric = noise + noise.transpose(0, 2, 1)
    return np.select(
        [kinds[:, None, None] == kind for kind in range(3)],
        [np.zeros((rows, k, k)), 0.1 * symmetric, np.broadcast_to(-1e3 * np.eye(k), (rows, k, k))],
        1e300 * symmetric,
    )


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 6),
    warm_rows=st.sampled_from(["none", "some", "all"]),
    secant_rows=st.sampled_from(["none", "some", "all"]),
    poisoned=st.booleans(),
)
# Row 1's Hessian model, restricted to its free coordinates, is not
# positive definite in round 3 (its step has slope -0.71), so it resets its
# secant part while rows 0 and 2 keep theirs.
@example(
    seed=15, kind="tanh", p=2, m=2, nu=3, horizon=4, rows=3, warm_rows="all", secant_rows="none",
    poisoned=False,
)
# Every row stays live from its start, and the batch takes rounds with
# every coordinate free (no restriction of the model) and rounds with
# active ones.
@example(
    seed=2, kind="tanh", p=1, m=1, nu=2, horizon=3, rows=3, warm_rows="all", secant_rows="some",
    poisoned=False,
)
# The same, with one row failing at its start beside two live rows.
@example(
    seed=2, kind="tanh", p=1, m=1, nu=2, horizon=3, rows=3, warm_rows="all", secant_rows="some",
    poisoned=True,
)
# The widest problems drawn, beside a row that fails at its start.
@example(
    seed=4, kind="tanh", p=3, m=3, nu=3, horizon=24, rows=6, warm_rows="some", secant_rows="some",
    poisoned=True,
)
def test_solve_ocp_batch_rows_equal_solo_solves(
    seed, kind, p, m, nu, horizon, rows, warm_rows, secant_rows, poisoned
):
    """Every row of a lockstep solve is its batch of one, bit for bit,
    from any warm sequence and any warm secant part (:func:`_random_secants`);
    a row whose start cost is not finite fails alone."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    if poisoned:
        X0[rng.integers(rows), 0] = 100.0
    warm = secant = None
    if warm_rows != "none":
        warm = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
        if warm_rows == "some":
            warm[rng.random(rows) < 0.5] = 0.0
    if secant_rows != "none":
        secant = _random_secants(rng, rows, horizon * m)
        if secant_rows == "some":
            secant[rng.random(rows) < 0.5] = 0.0
    results = solve_ocp_batch(f, X0, cfg, warm, secant)
    assert len(results) == rows
    for i, got in enumerate(results):
        try:
            solo = solve_ocp(
                f, X0[i], cfg, None if warm is None else warm[i], None if secant is None else secant[i]
            )
        except SolverError as exc:
            assert isinstance(got, SolverError) and str(got) == str(exc)
            assert X0[i, 0] == 100.0
            continue
        assert not isinstance(got, SolverError)
        assert_array_equal(got.u_star, solo.u_star)
        assert got.secant.tobytes() == solo.secant.tobytes()
        assert (got.value, got.iterations, got.backtracks, got.grad_norm, got.converged) == (
            solo.value, solo.iterations, solo.backtracks, solo.grad_norm, solo.converged
        )


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 5),
    case=st.sampled_from(["live", "reset", "failed"]),
)
def test_a_solve_leaves_its_arguments_alone(seed, kind, p, m, nu, horizon, rows, case):
    """``solve_ocp_batch`` writes into none of its arguments and hands out
    none of their memory: the caller's ``X0``, ``warm`` and ``secant``
    keep their bits, and no solution's ``u_star``, ``outputs`` or
    ``secant`` shares memory with them.  This holds when every row stays
    live from a small secant start, when rows reset their secant parts
    (a ``-1e3 I`` start, whose first step is an ascent, or an untested
    ``1e300``-scale one) and when a row fails at its start beside live
    rows."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    warm = rng.uniform(-1.5, 1.5, size=(rows, horizon, m))
    k = horizon * m
    noise = rng.standard_normal((rows, k, k))
    if case == "live":
        secant = 0.1 * (noise + noise.transpose(0, 2, 1))
    elif case == "reset":
        huge = 1e300 * (noise + noise.transpose(0, 2, 1))
        secant = np.where((np.arange(rows) % 2 == 0)[:, None, None], -1e3 * np.eye(k), huge)
    else:
        secant = _random_secants(rng, rows, k)
        X0[rng.integers(rows), 0] = 100.0
    arguments = (X0, warm, secant)
    before = [arg.copy() for arg in arguments]
    results = solve_ocp_batch(f, X0, cfg, warm, secant)
    for arg, copy in zip(arguments, before):
        assert arg.tobytes() == copy.tobytes()
    assert sum(isinstance(sol, SolverError) for sol in results) == (case == "failed")
    for sol in results:
        if not isinstance(sol, SolverError):
            for part in (sol.u_star, sol.outputs, sol.secant):
                assert not any(np.shares_memory(part, arg) for arg in arguments)


class PoisonedJacobians(NarxDynamics):
    """``base`` with the Jacobians of one row replaced by ``value``: those
    of every step after the first, or the input Jacobians of a one-step
    sweep, in the rows whose first regressor entry is ``mark``.  Outputs
    stay those of ``base``, so every cost is finite."""

    mark = 0.75

    def __init__(self, base, value):
        self.base, self.value, self.dims = base, value, base.dims

    def output_batch(self, X, U):
        return self.base.output_batch(X, U)

    def sweep(self, X0, U):
        sweep = self.base.sweep(X0, U)
        rows = np.asarray(X0)[:, 0] == self.mark
        if U.shape[1] > 1:
            sweep.jac[rows, 1:, :, : self.dims.n] = self.value
        else:
            sweep.jac[rows, ..., self.dims.n :] = self.value
        return sweep


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(2, 6),
    value=st.sampled_from([np.inf, -np.inf, np.nan, 1e200]),
)
def test_a_row_with_non_finite_jacobians_fails_alone(seed, kind, p, m, nu, horizon, rows, value):
    """A row whose Jacobians are not finite, or so large (``1e200``, at
    three steps or more) that its output sensitivities overflow, ends in
    its own :class:`SolverError` at its first round; no other exception
    escapes, and every other row equals its solo solve bit for bit."""
    if np.isfinite(value):
        horizon = max(horizon, 3)
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = PoisonedJacobians(_random_dynamics(rng, cfg.dims, kind == "linear"), value)
    X0 = rng.uniform(-0.5, 0.5, size=(rows, cfg.dims.n))
    bad = int(rng.integers(rows))
    X0[bad, 0] = PoisonedJacobians.mark
    results = solve_ocp_batch(f, X0, cfg)
    for i, got in enumerate(results):
        try:
            solo = solve_ocp(f, X0[i], cfg)
        except SolverError as exc:
            assert isinstance(got, SolverError) and str(got) == str(exc)
            continue
        assert not isinstance(got, SolverError)
        assert got.u_star.tobytes() == solo.u_star.tobytes()
        assert (got.value, got.iterations, got.backtracks, got.grad_norm, got.converged) == (
            solo.value, solo.iterations, solo.backtracks, solo.grad_norm, solo.converged
        )
    assert str(results[bad]) == "gradient or Gauss-Newton Hessian is not finite at the current iterate"


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(2, 24),
    rows=st.integers(2, 6),
)
@example(seed=0, p=1, m=1, nu=1, horizon=2, rows=3)
def test_a_row_whose_curvature_overflows_fails_alone(seed, p, m, nu, horizon, rows):
    """Jacobians of ``1e200`` in one row overflow its Gauss-Newton Hessian.
    Its outputs are all zero, so its gradient stays finite while its
    output sensitivities do; from three steps on they overflow too, and
    their products with the zero outputs make the gradient NaN.  Either
    way that row ends in its own :class:`SolverError` at its first round,
    rather than in a step of an overflowed model, and every other row
    equals its solo solve bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    dims = cfg.dims
    A, B = rng.standard_normal((p, dims.n)), rng.standard_normal((p, m))
    base = FunctionDynamics(dims, lambda x, u: np.zeros(p), jacobian_fn=lambda x, u: (A, B))
    f = PoisonedJacobians(base, 1e200)
    X0 = rng.uniform(-0.5, 0.5, size=(rows, dims.n))
    bad = int(rng.integers(rows))
    X0[bad, 0] = PoisonedJacobians.mark
    warm = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
    results = solve_ocp_batch(f, X0, cfg, warm)
    for i, got in enumerate(results):
        if i == bad:
            continue
        solo = solve_ocp(f, X0[i], cfg, warm[i])
        assert got.u_star.tobytes() == solo.u_star.tobytes()
        assert (got.value, got.iterations, got.backtracks, got.grad_norm, got.converged) == (
            solo.value, solo.iterations, solo.backtracks, solo.grad_norm, solo.converged
        )
    assert isinstance(results[bad], SolverError)
    assert str(results[bad]) == "gradient or Gauss-Newton Hessian is not finite at the current iterate"


def test_a_secant_pair_that_overflows_restarts_its_row():
    """A pair whose ``y y^T`` overflows (both curvatures positive) makes
    that row's secant part restart from zero, and the other row takes the
    update of its batch of one."""
    k = 3
    rng = np.random.default_rng(0)
    gn = np.tile(2.0 * np.eye(k), (2, 1, 1))
    step = np.array([[1e-150, 0.0, 0.0], [0.1, -0.2, 0.3]])
    y = np.array([[1e160, 0.0, 0.0], [0.5, -0.1, 0.4]])
    rows = SimpleNamespace(step=step, secant=rng.standard_normal((2, k, k)) * 1e-3)
    solo = SimpleNamespace(step=step[1:].copy(), secant=rows.secant[1:].copy())
    with np.errstate(invalid="ignore", over="ignore"):
        mpc._secant_update(rows, gn, y)
    mpc._secant_update(solo, gn[1:], y[1:])
    assert np.all(rows.secant[0] == 0.0)
    assert rows.secant[1].tobytes() == solo.secant[0].tobytes()


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
def test_kernel_jacobians_are_within_the_dot_product_error_bound(seed, rows, dims, lengthscale):
    """The Jacobians of the one-step sweep, formed as ``A - b xi^T`` from
    the coefficient-weighted sites, agree with the longdouble
    difference-form reference within the dot-product forward-error bound
    of :func:`~oracles.kernel_jacobian_reference`: at rows on a site,
    where the difference form has an exact zero term, at rows inside
    some site's support, and at rows outside every support, where the
    bound is zero and the Jacobians are exact zeros; at the unit
    lengthscale too, whose radii skip the division."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 80))
    model = _interpolant(rng, dims, size, lengthscale)
    Xi = rng.uniform(-0.2, 1.2, size=(rows, dims.n + dims.m))
    Xi[1::3] = model.data.sites[rng.integers(size, size=len(Xi[1::3]))]
    # Every coordinate at least 0.8 + sigma past the unit cube of the sites.
    Xi[2::3] += 1.0 + lengthscale
    jac = one_step_sweep(model, Xi)[1]
    reference, bound = kernel_jacobian_reference(model, Xi)
    assert np.all(np.abs(jac - reference) <= bound)
    assert np.all(jac[2::3] == 0.0) and np.all(bound[2::3] == 0.0)


@given(
    seed=seeds,
    rows=st.sampled_from([1, 2, 5, 7, 64, 70]),
    dims=site_dims,
    lengthscale=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
)
def test_kernel_values_are_within_the_dot_product_error_bound(seed, rows, dims, lengthscale):
    """``output_batch`` and the one-step sweep, which weight
    ``(1 - r)^5 (r + 1/5)`` by ``c / 6``, agree with the longdouble sum
    over the exact profile within the forward-error bound of
    :func:`~oracles.kernel_value_reference`: at rows inside some site's
    support, at rows on a site, and at rows outside every support, where
    the values are exact zeros; at the unit lengthscale too, whose radii
    skip the division."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 80))
    model = _interpolant(rng, dims, size, lengthscale)
    Xi = model.data.sites[rng.integers(size, size=rows)].copy()
    # Rows 0, 3, ... lie a random distance below sigma / 2 from a site.
    offsets = rng.standard_normal(Xi[0::3].shape)
    offsets *= rng.uniform(0.0, 0.5 * lengthscale, size=(len(offsets), 1)) / np.linalg.norm(offsets, axis=1, keepdims=True)
    Xi[0::3] += offsets
    # Every coordinate of rows 2, 5, ... at least sigma past the unit cube of the sites.
    Xi[2::3] = rng.uniform(1.0, 1.2, size=Xi[2::3].shape) + lengthscale
    reference, bound = kernel_value_reference(model, Xi)
    assert np.all(bound[0::3] > 0.0) and np.all(bound[2::3] == 0.0)
    for values in (_split(model, Xi), one_step_sweep(model, Xi)[0]):
        assert np.all(np.abs(values - reference) <= bound)
        assert np.all(values[2::3] == 0.0)


@given(seed=seeds, rows=st.sampled_from([1, 2, 7, 50, 65, 129]), dims=site_dims)
def test_batched_kernel_rows_equal_single_rows(seed, rows, dims):
    """``output_batch`` and the one-step sweep give each row the bits of
    its own call, values and Jacobians alike, also for batches longer
    than one block of kernel rows."""
    rng = np.random.default_rng(seed)
    model = _interpolant(rng, dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
    input_dim, p = dims.n + dims.m, dims.p
    Xi = rng.uniform(-0.2, 1.2, size=(rows, input_dim))
    values = _split(model, Xi)
    sweep_values, jacobians = one_step_sweep(model, Xi)
    assert sweep_values.shape == (rows, p) and jacobians.shape == (rows, p, input_dim)
    assert_array_equal(sweep_values, values)
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
    rows=st.integers(1, 140),
    horizon=st.integers(1, 25),
)
@example(seed=0, p=1, m=1, nu=3, rows=70, horizon=25)
@example(seed=3, p=2, m=2, nu=2, rows=129, horizon=3)
@example(seed=1, p=2, m=1, nu=2, rows=3, horizon=25)
@example(seed=2, p=1, m=2, nu=1, rows=64, horizon=2)
def test_kernel_sweep_and_rollout_equal_the_generic_per_step_paths(seed, p, m, nu, rows, horizon):
    """The kernel's two-pass sweep (a value pass per step, a Jacobian pass
    per 64 rows or more) gives the arrays of the per-step sweep, one
    one-step sweep per step, bit for bit, and its outputs are those of
    the per-step rollout, one ``output_batch`` per step; each row equals
    its batch of one.  The drawn batches cross the 64-row blocks of the
    value and Jacobian passes and the horizons the Jacobian pass's step
    chunks."""
    rng = np.random.default_rng(seed)
    dims = NarxDims(p=p, m=m, nu=nu)
    f = _interpolant(rng, dims, int(rng.integers(2, 80)), rng.uniform(0.2, 3.0))
    X = rng.uniform(-0.2, 1.2, size=(rows, dims.n))
    U = rng.uniform(-0.2, 1.2, size=(rows, horizon, m))
    sweep, generic = f.sweep(X, U), stepwise_sweep(f, X, U)
    outputs = stepwise_rollout(f, X, U)
    for name in ("outputs", "jac"):
        assert_array_equal(getattr(sweep, name), getattr(generic, name))
    assert_array_equal(sweep.outputs, outputs)
    for i in range(rows):
        single = f.sweep(X[i : i + 1], U[i : i + 1])
        for name in ("outputs", "jac"):
            assert_array_equal(getattr(single, name)[0], getattr(sweep, name)[i])
        assert_array_equal(stepwise_rollout(f, X[i], U[i]), outputs[i])


def _random_sweep(rng, dims: NarxDims, rows: int, horizon: int) -> Sweep:
    """A sweep of random entries whose magnitudes span six decades, with
    some exact zeros among the outputs."""
    outputs, jac_x, jac_u = (
        rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
        for shape in ((rows, horizon, dims.p), (rows, horizon, dims.p, dims.n), (rows, horizon, dims.p, dims.m))
    )
    outputs[rng.random(outputs.shape) < 0.2] = 0.0
    return Sweep(outputs, np.concatenate([jac_x, jac_u], axis=-1))


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 8),
)
def test_gradient_is_within_its_forward_error_bound(seed, p, m, nu, horizon, rows):
    """The gradients of :func:`~narxmpc.mpc._derivatives` are within
    ``gamma_{2w} g_abs`` of the long-double per-step adjoint recursion,
    where ``g_abs`` is that recursion on absolute values, ``gamma_k = k u
    / (1 - k u)`` and ``w = (K + 1) N + p + max(m, p) + nu + 1`` with ``K =
    (nu + 1) p - 1`` subdiagonals of ``L = I - S``.  LAPACK ``tbtrs``
    takes each column of ``G = L^-1 M`` by one forward substitution, whose
    result solves, row by row, a system within ``gamma_{K+1}`` of the
    triangular one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 8); ``S`` couples distinct steps only, so
    every entry of ``G`` is a sum of paths through at most N such rows,
    within ``gamma_{(K+1) N}`` of ``(I - |S|)^-1 |M|``.  ``Qb G`` adds
    ``p`` roundings, the ``N p``-term dot products with ``y`` another
    ``N p``, and ``Rb u`` and the final sum at most ``max(m, p) + 1``;
    ``g_abs`` is ``2 (|M|^T (I - |S|)^-T |Qb| |y| + |Rb| |u|)``.  The
    count ``(K + 1) N + N p + p + max(m, p) + 1`` is below ``2 w``
    because ``p <= K``, and the rest of ``2 w`` covers the reference's
    own long-double rounding."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    dims = cfg.dims
    sweep = _random_sweep(rng, dims, rows, horizon)
    U = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
    exact, magnitude = backward_sweep_reference(dims, sweep, U, cfg.weights)
    width = (nu + 1) * p - 1
    w = 2 * ((width + 1) * horizon + p + max(m, p) + nu + 1)
    unit = np.finfo(float).eps / 2
    grad = mpc._derivatives(mpc._layout(dims, horizon), sweep, U.reshape(rows, -1), *_block_weights(cfg))[0]
    error = np.abs(grad.reshape(U.shape) - exact)
    assert np.all(error <= w * unit / (1 - w * unit) * magnitude)


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 8),
    poison=st.sampled_from([None, np.inf, -np.inf, np.nan, 1e200]),
)
@example(seed=5, p=3, m=3, nu=3, horizon=24, rows=8, poison=None)
@example(seed=6, p=3, m=3, nu=3, horizon=24, rows=8, poison=np.nan)
def test_derivative_rows_equal_their_batches_of_one(seed, p, m, nu, horizon, rows, poison):
    """Every finite row of the gradients and of the Gauss-Newton Hessians
    is its batch of one, bit for bit, also beside a row whose Jacobians
    are not finite or whose output sensitivities overflow (``1e200`` in
    every entry); that row equals its batch of one up to the sign of NaN,
    and its gradient is not finite whenever one of its read entries is
    not."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    dims = cfg.dims
    sweep = _random_sweep(rng, dims, rows, horizon)
    u = rng.uniform(-1.0, 1.0, size=(rows, horizon * m))
    weights = _block_weights(cfg)
    bad = int(rng.integers(rows))
    if poison is not None:
        sweep.jac[bad, 1:, :, : dims.n] = poison
        if not np.isfinite(poison):
            sweep.jac[bad, -1, :, dims.n :] = poison
    layout = mpc._layout(dims, horizon)
    with np.errstate(invalid="ignore", over="ignore"):
        batch = mpc._derivatives(layout, sweep, u, *weights)
        for i in range(rows):
            for single, whole in zip(mpc._derivatives(layout, sweep[i : i + 1], u[i : i + 1], *weights), batch):
                assert_array_equal(single[0], whole[i])
                assert not np.isfinite(whole[i]).all() or single[0].tobytes() == whole[i].tobytes()
    if poison is not None and not np.isfinite(poison):
        assert not np.isfinite(batch[0][bad]).all()


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
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


def _scalar_derivatives(dims, sweep, u, weights):
    """Gradient ``2 (G^T Qb y + Rb u)`` and Gauss-Newton Hessian ``2 (G^T
    Qb G + Rb)`` of one problem at ``u`` (N m) from its sweep (a batch of
    one).  ``L`` (in BLAS band storage of its transpose) and ``M`` are
    filled entry by entry, both with as many leading zero unknowns as
    ``L`` has subdiagonals, as the solver stacks its systems; ``G`` solves
    ``L G = M`` by LAPACK ``tbtrs``, then 2-D products of a C-ordered ``G``."""
    p, m, nu, nb = dims.p, dims.m, dims.nu, dims.n_outputs_block
    horizon = sweep.outputs.shape[1]
    jac_x, jac_u = sweep.jac[0, ..., : dims.n], sweep.jac[0, ..., dims.n :]
    width = (nu + 1) * p - 1
    band = np.zeros((width + 1, width + horizon * p))
    M = np.zeros((width + horizon * p, horizon * m))
    for k in range(horizon):
        for c in range(p):
            row = width + k * p + c
            for a in range(m):
                M[row, k * m + a] = jac_u[k, c, a]
            for lag in range(1, min(nu, k) + 1):
                for c2 in range(p):
                    # L[row, col] is the entry (col, row) of the band of L^T.
                    col = width + (k - lag) * p + c2
                    band[width + col - row, row] = -jac_x[k, c, (lag - 1) * p + c2]
            for i in range(min(nu - 1, k)):
                for a in range(m):
                    M[row, (k - 1 - i) * m + a] = jac_x[k, c, nb + i * m + a]
    # LAPACK returns G in Fortran order.  OpenBLAS rounds G^T (Qb G) of a
    # Fortran-ordered G differently from that of a C-ordered one at some
    # shapes (p = 3, m = 2, N = 6: the last bit of a Hessian entry), and
    # the solver holds each row's G C-ordered, as 2-D products of one
    # problem would.
    G = np.ascontiguousarray(dtbtrs(band, M, trans="T", diag="U")[0][width:])
    eye = np.eye(horizon)
    QG, Rb = np.kron(eye, weights.Q) @ G, np.kron(eye, weights.R)
    return 2.0 * (QG.T @ sweep.outputs[0].ravel() + Rb @ u), 2.0 * (G.T @ QG + Rb)


def _scalar_descent(f, x0, cfg, start, secant=None):
    """Two-metric projected structured quasi-Newton descent written out
    for one problem, from the secant part ``secant`` or zero: Python
    branches, 2-D products and one line search at a time.  Costs are
    stepwise rollouts; the gradient and the Gauss-Newton Hessian of an
    iterate come from the output sensitivity of one fresh sweep."""
    box, weights, dims = cfg.input_box, cfg.weights, cfg.dims
    shape = start.shape
    lo, hi = np.tile(box.lo, shape[0]), np.tile(box.hi, shape[0])
    X0 = x0[None]

    def cost(u):
        return float(cost_J_batch(f, X0, u.reshape(1, *shape), weights)[0])

    def free_step(B, free, g):
        restricted = np.where(np.outer(free, free), B, np.eye(k))
        try:
            return np.linalg.solve(restricted, np.where(free, g, 0.0)[:, None])[:, 0]
        except np.linalg.LinAlgError:
            return np.full(k, np.nan)

    u = np.clip(start.ravel(), lo, hi)
    value = cost(u)
    k = u.size
    A = np.zeros((k, k)) if secant is None else secant
    grad_norm = decrease = np.inf
    iterations, converged = 0, False
    for it in range(cfg.solver.max_iters):
        sweep = f.sweep(X0, u.reshape(1, *shape))
        g, GN = _scalar_derivatives(dims, sweep, u, weights)
        if it:
            y = g - g_old
            Bs = (GN + A) @ s
            sy, sBs = s @ y, s @ Bs
            if sy > 0 and sBs > 0:
                A = A + np.outer(y, y) / sy - np.outer(Bs, Bs) / sBs
        pg = u - np.clip(u - g, lo, hi)
        grad_norm = float(np.sqrt(pg @ pg))
        if grad_norm <= mpc.GRAD_TOL:
            # The gradient test stops the solve before a step is formed.
            decrease, converged = np.nan, True
            break
        eps = min(grad_norm, ACTIVE_WIDTH)
        active = ((u <= lo + eps) & (g > 0)) | ((u >= hi - eps) & (g < 0))
        free = ~active
        g_active = np.where(active, g, 0.0)

        def two_metric_step(B):
            d = free_step(B, free, g)
            slope = g @ d
            d = np.where(active, g, d)
            return d, slope, float(slope + g_active @ (u - np.clip(u - d, lo, hi)))

        d, slope, decrease = two_metric_step(GN + A)
        ascent = not slope > 0 and np.any(free & (g != 0))
        untested = it == 0 and decrease <= NOISE_FLOOR * abs(value)
        if ascent or (untested and np.any(A != 0)):
            A = np.zeros((k, k))
            d, slope, decrease = two_metric_step(GN)
        if decrease <= NOISE_FLOOR * abs(value):
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
    return u.reshape(shape), A, value, iterations, grad_norm, decrease, converged


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    max_iters=st.integers(1, 40),
    warm_secant=st.booleans(),
)
# Every round has every coordinate free, so the model is solved as it is.
@example(seed=0, kind="tanh", p=1, m=1, nu=2, horizon=3, max_iters=30, warm_secant=False)
# From a secant start, rounds with every coordinate free and rounds with
# active ones.
@example(seed=2, kind="tanh", p=2, m=2, nu=3, horizon=4, max_iters=30, warm_secant=True)
# With the reference's G in Fortran order, its Hessian differed from the
# solver's in a last bit here.
@example(seed=0, kind="linear", p=3, m=2, nu=1, horizon=6, max_iters=1, warm_secant=False)
# The widest problem drawn: 72 inputs.
@example(seed=3, kind="tanh", p=3, m=3, nu=3, horizon=24, max_iters=40, warm_secant=True)
def test_solo_solve_equals_the_scalar_descent(seed, kind, p, m, nu, horizon, max_iters, warm_secant):
    """A batch of one takes the iterates, curvature updates, stopping tests
    and step lengths of the plain scalar descent, bit for bit, from a cold
    start or from a secant part of each kind of :func:`_random_secants`."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    start = rng.uniform(-1.0, 1.0, size=(horizon, m))
    secant = _random_secants(rng, 1, horizon * m)[0] if warm_secant else None
    sol = solve_ocp(f, x0, cfg, warm=start, secant=secant)
    u, A, value, iterations, grad_norm, decrease, converged = _scalar_descent(f, x0, cfg, start, secant)
    assert_array_equal(sol.u_star, u)
    assert sol.secant.tobytes() == A.tobytes()
    assert (sol.value, sol.iterations, sol.grad_norm, sol.converged) == (value, iterations, grad_norm, converged)
    # NaN when the gradient test stopped the solve before its step.
    assert_array_equal(sol.predicted_decrease, decrease)


@given(seed=seeds, k=st.integers(1, 6), rows=st.integers(2, 5))
def test_a_singular_model_gives_its_row_alone_a_nan_step(seed, k, rows):
    """The free step's stacked ``gesv`` solves each row on its own, so one
    singular matrix gives its row alone a NaN step (which resets its model)
    and every other row's step is its batch of one, bit for bit."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((rows, k, k))
    B = root @ root.transpose(0, 2, 1) + k * np.eye(k)
    bad = int(rng.integers(rows))
    B[bad] = 0.0
    free = rng.random((rows, k)) < 0.8
    free[bad] = True
    g = rng.standard_normal((rows, k))
    d = mpc._free_step(B, free, g, np.eye(k))
    assert np.isnan(d[bad]).all()
    for i in range(rows):
        if i != bad:
            assert d[i].tobytes() == mpc._free_step(B[i : i + 1], free[i : i + 1], g[i : i + 1], np.eye(k))[0].tobytes()


@given(
    seed=seeds,
    rows=st.integers(1, 5),
    k=st.integers(1, 24),
    share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    singular=st.booleans(),
)
@example(seed=0, rows=5, k=24, share=1.0, singular=True)
@example(seed=1, rows=5, k=24, share=0.8, singular=True)
@example(seed=2, rows=1, k=1, share=0.0, singular=False)
def test_the_free_step_gives_the_bits_of_numpy_solve(seed, rows, k, share, singular):
    """The free step calls numpy's stacked solve gufunc without
    ``np.linalg.solve``'s wrapper, and row by row it gives the bits of
    ``np.linalg.solve`` on that row's restricted model: on stacks of
    random positive definite models, with free masks of every share (none
    free, some, all) as the solver's active sets make them.  A row made
    exactly singular on its free coordinates gives NaN where the wrapper
    raises, and every other row equals its batch of one.  A tripwire for
    a numpy release in which the wrapper stops calling that gufunc or
    changes what it computes."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((rows, k, k))
    B = root @ root.transpose(0, 2, 1) + rng.uniform(1e-3, k) * np.eye(k)
    free = rng.random((rows, k)) < share
    g = rng.standard_normal((rows, k))
    eye = np.eye(k)
    bad = int(rng.integers(rows)) if singular else -1
    if singular:
        j = int(rng.integers(k))
        free[bad, j] = True
        B[bad, j], B[bad, :, j] = 0.0, 0.0
    d = mpc._free_step(B, free, g, eye)
    for i in range(rows):
        restricted = np.where(free[i, :, None] & free[i, None, :], B[i], eye)
        rhs = np.where(free[i], g[i], 0.0)[:, None]
        if i == bad:
            assert np.isnan(d[i]).all()
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(restricted, rhs)
            continue
        assert d[i].tobytes() == np.linalg.solve(restricted, rhs)[:, 0].tobytes()
        assert d[i].tobytes() == mpc._free_step(B[i : i + 1], free[i : i + 1], g[i : i + 1], eye)[0].tobytes()


def _output_sensitivity(f, x0, u, h=1e-6):
    """Central-difference sensitivity (N p, N m) of the outputs of the
    rollout of ``u`` (N, m) from ``x0`` to the inputs."""
    k = u.size
    steps = h * np.eye(k).reshape(k, *u.shape)
    x0 = np.tile(x0, (k, 1))
    plus, minus = stepwise_rollout(f, x0, u + steps), stepwise_rollout(f, x0, u - steps)
    return ((plus - minus) / (2.0 * h)).reshape(k, -1).T


def _block_weights(cfg):
    eye = np.eye(cfg.horizon)
    return np.kron(eye, cfg.weights.Q), np.kron(eye, cfg.weights.R)


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 3),
)
def test_gauss_newton_is_the_product_of_output_sensitivities(seed, p, m, nu, horizon, rows):
    """On ``tanh`` dynamics the solver's Gauss-Newton Hessian of each row
    is ``2 (J^T Qb J + Rb)``, with ``J`` the central-difference output
    sensitivity of that row's rollout."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, linear=False)
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    U = rng.uniform(-1.0, 1.0, size=(rows, horizon, m))
    q_bar, r_bar = _block_weights(cfg)
    gn = mpc._derivatives(mpc._layout(cfg.dims, horizon), f.sweep(X0, U), U.reshape(rows, -1), q_bar, r_bar)[1]
    for i in range(rows):
        J = _output_sensitivity(f, X0[i], U[i])
        assert_allclose(gn[i], 2.0 * (J.T @ q_bar @ J + r_bar), rtol=1e-6, atol=1e-9)


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
)
def test_a_linear_problem_is_solved_in_one_step(seed, p, m, nu, horizon):
    """On linear dynamics the Gauss-Newton Hessian is the cost's Hessian
    (central differences of adjoint gradients), so a cold solve whose box
    stays inactive takes one accepted step and converges."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, input_box=Box(np.full(m, -1e3), np.full(m, 1e3)))
    f = _random_dynamics(rng, cfg.dims, linear=True)
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    u = rng.uniform(-1.0, 1.0, size=(horizon, m))
    q_bar, r_bar = _block_weights(cfg)
    gn = mpc._derivatives(mpc._layout(cfg.dims, horizon), f.sweep(x0[None], u[None]), u.reshape(1, -1), q_bar, r_bar)[1][0]
    h, k = 1e-3, horizon * m
    steps = h * np.eye(k).reshape(k, horizon, m)
    X0 = np.tile(x0, (k, 1))
    hessian = (cost_gradient(f, X0, u + steps, cfg.weights) - cost_gradient(f, X0, u - steps, cfg.weights)) / (2.0 * h)
    assert_allclose(gn, hessian.reshape(k, k).T, rtol=1e-6, atol=1e-9)
    sol = solve_ocp(f, x0, cfg)
    assert sol.converged and sol.iterations == 1 and sol.backtracks == 0


@given(
    seed=seeds,
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    steps=st.integers(1, 8),
)
def test_a_closed_loop_on_an_affine_model_carries_no_curvature(seed, p, m, nu, horizon, steps):
    """On linear dynamics ``GN`` is the cost's Hessian, so every secant
    pair has ``y = GN s + e`` with ``e`` only the rounding of the gradient
    difference, a few ulps of the gradient's terms.  To first order the
    structured update is then ``(e v^T + v e^T) / s.v - v v^T (s.e) /
    (s.v)^2`` with ``v = GN s``, of size about ``|e| / |s|``: zero in
    exact arithmetic, and in floating point larger the shorter the step.
    Each pair may therefore add ``16 eps max|GN| / max|s|`` to the secant
    part; every secant part that a closed loop carries into its next
    solve stays within the sum over the pairs before it."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    f = _random_dynamics(rng, cfg.dims, linear=True)
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    budget, carried = [0.0], []

    def recorded_solve(*args, warm, secant):
        carried.append((secant, budget[0]))
        return solve(*args, warm=warm, secant=secant)

    def recorded_update(rows, gn, y):
        budget[0] += 16.0 * np.finfo(float).eps * np.abs(gn).max() / np.abs(rows.step).max()
        return update(rows, gn, y)

    solve, update = mpc.solve_ocp, mpc._secant_update
    with patch.object(mpc, "solve_ocp", recorded_solve), patch.object(mpc, "_secant_update", recorded_update):
        trace = mpc.run_closed_loop(
            f, f, cfg, x0, steps,
            storage_matrix=stability.storage_matrix(cfg.dims, cfg.weights).P,
            normalization=identity_normalization(cfg.dims),
        )
    assert trace.failed_step is None and len(carried) == steps + 1
    assert carried[0] == (None, 0.0)
    for secant, bound in carried[1:]:
        assert np.abs(secant).max() <= bound


def _spy(name: str):
    """Count the calls of ``mpc.<name>``, which the solver looks up as a
    module global."""
    return patch.object(mpc, name, wraps=getattr(mpc, name))


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    max_iters=st.integers(1, 40),
    warm_secant=st.booleans(),
)
def test_a_solve_evaluates_each_cost_by_one_sweep(seed, kind, p, m, nu, horizon, max_iters, warm_secant):
    """A solve makes one N-step forward sweep per start and per
    line-search trial, each round's gradient and Gauss-Newton Hessian are
    one :func:`~narxmpc.mpc._derivatives` call on a kept sweep, nothing
    calls ``output_batch``, and ``backtracks`` counts the rejected trials,
    from a cold start or from a secant part of each kind of
    :func:`_random_secants` (whose resets take no extra sweep).  The
    scalar descent makes one stepwise rollout (N ``output_batch`` calls)
    per cost and one fresh N-step sweep per gradient, so its counts give
    the expected ones."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    start = rng.uniform(-1.0, 1.0, size=(horizon, m))
    secant = _random_secants(rng, 1, horizon * m)[0] if warm_secant else None
    with _spy("_derivatives") as derivatives:
        sol = solve_ocp(f, x0, cfg, warm=start, secant=secant)
    solver, f.calls = f.calls, Counter()
    _scalar_descent(f, x0, cfg, start, secant)
    scalar = f.calls
    assert solver["output_batch"] == 0
    assert horizon * solver["sweep"] == scalar["output_batch"]
    assert derivatives.call_count == scalar["sweep"]
    # The start, one accepted trial per iteration and every rejected one,
    # less the accepted trial that a failed line search did not find.
    failed_search = not sol.converged and sol.iterations < max_iters
    assert solver["sweep"] == 1 + sol.iterations + sol.backtracks - failed_search


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
    rows=st.integers(1, 4),
    max_iters=st.integers(1, 60),
    warm_secants=st.booleans(),
)
def test_solves_meet_a_stopping_test_and_never_lose_value(
    seed, kind, p, m, nu, horizon, rows, max_iters, warm_secants
):
    """A converged solve meets the gradient test or the noise-floor test at
    its returned sequence, whose value is at most its start's value, also
    from random warm secant parts, and a secant start ends no solve at
    its start that the cold start would not end there."""
    rng = np.random.default_rng(seed)
    cfg = _random_problem(rng, p, m, nu, horizon)
    cfg = replace(cfg, solver=replace(cfg.solver, max_iters=max_iters))
    f = _random_dynamics(rng, cfg.dims, kind == "linear")
    box = cfg.input_box
    X0 = rng.uniform(-1.0, 1.0, size=(rows, cfg.dims.n))
    warm = rng.uniform(-1.5, 1.5, size=(rows, horizon, m))
    secant = _random_secants(rng, rows, horizon * m) if warm_secants else None
    start_values = cost_J_batch(f, X0, np.clip(warm, box.lo, box.hi), cfg.weights)
    for i, sol in enumerate(solve_ocp_batch(f, X0, cfg, warm, secant)):
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
            if sol.iterations == 0 and secant is not None and secant[i].any():
                # A secant start stops a solve at its start only where
                # the cold start stops too.
                assert solve_ocp(f, X0[i], cfg, warm[i]).iterations == 0


@given(
    seed=seeds,
    kind=st.sampled_from(["linear", "tanh"]),
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    n_max=st.integers(1, 24),
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
    p=st.integers(1, 3),
    m=st.integers(1, 3),
    nu=st.integers(1, 3),
    horizon=st.integers(1, 24),
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
        X = sample_consistent_states(cfg, rows, seed % 2**16, min_norm=1e-3)
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


@given(seed=seeds, reachable=st.booleans())
@example(seed=0, reachable=True)
def test_hidden_level_recovery_is_never_worse_than_bisection(cfg, seed, reachable):
    """The bracketed secant search of the hidden-level recovery against
    54-step bisection, on consistent records (the first block of
    ``_reachable_draws`` of the seed) or on random ones (levels in
    [1e-3, 0.5] m, inputs in the box): the same rows clamp at each
    bracket end, its single-step probe misses ``y_cur`` by at most one
    ulp of ``y_cur`` more than the bisection's, and each row equals its
    batch of one under random splits of the batch.  Rows where the
    bisection raises, because the total step from equal levels stays
    invalid (seed 0 draws one), recover a finite level instead and are
    left out of the comparison.

    The one exception is a false crossing of both: the single step fails
    one double below the search's root, so the root is the edge of a
    band of failed probes rather than a solution, and the bisection's
    root misses by over 1e-12 m as well.  Such roots are edges of
    different bands or different doubles of one edge, and either miss
    can be the larger (3 of 306,981 rows of seeds 0 to 199, by 3 and 12
    ulps and by 1.6 mm)."""
    dt = cfg.dt
    rng = np.random.default_rng(seed)
    if reachable:
        raw, _, _ = next(twotank._reachable_draws(cfg, seed))
        y_cur, y_prev, u_prev = (np.array(column) for column in raw.T)
    else:
        y_prev, y_cur = rng.uniform(1e-3, 0.5, size=(2, 512))
        u_prev = rng.uniform(cfg.u_lo, cfg.u_hi, size=512)
    root = twotank._previous_upper_level(y_prev, y_cur, u_prev, dt)
    cuts = np.sort(rng.choice(np.arange(1, root.size), size=8, replace=False))
    single = rng.integers(root.size)
    cuts = np.unique(np.concatenate([cuts, [single, single + 1]]))
    pieces = [
        twotank._previous_upper_level(y_prev[part], y_cur[part], u_prev[part], dt)
        for part in np.split(np.arange(root.size), cuts)
    ]
    assert_array_equal(np.concatenate(pieces), root)
    raised = twotank._substepped(y_prev, y_prev, u_prev, dt, False)[1]
    assert np.all(np.isfinite(root[raised]))
    y_prev, y_cur, u_prev, root = y_prev[~raised], y_cur[~raised], u_prev[~raised], root[~raised]
    bisected = bisected_upper_level(y_prev, y_cur, u_prev, dt)
    top = twotank.HIDDEN_LEVEL_MAX
    assert_array_equal(root == y_prev, bisected == y_prev)
    assert_array_equal(root == top, bisected == top)
    miss = np.abs(two_tank_step(y_prev, root, u_prev, dt)[0] - y_cur)
    bisected_miss = np.abs(two_tank_step(y_prev, bisected, u_prev, dt)[0] - y_cur)
    # A bisection root whose single step fails misses by any amount.
    limit = np.where(np.isnan(bisected_miss), np.inf, bisected_miss + np.spacing(y_cur))
    worse = ~(miss <= limit) & (root != bisected)
    edge = np.isnan(two_tank_step(y_prev, np.nextafter(root, -np.inf), u_prev, dt)[0])
    worse &= ~(edge & ~(bisected_miss <= 1e-12))
    assert not worse.any(), np.column_stack([y_prev, y_cur, u_prev])[worse]


@given(
    seed=seeds,
    linear=st.booleans(),
    horizon=st.integers(1, 6),
    steps=st.integers(1, 8),
    q=st.floats(0.5, 2.0),
    r=st.floats(0.05, 1.0),
)
def test_a_reloaded_trace_certifies_as_the_trace_in_memory(tmp_path_factory, seed, linear, horizon, steps, q, r):
    """A closed loop of a small random model, written by ``save_trace`` and
    read back by ``load_trace`` under the configuration it ran under, gives
    the report of the trace in memory: ``verify_decrease`` with the
    iteration cap agrees bit for bit in ``errors``, ``decay_r2``,
    ``lyapunov``, ``alpha`` and the capped solves, with the same verdict."""
    cfg = twotank.BenchmarkConfig(horizon=horizon, q_weight=q, r_weight=r)
    mpc_cfg = bench.make_mpc_config(cfg)
    storage = stability.storage_matrix(cfg.dims, mpc_cfg.weights)
    rng = np.random.default_rng(seed)
    f = _random_dynamics(rng, cfg.dims, linear)
    x0 = rng.uniform(-1.0, 1.0, size=cfg.dims.n)
    trace = mpc.run_closed_loop(
        f, f, mpc_cfg, x0, steps, storage_matrix=storage.P, normalization=cfg.normalization()
    )
    path = tmp_path_factory.mktemp("trace") / "trace_norm.csv"
    fileio.save_trace(trace, path, cfg, raw=False)
    back = fileio.load_trace(path, cfg.dims, cfg.horizon, cfg.normalization())
    held, loaded = (stability.verify_decrease(t, storage, max_iters=mpc_cfg.solver.max_iters) for t in (trace, back))
    for name in ("errors", "decay_r2", "lyapunov"):
        assert np.asarray(getattr(loaded, name)).tobytes() == np.asarray(getattr(held, name)).tobytes(), name
    assert (loaded.alpha, loaded.verdict, loaded.capped_solves) == (held.alpha, held.verdict, held.capped_solves)


def _smooth_tank_step(h1, h2, u, dt, margin):
    """Whether every stage point of the Runge-Kutta step from the levels
    ``(h1, h2)`` under ``u`` has both levels and their gap above
    ``margin`` (m), so that no square root there meets its clip at zero."""
    smooth = np.ones(np.shape(h1), dtype=bool)
    d1 = d2 = 0.0
    for frac in (0.0, 0.5, 0.5, 1.0):
        s1, s2 = h1 + frac * dt * d1, h2 + frac * dt * d2
        smooth &= (s1 > margin) & (s2 - s1 > margin)
        d1, d2 = two_tank_rhs(s1, s2, u)
    return smooth


def _regular_plant_rows(cfg, X, U, margin=1e-4):
    """Rows of the plant view's rollouts from ``X`` (B, n) under ``U``
    (B, N, 1) that take no clamp and no substep: the recovered root of
    every step's regressor lies inside its bracket (the root of a later
    step's regressor is the carried upper level), and at the root and at
    every step a single Runge-Kutta step is finite, with both levels and
    their gap above ``margin`` (m) at each of its stage points.  Central
    differences there see one smooth branch."""
    dt, norm = cfg.dt, cfg.normalization()
    top = twotank.HIDDEN_LEVEL_MAX - margin
    raw = norm.denormalize_state(X, cfg.dims)
    y_cur, y_prev, u_prev = raw[:, 0], raw[:, 1], raw[:, cfg.dims.nu]
    head = twotank._previous_upper_level(y_prev, y_cur, u_prev, dt)
    regular = _smooth_tank_step(y_prev, head, u_prev, dt, margin) & (head < top)
    _, h2 = two_tank_step(y_prev, head, u_prev, dt)
    h1 = y_cur
    for u in norm.denormalize_input(U)[..., 0].T:
        regular &= _smooth_tank_step(h1, h2, u, dt, margin) & (h2 < top)
        h1, h2 = two_tank_step(h1, h2, u, dt)
    return regular & np.isfinite(h1) & np.isfinite(h2)


@given(seed=seeds, rows=st.integers(1, 6), horizon=st.integers(1, 5), reachable=st.booleans())
@example(seed=0, rows=5, horizon=1, reachable=False)
def test_plant_view_sweep_is_the_rollout_with_exact_jacobians(cfg, plant_view, seed, rows, horizon, reachable):
    """The plant view's sweep gives the outputs of its plain carried
    rollout bit for bit, and from reachable states those of the stepwise
    rollout, which reconstructs the hidden level at every step, to 1e-9;
    each row is its batch of one, and on rows that take no clamp and no
    substep every step's Jacobians match central differences of the
    one-step outputs at that step's regressor and input, extrapolated
    (Richardson) from the steps 1e-6 and 5e-7.  A plain 1e-6 step is not
    enough: near a small ``ds1/dH`` the reconstruction curves so sharply
    that its error reaches 4.5e-4 relative (seed 17499, two reachable
    rows, horizon 1), where the extrapolation's is 2e-7."""
    dims = cfg.dims
    rng = np.random.default_rng(seed)
    if reachable:
        X = sample_consistent_states(cfg, rows, seed % 2**16, min_norm=1e-3)
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
        assert_array_equal(single.jac[0], sweep.jac[i])
    assert np.all(np.isfinite(sweep.jac))
    regular = _regular_plant_rows(cfg, X, U)
    if not regular.any():
        return
    # Perturb the newest output, the previous output, the previous input
    # and the input of every step's regressor-input pair, all in one batch.
    n, h = dims.n, np.array([1e-6, 5e-7])
    columns = [0, 1, dims.nu, n]
    pairs = np.concatenate([states[regular, :-1], U[regular]], axis=-1).reshape(-1, n + 1)
    steps = h[:, None, None] * np.eye(n + 1)[columns]
    probes = np.stack([pairs[None, None] + steps[:, :, None], pairs[None, None] - steps[:, :, None]])
    out = plant_view.output_batch(probes[..., :n].reshape(-1, n), probes[..., n:].reshape(-1, 1))
    out = out.reshape(2, h.size, len(columns), -1)
    coarse, fine = (out[0] - out[1]) / (2.0 * h[:, None, None])
    central = ((4.0 * fine - coarse) / 3.0).T
    exact = sweep.jac[regular][..., 0, columns].reshape(-1, len(columns))
    assert_allclose(exact, central, rtol=1e-5, atol=1e-6 * (1.0 + np.max(np.abs(exact))))
