"""Property tests: paths that must agree on arbitrary inputs.

Examples are drawn under the derandomized profile registered in
``conftest.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
    FunctionDynamics,
    KernelInterpolant,
    KernelSpec,
    NarxDims,
    TwoTankParams,
    rk4_step,
    sample_domain,
    two_tank_rhs,
    two_tank_step,
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


def _interpolant(rng, input_dim: int, size: int, lengthscale: float, p: int):
    """Interpolant with random sites and coefficients; no fit is needed to
    compare two ways of evaluating the same kernel expansion."""
    sites = rng.uniform(0.0, 1.0, size=(size, input_dim))
    return KernelInterpolant(
        KernelSpec(input_dim=input_dim, lengthscale=lengthscale),
        SimpleNamespace(sites=sites),
        jitter=0.0,
        gram=None,
        cho=None,
        coefficients=rng.standard_normal((size, p)),
        site_residual=0.0,
    )


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
    value, jac = model.linearize(xi)
    assert value.shape == (p,) and jac.shape == (p, input_dim)
    # linearize and predict_batch sum in different orders; both stay in use
    assert_allclose(value, model.predict_batch(xi)[0], rtol=0.0, atol=1e-13)
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
