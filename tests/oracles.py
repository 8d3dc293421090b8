"""Independent oracles that the tests check the package against.

None of these run in a pipeline stage: each recomputes a quantity the
package forms some other way, samples inputs for a structural check, or
wraps a plain callable as dynamics for a test problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from narxmpc import (
    BenchmarkConfig,
    Box,
    NarxDims,
    NarxDynamics,
    StageCostWeights,
    shift_state,
    stage_cost,
)
from narxmpc.mpc import _matvec, backward_sweep
from narxmpc.narx import Sweep, rollout_arrays
from narxmpc.stability import StorageMatrix, storage_value


class FunctionDynamics(NarxDynamics):
    """Wrap a plain callable ``f(x, u) -> y_next`` as :class:`NarxDynamics`.

    ``jacobian_fn(x, u)`` returns the output Jacobians ``(dy/dx, dy/du)``
    that :meth:`sweep` stacks, row by row and step by step; dynamics built
    without it serve as plants and truths, which are only evaluated.
    """

    def __init__(self, dims, fn, jacobian_fn=None):
        self.dims = dims
        self._fn = fn
        self._jacobian_fn = jacobian_fn

    def _call(self, x, u) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._fn(x, u), dtype=float))

    def output_batch(self, X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return np.stack([self._call(x, u) for x, u in zip(X, U)])

    def sweep(self, X0, U):
        X0, U = rollout_arrays(X0, U, self.dims)
        if self._jacobian_fn is None:
            raise NotImplementedError("no Jacobian callable supplied")
        b, horizon, dims = U.shape[0], U.shape[1], self.dims
        sweep = Sweep(*(np.empty((b, horizon, dims.p, *tail)) for tail in ((), (dims.n,), (dims.m,))))
        X = X0
        for k in range(horizon):
            for i in range(b):
                sweep.outputs[i, k] = self._call(X[i], U[i, k])
                sweep.jac_x[i, k], sweep.jac_u[i, k] = self._jacobian_fn(X[i], U[i, k])
            X = shift_state(X, sweep.outputs[:, k], U[:, k], dims)
        return sweep


def stepwise_rollout(f: NarxDynamics, X0: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Outputs (B, N, p) of the rollouts of ``U`` (B, N, m) from ``X0``
    (B, n), or (N, p) for one regressor (n,) and one sequence (N, m): one
    :meth:`~NarxDynamics.output_batch` and one
    :func:`~narxmpc.shift_state` per step."""
    X0, U = np.asarray(X0, dtype=float), np.asarray(U, dtype=float)
    if U.ndim == 2:
        return stepwise_rollout(f, X0[None], U[None])[0]
    outputs = np.empty((U.shape[0], U.shape[1], f.dims.p))
    X = X0
    for k in range(U.shape[1]):
        outputs[:, k] = f.output_batch(X, U[:, k])
        X = shift_state(X, outputs[:, k], U[:, k], f.dims)
    return outputs


def stepwise_sweep(f: NarxDynamics, X0: np.ndarray, U: np.ndarray) -> Sweep:
    """The sweep of ``U`` (B, N, m) from ``X0`` (B, n) by one one-step
    :meth:`~NarxDynamics.sweep` per step, each from the regressors that
    the outputs before it shifted in."""
    b, horizon, dims = U.shape[0], U.shape[1], f.dims
    sweep = Sweep(*(np.empty((b, horizon, dims.p, *tail)) for tail in ((), (dims.n,), (dims.m,))))
    X = np.asarray(X0, dtype=float)
    for k in range(horizon):
        sweep[:, k : k + 1] = f.sweep(X, U[:, k : k + 1])
        X = shift_state(X, sweep.outputs[:, k], U[:, k], dims)
    return sweep


def one_step_sweep(f: NarxDynamics, Xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (B, p) and Jacobians (B, p, n + m) of the one-step
    :meth:`~NarxDynamics.sweep` at the site rows ``Xi`` (B, n + m), which
    split into regressor and input at ``f.dims.n``."""
    n = f.dims.n
    sweep = f.sweep(Xi[:, :n], Xi[:, None, n:])
    return sweep.outputs[:, 0], np.concatenate([sweep.jac_x[:, 0], sweep.jac_u[:, 0]], axis=-1)


def cost_J_batch(
    f: NarxDynamics, X0: np.ndarray, U: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Costs (B,) of the input sequences ``U`` (B, N, m) from the initial
    regressors ``X0`` (B, n), from one :func:`stepwise_rollout`."""
    U = np.asarray(U, dtype=float)
    return np.sum(stage_cost(stepwise_rollout(f, X0, U), U, weights), axis=1)


def cost_gradient(
    f: NarxDynamics, X0: np.ndarray, U: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Adjoint cost gradients (B, N, m) of ``U`` (B, N, m) from ``X0``
    (B, n): :func:`~narxmpc.mpc.backward_sweep` of a fresh
    :meth:`~NarxDynamics.sweep`, which the solver runs apart."""
    X0, U = np.asarray(X0, dtype=float), np.asarray(U, dtype=float)
    return backward_sweep(f.dims, f.sweep(X0, U), U, weights)


def backward_sweep_reference(
    dims: NarxDims, sweep, U: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Cost gradients (B, N, m) by the per-step adjoint loop that forms
    each input gradient inside the loop, as the backward sweep once did;
    :func:`~narxmpc.mpc.backward_sweep`, which forms them all after it,
    must give the same bits."""
    b, horizon = U.shape[0], U.shape[1]
    p, m, nb, n = dims.p, dims.m, dims.n_outputs_block, dims.n
    output_weight = 2.0 * _matvec(weights.Q, sweep.outputs)
    input_weight = 2.0 * _matvec(weights.R, U)
    grad = np.empty((b, horizon, m))
    lam = np.zeros((b, n))
    for k in reversed(range(horizon)):
        lam_y = lam[:, :p] + output_weight[:, k]
        g = input_weight[:, k] + _matvec(sweep.jac_u[:, k].transpose(0, 2, 1), lam_y)
        if dims.nu > 1:
            g = g + lam[:, nb : nb + m]
        grad[:, k] = g
        new_lam = _matvec(sweep.jac_x[:, k].transpose(0, 2, 1), lam_y)
        if dims.nu > 1:
            new_lam[:, : nb - p] += lam[:, p:nb]
            if dims.nu > 2:
                new_lam[:, nb : nb + (dims.nu - 2) * m] += lam[:, nb + m :]
        lam = new_lam
    return grad


#: Step of :func:`central_difference_gradient`.
FD_STEP = 1e-6


def central_difference_gradient(
    f: NarxDynamics, X0: np.ndarray, U: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Central-difference cost gradients (B, N, m) with step :data:`FD_STEP`.

    All ``2 N m`` perturbed sequences of all B problems are costed by
    :func:`cost_J_batch` in one batch.
    """
    X0, U = np.asarray(X0, dtype=float), np.asarray(U, dtype=float)
    b, horizon, m = U.shape
    k = horizon * m
    batch = np.repeat(U.reshape(b, 1, k), 2 * k, axis=1)
    idx = np.arange(k)
    batch[:, 2 * idx, idx] += FD_STEP
    batch[:, 2 * idx + 1, idx] -= FD_STEP
    costs = cost_J_batch(
        f, np.repeat(X0, 2 * k, axis=0), batch.reshape(b * 2 * k, horizon, m), weights
    ).reshape(b, 2 * k)
    return ((costs[:, 0::2] - costs[:, 1::2]) / (2.0 * FD_STEP)).reshape(b, horizon, m)


def wendland_reference(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Wendland profile and ``(1 - r)^4`` from ``max(1 - r, 0)``, with
    the products in the order that :func:`~narxmpc.kernels.wendland_phi`
    takes them, so both must give the same bits; the package clips the
    radii first and forms ``1 - min(r, 1)`` instead."""
    r = np.asarray(r, dtype=float)
    one_minus = np.maximum(1.0 - r, 0.0)
    square = one_minus * one_minus
    fourth = square * square
    return fourth * one_minus * (np.minimum(r, 1.0) * 5.0 + 1.0) / 30.0, fourth


def kernel_jacobian_reference(model, Xi: np.ndarray) -> np.ndarray:
    """Jacobian (B, p, n + m) of a kernel interpolant at site rows ``Xi``,
    from the broadcast differences ``sites - xi``.

    ``-(C * w)^T (sites - xi)`` with ``w = phi'(r) / (r sigma^2)``, the
    formula :meth:`~narxmpc.kernels.KernelInterpolant.sweep` evaluates
    from differences it builds another way; both must give the same bits.
    """
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    sigma = model.spec.lengthscale
    r = cdist(Xi, model.data.sites) / sigma
    square = np.maximum(1.0 - r, 0.0) ** 2
    w = square * square / -(sigma**2)
    diffs = model.data.sites - Xi[:, None, :]
    return -np.matmul((model.coefficients * w[:, :, None]).transpose(0, 2, 1), diffs)


def rk4_step(rhs, state, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``d state / dt = rhs(state, u)``.

    ``state`` is an array whose last axis holds the state components; the
    input is held constant across the four stages.  A failing stage
    re-raises with the stage index attached.  The generic form that
    :func:`~narxmpc.twotank.two_tank_step` writes out per level.
    """
    state = np.asarray(state, dtype=float)
    ks = []
    increments = (0.0, 0.5, 0.5, 1.0)
    for stage, frac in enumerate(increments, start=1):
        point = state if stage == 1 else state + frac * dt * ks[-1]
        try:
            ks.append(np.asarray(rhs(point, u), dtype=float))
        except Exception as exc:
            raise type(exc)(f"stage {stage} of 4 failed: {exc}") from exc
    return state + (dt / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])


def state_box(cfg: BenchmarkConfig) -> Box:
    """Normalized box containing all admissible regressors of ``cfg``."""
    norm = cfg.normalization()
    dims = cfg.dims
    lo_raw = np.concatenate(
        [np.full(dims.n_outputs_block, cfg.y_lo), np.full(dims.n - dims.n_outputs_block, cfg.u_lo)]
    )
    hi_raw = np.concatenate(
        [np.full(dims.n_outputs_block, cfg.y_hi), np.full(dims.n - dims.n_outputs_block, cfg.u_hi)]
    )
    return Box(
        lo=norm.normalize_state(lo_raw, dims),
        hi=norm.normalize_state(hi_raw, dims),
    )


def storage_value_lagsum(x: np.ndarray, dims: NarxDims, weights: StageCostWeights):
    """Storage value written as an explicit sum over lag blocks.

    Independent of :func:`~narxmpc.stability.storage_value`; cross-checks
    the matrix assembly.
    """
    x = np.asarray(x, dtype=float)
    nu, p, m = dims.nu, dims.p, dims.m
    total = np.zeros(x.shape[:-1])
    for k in range(nu):
        y_k = x[..., k * p : (k + 1) * p]
        total = total + ((nu - k) / nu) * np.einsum(
            "...i,ij,...j->...", y_k, weights.Q, y_k
        )
    base = nu * p
    for k in range(1, nu):
        u_k = x[..., base + (k - 1) * m : base + k * m]
        total = total + ((nu - k + 1) / nu) * np.einsum(
            "...i,ij,...j->...", u_k, weights.R, u_k
        )
    return total


@dataclass
class DetectabilityReport:
    """Result of the sampled cost-detectability check."""

    max_violation: float
    worst_index: int
    violation_count: int
    sample_count: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tolerance


def check_detectability(
    f: NarxDynamics,
    storage: StorageMatrix,
    X: np.ndarray,
    U: np.ndarray,
    tolerance: float = 1e-10,
) -> DetectabilityReport:
    """Check ``W(x+) <= eta W(x) + l(y+, u)`` on sampled pairs.

    The inequality is structural for the lag-weighted storage: it holds
    for any deterministic output map, so violations beyond rounding
    indicate an implementation bug rather than a property of ``f``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    y_next = f.output_batch(X, U)
    x_next = shift_state(X, y_next, U, f.dims)
    w_now = storage_value(X, storage)
    w_next = storage_value(x_next, storage)
    stage = stage_cost(y_next, U, storage.weights)
    violation = w_next - storage.eta * w_now - stage
    violation = np.where(np.isfinite(violation), violation, np.inf)
    worst = int(np.argmax(violation))
    return DetectabilityReport(
        max_violation=float(violation[worst]),
        worst_index=worst,
        violation_count=int(np.sum(violation > tolerance)),
        sample_count=int(X.shape[0]),
        tolerance=tolerance,
    )


def sample_domain(
    cfg: BenchmarkConfig, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform (regressor, input) samples over the admissible domain.

    Regressor components are drawn componentwise over the level and
    input ranges without enforcing reachability; suitable for structural
    checks that must hold for arbitrary admissible regressors.  Returns
    normalized ``(X, U)``.
    """
    rng = np.random.default_rng(seed)
    dims = cfg.dims
    norm = cfg.normalization()
    nb = dims.n_outputs_block
    raw_x = np.empty((count, dims.n))
    raw_x[:, :nb] = rng.uniform(cfg.y_lo, cfg.y_hi, size=(count, nb))
    raw_x[:, nb:] = rng.uniform(cfg.u_lo, cfg.u_hi, size=(count, dims.n - nb))
    raw_u = rng.uniform(cfg.u_lo, cfg.u_hi, size=(count, dims.m))
    return norm.normalize_state(raw_x, dims), norm.normalize_input(raw_u)
