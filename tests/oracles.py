"""Independent oracles that the tests check the package against.

None of these run in a pipeline stage: each recomputes a quantity the
package forms some other way, samples inputs for a structural check, or
wraps a plain callable as dynamics for a test problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from narxmpc import (
    BenchmarkConfig,
    Box,
    NarxDims,
    NarxDynamics,
    StageCostWeights,
    shift_state,
    stage_cost,
)
from narxmpc.stability import StorageMatrix, storage_value


class FunctionDynamics(NarxDynamics):
    """Wrap a plain callable ``f(x, u) -> y_next`` as :class:`NarxDynamics`.

    ``jacobian_fn(x, u)``, when given, returns the output Jacobians
    ``(dy/dx, dy/du)`` and makes the dynamics differentiable.
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

    @property
    def differentiable(self) -> bool:
        return self._jacobian_fn is not None

    def linearize(self, x, u):
        if self._jacobian_fn is None:
            raise NotImplementedError("no Jacobian callable supplied")
        rows = [(self._call(x_row, u_row), *self._jacobian_fn(x_row, u_row)) for x_row, u_row in zip(x, u)]
        return tuple(np.array(part, dtype=float) for part in zip(*rows))


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
