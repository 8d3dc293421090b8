"""Independent oracles that the tests check the package against.

None of these run in a pipeline stage: each recomputes a quantity the
package forms some other way, or samples inputs for a structural check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from narxmpc import BenchmarkConfig, NarxDims, NarxDynamics, StageCostWeights, shift_state, stage_cost
from narxmpc.stability import StorageMatrix, storage_value


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
