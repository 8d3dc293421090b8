"""Sampled exponential-stability certificates for receding-horizon control.

The certificate machinery has four pieces:

* a quadratic storage function whose lag-weighted layout makes every
  NARX system cost detectable by construction,
* sampled growth bounds ``B_N`` on the optimal value as a multiple of
  the squared state norm,
* a minimal-horizon formula turning the growth-bound envelope into a
  sufficient prediction horizon, and
* a per-step decrease check of the candidate Lyapunov function (optimal
  value plus storage) along a measured closed-loop trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from .mpc import ClosedLoopTrace, MpcConfig, SolverError, StageCostWeights, solve_ocp, stage_cost
from .narx import NarxDims, NarxDynamics, shift_state


@dataclass(frozen=True)
class StorageMatrix:
    """Block-diagonal storage weight ``P`` with its construction data.

    Output lag ``k`` carries weight ``(nu - k) / nu * Q`` for
    ``k = 0..nu-1`` and input lag ``k`` carries ``(nu - k + 1) / nu * R``
    for ``k = 1..nu-1``, so the stored energy drains by the factor
    ``eta = (nu - 1) / nu`` per step up to the incoming stage cost.
    """

    P: np.ndarray
    dims: NarxDims
    weights: StageCostWeights

    @property
    def eta(self) -> float:
        return (self.dims.nu - 1) / self.dims.nu

    @property
    def sigma_min(self) -> float:
        """Smallest eigenvalue of ``P``, exact from the diagonal blocks."""
        nu = self.dims.nu
        q_min = float(np.min(np.linalg.eigvalsh(self.weights.Q)))
        candidates = [(nu - k) / nu * q_min for k in range(nu)]
        if nu > 1:
            r_min = float(np.min(np.linalg.eigvalsh(self.weights.R)))
            candidates += [(nu - k + 1) / nu * r_min for k in range(1, nu)]
        return min(candidates)


def storage_matrix(dims: NarxDims, weights: StageCostWeights) -> StorageMatrix:
    """Assemble the lag-weighted storage matrix for given dimensions."""
    if weights.p != dims.p or weights.m != dims.m:
        raise ValueError("stage-cost weights do not match the NARX dimensions")
    nu = dims.nu
    blocks = [((nu - k) / nu) * weights.Q for k in range(nu)]
    blocks += [((nu - k + 1) / nu) * weights.R for k in range(1, nu)]
    return StorageMatrix(P=block_diag(*blocks), dims=dims, weights=weights)


def storage_value(x: np.ndarray, storage: StorageMatrix):
    """Storage value ``x^T P x``; batched over leading axes."""
    x = np.asarray(x, dtype=float)
    return np.einsum("...i,ij,...j->...", x, storage.P, x)


def storage_value_lagsum(x: np.ndarray, dims: NarxDims, weights: StageCostWeights):
    """Storage value written as an explicit sum over lag blocks.

    Independent of :func:`storage_value`; used to cross-check the matrix
    assembly.
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


@dataclass
class GrowthBoundEstimate:
    """Sampled growth bounds ``B_N`` for ``N = 1..n_max``.

    ``ratios[i, N-1]`` is ``V_N(x_i) / ||x_i||^2`` (NaN where the solver
    failed); ``b_values`` is the running maximum over samples, made
    nondecreasing in ``N`` by a cumulative maximum.
    """

    b_values: np.ndarray
    ratios: np.ndarray
    states: np.ndarray
    model_tag: str = ""
    solver_failures: int = 0

    @property
    def n_max(self) -> int:
        return self.b_values.shape[0]


def estimate_growth_bound(
    f: NarxDynamics,
    cfg: MpcConfig,
    states: np.ndarray,
    n_max: int,
    model_tag: str = "",
) -> GrowthBoundEstimate:
    """Estimate growth bounds by solving open-loop problems on a state grid.

    For each sample state the horizons ``1..n_max`` are solved in order,
    warm-starting each from the previous solution padded with a zero
    input.  States with vanishing norm are rejected; solver failures are
    excluded from the maxima and counted.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    norms_sq = np.einsum("ij,ij->i", states, states)
    if np.any(norms_sq < 1e-10):
        raise ValueError(
            "growth-bound sample states must stay away from the origin "
            "(norm above 1e-5)"
        )
    ratios = np.full((states.shape[0], n_max), np.nan)
    failures = 0
    for i, x in enumerate(states):
        warm = None
        for horizon in range(1, n_max + 1):
            sub = replace(cfg, horizon=horizon)
            try:
                sol = solve_ocp(f, x, sub, warm=warm)
            except SolverError:
                failures += 1
                break
            ratios[i, horizon - 1] = sol.value / norms_sq[i]
            warm = np.vstack([sol.u_star, np.zeros((1, cfg.dims.m))])
    if np.all(np.isnan(ratios)):
        raise SolverError("growth-bound estimation failed on every sample state")
    with np.errstate(all="ignore"):
        b_values = np.maximum.accumulate(np.nanmax(ratios, axis=0))
    return GrowthBoundEstimate(
        b_values=b_values,
        ratios=ratios,
        states=states,
        model_tag=model_tag,
        solver_failures=failures,
    )


def gamma_bar(growth: GrowthBoundEstimate, storage: StorageMatrix) -> float:
    """Envelope constant ``max_N B_N / sigma_min(P)``."""
    return float(np.max(growth.b_values)) / storage.sigma_min


def min_horizon(gamma: float, nu: int) -> float:
    """Horizon above which the sampled certificate guarantees decrease.

    Evaluates ``1 + (log(gamma) - log(1/nu)) / (log(1 + gamma) -
    log(gamma + eta))`` with ``eta = (nu - 1) / nu``.  Values below one
    mean any horizon works; callers round up to an integer horizon.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be strictly positive, got {gamma}")
    if nu < 1:
        raise ValueError("nu must be at least 1")
    eta = (nu - 1) / nu
    numerator = math.log(gamma) - math.log(1.0 / nu)
    denominator = math.log(1.0 + gamma) - math.log(gamma + eta)
    return 1.0 + numerator / denominator


def lyapunov_value(
    f: NarxDynamics,
    cfg: MpcConfig,
    x: np.ndarray,
    storage: StorageMatrix,
    warm: np.ndarray | None = None,
) -> float:
    """Candidate Lyapunov value ``V_N(x) + W(x)`` at one state."""
    sol = solve_ocp(f, x, cfg, warm=warm)
    return sol.value + float(storage_value(np.asarray(x, dtype=float), storage))


VERDICT_EQUILIBRIUM = "at_equilibrium"
VERDICT_VERIFIED = "decrease_verified"
VERDICT_VIOLATED = "decrease_violated"


@dataclass
class StabilityReport:
    """Certificate summary for one closed-loop trace.

    ``alpha`` is the largest uniform decrease coefficient observed,
    ``alpha_certified`` the same after the safety margin, and the decay
    fit is a least-squares line through the log state errors over the
    initial transient.  Growth-bound fields are filled when an estimate
    is supplied.
    """

    verdict: str
    steps: int
    deadband: float
    margin_fraction: float
    eta: float
    sigma_min: float
    alpha: float | None
    alpha_certified: float | None
    first_violation: int | None
    active_steps: int
    decay_rate: float
    decay_r2: float
    decay_points: int
    state_norms: np.ndarray
    errors: np.ndarray
    lyapunov: np.ndarray
    storage_values: np.ndarray
    deltas: np.ndarray
    horizon: int
    model_tag: str = ""
    gamma_bar: float | None = None
    min_horizon_value: float | None = None
    horizon_sufficient: bool | None = None
    b_values: np.ndarray | None = None
    growth_failures: int | None = None
    sandwich_max_excess: float | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in (VERDICT_EQUILIBRIUM, VERDICT_VERIFIED)


def fit_decay_rate(errors: np.ndarray, rel_floor: float = 0.01):
    """Least-squares slope of ``log(error)`` over the initial transient.

    The fit window runs from the start through the first point at or
    below ``rel_floor`` times the initial error (or the whole series if
    the error never drops that far).  Returns ``(slope, r_squared,
    points)``; fewer than three usable points give NaN.
    """
    errors = np.asarray(errors, dtype=float)
    positive = errors > 0
    if errors.size == 0 or not positive[0]:
        return math.nan, math.nan, 0
    threshold = max(errors[0] * rel_floor, 1e-14)
    below = np.flatnonzero(errors <= threshold)
    end = int(below[0]) if below.size else errors.size - 1
    window = errors[: end + 1]
    window = window[window > 0]
    if window.size < 3:
        return math.nan, math.nan, int(window.size)
    k = np.arange(window.size)
    logs = np.log(window)
    slope, intercept = np.polyfit(k, logs, 1)
    fitted = slope * k + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2), int(window.size)


def verify_decrease(
    trace: ClosedLoopTrace,
    storage: StorageMatrix,
    margin_fraction: float = 0.0,
    deadband: float = 1e-5,
    growth: GrowthBoundEstimate | None = None,
    model_tag: str = "",
) -> StabilityReport:
    """Check per-step decrease of the candidate Lyapunov function.

    Over every applied step whose state norm exceeds the dead-band, the
    change ``Y(x(k+1)) - Y(x(k))`` must be at most ``-alpha ||x(k)||^2``
    for a uniform ``alpha > 0``; the report carries the largest such
    ``alpha``, shrunk by ``margin_fraction`` for the certified value.
    States inside the dead-band are treated as converged.  Never raises
    on a failed check; the verdict tells.

    When a growth-bound estimate is given, the report also carries the
    envelope constant, the minimal-horizon formula value and a sampled
    check of the storage sandwich ``W <= V + W <= (gamma + 1) W`` on the
    estimation grid.
    """
    if not 0.0 <= margin_fraction < 1.0:
        raise ValueError("margin_fraction must lie in [0, 1)")
    states = trace.states
    w_vals = storage_value(states, storage)
    y_vals = trace.values + w_vals
    norms = np.linalg.norm(states, axis=1)
    if trace.normalization is not None:
        raw = trace.normalization.denormalize_state(states, trace.dims)
        raw_eq = trace.normalization.denormalize_state(np.zeros(trace.dims.n), trace.dims)
        errors = np.linalg.norm(raw - raw_eq, axis=1)
    else:
        errors = norms

    k_max = states.shape[0] - 1
    deltas = y_vals[1:] - y_vals[:-1]
    usable = np.isfinite(y_vals[1:]) & np.isfinite(y_vals[:-1])
    active = (norms[:-1] > deadband) & usable
    alpha = None
    first_violation = None
    if not np.any(active):
        verdict = VERDICT_EQUILIBRIUM
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            coeffs = -deltas / np.square(norms[:-1])
        active_coeffs = coeffs[active]
        alpha = float(np.min(active_coeffs))
        if alpha > 0:
            verdict = VERDICT_VERIFIED
        else:
            verdict = VERDICT_VIOLATED
            bad = np.flatnonzero(active & (deltas >= 0))
            first_violation = int(bad[0]) if bad.size else int(np.flatnonzero(active)[np.argmin(active_coeffs)])
            alpha = max(alpha, 0.0)
    slope, r2, points = fit_decay_rate(errors)
    report = StabilityReport(
        verdict=verdict,
        steps=k_max,
        deadband=deadband,
        margin_fraction=margin_fraction,
        eta=storage.eta,
        sigma_min=storage.sigma_min,
        alpha=alpha,
        alpha_certified=None if alpha is None else alpha * (1.0 - margin_fraction),
        first_violation=first_violation,
        active_steps=int(np.sum(active)),
        decay_rate=slope,
        decay_r2=r2,
        decay_points=points,
        state_norms=norms,
        errors=errors,
        lyapunov=y_vals,
        storage_values=w_vals,
        deltas=deltas,
        horizon=trace.horizon,
        model_tag=model_tag,
    )
    if growth is not None:
        gb = gamma_bar(growth, storage)
        report.gamma_bar = gb
        report.b_values = growth.b_values
        report.growth_failures = growth.solver_failures
        if gb > 0:
            report.min_horizon_value = min_horizon(gb, storage.dims.nu)
        else:
            report.min_horizon_value = 1.0
        report.horizon_sufficient = trace.horizon > report.min_horizon_value
        grid_norms_sq = np.einsum("ij,ij->i", growth.states, growth.states)
        grid_w = storage_value(growth.states, storage)
        with np.errstate(invalid="ignore"):
            grid_v = growth.ratios[:, -1] * grid_norms_sq
        finite = np.isfinite(grid_v)
        excess = (grid_v[finite] + grid_w[finite]) - (gb + 1.0) * grid_w[finite]
        report.sandwich_max_excess = float(np.max(excess)) if excess.size else math.nan
    return report
