"""Sampled exponential-stability certificates for receding-horizon control.

The certificate machinery has four pieces:

* a quadratic storage function whose lag-weighted layout makes every
  NARX system cost detectable by construction,
* sampled growth bounds ``B_N`` on the optimal value as a multiple of
  the squared state norm, from the prefix costs of one solve per grid
  state,
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

from .mpc import ClosedLoopTrace, MpcConfig, OcpSolution, SolverError, StageCostWeights, solve_ocp_batch, stage_cost
from .narx import NarxDims, NarxDynamics


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


@dataclass
class GrowthBoundEstimate:
    """Sampled growth bounds ``B_N`` for ``N = 1`` up to the grid horizon ``n_max``.

    Each grid state is solved once, at ``n_max``.  ``ratios[i, N-1]`` is
    the prefix bound of state ``i``: the cost of the first ``N`` inputs
    of its solution over ``||x_i||^2`` (NaN where the solver failed).  A
    prefix of a feasible input sequence is feasible for the shorter
    problem, so its cost bounds ``V_N(x_i)`` from above, just as the
    value of a local solve at horizon ``N`` does.  ``b_values`` is the
    maximum over samples; stage costs are nonnegative, so every row, and
    with it ``b_values``, is nondecreasing in ``N``.  ``iterations[i]``
    and ``backtracks[i]`` count the solver iterations and rejected
    line-search trials of state ``i`` (zero where it failed), ``capped``
    counts the solves that stopped at the iteration cap without
    converging, and ``capped_max_grad_norm`` is the largest projected-
    gradient norm among them (None when none capped).
    """

    b_values: np.ndarray
    ratios: np.ndarray
    states: np.ndarray
    model_tag: str = ""
    solver_failures: int = 0
    iterations: np.ndarray | None = None
    backtracks: np.ndarray | None = None
    capped: int = 0
    capped_max_grad_norm: float | None = None

    def summary(self) -> str:
        """One line on the grid's solves, as ``--verbose`` prints it."""
        states, horizon = self.ratios.shape
        return f"growth grid: {states} solves at N={horizon}, {self.capped} capped"


def capped_solves(iterations, converged, grad_norms, max_iters: int) -> tuple[int, float | None]:
    """Count of the solves that stopped at the iteration cap ``max_iters``
    without converging, and the largest projected-gradient norm among
    them (None when none did)."""
    capped = ~np.asarray(converged, dtype=bool) & (np.asarray(iterations) >= max_iters)
    norms = np.asarray(grad_norms, dtype=float)[capped]
    return int(capped.sum()), (float(norms.max()) if norms.size else None)


def estimate_growth_bound(
    f: NarxDynamics,
    cfg: MpcConfig,
    states: np.ndarray,
    n_max: int,
    model_tag: str = "",
) -> GrowthBoundEstimate:
    """Estimate growth bounds from the prefix costs of one solve per grid state.

    Every state is solved at horizon ``n_max`` in one
    :func:`~narxmpc.mpc.solve_ocp_batch` call from the usual cold start,
    whose result list holds one entry per state: its solution, whose
    predicted outputs give its stage costs, or the error that stopped it.
    The running sum of a row's stage costs over ``N`` steps is the cost of
    the solution's first ``N`` inputs.  The input box is the only
    constraint, so that prefix is feasible for the horizon-``N`` problem
    and its cost bounds ``V_N(x)`` from above for every ``N <= n_max``.
    A grid with no state and states with vanishing norm are rejected
    with ``ValueError``; a state whose solve fails is counted and its row
    stays NaN, excluded from the maxima.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not states.size:
        raise ValueError(f"need at least one state, got a grid of shape {states.shape}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    norms_sq = np.einsum("ij,ij->i", states, states)
    if np.any(norms_sq < 1e-10):
        raise ValueError(
            "growth-bound sample states must stay away from the origin "
            "(norm above 1e-5)"
        )
    results = solve_ocp_batch(f, states, replace(cfg, horizon=n_max))
    solved = np.array([isinstance(sol, OcpSolution) for sol in results])
    if not solved.any():
        raise SolverError("growth-bound estimation failed on every sample state")
    sols = [sol for sol in results if isinstance(sol, OcpSolution)]
    U_star = np.stack([sol.u_star for sol in sols])
    outputs = np.stack([sol.outputs for sol in sols])
    ratios = np.full((states.shape[0], n_max), np.nan)
    ratios[solved] = np.cumsum(stage_cost(outputs, U_star, cfg.weights), axis=1) / norms_sq[solved, None]
    iterations = np.zeros(states.shape[0], dtype=int)
    iterations[solved] = [sol.iterations for sol in sols]
    backtracks = np.zeros(states.shape[0], dtype=int)
    backtracks[solved] = [sol.backtracks for sol in sols]
    capped, worst = capped_solves(
        iterations[solved], [sol.converged for sol in sols], [sol.grad_norm for sol in sols], cfg.solver.max_iters
    )
    return GrowthBoundEstimate(
        b_values=np.nanmax(ratios, axis=0),
        ratios=ratios,
        states=states,
        model_tag=model_tag,
        solver_failures=int(np.sum(~solved)),
        iterations=iterations,
        backtracks=backtracks,
        capped=capped,
        capped_max_grad_norm=worst,
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


VERDICT_EQUILIBRIUM = "at_equilibrium"
VERDICT_VERIFIED = "decrease_verified"
VERDICT_VIOLATED = "decrease_violated"

#: State norm at or below which a step counts as converged and is not
#: checked for decrease.
DEADBAND = 1e-5


@dataclass
class StabilityReport:
    """Certificate summary for one closed-loop trace.

    ``verdict`` is the outcome of the decrease check, ``alpha`` the
    largest uniform decrease coefficient observed and ``first_violation``
    the first checked step at which ``Y`` does not decrease.
    ``decay_r2`` is the coefficient of determination of a least-squares
    line through the log state errors over the initial transient.
    ``values`` are the optimal values V of the trace as the solver
    returned them, and ``lyapunov`` is ``V + W``.  The
    growth-bound fields ``gamma_bar``, ``min_horizon_value``,
    ``horizon_sufficient``, ``b_values`` and ``growth_failures`` are
    filled when an estimate is supplied.  ``horizon_sufficient``
    (``horizon > min_horizon_value``) is a condition on the model's
    sampled growth bound, not a plant guarantee.
    ``capped_solves`` counts the certificate inputs that came from solves
    stopped at the iteration cap without converging: those of the trace
    plus the growth grid's.  It is filled when the cap is supplied, and so
    is ``capped_max_grad_norm``, the largest projected-gradient norm among
    those solves (None when none capped), which the report file does not
    print.  :func:`~narxmpc.bench.check_model_errors` fills the last four
    fields: ``model_errors`` ends with NaN at the terminal state.
    """

    verdict: str
    steps: int
    deadband: float
    eta: float
    sigma_min: float
    alpha: float | None
    first_violation: int | None
    active_steps: int
    decay_r2: float
    state_norms: np.ndarray
    errors: np.ndarray
    values: np.ndarray
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
    capped_solves: int | None = None
    capped_max_grad_norm: float | None = None
    model_errors: np.ndarray | None = None
    trace_error_ratio: float | None = None
    trace_bound_ratio: float | None = None
    error_bound_on_trace: bool | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in (VERDICT_EQUILIBRIUM, VERDICT_VERIFIED)


def decay_r2(errors: np.ndarray) -> float:
    """Coefficient of determination of the least-squares line through
    ``log(error)`` over the initial transient.

    The fit window runs from the start through the first point at or
    below 1% of the initial error (or the whole series if the error
    never drops that far).  Fewer than three usable points give NaN.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0 or not errors[0] > 0:
        return math.nan
    threshold = max(errors[0] * 0.01, 1e-14)
    below = np.flatnonzero(errors <= threshold)
    end = int(below[0]) if below.size else errors.size - 1
    window = errors[: end + 1]
    window = window[window > 0]
    if window.size < 3:
        return math.nan
    k = np.arange(window.size)
    logs = np.log(window)
    slope, intercept = np.polyfit(k, logs, 1)
    fitted = slope * k + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def require_applied_step(trace: ClosedLoopTrace) -> None:
    """Raise ``ValueError`` for a trace with no applied step, which has no
    decrease to certify."""
    if trace.steps == 0:
        raise ValueError("the trace has no applied step; there is no decrease to certify")


def verify_decrease(
    trace: ClosedLoopTrace,
    storage: StorageMatrix,
    growth: GrowthBoundEstimate | None = None,
    model_tag: str = "",
    max_iters: int | None = None,
) -> StabilityReport:
    """Check per-step decrease of the candidate Lyapunov function.

    Over every applied step whose state norm exceeds :data:`DEADBAND`,
    the change ``Y(x(k+1)) - Y(x(k))`` must be at most
    ``-alpha ||x(k)||^2`` for a uniform ``alpha > 0``; the report carries
    the largest such ``alpha``.  States inside the dead-band are treated as
    converged.  Never raises on a failed check; the verdict tells.  A
    trace with no applied step has nothing to certify and raises
    ``ValueError``.

    When a growth-bound estimate is given, the report also carries the
    envelope constant and the minimal-horizon formula value (with
    ``horizon_sufficient``, which speaks of the model, not the plant).
    With the solver's iteration cap ``max_iters``, the report counts the
    capped solves of the trace and of the grid.
    """
    require_applied_step(trace)
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
    active = (norms[:-1] > DEADBAND) & usable
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
    report = StabilityReport(
        verdict=verdict,
        steps=k_max,
        deadband=DEADBAND,
        eta=storage.eta,
        sigma_min=storage.sigma_min,
        alpha=alpha,
        first_violation=first_violation,
        active_steps=int(np.sum(active)),
        decay_r2=decay_r2(errors),
        state_norms=norms,
        errors=errors,
        values=trace.values,
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
    if max_iters is not None:
        count, worst = capped_solves(trace.iterations, trace.converged, trace.grad_norms, max_iters)
        if growth is not None:
            count += growth.capped
            worst = max((v for v in (worst, growth.capped_max_grad_norm) if v is not None), default=None)
        report.capped_solves, report.capped_max_grad_norm = count, worst
    return report
