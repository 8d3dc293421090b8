"""Finite-horizon optimal control on NARX dynamics, without terminal conditions.

The cost penalizes the predicted outputs one step ahead of each applied
input, ``sum_k ||y(k+1)||_Q^2 + ||u(k)||_R^2``, subject only to a box on
the inputs.  Open-loop problems are solved by projected gradient descent
with Armijo backtracking; gradients come from an adjoint sweep through
the regressor shift structure when the dynamics expose Jacobians, and
from batched central differences otherwise.  The receding-horizon loop
applies the first input of each solution and warm-starts the next solve
with the shifted remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .narx import Box, NarxDims, NarxDynamics, shift_state


class SolverError(RuntimeError):
    """The optimal-control solver hit a non-finite cost or gradient."""


@dataclass(frozen=True)
class StageCostWeights:
    """Positive definite output weight ``Q`` (p, p) and input weight ``R`` (m, m).

    Scalars and 1-D arrays are promoted to diagonal matrices.  Positive
    definiteness is checked at construction (smallest eigenvalue above
    1e-12).
    """

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        for name in ("Q", "R"):
            w = np.asarray(getattr(self, name), dtype=float)
            if w.ndim == 0:
                w = w.reshape(1, 1)
            elif w.ndim == 1:
                w = np.diag(w)
            object.__setattr__(self, name, w)
            if w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be square, got shape {w.shape}")
            if np.max(np.abs(w - w.T)) > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(w)) <= 1e-12:
                raise ValueError(
                    f"{name} must be positive definite (smallest eigenvalue "
                    "above 1e-12)"
                )

    @property
    def p(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]


def stage_cost(y: np.ndarray, u: np.ndarray, weights: StageCostWeights):
    """Quadratic stage cost ``y^T Q y + u^T R u``; batched over leading axes."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.einsum("...i,ij,...j->...", y, weights.Q, y) + np.einsum(
        "...i,ij,...j->...", u, weights.R, u
    )


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient settings.

    ``armijo`` is the sufficient-decrease constant and ``shrink`` the
    backtracking factor.  ``multistart`` adds seeded random feasible
    starts beyond the provided one; ties break toward the lowest start
    index.
    """

    max_iters: int = 500
    grad_tol: float = 1e-8
    armijo: float = 1e-4
    shrink: float = 0.5
    init_step: float = 1.0
    multistart: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.multistart < 1:
            raise ValueError("max_iters and multistart must be at least 1")
        if not (0 < self.armijo < 1 and 0 < self.shrink < 1):
            raise ValueError("need 0 < armijo < 1 and 0 < shrink < 1")
        if self.grad_tol <= 0 or self.init_step <= 0:
            raise ValueError("tolerances and steps must be strictly positive")


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, stage-cost weights, input box and solver settings.

    The input box must contain the origin so that the zero sequence is
    always feasible.
    """

    horizon: int
    weights: StageCostWeights
    input_box: Box
    dims: NarxDims
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.input_box.dim != self.dims.m:
            raise ValueError(
                f"input box dimension {self.input_box.dim} does not match m={self.dims.m}"
            )
        if self.weights.p != self.dims.p or self.weights.m != self.dims.m:
            raise ValueError("stage-cost weights do not match the NARX dimensions")
        if np.any(self.input_box.lo > 0) or np.any(self.input_box.hi < 0):
            raise ValueError("the input box must contain the origin")


def cost_J_batch(
    f: NarxDynamics, x0: np.ndarray, U_batch: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Costs of B input sequences (B, N, m) from a shared initial regressor."""
    U_batch = np.asarray(U_batch, dtype=float)
    X0 = np.broadcast_to(np.asarray(x0, dtype=float), (U_batch.shape[0], f.dims.n))
    _, outputs = f.rollout_batch(X0, U_batch)
    return np.sum(stage_cost(outputs, U_batch, weights), axis=1)


def cost_gradient(
    f: NarxDynamics, x0: np.ndarray, u_seq: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Exact cost gradient w.r.t. the input sequence via an adjoint sweep.

    The forward sweep rolls the lifted system out with one
    :meth:`~narxmpc.narx.NarxDynamics.linearize` call per step, which
    gives the output and its Jacobians together.  The backward sweep
    accumulates the adjoint of the lifted step map: the output Jacobian
    enters through the first block row and the history shifts enter as
    index moves, so each step costs O(n) bookkeeping on top.

    Raises :class:`SolverError` for dynamics without Jacobians.
    """
    if not f.differentiable:
        raise SolverError(
            f"{type(f).__name__} provides no Jacobians; use finite_difference_gradient"
        )
    dims = f.dims
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    horizon = u_seq.shape[0]
    x = np.asarray(x0, dtype=float)
    steps = []
    for k in range(horizon):
        y, Jx, Ju = f.linearize(x, u_seq[k])
        steps.append((y, Jx, Ju))
        x = shift_state(x, y, u_seq[k], dims)
    p, m, nb, n = dims.p, dims.m, dims.n_outputs_block, dims.n
    grad = np.empty((horizon, m))
    lam = np.zeros(n)
    for k in reversed(range(horizon)):
        y, Jx, Ju = steps[k]
        lam_full = lam.copy()
        lam_full[:p] += 2.0 * (weights.Q @ y)
        g = 2.0 * (weights.R @ u_seq[k]) + Ju.T @ lam_full[:p]
        if dims.nu > 1:
            g = g + lam_full[nb : nb + m]
        grad[k] = g
        new_lam = Jx.T @ lam_full[:p]
        if dims.nu > 1:
            new_lam[: nb - p] += lam_full[p:nb]
            if dims.nu > 2:
                new_lam[nb : nb + (dims.nu - 2) * m] += lam_full[nb + m :]
        lam = new_lam
    return grad


def finite_difference_gradient(
    f: NarxDynamics,
    x0: np.ndarray,
    u_seq: np.ndarray,
    weights: StageCostWeights,
    step: float = 1e-6,
) -> np.ndarray:
    """Batched central-difference cost gradient.

    All ``2 N m`` perturbed sequences are rolled out in one batch.
    Coordinates whose central difference is not finite fall back to a
    one-sided difference against the base cost, and to zero if that is
    not finite either.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    horizon, m = u_seq.shape
    flat = u_seq.ravel()
    k = flat.size
    batch = np.tile(flat, (2 * k, 1))
    idx = np.arange(k)
    batch[2 * idx, idx] += step
    batch[2 * idx + 1, idx] -= step
    costs = cost_J_batch(f, x0, batch.reshape(2 * k, horizon, m), weights)
    plus, minus = costs[0::2], costs[1::2]
    grad = (plus - minus) / (2.0 * step)
    bad = ~np.isfinite(grad)
    if np.any(bad):
        base = cost_J_batch(f, x0, u_seq[None], weights)[0]
        one_sided = np.where(np.isfinite(plus), (plus - base) / step, (base - minus) / step)
        grad = np.where(bad, np.where(np.isfinite(one_sided), one_sided, 0.0), grad)
    return grad.reshape(horizon, m)


@dataclass
class OcpSolution:
    """Solver result for one open-loop problem.

    ``grad_norm`` is the norm of the unit-step projected gradient
    mapping at ``u_star``, the solver's stationarity measure;
    ``multistart_spread`` is the value gap between the best and worst
    successful starts (zero for a single start).
    """

    u_star: np.ndarray
    value: float
    iterations: int
    grad_norm: float
    converged: bool
    multistart_spread: float = 0.0


def _projected_descent(cost_fn, grad_fn, proj, start, solver: SolverConfig):
    u = proj(np.asarray(start, dtype=float))
    value = cost_fn(u)
    if not np.isfinite(value):
        raise SolverError(f"initial cost is not finite ({value}) at the start sequence")
    t = solver.init_step
    converged = False
    grad_norm = np.inf
    iterations = 0
    for _ in range(solver.max_iters):
        g = grad_fn(u)
        if not np.all(np.isfinite(g)):
            raise SolverError("gradient is not finite at the current iterate")
        pg = u - proj(u - g)
        grad_norm = float(np.linalg.norm(pg))
        if grad_norm <= solver.grad_tol:
            converged = True
            break
        iterations += 1
        accepted = False
        backtracked = False
        while t >= 1e-18:
            cand = proj(u - t * g)
            cand_value = cost_fn(cand)
            decrease = solver.armijo * float(np.sum(g * (cand - u)))
            if np.isfinite(cand_value) and cand_value <= value + decrease:
                accepted = True
                break
            t *= solver.shrink
            backtracked = True
        if not accepted:
            break
        u, value = cand, cand_value
        if not backtracked:
            t = min(t / solver.shrink, 1e6)
    return u, float(value), iterations, grad_norm, converged


def solve_ocp(
    f: NarxDynamics,
    x0: np.ndarray,
    cfg: MpcConfig,
    warm: np.ndarray | None = None,
) -> OcpSolution:
    """Solve the box-constrained open-loop problem from ``x0``.

    The first start is the warm sequence (projected onto the box) or
    zeros; additional seeded random feasible starts are used when
    ``cfg.solver.multistart > 1``.  Line-search costs go through
    :func:`cost_J_batch` at batch size one, so dynamics with a dedicated
    ``rollout_batch`` (the exact plant view) use it; gradients come from
    :func:`cost_gradient` when the dynamics are differentiable.
    """
    solver = cfg.solver
    box = cfg.input_box
    shape = (cfg.horizon, cfg.dims.m)

    def proj(U):
        return np.clip(U, box.lo, box.hi)

    def cost_fn(U):
        return float(cost_J_batch(f, x0, np.asarray(U, dtype=float)[None], cfg.weights)[0])

    if f.differentiable:
        grad_fn = lambda U: cost_gradient(f, x0, U, cfg.weights)
    else:
        grad_fn = lambda U: finite_difference_gradient(f, x0, U, cfg.weights)

    starts = [np.zeros(shape) if warm is None else np.asarray(warm, dtype=float).reshape(shape)]
    if solver.multistart > 1:
        rng = np.random.default_rng(solver.seed)
        for _ in range(solver.multistart - 1):
            starts.append(rng.uniform(box.lo, box.hi, size=shape))

    results = []
    first_error: SolverError | None = None
    for start in starts:
        try:
            results.append(_projected_descent(cost_fn, grad_fn, proj, start, solver))
        except SolverError as exc:
            if first_error is None:
                first_error = exc
    if not results:
        raise first_error if first_error is not None else SolverError("no start succeeded")
    values = [r[1] for r in results]
    u, value, iterations, grad_norm, converged = results[int(np.argmin(values))]
    return OcpSolution(
        u_star=u,
        value=value,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        multistart_spread=float(max(values) - min(values)),
    )


@dataclass
class ClosedLoopTrace:
    """Receding-horizon record over ``K`` applied inputs.

    ``states`` holds the measured regressors ``x(0..K)``; ``values``
    holds the open-loop optimal values at every measured state including
    a diagnostic solve at the final one; ``storage_values`` and
    ``lyapunov`` are filled when a storage matrix is supplied to
    :func:`run_closed_loop`.  A solver failure truncates the trace and
    records the failing step and message.
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    values: np.ndarray
    stage_costs: np.ndarray
    grad_norms: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    dims: NarxDims
    horizon: int
    storage_values: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    normalization: object | None = None
    failed_step: int | None = None
    failure: str | None = None

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]


def run_closed_loop(
    plant: NarxDynamics,
    surrogate: NarxDynamics,
    cfg: MpcConfig,
    x0: np.ndarray,
    steps: int,
    storage_matrix: np.ndarray | None = None,
    normalization=None,
) -> ClosedLoopTrace:
    """Receding-horizon control of ``plant`` using ``surrogate`` predictions.

    Each step solves the open-loop problem at the measured regressor,
    applies the first input to the plant, measures the next output and
    shifts the regressor.  One extra diagnostic solve evaluates the
    optimal value at the final state so that decrease checks can cover
    every applied step.  Its entry ends every per-state array, so they
    all hold ``states.shape[0]`` values; without that solve (no step
    requested, or a failed step) the entry is a NaN value and gradient
    norm, zero iterations and not converged.

    ``storage_matrix`` (n, n), when given, adds the storage values and
    the candidate Lyapunov values (optimal value plus storage) to the
    trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    dims = cfg.dims
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    inputs, outputs, values, stage_costs = [], [], [], []
    grad_norms, iter_counts, conv_flags = [], [], []
    failed_step = None
    failure = None
    warm = None
    for k in range(steps):
        try:
            sol = solve_ocp(surrogate, x, cfg, warm=warm)
        except SolverError as exc:
            failed_step = k
            failure = str(exc)
            break
        u0 = sol.u_star[0]
        try:
            y_next = plant.output(x, u0)
        except (ValueError, FloatingPointError) as exc:
            failed_step = k
            failure = f"plant rejected the applied input: {exc}"
            break
        x = shift_state(x, y_next, u0, dims)
        states.append(x.copy())
        inputs.append(u0)
        outputs.append(np.asarray(y_next, dtype=float))
        values.append(sol.value)
        stage_costs.append(float(stage_cost(y_next, u0, cfg.weights)))
        grad_norms.append(sol.grad_norm)
        iter_counts.append(sol.iterations)
        conv_flags.append(sol.converged)
        warm = np.vstack([sol.u_star[1:], np.zeros((1, dims.m))])
    terminal = (np.nan, np.nan, 0, False)
    if failed_step is None and steps > 0:
        try:
            sol = solve_ocp(surrogate, x, cfg, warm=warm)
            terminal = (sol.value, sol.grad_norm, sol.iterations, sol.converged)
        except SolverError as exc:
            failure = f"terminal diagnostic solve failed: {exc}"
    trace = ClosedLoopTrace(
        states=np.asarray(states),
        inputs=np.asarray(inputs).reshape(len(inputs), dims.m),
        outputs=np.asarray(outputs).reshape(len(outputs), dims.p),
        values=np.asarray(values + [terminal[0]]),
        stage_costs=np.asarray(stage_costs),
        grad_norms=np.asarray(grad_norms + [terminal[1]]),
        iterations=np.asarray(iter_counts + [terminal[2]], dtype=int),
        converged=np.asarray(conv_flags + [terminal[3]], dtype=bool),
        dims=dims,
        horizon=cfg.horizon,
        normalization=normalization,
        failed_step=failed_step,
        failure=failure,
    )
    if storage_matrix is not None:
        w_vals = np.einsum("ki,ij,kj->k", trace.states, storage_matrix, trace.states)
        trace.storage_values = w_vals
        trace.lyapunov = trace.values + w_vals
    return trace
