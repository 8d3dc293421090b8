"""Finite-horizon optimal control on NARX dynamics, without terminal conditions.

The cost penalizes the predicted outputs one step ahead of each applied
input, ``sum_k ||y(k+1)||_Q^2 + ||u(k)||_R^2``, subject only to a box on
the inputs.  Open-loop problems are solved by a two-metric projected
quasi-Newton method (Bertsekas, SIAM J. Control Optim. 1982): gradient
steps on the coordinates held at a bound, BFGS steps on the free ones,
and Armijo backtracking along the projection arc.  A solve stops when
its projected gradient is small or when the full step promises a
decrease below the cost's rounding level.  The solver asks one thing of
a model, its N-step :meth:`~narxmpc.narx.NarxDynamics.sweep`, which
yields the outputs and their per-step Jacobians together (the kernel
surrogate computes the values step by step and the Jacobians of many
steps in one batched pass).  Each cost is the forward half of an
adjoint sweep; the sweep of an accepted iterate is kept, and its
gradient is the backward half alone, :func:`backward_sweep` through the
regressor shift structure, whose loop carries only the adjoint
recursion and whose input gradients are formed after it in one stacked
product.  A solution returns the outputs of its kept sweep as
:attr:`OcpSolution.outputs`, so no caller rolls its inputs out again.
Many problems are solved in lockstep, each row with its own BFGS
matrix, line search and stopping tests, and every row reproduces its
solo solve bit for bit.  The receding-horizon loop applies the first
input of each solution and warm-starts the next solve with the shifted
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .narx import Box, NarxDims, NarxDynamics, Sweep, shift_state


class SolverError(RuntimeError):
    """The optimal-control solver hit a non-finite cost or gradient."""


@dataclass(frozen=True)
class StageCostWeights:
    """Positive definite output weight ``Q`` (p, p) and input weight ``R`` (m, m).

    Scalars and 1-D arrays are promoted to diagonal matrices.  Finite
    entries, symmetry and positive definiteness are checked at
    construction (smallest eigenvalue above 1e-12).
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
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} must be finite")
            if not np.max(np.abs(w - w.T)) <= 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if not np.min(np.linalg.eigvalsh(w)) > 1e-12:
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
    """Iteration cap of the two-metric projected quasi-Newton solver.

    A solve stops after ``max_iters`` iterations, or converged once the
    norm of its projected gradient is at most :data:`GRAD_TOL` or the
    full step predicts a decrease below :data:`NOISE_FLOOR` of the cost.
    The line search uses the fixed constants :data:`ARMIJO` and
    :data:`SHRINK`.
    """

    max_iters: int = 500
    # Every solve has one start; the benchmark's tracer reads this count.
    multistart: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked products ``A[b] @ v[b]``; each row equals its 2-D product bit
    for bit, which a single (B, k) @ (k, p) product does not."""
    return np.matmul(A, v[..., None])[..., 0]


def backward_sweep(
    dims: NarxDims, sweep: Sweep, U: np.ndarray, weights: StageCostWeights
) -> np.ndarray:
    """Cost gradients (B, N, m) of the inputs ``U`` (B, N, m) from their
    forward sweep.

    The adjoint of the lifted step map is accumulated backwards: the
    output Jacobian enters through the first block row and the history
    shifts enter as index moves, so each step costs O(n) bookkeeping on
    top of one stacked regressor-Jacobian product.  Only that recursion
    runs step by step, and every array it writes is allocated before it:
    ``lam[:, k + 1]`` is the regressor adjoint after step ``k``, and each
    product writes its step's slot.  Each step's output adjoint ``lam_y``
    is kept, and the input gradients are formed after the loop, all steps
    in one stacked product with ``sweep.jac_u``, plus the input adjoints
    that the shifts carry, read from ``lam``.  The regressor Jacobian of
    the first step, ``sweep.jac_x[:, 0]``, enters no input gradient.
    """
    b, horizon = U.shape[0], U.shape[1]
    p, m, nb, n = dims.p, dims.m, dims.n_outputs_block, dims.n
    output_weight = 2.0 * np.matmul(weights.Q, sweep.outputs[..., None])
    input_weight = 2.0 * _matvec(weights.R, U)
    jac_x_t = sweep.jac_x.transpose(0, 1, 3, 2)
    lam_y = np.empty((b, horizon, p, 1))
    # lam[:, 0], the adjoint before the first step, is never formed.
    lam = np.empty((b, horizon + 1, n, 1))
    lam[:, horizon] = 0.0
    for k in reversed(range(horizon)):
        np.add(lam[:, k + 1, :p], output_weight[:, k], out=lam_y[:, k])
        if not k:
            break
        np.matmul(jac_x_t[:, k], lam_y[:, k], out=lam[:, k])
        if dims.nu > 1:
            lam[:, k, : nb - p] += lam[:, k + 1, p:nb]
            if dims.nu > 2:
                lam[:, k, nb : nb + (dims.nu - 2) * m] += lam[:, k + 1, nb + m :]
    grad = input_weight + np.matmul(sweep.jac_u.transpose(0, 1, 3, 2), lam_y)[..., 0]
    if dims.nu > 1:
        grad += lam[:, 1:, nb : nb + m, 0]
    return grad


@dataclass
class OcpSolution:
    """Solver result for one open-loop problem.

    ``grad_norm`` is the norm of the unit-step projected gradient
    mapping, the solver's stationarity measure, and
    ``predicted_decrease`` the cost decrease the full two-metric step
    promised, both at the last iterate the stopping tests checked (the
    iterate before the last step for a solve stopped at the iteration
    cap).  ``outputs`` (N, p) are the predicted outputs of ``u_star``:
    those of the forward sweep that gave ``value``, kept by the solver.
    """

    u_star: np.ndarray
    outputs: np.ndarray
    value: float
    iterations: int
    grad_norm: float
    predicted_decrease: float
    converged: bool


#: Cap on the bound distance at which a coordinate counts as active: a
#: coordinate within ``min(||pg||, ACTIVE_WIDTH)`` of a bound whose
#: gradient points out of the box takes a plain gradient step.
ACTIVE_WIDTH = 1e-3

#: Relative cost level below which a predicted decrease is rounding
#: noise.  A solve whose full step promises at most ``NOISE_FLOOR * |J|``
#: has converged: the kernel costs carry errors of about this size, and
#: smaller accepted steps leave the value unchanged.
NOISE_FLOOR = 1e-13

#: Projected-gradient norm at or below which a solve has converged.
GRAD_TOL = 1e-8

#: Sufficient-decrease constant of the Armijo line search.
ARMIJO = 1e-4

#: Backtracking factor of the line search, which starts at the unit
#: quasi-Newton step.
SHRINK = 0.5


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of (B, k) arrays; each equals ``a[i] @ b[i]`` bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass
class _Rows:
    """State of the rows still descending, one entry per row."""

    index: np.ndarray  # row of the batch
    x: np.ndarray  # initial regressors (r, n)
    u: np.ndarray  # iterates, flattened (r, k)
    value: np.ndarray  # costs at u
    hess: np.ndarray  # BFGS inverse Hessians (r, k, k)
    scale: np.ndarray  # latest s.y / y.y: a reset sets hess to scale * I
    fresh: np.ndarray  # no curvature pair taken yet (hess is the identity)
    step: np.ndarray  # last accepted step s (r, k)
    grad: np.ndarray  # gradient before that step (r, k)
    norm: np.ndarray  # projected-gradient norms of the current round
    decrease: np.ndarray  # predicted decreases of the current round
    sweep: Sweep  # forward sweep at u

    def take(self, keep: np.ndarray) -> "_Rows":
        return _Rows(*(getattr(self, item.name)[keep] for item in fields(self)))


def _evaluate(f: NarxDynamics, X: np.ndarray, U: np.ndarray, weights: StageCostWeights):
    """Costs of the rows ``U`` (r, N, m) from ``X`` (r, n), with the forward
    sweep that gave them."""
    sweep = f.sweep(X, U)
    return np.sum(stage_cost(sweep.outputs, U, weights), axis=1), sweep


def _lockstep_descent(f: NarxDynamics, X0: np.ndarray, starts: np.ndarray, cfg: MpcConfig):
    """Two-metric projected quasi-Newton descent (Bertsekas, SIAM J. Control
    Optim. 1982) on the rows of ``starts`` (B, N, m) from the regressors
    ``X0`` (B, n), all rows one iteration at a time.

    Each round splits every row's coordinates.  A coordinate within
    ``eps = min(||pg||, ACTIVE_WIDTH)`` of a bound whose gradient points
    out of the box is active and takes the plain gradient step; the free
    coordinates take the step of the row's BFGS inverse Hessian
    restricted to them.  The first curvature pair with ``s.y > 0`` scales
    the initial identity by ``s.y / y.y``; pairs with ``s.y <= 0`` are
    skipped, and a free step that is not a descent direction resets the
    matrix to the latest scaled identity.  :func:`_armijo_search` then
    searches the projection arc from ``t = 1``.

    A row converges when its projected-gradient norm is at most
    :data:`GRAD_TOL` or when the full step predicts a decrease of at most
    ``NOISE_FLOOR * |J|``.  Each row keeps its own matrix, line search and
    stopping tests, so it follows the iterates of its solo descent bit for
    bit.  A row leaves the active set when it converges, when its line
    search fails, or with a :class:`SolverError` in ``errors`` when its
    cost or gradient is not finite; the other rows go on unchanged.

    Every cost is one :meth:`~narxmpc.narx.NarxDynamics.sweep`, of the
    starts and of each line-search trial, and a row keeps the sweep of its
    accepted iterate, so each gradient is one :func:`backward_sweep`; the
    outputs of that sweep are returned with the iterate.
    """
    box, weights = cfg.input_box, cfg.weights
    b, shape = starts.shape[0], starts.shape[1:]
    lo, hi = (np.broadcast_to(bound, shape).ravel() for bound in (box.lo, box.hi))
    U = np.clip(starts.reshape(b, -1), lo, hi)
    k = U.shape[1]
    value, sweep = _evaluate(f, X0, U.reshape(starts.shape), weights)
    errors: list[SolverError | None] = [
        None if np.isfinite(v) else SolverError(f"initial cost is not finite ({v}) at the start sequence")
        for v in value
    ]
    outputs = np.empty_like(sweep.outputs)
    iterations = np.zeros(b, dtype=int)
    grad_norm, decrease = np.full(b, np.inf), np.full(b, np.inf)
    converged = np.zeros(b, dtype=bool)
    live = np.flatnonzero(np.isfinite(value))
    r = live.size
    rows = _Rows(
        live, X0[live], U[live], value[live], np.tile(np.eye(k), (r, 1, 1)), np.ones(r),
        np.ones(r, dtype=bool), np.zeros((r, k)), np.zeros((r, k)), np.full(r, np.inf), np.full(r, np.inf),
        sweep[live],
    )

    def leave(out, count, conv):
        nonlocal rows
        idx = rows.index[out]
        U[idx], value[idx], iterations[idx], converged[idx] = rows.u[out], rows.value[out], count, conv
        outputs[idx] = rows.sweep.outputs[out]
        grad_norm[idx], decrease[idx] = rows.norm[out], rows.decrease[out]
        rows = rows.take(~out)
        return ~out

    for rnd in range(cfg.solver.max_iters):
        if not rows.index.size:
            break
        seqs = rows.u.reshape(-1, *shape)
        g = backward_sweep(f.dims, rows.sweep, seqs, weights).reshape(-1, k)
        finite = np.isfinite(g).all(axis=1)
        if not finite.all():
            for i in rows.index[~finite]:
                errors[i] = SolverError("gradient is not finite at the current iterate")
            g = g[leave(~finite, rnd, False)]
        if rnd:
            _bfgs_update(rows, g - rows.grad)
        u = rows.u
        pg = u - np.clip(u - g, lo, hi)
        rows.norm = np.sqrt(_rowdot(pg, pg))
        eps = np.minimum(rows.norm, ACTIVE_WIDTH)[:, None]
        active = ((u <= lo + eps) & (g > 0)) | ((u >= hi - eps) & (g < 0))
        pair = ~active[:, :, None] & ~active[:, None, :]
        d = _matvec(np.where(pair, rows.hess, 0.0), g)
        slope = _rowdot(g, d)
        reset = ~(slope > 0) & np.any(~active & (g != 0), axis=1)
        if reset.any():
            rows.hess[reset] = rows.scale[reset, None, None] * np.eye(k)
            d[reset] = _matvec(np.where(pair[reset], rows.hess[reset], 0.0), g[reset])
            slope[reset] = _rowdot(g[reset], d[reset])
        d = np.where(active, g, d)
        g_active = np.where(active, g, 0.0)
        rows.decrease = slope + _rowdot(g_active, u - np.clip(u - d, lo, hi))
        stop = (rows.norm <= GRAD_TOL) | (rows.decrease <= NOISE_FLOOR * np.abs(rows.value))
        if stop.any():
            keep = leave(stop, rnd, True)
            g, d, slope, g_active = g[keep], d[keep], slope[keep], g_active[keep]
        before = rows.u.copy()
        accepted = _armijo_search(f, rows, d, slope, g_active, lo, hi, shape, cfg)
        rows.step, rows.grad = rows.u - before, g
        if not accepted.all():
            leave(~accepted, rnd + 1, False)
    leave(np.ones(rows.index.size, dtype=bool), cfg.solver.max_iters, False)
    return U.reshape(starts.shape), outputs, value, iterations, grad_norm, decrease, converged, errors


def _bfgs_update(rows: _Rows, y: np.ndarray) -> None:
    """Inverse BFGS update of every row whose pair ``(rows.step, y)`` has
    positive curvature ``s.y``; the first such pair of a row scales its
    identity by ``s.y / y.y`` before the update."""
    s = rows.step
    sy = _rowdot(s, y)
    ok = sy > 0
    if not ok.any():
        return
    s, y, sy = s[ok], y[ok], sy[ok]
    scale = sy / _rowdot(y, y)
    hess = rows.hess[ok]
    fresh = rows.fresh[ok]
    hess[fresh] = scale[fresh, None, None] * np.eye(s.shape[1])
    rho = 1.0 / sy
    hy = _matvec(hess, y)
    s_hy = s[:, :, None] * hy[:, None, :]
    curvature = rho * rho * _rowdot(y, hy) + rho
    rows.hess[ok] = (
        hess
        - rho[:, None, None] * (s_hy + s_hy.transpose(0, 2, 1))
        + curvature[:, None, None] * (s[:, :, None] * s[:, None, :])
    )
    rows.scale[ok], rows.fresh[ok] = scale, False


def _armijo_search(f, rows: _Rows, d, slope, g_active, lo, hi, shape, cfg: MpcConfig) -> np.ndarray:
    """Armijo backtracking along the projection arc ``P(u - t d)`` from
    ``t = 1``, batched over the rows still searching.

    A candidate is accepted when its cost is at most the current value
    minus ``ARMIJO * (t * slope + g_active . (u - P(u - t d)))``, the
    sufficient-decrease test of the two-metric step: ``slope`` is ``g.d``
    over the free coordinates and ``g_active`` the gradient on the active
    ones.  Every row still searching has been rejected equally often, so
    one step length ``t`` serves them all.  Accepted candidates overwrite
    their rows of ``rows.u``, ``rows.value`` and ``rows.sweep``.  Returns
    the mask of rows that accepted a step.
    """
    accepted = np.zeros(rows.value.size, dtype=bool)
    todo = np.arange(rows.value.size)
    t = 1.0
    while todo.size and t >= 1e-18:
        u = rows.u[todo]
        cand = np.clip(u - t * d[todo], lo, hi)
        cand_value, sweep = _evaluate(f, rows.x[todo], cand.reshape(-1, *shape), cfg.weights)
        sufficient = ARMIJO * (t * slope[todo] + _rowdot(g_active[todo], u - cand))
        ok = np.isfinite(cand_value) & (cand_value <= rows.value[todo] - sufficient)
        hit = todo[ok]
        rows.u[hit], rows.value[hit], rows.sweep[hit] = cand[ok], cand_value[ok], sweep[ok]
        accepted[hit] = True
        todo = todo[~ok]
        t *= SHRINK
    return accepted


def solve_ocp_batch(
    f: NarxDynamics,
    X0: np.ndarray,
    cfg: MpcConfig,
    warm: np.ndarray | None = None,
) -> list[OcpSolution | SolverError]:
    """Solve the box-constrained open-loop problems from the rows of ``X0`` (B, n).

    All problems descend in lockstep by the two-metric projected
    quasi-Newton method of :func:`_lockstep_descent`, each row with its
    own BFGS matrix, line search and stopping tests, from its warm
    sequence ``warm[i]`` (B, N, m) projected onto the box, or from zeros.
    The costs of the starts and of the line-search trials of the rows
    still searching are one :meth:`~narxmpc.narx.NarxDynamics.sweep` call
    each, and the gradients of the active rows one :func:`backward_sweep`
    call over the sweeps of their accepted iterates; a solution's
    ``outputs`` come from the kept sweep of its ``u_star``.  Row ``i`` of
    the result is what the batch of one ``X0[i]``, ``warm[i]`` gives, bit
    for bit: its solution, or the :class:`SolverError` that stopped it.
    A solution is ``converged`` when it met the gradient test or the
    noise-floor test; otherwise it stopped at ``max_iters`` or at a line
    search that found no decrease.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    shape = (X0.shape[0], cfg.horizon, cfg.dims.m)
    starts = np.zeros(shape) if warm is None else np.asarray(warm, dtype=float).reshape(shape)
    U, outputs, value, iterations, grad_norm, decrease, converged, errors = _lockstep_descent(f, X0, starts, cfg)
    return [
        error
        if error is not None
        else OcpSolution(
            u_star=U[i],
            outputs=outputs[i],
            value=float(value[i]),
            iterations=int(iterations[i]),
            grad_norm=float(grad_norm[i]),
            predicted_decrease=float(decrease[i]),
            converged=bool(converged[i]),
        )
        for i, error in enumerate(errors)
    ]


def solve_ocp(
    f: NarxDynamics,
    x0: np.ndarray,
    cfg: MpcConfig,
    warm: np.ndarray | None = None,
) -> OcpSolution:
    """Solve the box-constrained open-loop problem from the regressor ``x0`` (n,).

    The batch of one of :func:`solve_ocp_batch`, started from the warm
    sequence ``warm`` (N, m) projected onto the box, or from zeros.
    Raises the row's :class:`SolverError`.
    """
    if warm is not None:
        warm = np.asarray(warm, dtype=float)[None]
    result = solve_ocp_batch(f, np.asarray(x0, dtype=float)[None], cfg, warm)[0]
    if isinstance(result, SolverError):
        raise result
    return result


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
    plant,
    surrogate: NarxDynamics,
    cfg: MpcConfig,
    x0: np.ndarray,
    steps: int,
    storage_matrix: np.ndarray | None = None,
    normalization=None,
) -> ClosedLoopTrace:
    """Receding-horizon control of ``plant`` using ``surrogate`` predictions.

    Each step solves the open-loop problem at the measured regressor,
    applies the first input to the plant through ``plant.output(x, u)``
    (normalized coordinates, as :class:`~narxmpc.twotank.TwoTankPlant`
    or any :class:`NarxDynamics` takes them), measures the next output
    and shifts the regressor.  One extra diagnostic solve evaluates the
    optimal value at the final state so that decrease checks can cover
    every applied step.  Its entry ends every per-state array, so they
    all hold ``states.shape[0]`` values; without that solve (no step
    requested, a failed step or a failed diagnostic solve) the entry is
    a NaN value and gradient norm, zero iterations and not converged.

    ``storage_matrix`` (n, n), when given, adds the storage values and
    the candidate Lyapunov values (optimal value plus storage) to the
    trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    dims = cfg.dims
    states = np.empty((steps + 1, dims.n))
    states[0] = np.asarray(x0, dtype=float).reshape(dims.n)
    inputs = np.empty((steps, dims.m))
    outputs = np.empty((steps, dims.p))
    stage_costs = np.empty(steps)
    values = np.full(steps + 1, np.nan)
    grad_norms = np.full(steps + 1, np.nan)
    iterations = np.zeros(steps + 1, dtype=int)
    converged = np.zeros(steps + 1, dtype=bool)
    failed_step = failure = warm = None
    # Pass k solves at x(k); the pass at k == steps is the terminal
    # diagnostic solve and applies no input.
    for k in range(steps + 1 if steps else 0):
        try:
            sol = solve_ocp(surrogate, states[k], cfg, warm=warm)
        except SolverError as exc:
            if k < steps:
                failed_step, failure = k, str(exc)
            else:
                failure = f"terminal diagnostic solve failed: {exc}"
            break
        if k < steps:
            u0 = sol.u_star[0]
            try:
                y_next = plant.output(states[k], u0)
            except (ValueError, FloatingPointError) as exc:
                failed_step, failure = k, f"plant rejected the applied input: {exc}"
                break
            states[k + 1] = shift_state(states[k], y_next, u0, dims)
            inputs[k], outputs[k] = u0, y_next
            stage_costs[k] = stage_cost(y_next, u0, cfg.weights)
            warm = np.vstack([sol.u_star[1:], np.zeros((1, dims.m))])
        values[k], grad_norms[k] = sol.value, sol.grad_norm
        iterations[k], converged[k] = sol.iterations, sol.converged
    applied = steps if failed_step is None else failed_step
    trace = ClosedLoopTrace(
        states=states[: applied + 1],
        inputs=inputs[:applied],
        outputs=outputs[:applied],
        values=values[: applied + 1],
        stage_costs=stage_costs[:applied],
        grad_norms=grad_norms[: applied + 1],
        iterations=iterations[: applied + 1],
        converged=converged[: applied + 1],
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
