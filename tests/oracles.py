"""Independent oracles that the tests check the package against.

None of these run in a pipeline stage: each recomputes a quantity the
package forms some other way, samples inputs for a structural check,
wraps a plain callable as dynamics for a test problem, gives a test
problem the coordinates of its raw units, or, as :func:`quiet`, takes a
run's progress messages and tells none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from narxmpc import (
    AffineNormalization,
    BenchmarkConfig,
    Box,
    NarxDims,
    NarxDynamics,
    StageCostWeights,
    shift_state,
    stage_cost,
)
from narxmpc import twotank
from narxmpc.mpc import _derivatives, _layout
from narxmpc.narx import Sweep, rollout_arrays
from narxmpc.stability import StorageMatrix, storage_value


def identity_normalization(dims: NarxDims) -> AffineNormalization:
    """The normalization of a test problem of ``dims`` whose raw units are
    its working coordinates: zero references and unit scales."""
    return AffineNormalization(np.zeros(dims.p), np.ones(dims.p), np.zeros(dims.m), np.ones(dims.m))


def quiet(message: str) -> None:
    """The ``progress`` callback of a library benchmark run that prints nothing."""


class FunctionDynamics(NarxDynamics):
    """Wrap a plain callable ``f(x, u) -> y_next`` as :class:`NarxDynamics`.

    ``jacobian_fn(x, u)`` returns the output Jacobians ``(dy/dx, dy/du)``,
    which :meth:`sweep` joins into site Jacobians, row by row and step by
    step; dynamics built without it serve as plants and truths, which are
    only evaluated.
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
        sweep = Sweep(np.empty((b, horizon, dims.p)), np.empty((b, horizon, dims.p, dims.n + dims.m)))
        X = X0
        for k in range(horizon):
            for i in range(b):
                sweep.outputs[i, k] = self._call(X[i], U[i, k])
                sweep.jac[i, k] = np.hstack(self._jacobian_fn(X[i], U[i, k]))
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
    sweep = Sweep(np.empty((b, horizon, dims.p)), np.empty((b, horizon, dims.p, dims.n + dims.m)))
    X = np.asarray(X0, dtype=float)
    for k in range(horizon):
        sweep[:, k : k + 1] = f.sweep(X, U[:, k : k + 1])
        X = shift_state(X, sweep.outputs[:, k], U[:, k], dims)
    return sweep


def one_step_sweep(f: NarxDynamics, Xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (B, p) and site Jacobians (B, p, n + m) of the one-step
    :meth:`~NarxDynamics.sweep` at the site rows ``Xi`` (B, n + m), which
    split into regressor and input at ``f.dims.n``."""
    n = f.dims.n
    sweep = f.sweep(Xi[:, :n], Xi[:, None, n:])
    return sweep.outputs[:, 0], sweep.jac[:, 0]


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
    """Cost gradients (B, N, m) of ``U`` (B, N, m) from ``X0`` (B, n): the
    gradients of :func:`~narxmpc.mpc._derivatives` on a fresh
    :meth:`~NarxDynamics.sweep`, which the solver runs apart."""
    X0, U = np.asarray(X0, dtype=float), np.asarray(U, dtype=float)
    eye = np.eye(U.shape[1])
    q_bar, r_bar = np.kron(eye, weights.Q), np.kron(eye, weights.R)
    return _derivatives(_layout(f.dims, U.shape[1]), f.sweep(X0, U), U.reshape(U.shape[0], -1), q_bar, r_bar)[0].reshape(U.shape)


def backward_sweep_reference(
    dims: NarxDims, sweep, U: np.ndarray, weights: StageCostWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Cost gradients (B, N, m) by the per-step adjoint recursion in long
    double, with the same recursion run on the absolute values of every
    weight, output, input and Jacobian entry.

    Step by step from the last, the output adjoint is the regressor
    adjoint's output block plus ``2 Q y_k``, the input gradient is
    ``2 R u_k`` plus ``J_u,k^T`` times it plus the regressor adjoint's
    newest input block, and the regressor adjoint before step ``k`` is
    ``J_x,k^T`` times it plus the shifted older blocks.  Returns the
    gradients and the magnitudes, the second recursion, that a forward
    error bound of the gradients of :func:`~narxmpc.mpc._derivatives` is
    relative to.
    """
    p, m, nb, n = dims.p, dims.m, dims.n_outputs_block, dims.n
    results = []
    for magnitude in (False, True):
        cast = (lambda a: np.abs(np.asarray(a, dtype=np.longdouble))) if magnitude else (
            lambda a: np.asarray(a, dtype=np.longdouble)
        )
        Q, R, y, u = cast(weights.Q), cast(weights.R), cast(sweep.outputs), cast(U)
        jac = cast(sweep.jac)
        jac_x, jac_u = jac[..., :n], jac[..., n:]
        grad = np.empty(u.shape, dtype=np.longdouble)
        lam = np.zeros((u.shape[0], n), dtype=np.longdouble)
        for k in reversed(range(u.shape[1])):
            lam_y = lam[:, :p] + 2 * np.einsum("ij,bj->bi", Q, y[:, k])
            grad[:, k] = 2 * np.einsum("ij,bj->bi", R, u[:, k]) + np.einsum("bij,bi->bj", jac_u[:, k], lam_y)
            if dims.nu > 1:
                grad[:, k] += lam[:, nb : nb + m]
            new_lam = np.einsum("bij,bi->bj", jac_x[:, k], lam_y)
            if dims.nu > 1:
                new_lam[:, : nb - p] += lam[:, p:nb]
                if dims.nu > 2:
                    new_lam[:, nb : nb + (dims.nu - 2) * m] += lam[:, nb + m :]
            lam = new_lam
        results.append(grad)
    return results[0], results[1]


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


def kernel_value_reference(model, Xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values (B, p) of a kernel interpolant at site rows ``Xi`` in
    ``np.longdouble``, ``sum_i c_i phi(r_i)`` with the exact profile
    ``phi(r) = (1 - r)^5 (5 r + 1) / 30``, and the forward-error bound
    (B, p) that the package's value pass must keep to.

    The radii are the doubles of the package's distance pass, clipped at
    1, so the bound covers the rounding of the value pass alone:
    ``gamma_{D+13} sum_i |c_i| phi(r_i)`` with ``gamma_k = k u / (1 - k u)``
    and ``u = 2^-53``.  The package weights ``6 phi(r) = (1 - r)^5 (r + 1/5)``
    by ``c_i / 6``, and each term carries 13 roundings: the one in
    ``1 - r`` five times over, since that factor enters to the fifth
    power, the one in its square twice, one each in the fourth and the
    fifth power, two in ``r + 0.2`` (the double nearest 1/5 and the sum,
    each relative to ``r + 1/5`` since ``r >= 0``), one in the product of
    the two factors and one in the weight ``c_i / 6``.  D more come from
    the dot product.  Rows outside every support have the bound and the
    value zero.  The reference's own rounding, at the longdouble unit, is
    far below the bound.
    """
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    sites, coefficients = model.data.sites, model.coefficients
    wide = np.longdouble
    r = np.minimum(cdist(Xi, sites) / model.spec.lengthscale, 1.0).astype(wide)
    phi = (1 - r) ** 5 * (5 * r + 1) / 30
    reference = phi @ coefficients.astype(wide)
    k = sites.shape[0] + 13
    gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    return reference, gamma * (phi @ np.abs(coefficients).astype(wide))


def kernel_jacobian_reference(model, Xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian (B, p, n + m) of a kernel interpolant at site rows ``Xi``
    in ``np.longdouble``, from the difference form
    ``sum_i f_i c_i (s_i - xi)^T / sigma^2``, and the forward-error bound
    (B, p, n + m) that the package's expanded form
    ``[sum_i f_i c_i s_i^T - (sum_i f_i c_i) xi^T] / sigma^2`` must keep to.

    The ``f_i = (1 - r_i)^4`` are the doubles of the package's value pass
    (the bits of :func:`wendland_reference`), so the bound covers the
    rounding of the Jacobian pass alone: ``gamma_{D+4} sum_i |c_i| f_i
    (|s_i| + |xi|) / sigma^2`` with ``gamma_k = k u / (1 - k u)`` and
    ``u = 2^-53`` (three roundings in each weight ``c_i s_i / sigma^2``,
    D in the dot product, one each in the correction ``- b xi^T``).  The
    reference's own rounding, at the longdouble unit, is far below it.
    """
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    sites, coefficients = model.data.sites, model.coefficients
    sigma = model.spec.lengthscale
    _, fourth = wendland_reference(cdist(Xi, sites) / sigma)
    wide = np.longdouble
    diffs = sites.astype(wide) - Xi.astype(wide)[:, None, :]
    reference = np.einsum("bi,ij,bik->bjk", fourth.astype(wide), coefficients.astype(wide), diffs)
    reference /= wide(sigma) ** 2
    k = sites.shape[0] + 4
    gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    magnitude = np.abs(sites)[None] + np.abs(Xi)[:, None, :]
    bound = gamma * np.einsum("bi,ij,bik->bjk", fourth, np.abs(coefficients), magnitude) / sigma**2
    return reference, bound


def two_tank_rhs(h1, h2, u):
    """Continuous-time level derivatives ``(dh1, dh2)`` of the two-tank
    plant, written out per level; all arguments broadcast.  The reference
    that the package's stacked step (:func:`~narxmpc.twotank._rates`, one
    root pass for both levels) is checked against: ``sqrt`` of a head
    clips rounding noise below zero (down to -1e-12) and gives NaN beyond
    it, so ``dh1`` is NaN for a negative lower level and both are NaN for
    an inverted pair, without a floating-point warning."""

    def root(z):
        return np.sqrt(np.where(z >= -1e-12, np.maximum(z, 0.0), np.nan))

    h1 = np.asarray(h1, dtype=float)
    q12 = twotank.C12 * root(np.asarray(h2, dtype=float) - h1)
    q2 = twotank.C2 * root(h1)
    return q12 - q2, np.asarray(u, dtype=float) / twotank.A1 - q12


def bisected_upper_level(y_prev, y_cur, u_prev, dt: float):
    """The previous upper level of the hidden-level recovery by 54
    halvings of the bracket ``[y_prev, HIDDEN_LEVEL_MAX]``, the reference
    that the package's bracketed secant search
    (:func:`~narxmpc.twotank._previous_upper_level`) is checked against;
    the record's arrays have one shape, and ``dt`` is the sampling interval.

    Each halving probes the single Runge-Kutta step from ``(y_prev,
    mid)`` and keeps the half where it crosses ``y_cur``, a failed
    (NaN) probe counting as an undershoot; the root is the midpoint of
    the last bracket.  A row clamps at ``HIDDEN_LEVEL_MAX`` when the
    total step from there does not overshoot ``y_cur``, and else at
    ``y_prev`` when the total step from equal levels does not undershoot
    it.  Raises :class:`~narxmpc.twotank.DomainError` when a total step
    at a bracket end stays invalid down to the finest substep.
    """
    lo = y_prev.astype(float).copy()
    hi = np.full_like(lo, twotank.HIDDEN_LEVEL_MAX)
    g_lo = twotank._total_step(y_prev, lo, u_prev, dt)[0].reshape(lo.shape)
    g_hi = twotank._total_step(y_prev, hi, u_prev, dt)[0].reshape(hi.shape)
    levels, work = np.stack([y_prev, lo]), twotank._work(u_prev / twotank.A1)
    for _ in range(54):
        mid = levels[1] = 0.5 * (lo + hi)
        go_down = twotank._rk4(levels, work, dt, False)[0] > y_cur
        hi = np.where(go_down, mid, hi)
        lo = np.where(go_down, lo, mid)
    h2_before = 0.5 * (lo + hi)
    h2_before = np.where(g_lo >= y_cur, y_prev, h2_before)
    return np.where(g_hi <= y_cur, twotank.HIDDEN_LEVEL_MAX, h2_before)


def rk4_step(rhs, state, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``d state / dt = rhs(state, u)``.

    ``state`` is an array whose last axis holds the state components; the
    input is held constant across the four stages.  A failing stage
    re-raises with the stage index attached.  The generic form of
    :func:`~narxmpc.twotank.two_tank_step`.
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


def error_constants_by_candidate(residual, x_norm, u_norm) -> tuple[float, float]:
    """The ``(c_x, c_u)`` of ``kernels._constants_from`` by one pass per
    candidate ``c_u``, keeping the first candidate of least ``c_x + c_u``;
    raises its ``ValueError`` messages."""
    at_origin = (x_norm <= 1e-8) & (u_norm <= 1e-8)
    if np.any(residual[at_origin] > 1e-10):
        worst = float(np.max(residual[at_origin]))
        raise ValueError(
            f"equilibrium mismatch: residual {worst:.3e} at a zero sample; "
            "no proportional error bound exists"
        )
    live = ~at_origin
    residual_l, x_l, u_l = residual[live], x_norm[live], u_norm[live]
    hi = max(float(np.max(residual_l / np.maximum(u_l, 1e-12))), 1e-12)
    best = None
    for cu in np.concatenate([[0.0], np.geomspace(hi * 1e-8, hi, 64)]):
        leftover = residual_l - cu * u_l
        if np.any((x_l <= 1e-8) & (leftover > 1e-10)):
            continue
        moving = x_l > 1e-8
        cx = max(float(np.max(leftover[moving] / x_l[moving], initial=0.0)), 0.0)
        if best is None or cx + cu < best[0] + best[1]:
            best = (cx, float(cu))
    if best is None:
        raise ValueError(
            "no (c_x, c_u) pair covers the sampled residuals; samples with "
            "vanishing state have residuals exceeding every input bound"
        )
    return best
