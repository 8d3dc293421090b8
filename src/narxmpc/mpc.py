"""Finite-horizon optimal control on NARX dynamics, without terminal conditions.

The cost penalizes the predicted outputs one step ahead of each applied
input, ``sum_k ||y(k+1)||_Q^2 + ||u(k)||_R^2``, subject only to a box on
the inputs.  Open-loop problems are solved by a two-metric projected
structured quasi-Newton method (Bertsekas, SIAM J. Control Optim. 1982;
Dennis, Gay and Welsch, ACM TOMS 1981): gradient steps on the
coordinates held at a bound, Newton steps of a Hessian model on the free
ones, and Armijo backtracking along the projection arc.  The model is
the exact Gauss-Newton Hessian of the least-squares cost, from the
Jacobians of the iterate's sweep, plus a secant correction that each
solve learns from its own steps, starting from zero or from a given
warm start.  A solve stops when its projected gradient is small or when
the full step promises a decrease below the cost's rounding level.  The
solver asks one thing of a model, its N-step
:meth:`~narxmpc.narx.NarxDynamics.sweep`, which yields the outputs and
each step's site Jacobian, with respect to the whole site ``[x; u]``,
together (the kernel surrogate computes the values step by step and the
Jacobians of many steps in one batched pass: one product of the kept
``(1 - r)^4`` with its coefficient-weighted sites, then a rank-one
correction).  Each cost is
one forward sweep; the sweep of an accepted iterate is kept, and
:func:`_derivatives` takes its gradient and Gauss-Newton Hessian from
it together: the output sensitivities of a sequential program solve one
unit lower-triangular system, banded by the lag depth.  One cached
table, :func:`_layout`, says which site-Jacobian entry, negated entry
or zero each entry of that system's band and input matrix takes, so
both fill by one gather; one LAPACK banded solve serves all rows, and the
gradient and the Hessian are stacked products of those sensitivities
after it.  A solution returns the outputs of its kept sweep as
:attr:`OcpSolution.outputs`, so no caller rolls its inputs out again,
and counts its rejected line-search trials.  Many problems are solved in
lockstep, each row with its own Hessian model, line search and stopping
tests, and every row reproduces its solo solve bit for bit.  The
receding-horizon loop applies the first input of each solution and
warm-starts the next solve with the shifted remainder of its inputs and
of its final secant correction, the shift initialization of real-time
MPC (Diehl, Bock and Schlöder, SIAM J. Control Optim. 2005): each solve
starts from the curvature its predecessor learned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv
from scipy.linalg.lapack import dtbtrs

from .narx import Box, NarxDims, NarxDynamics, Sweep, shift_state


class SolverError(RuntimeError):
    """The optimal-control solver hit a non-finite cost, gradient or
    Gauss-Newton Hessian."""


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


def _quadratic(v: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``v^T W v`` over the last axis of ``v``, summed term by term in
    row-major ``(i, j)`` order, so every row sums in the same order at any
    batch shape."""
    if v.shape[-1:] != W.shape[:1]:
        raise ValueError(f"weight of shape {W.shape} for vectors of shape {v.shape}")
    # The sum starts at its first term, not at 0: that term is diagonal, so
    # with W[0, 0] > 0 it is never -0.0, which 0 + t would turn into +0.0.
    total = v[..., 0] * W[0, 0] * v[..., 0]
    for term in range(1, W.size):
        i, j = divmod(term, W.shape[0])
        total += v[..., i] * W[i, j] * v[..., j]
    return total


def _stage_costs(y: np.ndarray, u: np.ndarray, weights: StageCostWeights) -> np.ndarray:
    """:func:`stage_cost` of float arrays, in the caller's error state."""
    return _quadratic(y, weights.Q) + _quadratic(u, weights.R)


@np.errstate(over="ignore", invalid="ignore")
def stage_cost(y: np.ndarray, u: np.ndarray, weights: StageCostWeights):
    """Quadratic stage cost ``y^T Q y + u^T R u``, batched over leading
    axes; each entry equals its batch of one bit for bit, and overflows to
    inf without a warning."""
    return _stage_costs(np.asarray(y, dtype=float), np.asarray(u, dtype=float), weights)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap of the two-metric projected structured quasi-Newton
    solver (:func:`solve_ocp_batch`).

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

    @cached_property
    def horizon_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``Qb`` and ``Rb``, the block diagonals of ``Q`` and ``R`` over
        the horizon, and the identity of the flattened inputs; built once
        per configuration and read-only."""
        eye = np.eye(self.horizon)
        blocks = (np.kron(eye, self.weights.Q), np.kron(eye, self.weights.R), np.eye(self.horizon * self.dims.m))
        for block in blocks:
            block.flags.writeable = False
        return blocks

    @cached_property
    def _input_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The input box over the flattened horizon, one (1, N m) row; read-only."""
        bounds = np.tile(self.input_box.lo, (1, self.horizon)), np.tile(self.input_box.hi, (1, self.horizon))
        for bound in bounds:
            bound.flags.writeable = False
        return bounds


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked products ``A[b] @ v[b]``; each row equals its 2-D product bit
    for bit, which a single (B, k) @ (k, p) product does not."""
    return np.matmul(A, v[..., None])[..., 0]


@dataclass
class OcpSolution:
    """Solver result for one open-loop problem.

    ``grad_norm`` is the norm of the unit-step projected gradient
    mapping, the solver's stationarity measure, and
    ``predicted_decrease`` the cost decrease the full two-metric step
    promised, both at the last iterate the stopping tests checked (the
    iterate before the last step for a solve stopped at the iteration
    cap).  A solve that the gradient test stops forms no step, so its
    ``predicted_decrease`` is NaN.  ``outputs`` (N, p) are the predicted
    outputs of ``u_star``: those of the forward sweep that gave ``value``,
    kept by the solver.
    ``secant`` (N m, N m) is the secant part ``A`` of the solve's final
    Hessian model, which can warm-start a later solve.
    ``backtracks`` counts the line-search trials the solve rejected.
    """

    u_star: np.ndarray
    outputs: np.ndarray
    secant: np.ndarray
    value: float
    iterations: int
    backtracks: int
    grad_norm: float
    predicted_decrease: float
    converged: bool


#: Cap on the bound distance at which a coordinate counts as active: a
#: coordinate within ``min(||pg||, ACTIVE_WIDTH)`` of a bound whose
#: gradient points out of the box takes a plain gradient step.
ACTIVE_WIDTH = np.array(1e-3)

#: Relative cost level below which a predicted decrease is rounding
#: noise.  A solve whose full step promises at most ``NOISE_FLOOR * |J|``
#: has converged: the kernel costs carry errors of about this size, and
#: smaller accepted steps leave the value unchanged.
NOISE_FLOOR = np.array(1e-13)

#: Projected-gradient norm at or below which a solve has converged.
GRAD_TOL = np.array(1e-8)

#: Sufficient-decrease constant of the Armijo line search.
ARMIJO = np.array(1e-4)

#: Backtracking factor of the line search, which starts at the unit
#: quasi-Newton step.
SHRINK = 0.5

#: Zero and two as 0-d arrays, like the constants above: a ufunc takes them without converting a float.
_ZERO, _TWO = np.array(0.0), np.array(2.0)


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite, by a count that costs less than ``.all()``."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _project(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``x`` clipped to the box ``[lo, hi]`` by two ufunc calls: the bits of
    ``np.clip`` for every box with ``lo < 0 < hi``; at a zero bound, a
    zero may come out with the other sign (seen only for one coordinate)."""
    return np.minimum(np.maximum(x, lo), hi)


@dataclass
class _Rows:
    """State of the rows still descending, one entry per row."""

    index: np.ndarray  # row of the batch
    x: np.ndarray  # initial regressors (r, n)
    u: np.ndarray  # iterates, flattened (r, k)
    value: np.ndarray  # costs at u
    secant: np.ndarray  # secant parts A of the Hessian models (r, k, k)
    step: np.ndarray  # last accepted step s (r, k)
    grad: np.ndarray  # gradient before that step (r, k)
    norm: np.ndarray  # projected-gradient norms of the current round
    decrease: np.ndarray  # predicted decreases of the current round
    backtracks: np.ndarray  # rejected line-search trials so far
    sweep: Sweep  # forward sweep at u

    def take(self, keep: np.ndarray) -> "_Rows":
        # Positions, not the mask, index the fields: a mask is counted anew for each.
        keep = np.flatnonzero(keep)
        return _Rows(*(getattr(self, name)[keep] for name in self.__dataclass_fields__))


def _evaluate(f: NarxDynamics, X: np.ndarray, U: np.ndarray, weights: StageCostWeights):
    """Costs of the rows ``U`` (r, N, m) from ``X`` (r, n), with the forward
    sweep that gave them."""
    sweep = f.sweep(X, U)
    return np.add.reduce(_stage_costs(sweep.outputs, U, weights), axis=1), sweep


@lru_cache(maxsize=64)
def _layout(dims: NarxDims, horizon: int) -> tuple[np.ndarray, int, int]:
    """Where the site Jacobians of an N-step sweep go in its linearization
    ``L dY = M dU``, and the band's width.  The table gathers from a row's
    sources in :func:`_derivatives` (its flat ``jac`` of ``J`` entries,
    their negations, then a zero): its first part, of the returned
    length, lists one row's band storage of ``L^T`` and the rest ``M^T``
    over the padded unknowns.  An output's unknown takes the regressor
    columns of the ``nu`` outputs before it into ``L``, and its site's
    input column and input-lag columns into ``M``."""
    p, m, n, nb = dims.p, dims.m, dims.n, dims.n_outputs_block
    width = (dims.nu + 1) * p - 1
    zero = 2 * horizon * p * (n + m)
    band = np.full((width + horizon * p) * (width + 1), zero)
    inputs = np.full((horizon * m, width + horizon * p), zero)
    for k in range(horizon):
        for c in range(p):
            unknown, source = width + k * p + c, (k * p + c) * (n + m)
            for lag in range(1, min(dims.nu, k) + 1):
                first = unknown * (width + 1) + width - lag * p - c
                band[first : first + p] = zero // 2 + source + (lag - 1) * p + np.arange(p)
            for back in range(min(dims.nu, k + 1)):
                column = source + (nb + (back - 1) * m if back else n)
                inputs[(k - back) * m : (k - back + 1) * m, unknown] = column + np.arange(m)
    table = np.concatenate((band, inputs.ravel()))
    table.flags.writeable = False  # shared by every caller through the cache
    return table, band.size, width


def _derivatives(
    layout: tuple[np.ndarray, int, int], sweep: Sweep, u: np.ndarray, q_bar: np.ndarray, r_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cost gradients ``2 (G^T Qb y + Rb u)`` (B, N m) and Gauss-Newton
    Hessians ``2 (G^T Qb G + Rb)`` (B, N m, N m) at the flattened inputs
    ``u`` (B, N m) of ``sweep``, whose outputs are ``y``, with ``Qb =
    q_bar`` and ``Rb = r_bar`` the block diagonals of ``Q`` and ``R`` over
    the horizon.  For a model affine in its regressor and input the
    Hessian is the exact Hessian of the cost.

    ``G = L^-1 M`` (B, N p, N m) is the output sensitivity of the sweep:
    the sweep's linearization is ``L dY = M dU``, with ``L`` unit lower
    triangular and banded by the lag depth and ``M`` the input columns of
    the site Jacobians ``sweep.jac``.  The adjoint gradient ``2 Rb u + M^T
    lam`` with ``L^T lam = 2 Qb y`` (Griewank and Walther, *Evaluating
    Derivatives*, SIAM 2008, ch. 9) is the same vector, so ``Qb G`` serves
    both outputs and the gradient costs one stacked product more than the
    Hessian.

    The systems of all rows are stacked into one banded system in band
    storage (B, width + N p, width + 1) with ``width = (nu + 1) p - 1``
    superdiagonals: ``band[i, j, width + r - j]`` is the entry ``(r, j)``
    of row i's ``L^T``, the C-ordered transpose of BLAS band storage.
    Each row's sources are its Jacobian entries, their negations and a
    zero; one gather from ``layout``, the table that :func:`_layout` gives
    for the sweep's dimensions and horizon (a solve resolves it once),
    fills the band and ``M``, zeros included.  One LAPACK
    ``tbtrs`` solves the system, one forward substitution per column of
    ``M``.  Each row's block starts with ``width`` zero padding unknowns,
    so the band reaches the block before it only through zero entries:
    the padding unknowns keep the value +0, which changes no bit of the
    unknowns after them.  The products after the solve are stacked per
    row, so every finite row equals its batch of one bit for bit.  A
    non-finite sensitivity spreads NaN into the rows after it through
    those zero entries; in a batch of more than one row, every row with a
    non-finite entry is therefore solved again on its own.
    """
    b, k = u.shape
    table, entries, width = layout
    jac = sweep.jac.reshape(b, -1)
    gathered = np.concatenate((jac, -jac, np.zeros((b, 1))), axis=1).take(table, axis=1)
    band = gathered[:, :entries].reshape(-1, width + 1)
    # rhs[i, j, width + r] is the entry (r, j) of row i's M; the stacked
    # system takes its column-major right-hand sides (k, b, size).
    rhs = gathered[:, entries:].reshape(b, k, -1)
    # Flags by position (uplo, trans, diag, overwrite_b), which the wrapper parses faster.
    G = dtbtrs(band.T, rhs.transpose(1, 0, 2).reshape(k, -1).T, "U", "T", "U", 1)[0]
    G = G.T.reshape(k, b, -1)
    if b > 1 and not _finite(G):
        for i in np.flatnonzero(~np.isfinite(G).all(axis=(0, 2))):
            G[:, i] = dtbtrs(band.reshape(b, -1, width + 1)[i].T, rhs[i].T, trans="T", diag="U")[0].T
    # C-ordered rows, whose products do not depend on the batch size.
    G = np.ascontiguousarray(G[:, :, width:].transpose(1, 2, 0))
    qg = np.matmul(q_bar, G)
    grad = np.matmul(qg.transpose(0, 2, 1), sweep.outputs.reshape(b, -1)[..., None]) + np.matmul(r_bar, u[..., None])
    return (_TWO * grad)[..., 0], _TWO * (np.matmul(G.transpose(0, 2, 1), qg) + r_bar)


def _secant_update(rows: _Rows, gn: np.ndarray, y: np.ndarray) -> None:
    """Structured BFGS update (Dennis, Gay and Welsch, ACM TOMS 1981) of
    the secant parts ``rows.secant``: with ``B = gn + A``, every row whose
    pair ``(s, y) = (rows.step, y)`` has ``s.y > 0`` and ``s.Bs > 0`` takes
    ``A += y y^T / s.y - Bs Bs^T / s.Bs``, so that ``gn + A`` maps ``s`` to
    ``y``.  A row whose update overflows restarts from ``A = 0``."""
    s = rows.step
    bs = _matvec(gn + rows.secant, s)
    sy, sbs = np.vecdot(s, y), np.vecdot(s, bs)
    ok = (sy > _ZERO) & (sbs > _ZERO)
    count = np.count_nonzero(ok)
    if not count:
        return
    # A slice when every row updates: the rows update in place, none is copied out.
    pick = slice(None) if count == ok.size else ok
    y, bs, sy, sbs, secant = y[pick], bs[pick], sy[pick], sbs[pick], rows.secant[pick]
    secant += y[:, :, None] * y[:, None, :] / sy[:, None, None]
    secant -= bs[:, :, None] * bs[:, None, :] / sbs[:, None, None]
    # A pair too large for floating point restarts its row from zero.
    if not _finite(secant):
        secant[~np.isfinite(secant).all(axis=(1, 2))] = 0.0
    if pick is ok:
        rows.secant[ok] = secant


@np.errstate(all="ignore")
def _free_step(B: np.ndarray, free: np.ndarray, g: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Steps ``d`` (r, k) of the Hessian models ``B`` (r, k, k) restricted
    to the ``free`` coordinates: ``B`` with the other rows and columns
    those of the identity ``eye``, solved against ``g`` zeroed on the
    other coordinates, so that ``d`` is zero there.

    One LAPACK ``gesv`` per row, by numpy's stacked solve gufunc (the one
    ``np.linalg.solve`` wraps, called without the wrapper's checks), so
    each row is its own solve bit for bit, and a singular row's step is
    NaN while the others are unchanged.  The error state is the wrapper's,
    with a singular row ignored rather than raised.  When every coordinate
    is free, ``B`` and ``g`` go to the solve as they are.
    """
    if np.count_nonzero(free) == free.size:
        restricted, rhs = B, g[..., None]
    else:
        restricted = np.where(free[:, :, None] & free[:, None, :], B, eye)
        rhs = np.where(free, g, 0.0)[..., None]
    return _gesv(restricted, rhs)[..., 0]


def _checked(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``, or a ``ValueError`` that
    names the argument and the shape it must have."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    return value


def solve_ocp_batch(
    f: NarxDynamics,
    X0: np.ndarray,
    cfg: MpcConfig,
    warm: np.ndarray | None = None,
    secant: np.ndarray | None = None,
) -> list[OcpSolution | SolverError]:
    """Solve the box-constrained open-loop problems from the rows of ``X0``
    (B, n) by two-metric projected structured quasi-Newton descent
    (Bertsekas, SIAM J. Control Optim. 1982; Dennis, Gay and Welsch, ACM
    TOMS 1981), all rows one iteration at a time, each from its warm
    sequence ``warm[i]`` (B, N, m) projected onto the box, or from zeros.

    Each row's Hessian model is ``B = GN + A``.  ``GN`` is the
    Gauss-Newton Hessian of the least-squares cost, from the Jacobians of
    the row's kept sweep (:func:`_derivatives`); it is positive definite
    because ``R`` is.  ``A`` learns the remainder from the row's own
    secant pairs (:func:`_secant_update`), and pairs with ``s.y <= 0`` or
    ``s.Bs <= 0`` are skipped.  ``A`` starts at ``secant[i]`` (B, N m,
    N m), any finite matrix, or at zero; a solution returns its final
    ``A`` as :attr:`OcpSolution.secant`.  A ``warm`` or ``secant`` of
    another shape, or a ``secant`` with a non-finite entry, raises
    ``ValueError`` before any cost is evaluated.

    Each round first takes every row's projected-gradient norm; a row
    whose norm is at most :data:`GRAD_TOL` has converged and leaves with a
    NaN ``predicted_decrease``, before any step is formed, with the
    secant part that the round's update left.  The other rows split their
    coordinates.  A coordinate within
    ``eps = min(||pg||, ACTIVE_WIDTH)`` of a bound whose gradient points
    out of the box is active and takes the plain gradient step; the free
    coordinates take the step of ``B`` restricted to them
    (:func:`_free_step`).  A free step that is not a descent direction
    resets ``A`` to zero and takes the step of ``GN`` alone.  So does a
    first-round step from a nonzero start whose full step promises at
    most the noise floor: no pair of the solve has tested that start, and a
    huge one would otherwise end the solve where it began.  Later rounds
    trust the model, so a start far above the cost's curvature in some
    directions still shortens the steps along them and can end the solve
    by the noise floor before its projected gradient is small.
    :func:`_armijo_search` then searches the projection arc from ``t = 1``.

    Every cost is one :meth:`~narxmpc.narx.NarxDynamics.sweep`, of the
    starts and of each line-search trial of the rows still searching, and
    a row keeps the sweep of its accepted iterate, so each round's
    gradients and ``GN`` are one :func:`_derivatives` call, one banded
    solve for all rows; a solution's ``outputs`` come from the kept sweep
    of its ``u_star``, and ``backtracks`` counts its row's rejected
    line-search trials.

    Returns one entry per row, written once when the row leaves the
    descent: its :class:`OcpSolution`, or the :class:`SolverError` of a
    non-finite cost, gradient or ``GN``; no rows give an empty list.  A
    row leaves when it converges, when its line search fails or when its
    cost, gradient or ``GN`` is not finite; the other rows go on
    unchanged.  Each row keeps its own model, line search and stopping
    tests, so entry ``i`` is what the batch of one ``X0[i]``, ``warm[i]``,
    ``secant[i]`` gives, bit for bit.  A solution is ``converged`` when its
    projected-gradient norm is at most :data:`GRAD_TOL` or its full step
    predicts a decrease of at most ``NOISE_FLOOR * |J|``; otherwise it
    stopped at ``max_iters`` or at a line search that found no decrease.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    return _descend(f, X0, cfg, warm, secant, X0.shape[:1])


# Jacobians or secant pairs too large for the round's products overflow,
# as do costs and trial steps too large for their sums.  A row whose
# gradient or Gauss-Newton Hessian is not finite fails, rather than step by
# a model that is not finite, an overflowed secant part restarts from zero
# (:func:`_secant_update`), and a trial whose cost is not finite is
# rejected, so the whole solve runs without these warnings: one error
# state per solve, not one per round.
@np.errstate(invalid="ignore", over="ignore")
def _descend(f: NarxDynamics, X0: np.ndarray, cfg: MpcConfig, warm, secant, lead: tuple[int, ...]):
    """:func:`solve_ocp_batch` from the rows of ``X0`` (B, n), with ``warm``
    and ``secant`` checked once, against the shapes of ``lead`` problems:
    ``(B,)``, or ``()`` for the one problem of :func:`solve_ocp`."""
    weights = cfg.weights
    b, shape = X0.shape[0], (cfg.horizon, cfg.dims.m)
    k = shape[0] * shape[1]
    lo, hi = cfg._input_bounds
    U = np.zeros(lead + (k,)) if warm is None else _checked("warm", warm, lead + shape)
    U = _project(U.reshape(b, k), lo, hi)
    if secant is not None:
        secant = _checked("secant", secant, lead + (k, k))
        if not _finite(secant):
            raise ValueError("secant must have finite entries")
        secant = secant.reshape(b, k, k).copy()
    q_bar, r_bar, eye = cfg.horizon_blocks
    layout = _layout(cfg.dims, cfg.horizon)
    value, sweep = _evaluate(f, X0, U.reshape(b, *shape), weights)
    # Every row starts live on the solve's own arrays (X0 is only read); rows whose
    # cost is not finite leave at once, and rounds set norms and decreases before use.
    rows = _Rows(
        np.arange(b), X0, U, value, np.zeros((b, k, k)) if secant is None else secant,
        np.zeros((b, k)), np.zeros((b, k)), np.zeros(b), np.zeros(b), np.zeros(b, dtype=int), sweep,
    )
    results: list[OcpSolution | SolverError | None] = [None] * b
    finite = np.isfinite(value)
    if not (b and np.count_nonzero(finite) == b):
        for i in np.flatnonzero(~finite):
            results[i] = SolverError(f"initial cost is not finite ({value[i]}) at the start sequence")
        rows = rows.take(finite) if finite.any() else None

    def leave(out, count, conv):
        """Write the solutions of the rows ``out``; ``rows`` keeps the
        others, or is None when no row is left."""
        nonlocal rows
        index, values, backtracks, norms, decreases = (
            column.tolist() for column in (rows.index, rows.value, rows.backtracks, rows.norm, rows.decrease)
        )
        for j in out.nonzero()[0].tolist():
            results[index[j]] = OcpSolution(
                u_star=rows.u[j].reshape(shape),
                outputs=rows.sweep.outputs[j],
                secant=rows.secant[j],
                value=values[j],
                iterations=count,
                backtracks=backtracks[j],
                grad_norm=norms[j],
                predicted_decrease=decreases[j],
                converged=conv,
            )
        keep = ~out
        rows = rows.take(keep) if np.count_nonzero(keep) else None
        return keep

    for rnd in range(cfg.solver.max_iters):
        if rows is None:
            break
        g, gn = _derivatives(layout, rows.sweep, rows.u, q_bar, r_bar)
        if not (_finite(g) and _finite(gn)):
            finite = np.isfinite(g).all(axis=1) & np.isfinite(gn).all(axis=(1, 2))
            failed = rows.index[~finite]
            keep = leave(~finite, rnd, False)
            for i in failed:
                results[i] = SolverError("gradient or Gauss-Newton Hessian is not finite at the current iterate")
            if rows is None:
                break
            g, gn = g[keep], gn[keep]
        if rnd:
            _secant_update(rows, gn, g - rows.grad)
        pg = rows.u - _project(rows.u - g, lo, hi)
        rows.norm = np.sqrt(np.vecdot(pg, pg))
        # A row the gradient test stops leaves before its step is formed.
        small = rows.norm <= GRAD_TOL
        if np.count_nonzero(small):
            rows.decrease[small] = np.nan
            keep = leave(small, rnd, True)
            if rows is None:
                break
            g, gn, pg = g[keep], gn[keep], pg[keep]
        u = rows.u
        eps = np.minimum(rows.norm, ACTIVE_WIDTH)[:, None]
        active = ((u <= lo + eps) & (g > _ZERO)) | ((u >= hi - eps) & (g < _ZERO))
        free = ~active
        d = _free_step(gn + rows.secant, free, g, eye)
        slope = np.vecdot(g, d)
        reset = ~(slope > _ZERO)
        if np.count_nonzero(reset):
            reset &= np.any(free & (g != _ZERO), axis=1)
        # The two-metric direction is g on the active coordinates, where its full
        # step is the projected-gradient step pg: it promises slope + g_active . pg.
        g_active = np.zeros(g.shape)
        np.copyto(g_active, g, where=active)
        rows.decrease = slope + np.vecdot(g_active, pg)
        floor = NOISE_FLOOR * np.abs(rows.value)
        low = rows.decrease <= floor
        if not rnd and secant is not None and np.count_nonzero(low):
            # No pair of the solve has tested a secant start yet: it may
            # not stop a row at its start by the noise floor.
            reset |= low & rows.secant.any(axis=(1, 2))
        if np.count_nonzero(reset):
            rows.secant[reset] = 0.0
            d[reset] = _free_step(gn[reset], free[reset], g[reset], eye)
            slope[reset] = np.vecdot(g[reset], d[reset])
            rows.decrease = slope + np.vecdot(g_active, pg)
            low = rows.decrease <= floor
        np.copyto(d, g, where=active)  # d is now the two-metric direction
        if np.count_nonzero(low):
            keep = leave(low, rnd, True)
            if rows is None:
                break
            d, slope, g_active, g = d[keep], slope[keep], g_active[keep], g[keep]
        accepted = _armijo_search(f, rows, d, slope, g_active, lo, hi, shape, weights)
        rows.grad = g
        if np.count_nonzero(accepted) < accepted.size:
            leave(~accepted, rnd + 1, False)
    else:
        if rows is not None:
            leave(np.ones(rows.index.size, dtype=bool), cfg.solver.max_iters, False)
    return results


def _armijo_search(f, rows: _Rows, d, slope, g_active, lo, hi, shape, weights: StageCostWeights) -> np.ndarray:
    """Armijo backtracking along the projection arc ``P(u - t d)`` from
    ``t = 1``, batched over the rows still searching.

    A candidate is accepted when its cost is at most the current value
    minus ``ARMIJO * (t * slope + g_active . (u - P(u - t d)))``, the
    sufficient-decrease test of the two-metric step: ``slope`` is ``g.d``
    over the free coordinates and ``g_active`` the gradient on the active
    ones.  Every row still searching has been rejected equally often, so
    one step length ``t`` serves them all.  Accepted candidates replace
    their rows of ``rows.u``, ``rows.value`` and ``rows.sweep``, and their
    steps those of ``rows.step``; when every row accepts its first trial,
    the rows are rebound to the candidate arrays instead of copied.  Each
    rejected trial adds one to its row's ``rows.backtracks``.  Returns the
    mask of rows that accepted a step.
    """
    accepted = np.zeros(rows.value.size, dtype=bool)
    todo = np.arange(rows.value.size)
    u, x, value = rows.u, rows.x, rows.value
    t = 1.0
    while todo.size and t >= 1e-18:
        cand = _project(u - t * d, lo, hi)
        cand_value, sweep = _evaluate(f, x, cand.reshape(-1, *shape), weights)
        sufficient = ARMIJO * (t * slope + np.vecdot(g_active, u - cand))
        ok = np.isfinite(cand_value) & (cand_value <= value - sufficient)
        if t == 1.0 and np.count_nonzero(ok) == ok.size:
            rows.step, rows.u, rows.value, rows.sweep = cand - u, cand, cand_value, sweep
            return ok
        hit = todo[ok]
        rows.step[hit] = cand[ok] - u[ok]
        rows.u[hit], rows.value[hit], rows.sweep[hit] = cand[ok], cand_value[ok], sweep[ok]
        accepted[hit] = True
        rows.backtracks[todo[~ok]] += 1
        searching = ~ok
        todo, u, x, value = todo[searching], u[searching], x[searching], value[searching]
        d, slope, g_active = d[searching], slope[searching], g_active[searching]
        t *= SHRINK
    return accepted


def solve_ocp(
    f: NarxDynamics,
    x0: np.ndarray,
    cfg: MpcConfig,
    warm: np.ndarray | None = None,
    secant: np.ndarray | None = None,
) -> OcpSolution:
    """Solve the box-constrained open-loop problem from the regressor ``x0`` (n,).

    The batch of one of :func:`solve_ocp_batch`, started from the warm
    sequence ``warm`` (N, m) projected onto the box, or from zeros, and
    from the secant part ``secant`` (N m, N m), or from zeros.  Raises
    the row's :class:`SolverError`.
    """
    result = _descend(f, np.asarray(x0, dtype=float)[None], cfg, warm, secant, ())[0]
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
    :func:`run_closed_loop`, ``weights`` holds the loop's stage-cost weights,
    and a solver failure truncates the trace and records its step and message.
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
    backtracks: np.ndarray | None = None
    normalization: object | None = None
    weights: StageCostWeights | None = None
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
    and shifts the regressor.  Each solve after the first starts from its
    predecessor's solution shifted by one step: the inputs ``u_star[1:]``
    followed by zeros, and the final secant part ``A`` with its first
    ``m`` rows and columns dropped and ``m`` zero rows and columns
    appended, so the curvature learned for the remaining steps carries
    over.  One extra diagnostic solve evaluates the optimal value at the
    final state so that decrease checks can cover every applied step.
    Its entry ends every per-state array, so they all hold
    ``states.shape[0]`` values; without that solve (no step requested, a
    failed step or a failed diagnostic solve) the entry is a NaN value
    and gradient norm, zero iterations and backtracks and not converged.

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
    values = np.full(steps + 1, np.nan)
    grad_norms = np.full(steps + 1, np.nan)
    iterations = np.zeros(steps + 1, dtype=int)
    backtracks = np.zeros(steps + 1, dtype=int)
    converged = np.zeros(steps + 1, dtype=bool)
    failed_step = failure = warm = secant = None
    # Pass k solves at x(k); the pass at k == steps is the terminal
    # diagnostic solve and applies no input.
    for k in range(steps + 1 if steps else 0):
        try:
            sol = solve_ocp(surrogate, states[k], cfg, warm=warm, secant=secant)
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
            warm = np.zeros(sol.u_star.shape)
            warm[:-1] = sol.u_star[1:]
            secant = np.zeros(sol.secant.shape)
            secant[: -dims.m, : -dims.m] = sol.secant[dims.m :, dims.m :]
        values[k], grad_norms[k] = sol.value, sol.grad_norm
        iterations[k], backtracks[k], converged[k] = sol.iterations, sol.backtracks, sol.converged
    applied = steps if failed_step is None else failed_step
    trace = ClosedLoopTrace(
        states=states[: applied + 1],
        inputs=inputs[:applied],
        outputs=outputs[:applied],
        values=values[: applied + 1],
        # One batched call: each entry is the step's own stage cost, bit for bit.
        stage_costs=stage_cost(outputs[:applied], inputs[:applied], cfg.weights),
        grad_norms=grad_norms[: applied + 1],
        iterations=iterations[: applied + 1],
        converged=converged[: applied + 1],
        backtracks=backtracks[: applied + 1],
        dims=dims,
        horizon=cfg.horizon,
        normalization=normalization,
        weights=cfg.weights,
        failed_step=failed_step,
        failure=failure,
    )
    if storage_matrix is not None:
        w_vals = np.einsum("ki,ij,kj->k", trace.states, storage_matrix, trace.states)
        trace.storage_values = w_vals
        trace.lyapunov = trace.values + w_vals
    return trace
