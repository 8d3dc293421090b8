"""Cascaded two-tank benchmark plant and its NARX views.

A pump feeds the upper tank, the upper tank drains into the lower one
and the lower tank drains freely; the measured output is the lower
level.  With levels ``h1`` (lower), ``h2`` (upper) and pump flow ``u``:

    d h1 / dt = c12 * sqrt(h2 - h1) - c2 * sqrt(h1)
    d h2 / dt = u / A1 - c12 * sqrt(h2 - h1)

Sampling uses one classical Runge-Kutta step per sampling interval with
the input held constant; where a stage point leaves the domain the step
is redone with finer substeps (:func:`_total_step`), which the plant
and its exact NARX view share.

:class:`TwoTankPlant` is the one stateful plant: it carries both levels
and is what the closed loop drives.  Because only ``h1`` is measured,
the sampled plant is second order with a hidden level; on regressors of
lag depth two or more the hidden level is recoverable from the newest
measured transition, which makes the plant an exact deterministic NARX
map and is how :class:`TwoTankNarxDynamics` evaluates it.  Both of its
evaluations, one step of values (``output_batch``) and N steps of
values with their site Jacobians (``sweep``), reconstruct the hidden
level once and then carry both levels.

The sweep has exact Jacobians: :func:`_total_step` takes ``dual=True``,
a trailing axis of tangents, so the one Runge-Kutta step is also its
tangent-linear map, and the reconstruction is differentiated by the
implicit function theorem.  Clamped rows get one-sided derivatives, and
the regressor columns of the first step enter no input gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .narx import (
    AffineNormalization,
    Box,
    NarxDims,
    NarxDynamics,
    Sweep,
    build_regressor,
    rollout_arrays,
)
from .kernels import Dataset


class DomainError(ValueError):
    """The plant was evaluated outside its physical domain."""


#: Upper end of the bracket searched when recovering the hidden level (m).
HIDDEN_LEVEL_MAX = 2.0

#: Negative square-root arguments above this are treated as rounding noise.
#: With the zero and NaN of :func:`_root`, a 0-d array: a ufunc takes it
#: without converting a Python float on every call.
_ROUNDING_GUARD, _ZERO, _NAN = np.array(-1e-12), np.array(0.0), np.array(np.nan)


#: Upper-tank cross-section (m^2) and the flow coefficients of the
#: connecting pipe and of the lower tank's outlet.
A1, C12, C2 = 0.001, 0.0254, 0.0261

#: The flow weights ``[c2, c12]`` of :func:`_rates`.
_WEIGHTS = np.array([C2, C12])


def _work(drive):
    """The work of :func:`_rates` at the inflow rate ``drive = u / A1``:
    the views ``[0, h1]``, ``[q2, q12]`` and ``[q12, drive]`` of one buffer
    ``[0, h1, q2, q12, drive]``, and the weights ``[c2, c12]``."""
    buffer = np.zeros((5,) + drive.shape)
    buffer[4] = drive
    return buffer[:2], buffer[2:4], buffer[3:], _WEIGHTS.reshape((2,) + (1,) * drive.ndim)


def _rates(levels, work, dual: bool):
    """Level derivatives ``[dh1, dh2]`` of the stacked levels ``[h1, h2]``
    (2, ...): the heads ``[h1, h2 - h1]`` by one subtraction, their roots
    (:func:`_root`) in one pass, then one difference of flows.  Outside the
    domain (lower level below zero, or upper level below the lower one,
    beyond rounding noise) the affected derivatives are NaN, without a
    floating-point warning.  With ``dual`` the last axis holds a value and
    then its tangents, and the values are those of the plain call."""
    lower, flows, inflows, weights = work
    lower[1] = levels[0]
    np.subtract(levels, lower, out=flows)
    np.multiply(_root(flows, dual), weights, out=flows)
    return inflows - flows


def _root(z, dual: bool):
    """``sqrt(z)``, rounding noise below zero clipped and NaN beyond it;
    with ``dual``, of the values ``z[..., :1]``, with the tangents ``dz /
    (2 sqrt(z))``, zero where ``dz`` is and where the value is clipped."""
    value = z[..., :1] if dual else z
    root = np.sqrt(np.where(value >= _ROUNDING_GUARD, np.maximum(value, _ZERO), _NAN))
    if not dual:
        return root
    tangent = z[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where((tangent == 0.0) | (value < 0.0), 0.0, tangent / (2.0 * root))
    return np.concatenate([root, slope], axis=-1)


def two_tank_step(h1, h2, u, dt: float):
    """Advance the levels one sampling interval ``dt`` under a held input.

    Returns ``(h1_next, h2_next)``; the levels and the input broadcast.
    This is one classical Runge-Kutta step (:func:`_rk4`): rows whose
    stage points leave the domain come out NaN.
    """
    h1, h2, u = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h1, h2, u)))
    levels = _rk4(np.stack([h1, h2]), _work(u / A1), dt, False)
    return levels[0], levels[1]


@np.errstate(invalid="ignore")
def _rk4(levels, work, dt: float, dual: bool):
    """One classical Runge-Kutta step of length ``dt`` of the stacked
    levels ``[h1, h2]`` (2, ...), one :func:`_rates` call per stage, so
    the arguments are converted once per step rather than per stage."""
    half = 0.5 * dt
    a = _rates(levels, work, dual)
    b = _rates(levels + half * a, work, dual)
    c = _rates(levels + half * b, work, dual)
    e = _rates(levels + dt * c, work, dual)
    return levels + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)


def _at_least(z, floor, dual: bool):
    """``np.maximum(z, floor)``; with ``dual``, rows at or below the floor
    take its tangents (the one-sided derivative of the clamp)."""
    if not dual:
        return np.maximum(z, floor)
    floor = np.broadcast_to(floor, z.shape)
    out = np.where(z[..., :1] <= floor[..., :1], floor, z)
    out[..., :1] = np.maximum(z[..., :1], floor[..., :1])
    return out


#: Halvings of the sampling interval tried before a step is given up.
_SUBSTEP_LEVELS = 6


def _total_step(h1, h2, u, dt: float, dual: bool = False):
    """Sampled step made total on ``h2 >= h1 >= 0`` with ``u >= 0``.

    The exact flow never leaves that region (the level difference grows
    on its boundary), but single-step Runge-Kutta stage points can cross
    it when the levels are nearly equal and the pump flow is small.
    Rows where the full-interval step fails are re-integrated with
    progressively finer substeps, down to 64, which reproduces the
    invariant flow; rows that stay invalid at 64 substeps raise.  The
    levels and the input are scalars or arrays of one shape, and the
    levels come back at least 1-D.  With ``dual`` the step is also the
    tangent-linear step (see :func:`_rates`), and tangents that meet
    ``inf - inf`` come out NaN without a warning; a substepped row gets
    the tangent of its substeps, and each clamp between them that of the
    side it takes.
    """
    new, bad = _substepped(h1, h2, u, dt, dual)
    _raise_if_invalid(bad)
    return new[0], new[1]


def _raise_if_invalid(bad) -> None:
    """Raise :class:`DomainError` when a row of the mask ``bad`` stayed
    invalid down to the finest substep."""
    if np.count_nonzero(bad):
        raise DomainError(
            f"{int(np.sum(bad))} state(s) stayed invalid down to "
            f"{2 ** _SUBSTEP_LEVELS} substeps; levels outside h2 >= h1 >= 0"
        )


def _substepped(h1, h2, u, dt: float, dual: bool):
    """The stacked levels (2, ...) of :func:`_total_step` and the mask of
    the rows that stayed invalid down to the finest substep, which
    :func:`_total_step` raises on."""
    stacked = np.array([h1, h2, u], dtype=float)
    stacked = stacked.reshape((3,) + (stacked.shape[1:] or (1,)))
    levels, drive = stacked[:2], stacked[2] / A1
    new = _rk4(levels, _work(drive), dt, dual)
    bad = ~np.isfinite(_value(new, dual)).all(axis=0)
    splits = 1
    for _ in range(_SUBSTEP_LEVELS):
        if not np.count_nonzero(bad):
            break
        splits *= 2
        part, work = levels[:, bad], _work(drive[bad])
        for _ in range(splits):
            part[0] = _at_least(part[0], 0.0, dual)
            part[1] = _at_least(part[1], part[0], dual)
            part = _rk4(part, work, dt / splits, dual)
        new[:, bad] = part
        bad = ~np.isfinite(_value(new, dual)).all(axis=0)
    return new, bad


def _value(z, dual: bool):
    """The values of ``z``: its first entry on the last axis with ``dual``."""
    return z[..., 0] if dual else z


def equilibrium_levels(u: float) -> tuple[float, float]:
    """Steady-state levels for a constant pump flow, in closed form.

    In steady state both flow balances hold, ``c2 sqrt(h1) = u / A1`` and
    ``c12 sqrt(h2 - h1) = u / A1``, so the equilibrium is exact for the
    sampled plant as well (a vanishing derivative is a fixed point of the
    Runge-Kutta map).
    """
    if u < 0:
        raise DomainError(f"pump flow must be nonnegative, got {u:.6e}")
    drive = u / A1
    h1 = (drive / C2) ** 2
    h2 = h1 + (drive / C12) ** 2
    return h1, h2


def reconstruct_hidden_level(y_prev, y_cur, u_prev, dt: float):
    """Recover the current upper-tank level from the newest measured transition.

    Finds the previous upper level ``h2(k-1)`` in ``[y_prev,
    HIDDEN_LEVEL_MAX]`` such that one sampled step from ``(y_prev,
    h2(k-1))`` under ``u_prev`` reproduces ``y_cur``; the step's upper
    level is the reconstruction.  The map is strictly increasing in the
    upper level, so a bracketed secant search
    (:func:`_previous_upper_level`) narrows the bracket to adjacent
    doubles; unreachable targets clamp to the nearest bracket end.  Exact (to solver tolerance) whenever the
    transition actually came from the plant.

    The record broadcasts, and ``dt`` is the sampling interval; returns
    the reconstructed ``h2(k)``.
    """
    y_prev, y_cur, u_prev = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (y_prev, y_cur, u_prev)))
    h2_before = _previous_upper_level(y_prev, y_cur, u_prev, dt)
    _, h2_now = _total_step(y_prev, h2_before, u_prev, dt)
    return np.maximum(h2_now.reshape(h2_before.shape), y_cur)


def _previous_upper_level(y_prev, y_cur, u_prev, dt: float):
    """The root ``h2(k-1)`` of :func:`reconstruct_hidden_level`, clamped
    to the bracket ends ``y_prev`` and :data:`HIDDEN_LEVEL_MAX`; the
    arguments are arrays of one shape.

    A row clamps at ``HIDDEN_LEVEL_MAX`` when the total step from there
    does not overshoot ``y_cur``, and else at ``y_prev`` when the total
    step from equal levels does not undershoot it; a step from equal
    levels that stays invalid down to the finest substep counts as an
    undershoot.  Every other row solves ``s1(h) = y_cur`` for the lower
    level ``s1`` of the single Runge-Kutta step, by regula falsi with
    the Anderson-Bjorck change (BIT 13, 1973) of the Illinois method
    (Dowell and Jarratt, BIT 11, 1971): each probe replaces the end of
    its own side, and when two probes in a row land on the same side the
    value of the other end is scaled by ``1 - r_new / r_old`` of their
    residuals, or halved where that is not positive.  A failed probe means
    near-equal levels, where the step drains the lower tank: it counts
    as an undershoot, and since its value is NaN the next probe halves
    the bracket, as does any secant point that rounds onto an end.  A
    row stops when a probe reproduces ``y_cur`` exactly, at that probe,
    or when its ends are adjacent doubles, at the end with the smaller
    finite residual; finished rows leave the batch, so each row equals
    its batch of one.
    """
    shape = y_prev.shape
    y_prev, y_cur, u_prev = (np.ravel(a) for a in (y_prev, y_cur, u_prev))
    top = np.full_like(y_prev, HIDDEN_LEVEL_MAX)
    # Both bracket ends of every row in one total step.
    ends, failed = _substepped(np.tile(y_prev, 2), np.concatenate([y_prev, top]), np.tile(u_prev, 2), dt, False)
    # Only a non-finite record fails at the upper end; it raises, as the
    # search would never close its bracket.
    _raise_if_invalid(failed[y_prev.size :])
    excess = np.where(failed, np.nan, ends[0]).reshape(2, -1) - y_cur
    root = np.where(excess[1] <= 0.0, top, y_prev)
    rows = np.flatnonzero(~(excess[1] <= 0.0) & ~(excess[0] >= 0.0))
    # Per open row: the kept end ``a`` with its secant value ``fa`` and
    # residual ``ra``, the newest probe ``b`` with its residual ``fb``,
    # and the record; ``b`` starts at the upper end.
    a, b, fa, fb = y_prev[rows], top[rows], excess[0, rows], excess[1, rows]
    ra, target, drive = fa, y_cur[rows], u_prev[rows] / A1
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            levels, work = np.stack([y_prev[rows], b]), _work(drive)
            while True:
                c = b - fb * (b - a) / (fb - fa)
                c = levels[1] = np.where((c - a) * (c - b) < 0.0, c, 0.5 * (a + b))
                fc = _rk4(levels, work, dt, False)[0] - target
                crossed = (fc > 0.0) != (fb > 0.0)
                scale = 1.0 - fc / fb
                fa = np.where(crossed, fb, fa * np.where(scale > 0.0, scale, 0.5))
                a, ra = np.where(crossed, b, a), np.where(crossed, fb, ra)
                b, fb = c, fc
                done = (fc == 0.0) | (np.nextafter(a, b) == b)
                if done.any():
                    break
            # The overshooting end's residual is finite; a failed probe's is NaN.
            err_a, err_b = np.abs(ra), np.abs(fb)
            root[rows[done]] = np.where((err_a < err_b) | np.isnan(err_b), a, b)[done]
            keep = ~done
            rows, a, b, fa, fb, ra, target, drive = (v[keep] for v in (rows, a, b, fa, fb, ra, target, drive))
    return root.reshape(shape)


class TwoTankPlant:
    """Stateful sampled simulator carrying both levels: the closed-loop plant.

    This is the stand-in for the physical rig: it hides the upper level
    and reports only the measured lower level.  :meth:`step` takes the
    pump flow in raw units; :meth:`output` is the same step in the
    normalized coordinates of the configuration, ignoring the regressor
    as a rig would.  Sequential use only.
    """

    def __init__(self, cfg: BenchmarkConfig, h1: float, h2: float):
        if not (0.0 <= h1 <= h2):
            raise DomainError(
                f"initial levels must satisfy 0 <= h1 <= h2, got ({h1}, {h2})"
            )
        self.dt = cfg.dt
        self.norm = cfg.normalization()
        self.dims = cfg.dims
        self.h1 = float(h1)
        self.h2 = float(h2)

    def step(self, u: float) -> float:
        """Apply one held input, advance the levels, return the new output.

        Steps as :class:`TwoTankNarxDynamics` does, recovering a failed
        Runge-Kutta step by substeps; raises :class:`DomainError` when
        the levels stay invalid down to the finest substep.
        """
        h1, h2 = _total_step(self.h1, max(self.h2, self.h1), float(u), self.dt)
        self.h1, self.h2 = float(h1[0]), float(h2[0])
        return self.h1

    def output(self, x, u):
        """Apply the normalized input ``u`` (m,) and return the normalized
        output (p,); ``x`` is not read."""
        u_raw = self.norm.denormalize_input(u)
        return self.norm.normalize_output(np.array([self.step(u_raw.flat[0])]))


class TwoTankNarxDynamics(NarxDynamics):
    """Exact NARX map of the two-tank plant in normalized coordinates.

    Evaluation reconstructs the hidden upper level from the newest
    transition stored in the regressor and then advances one sampled
    step.  Needs lag depth at least two; scalar output and input.

    The map is total on nonnegative measured levels: regressors that no
    plant trajectory can produce are handled by clamping the
    reconstruction to its bracket, so the map stays deterministic there
    while agreeing exactly with the plant on consistent data.  A
    regressor that encodes a negative measured level raises
    :class:`DomainError`.

    :meth:`output_batch` and :meth:`sweep` reconstruct the hidden level
    once and then carry both levels (:meth:`_carry`), a sweep with their
    tangents.  The regressor of step ``k`` holds the transition of step
    ``k - 1``, whose tangent gives the derivative of the reconstruction,
    ``dH = (dy_k - ds1/dy dy_{k-1} - ds1/du du_{k-1}) / (ds1/dH)``; step
    0 takes one tangent step at the recovered root.  A row clamped at a
    bracket end, or to equal levels, gets the one-sided derivative.  The
    four raw derivatives of a step, scaled to normalized units, are its
    site-Jacobian columns ``0, 1, nu`` and ``n``; the others are zero.
    """

    def __init__(self, dt: float, normalization: AffineNormalization, dims: NarxDims):
        if dims.p != 1 or dims.m != 1:
            raise ValueError("the two-tank plant has one output and one input")
        if dims.nu < 2:
            raise ValueError(
                "lag depth 1 cannot expose the hidden upper level; use nu >= 2"
            )
        self.dt = dt
        self.norm = normalization
        self.dims = dims

    def output_batch(self, X, U):
        """Next outputs (B, 1) of the regressors ``X`` (B, n) under the
        inputs ``U`` (B, 1): the first step of :meth:`_carry`."""
        X, U = rollout_arrays(X, np.atleast_2d(np.asarray(U, dtype=float))[:, None], self.dims)
        return self.norm.normalize_output(self._carry(X, U, dual=False)[0])

    def sweep(self, X0, U):
        """The levels of :meth:`_carry` with exact site Jacobians: the
        values of the plain carry bit for bit, and each row equals its
        batch of one.  The first step's outputs are those of
        :meth:`output_batch`; later ones carry the hidden level that
        :meth:`output_batch` would reconstruct from their regressors, and
        agree with it to rounding."""
        X0, U = rollout_arrays(X0, U, self.dims)
        levels, jac = self._carry(X0, U, dual=True)
        # Raw derivatives to normalized ones: inputs scale by u_scale, outputs by y_scale.
        ratio = self.norm.u_scale[0] / self.norm.y_scale[0]
        site = np.zeros(levels.shape + (1, self.dims.n + 1))
        site[..., 0, [0, 1, self.dims.nu, self.dims.n]] = jac * [1.0, 1.0, ratio, ratio]
        return Sweep(self.norm.normalize_output(levels[..., None]), site)

    def _carry(self, X0, U, dual: bool):
        """Raw lower levels (B, N) of the rollouts of the inputs ``U``
        (B, N, m) from the regressors ``X0`` (B, n); with ``dual`` also
        their raw derivatives (B, N, 4) with respect to each step's newest
        output, previous output and previous input, and its input."""
        raw = self.norm.denormalize_state(X0, self.dims)
        y_cur, y_prev, u_prev = raw[:, 0], raw[:, 1], raw[:, self.dims.nu]
        if np.any(y_prev < 0) or np.any(y_cur < 0):
            raise DomainError("regressor encodes a negative measured level")
        head = _previous_upper_level(y_prev, y_cur, u_prev, self.dt)
        inputs = self.norm.denormalize_input(U)[..., 0]
        levels = np.empty(inputs.shape)
        jac = np.empty(inputs.shape + (4,)) if dual else None

        def step(h1, h2, u):
            if dual:  # tangents along (both levels, upper level only, input)
                seeds = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
                h1, h2, u = (np.column_stack([v, np.tile(d, (v.size, 1))]) for v, d in zip((h1, h2, u), seeds))
            return _total_step(h1, h2, u, self.dt, dual)

        # The step into the newest output: its upper level starts the
        # rollout, and its tangent differentiates the reconstruction.
        last = step(y_prev, head, u_prev)
        flat, pinned = head <= y_prev, head >= HIDDEN_LEVEL_MAX
        h1 = y_cur
        for k in range(inputs.shape[1]):
            h2 = np.maximum(_value(last[1], dual), h1)
            now = step(h1, h2, inputs[:, k])
            if dual:
                jac[:, k] = _chain(last, flat, pinned, now, h2 <= h1)
            last, flat, pinned = now, h2 <= h1, np.zeros_like(pinned)
            h1 = levels[:, k] = _value(now[0], dual)
        return levels, jac


def _chain(last, flat, pinned, now, now_flat):
    """Raw derivatives (B, 4) of the lower level after the dual step
    ``now`` with respect to its regressor's ``y_k``, ``y_{k-1}`` and
    ``u_{k-1}`` and its input ``u_k``; ``last`` is the dual step into
    ``y_k``.  The gap ``G`` before ``last`` solves ``s1(y_{k-1}, y_{k-1} +
    G, u_{k-1}) = y_k``, or is held at zero on ``flat`` rows; ``pinned``
    rows hold the upper level, and ``now_flat`` rows keep equal levels.
    """
    # Tangents along (both levels, upper level only, input).
    (y_both, y_upper, y_input), (h_both, h_upper, h_input) = last[0][:, 1:].T, last[1][:, 1:].T
    with np.errstate(divide="ignore", invalid="ignore"):
        # dG over (y_k, y_{k-1}, u_{k-1}), then the gap that ``now`` starts from.
        gap = np.column_stack([np.ones_like(y_both), -y_both, -y_input]) / y_upper[:, None]
        gap = np.where(pinned[:, None], [0.0, -1.0, 0.0], gap)
        gap_now = np.column_stack([-np.ones_like(h_both), h_both, h_input])
        gap_now += np.where(flat[:, None], 0.0, h_upper[:, None] * gap)
        both, upper, inputs = now[0][:, 1:].T
        lower = np.where(now_flat[:, None], 0.0, upper[:, None] * gap_now)
    lower[:, 0] += both
    return np.column_stack([lower, inputs])


#: Accepted configuration-file keys and the :class:`BenchmarkConfig`
#: fields they set, with the type each value is read as.
CONFIG_KEYS = {
    "D": ("d", int),
    "N": ("horizon", int),
    "Q": ("q_weight", float),
    "R": ("r_weight", float),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "u_lo": ("u_lo", float),
    "u_hi": ("u_hi", float),
    "dt": ("dt", float),
    "sigma": ("sigma", float),
    "h0": ("h0", float),
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """Two-tank benchmark settings (raw physical units for the plant side).

    ``d`` counts interpolation sites including the equilibrium sample,
    ``horizon`` is the controller horizon and ``steps`` the closed-loop
    length.  The output domain is the fixed level range ``[y_lo, y_hi]``
    and the admissible pump range is ``[u_lo, u_hi]``, which must start
    at a nonnegative flow and hold the equilibrium flow ``u_eq``; the
    measured level starts at the constant value ``h0`` inside the level
    range.  ``q_weight``, ``r_weight``, ``dt`` and ``sigma`` must be
    positive and ``seed`` nonnegative.  The lag depth
    ``nu`` is fixed at two: the depth at which the hidden level is
    recoverable, and the one the samplers draw regressors for.  Every
    float setting must be finite.  An error names the field and, where
    it differs, the :data:`CONFIG_KEYS` key that sets it.
    """

    d: int = 101
    horizon: int = 20
    q_weight: float = 1.0
    r_weight: float = 0.1
    steps: int = 100
    seed: int = 0
    u_lo: float = 3.16e-6
    u_hi: float = 4.76e-5
    dt: float = 10.0
    sigma: float = 1.0
    h0: float = 0.2
    nu: ClassVar[int] = 2
    u_eq: ClassVar[float] = 5.461e-6
    y_lo: ClassVar[float] = 0.0
    y_hi: ClassVar[float] = 0.5
    # Read only by perfbench/workloads.py:150 (ROADMAP item 5 deletes it); unannotated, so no field.
    jitter = 0.0

    def __post_init__(self) -> None:
        for name in ("q_weight", "r_weight", "u_lo", "u_hi", "dt", "sigma", "h0"):
            if not np.isfinite(getattr(self, name)):
                raise self._invalid(name, "must be finite")
        for name in ("q_weight", "r_weight", "dt", "sigma"):
            if not getattr(self, name) > 0:
                raise self._invalid(name, "must be positive")
        if self.seed < 0:
            raise self._invalid("seed", "must be nonnegative")
        if not (self.y_lo <= self.h0 <= self.y_hi):
            raise self._invalid("h0", f"must lie in [{self.y_lo}, {self.y_hi}]")
        if self.d < 1:
            raise self._invalid("d", "must be at least 1")
        if self.horizon < 1:
            raise self._invalid("horizon", "must be at least 1")
        if self.steps < 0:
            raise self._invalid("steps", "must be nonnegative")
        if self.u_lo < 0:
            raise self._invalid("u_lo", "must be nonnegative (a pump flow)")
        if not (self.u_lo < self.u_hi):
            raise ValueError("need u_lo < u_hi")
        if not (self.u_lo <= self.u_eq <= self.u_hi):
            raise ValueError("the equilibrium input must lie inside the input range")

    def _invalid(self, name: str, rule: str) -> ValueError:
        """The error for field ``name`` breaking ``rule``, naming the
        configuration-file key that sets it where the two differ."""
        key = next(key for key, (field, _) in CONFIG_KEYS.items() if field == name)
        where = "" if key == name else f" (config key {key})"
        return ValueError(f"{name} {rule}, got {getattr(self, name)}{where}")

    @property
    def dims(self) -> NarxDims:
        return NarxDims(p=1, m=1, nu=self.nu)

    @property
    def equilibrium(self) -> tuple[float, float]:
        """Exact steady-state levels for the equilibrium pump flow."""
        return equilibrium_levels(self.u_eq)

    def normalization(self) -> AffineNormalization:
        """Map the equilibrium to the origin and the domain widths to one."""
        h1_eq, _ = self.equilibrium
        return AffineNormalization(
            y_ref=np.array([h1_eq]),
            y_scale=np.array([self.y_hi - self.y_lo]),
            u_ref=np.array([self.u_eq]),
            u_scale=np.array([self.u_hi - self.u_lo]),
        )

    def input_box(self) -> Box:
        """Admissible input range in normalized coordinates."""
        norm = self.normalization()
        return Box(
            lo=norm.normalize_input(np.array([self.u_lo])),
            hi=norm.normalize_input(np.array([self.u_hi])),
        )

    def _steady_regressor(self, level: float) -> np.ndarray:
        """The normalized regressor of a record holding the lower level at
        ``level`` under the equilibrium flow."""
        dims = self.dims
        raw = build_regressor(
            np.full((dims.nu, 1), level), np.full((dims.nu - 1, 1), self.u_eq), dims
        )
        return self.normalization().normalize_state(raw, dims)

    def equilibrium_regressor(self) -> np.ndarray:
        """The equilibrium regressor in normalized coordinates (the origin)."""
        return self._steady_regressor(self.equilibrium[0])

    def initial_condition(self) -> tuple[np.ndarray, tuple[float, float]]:
        """Normalized initial regressor and the matching physical levels.

        The measured record is a constant lower level ``h0`` with the
        input history pinned at the equilibrium flow -- what an operator
        sees on a rig whose level has been holding steady.  The hidden
        upper level is set to the value consistent with that record
        (holding the lower level steady requires the upper tank to carry
        the balancing head), which keeps the start strictly inside the
        plant's domain.
        """
        h2_0 = float(reconstruct_hidden_level(self.h0, self.h0, self.u_eq, self.dt))
        return self._steady_regressor(self.h0), (self.h0, h2_0)


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


class ScrambledHalton:
    """Randomly scrambled Halton sequence in ``[0, 1)^d`` (Owen, "A
    randomized Halton algorithm in R", arXiv:1706.02808, 2017).

    Coordinate ``c`` is the van der Corput sequence in the ``c``-th prime
    base ``b``, with digit ``j`` of each index mapped through its own
    random permutation of ``0..b-1``.  Per base, in prime order, the
    generator seeded with ``seed`` shuffles ``ceil(54 / log2 b) - 1``
    rows of ``arange(b)``: enough digits that ``b^-(j+1)`` still reaches
    below the double resolution.  A point sums ``perm[j][digit_j] *
    b^-(j+1)`` from ``j = 0`` up, with ``b^-(j+1)`` formed by repeated
    division, which reproduces ``scipy.stats.qmc.Halton(d,
    scramble=True, seed=seed)`` bit for bit.  Digits are extracted
    (``np.divmod`` by ``b``) only as deep as the largest index of the
    draw goes; every deeper digit is 0 and adds ``perm[j][0] *
    b^-(j+1)``, in the same order, so the bits stay.  Consecutive
    :meth:`random` calls continue the sequence, so the points do not
    depend on how the draws are split, and the first ``k`` coordinates
    are the ``k``-dimensional sequence of the same seed.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        # Per base, tables[c][j, digit] = perm[j][digit] * b^-(j+1).
        self._tables = []
        for base in _primes(d):
            count = math.ceil(54 / math.log2(base)) - 1
            # Shuffles each row in turn, with the draws of rng.shuffle row by row.
            perms = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
            scales = [1.0 / base]
            for _ in range(count - 1):
                scales.append(scales[-1] / base)
            self._tables.append(perms * np.array(scales)[:, None])
        self._generated = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, as an (n, d) array."""
        index = np.arange(self._generated, self._generated + n)
        self._generated += n
        points = np.zeros((len(self._tables), n))
        for column, table in zip(points, self._tables):
            base, depth, top = table.shape[1], 0, self._generated - 1
            while top > 0:
                top //= base
                depth += 1
            quotient = index
            for row in table[:depth]:
                quotient, digit = np.divmod(quotient, base)
                column += row[digit]
            # Past the digits of the largest index every digit is 0.
            for row in table[depth:]:
                column += row[0]
        return points.T


#: Points per block of :func:`_reachable_draws`.
_HALTON_BLOCK = 2048


def _reachable_draws(cfg: BenchmarkConfig, seed: int):
    """Reachable raw lag-two regressors from scrambled Halton points.

    Each block of :data:`_HALTON_BLOCK` points of the four-dimensional
    :class:`ScrambledHalton` sequence over (lower level, upper level,
    previous input, input) is filtered to upper >= lower and stepped
    once under the previous input; rows whose new lower level is finite
    and inside ``[y_lo, y_hi]`` are kept.  Yields, per block, the
    regressors ``(y(k), y(k-1), u(k-1))``, the upper levels after the
    step and the inputs of the fourth coordinate, row for row.  The
    points do not depend on the block size, and their first three
    coordinates are the three-dimensional sequence of the same seed.
    """
    sampler = ScrambledHalton(4, seed)
    while True:
        block = sampler.random(_HALTON_BLOCK)
        h1 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 0]
        h2 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 1]
        u_prev = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, 2]
        u_now = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, 3]
        keep = h2 >= h1
        h1, h2, u_prev, u_now = h1[keep], h2[keep], u_prev[keep], u_now[keep]
        y_cur, h2_cur = two_tank_step(h1, h2, u_prev, cfg.dt)
        ok = np.isfinite(y_cur) & (y_cur >= cfg.y_lo) & (y_cur <= cfg.y_hi)
        yield np.stack([y_cur[ok], h1[ok], u_prev[ok]], axis=1), h2_cur[ok], u_now[ok]


#: Most points a sampler draws before it gives up (:func:`_first_rows`).
_DRAW_LIMIT = 1_000_000


def _first_rows(cfg: BenchmarkConfig, blocks, count: int, sampler: str) -> tuple[np.ndarray, int]:
    """The first ``count`` rows of the row blocks that ``blocks`` yields,
    each with the number of points drawn for it, and the points drawn.

    Raises ``RuntimeError`` naming ``sampler`` once more than
    :data:`_DRAW_LIMIT` points are drawn.
    """
    parts: list[np.ndarray] = []
    kept = drawn = 0
    while kept < count:
        rows, size = next(blocks)
        drawn += size
        if drawn > _DRAW_LIMIT:
            raise RuntimeError(
                f"{sampler} stalled at {kept} of {count} rows after {drawn:,} points drawn; its filters "
                f"keep almost no point, as when the sampler's Runge-Kutta step fails at dt = {cfg.dt:g} s"
            )
        parts.append(rows)
        kept += len(rows)
    return np.concatenate(parts)[:count], drawn


def generate_dataset(cfg: BenchmarkConfig) -> tuple[Dataset, dict]:
    """Generate an interpolation dataset from the two-tank plant.

    The sites are the exact equilibrium sample, then the first ``d - 1``
    rows of :func:`_reachable_draws` whose target step is finite, in
    Halton order: each regressor, with the input of its fourth
    coordinate, stepped once more under that input for the target.
    Everything is returned in normalized coordinates.  Raises
    ``RuntimeError`` once more than :data:`_DRAW_LIMIT` points are
    drawn: under a configured ``dt`` at which every step fails (1000 s,
    say) no block yields a row.

    Returns the dataset plus a provenance dict: the seed, the Halton
    points drawn and the ``min_pairwise_distance`` that the
    :class:`~narxmpc.kernels.Dataset` validation computed.
    """
    dims = cfg.dims
    norm = cfg.normalization()

    def blocks():
        origin = [cfg.equilibrium_regressor(), norm.normalize_input(np.array([cfg.u_eq])), [0.0]]
        yield np.concatenate(origin)[None], 0
        for raw_x, h2_cur, u in _reachable_draws(cfg, cfg.seed):
            y_cur = raw_x[:, 0]
            y_next, _ = two_tank_step(y_cur, np.maximum(h2_cur, y_cur), u, cfg.dt)
            ok = np.isfinite(y_next)
            columns = [
                norm.normalize_state(raw_x[ok], dims),
                norm.normalize_input(u[ok, None]),
                norm.normalize_output(y_next[ok, None]),
            ]
            yield np.hstack(columns), _HALTON_BLOCK

    rows, drawn = _first_rows(cfg, blocks(), cfg.d, "generate_dataset")
    width = dims.n + dims.m
    data = Dataset(
        sites=np.ascontiguousarray(rows[:, :width]),
        targets=np.ascontiguousarray(rows[:, width:]),
        dims=dims,
        normalization=norm,
        contains_origin=True,
    )
    provenance = {"seed": cfg.seed, "halton_points": drawn, "min_pairwise_distance": data.min_distance}
    return data, provenance


def _collect_states(cfg: BenchmarkConfig, count: int, min_norm: float, blocks, sampler: str) -> np.ndarray:
    """The first ``count`` normalized states whose norm exceeds
    ``min_norm``, from the raw regressor blocks that ``blocks`` yields
    with the number of points drawn for each, by :func:`_first_rows`.
    Raises ``ValueError`` when ``count`` is below one."""
    if count < 1:
        raise ValueError(f"need at least one state, got count={count}")
    norm = cfg.normalization()

    def filtered():
        for raw, size in blocks:
            states = norm.normalize_state(raw, cfg.dims)
            yield states[np.linalg.norm(states, axis=1) > min_norm], size

    return _first_rows(cfg, filtered(), count, sampler)[0]


def sample_consistent_states(cfg: BenchmarkConfig, count: int, seed: int, min_norm: float) -> np.ndarray:
    """Physically reachable regressors, normalized, norm above ``min_norm``.

    The first ``count`` regressors of :func:`_reachable_draws` whose
    normalized norm exceeds ``min_norm``.  :func:`~narxmpc.bench.probe_sites`
    pairs them with random inputs for the fill-distance estimate and the
    error-constant samples; the growth-bound grid is
    :func:`sample_state_grid`.  Raises ``ValueError`` when ``count`` is
    below one.
    """
    blocks = ((raw, _HALTON_BLOCK) for raw, _, _ in _reachable_draws(cfg, seed))
    return _collect_states(cfg, count, min_norm, blocks, "sample_consistent_states")


def sample_state_grid(cfg: BenchmarkConfig, count: int, seed: int, min_norm: float) -> np.ndarray:
    """Quasi-uniform normalized regressors over the state box, origin excluded.

    Points of the ``dims.n``-dimensional :class:`ScrambledHalton`
    sequence of ``seed``, drawn in blocks of ``max(256, count)`` and
    scaled to the level and input-history ranges, keeping only states
    whose normalized norm exceeds ``min_norm``.  This is the evaluation
    grid for growth-bound certification, which must cover the whole
    declared domain rather than just reachable states.  Raises
    ``ValueError`` when ``count`` is below one.
    """

    def blocks():
        nb = cfg.dims.n_outputs_block
        sampler = ScrambledHalton(cfg.dims.n, seed)
        while True:
            block = sampler.random(max(256, count))
            raw = np.empty_like(block)
            raw[:, :nb] = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, :nb]
            raw[:, nb:] = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, nb:]
            yield raw, block.shape[0]

    return _collect_states(cfg, count, min_norm, blocks(), "sample_state_grid")
