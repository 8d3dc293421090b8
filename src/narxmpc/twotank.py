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
and is what the closed loop drives and what trajectory-mode data is
harvested from.  Because only ``h1`` is measured, the sampled plant is
second order with a hidden level; on regressors of lag depth two or more
the hidden level is recoverable from the newest measured transition,
which makes the plant an exact deterministic NARX map and is how
:class:`TwoTankNarxDynamics` evaluates it.  Both of its evaluations,
one step of values (``output_batch``) and N steps of values with their
Jacobians (``sweep``), reconstruct the hidden level once and then carry
both levels.

The sweep has exact Jacobians: the step functions take ``dual=True``,
a trailing axis of tangents, so the one Runge-Kutta step is also its
tangent-linear map, and the reconstruction is differentiated by the
implicit function theorem.  Clamped rows get one-sided derivatives, and
the regressor Jacobian of the first step enters no input gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from scipy.spatial.distance import cdist

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


#: Upper end of the bisection bracket when recovering the hidden level (m).
HIDDEN_LEVEL_MAX = 2.0

#: Negative square-root arguments above this are treated as rounding noise.
_ROUNDING_GUARD = -1e-12


@dataclass(frozen=True)
class TwoTankParams:
    """Tank cross-section ``A1`` (m^2), flow coefficients and sample time (s)."""

    A1: float = 0.001
    c12: float = 0.0254
    c2: float = 0.0261
    dt: float = 10.0

    def __post_init__(self) -> None:
        if not all(0 < value < np.inf for value in (self.A1, self.c12, self.c2, self.dt)):
            raise ValueError("two-tank parameters must be finite and strictly positive")


def two_tank_rhs(h1, h2, u, params: TwoTankParams, dual: bool = False):
    """Continuous-time level derivatives ``(dh1, dh2)``; all arguments broadcast.

    Outside the domain (lower level below zero, or upper level below the
    lower one, beyond rounding noise) the affected derivatives are NaN:
    ``dh1`` for a negative lower level, both for an inverted pair.  No
    floating-point warning is raised, so batched callers can mask rows.

    With ``dual`` the last axis of every argument holds a value and then
    its tangents (dual numbers), and the results keep that layout with
    the values of the plain call.  The tangent of ``sqrt(z)`` is zero
    where ``dz`` is, and ``dz / (2 sqrt(z))`` otherwise.
    """
    h1 = np.asarray(h1, dtype=float)
    gap = np.asarray(h2, dtype=float) - h1
    q12 = params.c12 * _root(gap, dual)
    q2 = params.c2 * _root(h1, dual)
    return q12 - q2, np.asarray(u, dtype=float) / params.A1 - q12


def _root(z, dual: bool):
    """``sqrt(z)``, rounding noise below zero clipped and NaN beyond it;
    with ``dual``, of the values ``z[..., :1]`` with tangents carried."""
    value = z[..., :1] if dual else z
    root = np.sqrt(np.where(value >= _ROUNDING_GUARD, np.maximum(value, 0.0), np.nan))
    if not dual:
        return root
    tangent = z[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(tangent == 0.0, 0.0, tangent / (2.0 * root))
    return np.concatenate([root, slope], axis=-1)


def two_tank_step(h1, h2, u, params: TwoTankParams, dual: bool = False):
    """Advance the levels one sampling interval under a held input.

    Returns ``(h1_next, h2_next)``; all arguments broadcast.  This is one
    classical Runge-Kutta step, written out per level: rows whose stage
    points leave the domain come out NaN.  With ``dual`` it is also the
    tangent-linear step (see :func:`two_tank_rhs`); tangents that meet
    ``inf - inf`` come out NaN without a warning.
    """
    h1, h2, u = np.broadcast_arrays(
        np.asarray(h1, dtype=float), np.asarray(h2, dtype=float), np.asarray(u, dtype=float)
    )
    dt = params.dt
    half = 0.5 * dt
    with np.errstate(invalid="ignore"):
        a1, a2 = two_tank_rhs(h1, h2, u, params, dual)
        b1, b2 = two_tank_rhs(h1 + half * a1, h2 + half * a2, u, params, dual)
        c1, c2 = two_tank_rhs(h1 + half * b1, h2 + half * b2, u, params, dual)
        e1, e2 = two_tank_rhs(h1 + dt * c1, h2 + dt * c2, u, params, dual)
        sixth = dt / 6.0
        return (
            h1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + e1),
            h2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + e2),
        )


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


def _total_step(h1, h2, u, params: TwoTankParams, dual: bool = False):
    """Sampled step made total on ``h2 >= h1 >= 0`` with ``u >= 0``.

    The exact flow never leaves that region (the level difference grows
    on its boundary), but single-step Runge-Kutta stage points can cross
    it when the levels are nearly equal and the pump flow is small.
    Rows where the full-interval step fails are re-integrated with
    progressively finer substeps, down to 64, which reproduces the
    invariant flow; rows that stay invalid at 64 substeps raise.
    With ``dual``, a substepped row gets the tangent of its substeps, and
    each clamp between them the tangent of the side it takes.
    """
    h1, h2, u = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (h1, h2, u)))
    n1, n2 = two_tank_step(h1, h2, u, params, dual)
    splits = 1
    for _ in range(_SUBSTEP_LEVELS):
        bad = ~(np.isfinite(_value(n1, dual)) & np.isfinite(_value(n2, dual)))
        if not np.any(bad):
            return n1, n2
        splits *= 2
        sub = replace(params, dt=params.dt / splits)
        c1, c2l, uu = h1[bad].copy(), h2[bad].copy(), u[bad]
        for _ in range(splits):
            c1 = _at_least(c1, 0.0, dual)
            c1, c2l = two_tank_step(c1, _at_least(c2l, c1, dual), uu, sub, dual)
        n1[bad], n2[bad] = c1, c2l
    bad = ~(np.isfinite(_value(n1, dual)) & np.isfinite(_value(n2, dual)))
    if np.any(bad):
        raise DomainError(
            f"{int(np.sum(bad))} state(s) stayed invalid down to "
            f"{2 ** _SUBSTEP_LEVELS} substeps; levels outside h2 >= h1 >= 0"
        )
    return n1, n2


def _value(z, dual: bool):
    """The values of ``z``: its first entry on the last axis with ``dual``."""
    return z[..., 0] if dual else z


def equilibrium_levels(u: float, params: TwoTankParams) -> tuple[float, float]:
    """Steady-state levels for a constant pump flow, in closed form.

    In steady state both flow balances hold, ``c2 sqrt(h1) = u / A1`` and
    ``c12 sqrt(h2 - h1) = u / A1``, so the equilibrium is exact for the
    sampled plant as well (a vanishing derivative is a fixed point of the
    Runge-Kutta map).
    """
    if u < 0:
        raise DomainError(f"pump flow must be nonnegative, got {u:.6e}")
    drive = u / params.A1
    h1 = (drive / params.c2) ** 2
    h2 = h1 + (drive / params.c12) ** 2
    return h1, h2


def reconstruct_hidden_level(y_prev, y_cur, u_prev, params: TwoTankParams):
    """Recover the current upper-tank level from the newest measured transition.

    Finds the previous upper level ``h2(k-1)`` in ``[y_prev,
    HIDDEN_LEVEL_MAX]`` such that one sampled step from ``(y_prev,
    h2(k-1))`` under ``u_prev`` reproduces ``y_cur``; the step's upper
    level is the reconstruction.  The map is strictly increasing in the
    upper level, so 54 bisection steps reach the resolution of a double;
    unreachable targets clamp to the nearest bracket end.  Exact (to
    solver tolerance) whenever the transition actually came from the
    plant.

    All arguments broadcast; returns the reconstructed ``h2(k)``.
    """
    y_prev, y_cur, u_prev = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (y_prev, y_cur, u_prev)))
    h2_before = _previous_upper_level(y_prev, y_cur, u_prev, params)
    _, h2_now = _total_step(y_prev, h2_before, u_prev, params)
    return np.maximum(h2_now.reshape(h2_before.shape), y_cur)


def _previous_upper_level(y_prev, y_cur, u_prev, params: TwoTankParams):
    """The bisection root ``h2(k-1)`` of :func:`reconstruct_hidden_level`,
    clamped to the bracket ends ``y_prev`` and :data:`HIDDEN_LEVEL_MAX`;
    the arguments are arrays of one shape."""
    lo = y_prev.astype(float).copy()
    hi = np.full_like(lo, HIDDEN_LEVEL_MAX)
    g_lo = _total_step(y_prev, lo, u_prev, params)[0].reshape(lo.shape)
    g_hi = _total_step(y_prev, hi, u_prev, params)[0].reshape(hi.shape)
    for _ in range(54):
        mid = 0.5 * (lo + hi)
        g_mid, _ = two_tank_step(y_prev, mid, u_prev, params)
        # A failed single-step probe means near-equal levels, where the
        # step drains the lower tank; treat it as undershooting.
        go_down = g_mid > y_cur
        hi = np.where(go_down, mid, hi)
        lo = np.where(go_down, lo, mid)
    h2_before = 0.5 * (lo + hi)
    h2_before = np.where(g_lo >= y_cur, y_prev, h2_before)
    return np.where(g_hi <= y_cur, HIDDEN_LEVEL_MAX, h2_before)


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
        self.params = cfg.params
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
        h1, h2 = _total_step(self.h1, max(self.h2, self.h1), float(u), self.params)
        self.h1, self.h2 = float(h1[0]), float(h2[0])
        return self.h1

    def output(self, x, u):
        """Apply the normalized input ``u`` (m,) and return the normalized
        output (p,); ``x`` is not read."""
        u_raw = self.norm.denormalize_input(np.atleast_1d(np.asarray(u, dtype=float)))
        return self.norm.normalize_output(np.array([self.step(float(u_raw[0]))]))


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
    0 takes one tangent step at the bisection root.  A row clamped at a
    bracket end, or to equal levels, gets the one-sided derivative.
    """

    def __init__(self, params: TwoTankParams, normalization: AffineNormalization, dims: NarxDims):
        if dims.p != 1 or dims.m != 1:
            raise ValueError("the two-tank plant has one output and one input")
        if dims.nu < 2:
            raise ValueError(
                "lag depth 1 cannot expose the hidden upper level; use nu >= 2"
            )
        self.params = params
        self.norm = normalization
        self.dims = dims

    def output_batch(self, X, U):
        """Next outputs (B, 1) of the regressors ``X`` (B, n) under the
        inputs ``U`` (B, 1): the first step of :meth:`_carry`."""
        X, U = rollout_arrays(X, np.atleast_2d(np.asarray(U, dtype=float))[:, None], self.dims)
        return self.norm.normalize_output(self._carry(X, U, dual=False)[0])

    def sweep(self, X0, U):
        """The levels of :meth:`_carry` with exact Jacobians: the values of
        the plain carry bit for bit, and each row equals its batch of
        one.  The first step's outputs are those of :meth:`output_batch`;
        later ones carry the hidden level that :meth:`output_batch` would
        reconstruct from their regressors, and agree with it to rounding."""
        X0, U = rollout_arrays(X0, U, self.dims)
        levels, jac = self._carry(X0, U, dual=True)
        # Raw derivatives to normalized ones: inputs scale by u_scale, outputs by y_scale.
        ratio = self.norm.u_scale[0] / self.norm.y_scale[0]
        jac_x = np.zeros(levels.shape + (1, self.dims.n))
        jac_x[..., 0, [0, 1, self.dims.nu]] = jac[..., :3] * [1.0, 1.0, ratio]
        return Sweep(self.norm.normalize_output(levels[..., None]), jac_x, jac[..., 3:, None] * ratio)

    def _carry(self, X0, U, dual: bool):
        """Raw lower levels (B, N) of the rollouts of the inputs ``U``
        (B, N, m) from the regressors ``X0`` (B, n); with ``dual`` also
        their raw derivatives (B, N, 4) with respect to each step's newest
        output, previous output and previous input, and its input."""
        raw = self.norm.denormalize_state(X0, self.dims)
        y_cur, y_prev, u_prev = raw[:, 0], raw[:, 1], raw[:, self.dims.nu]
        if np.any(y_prev < 0) or np.any(y_cur < 0):
            raise DomainError("regressor encodes a negative measured level")
        head = _previous_upper_level(y_prev, y_cur, u_prev, self.params)
        inputs = self.norm.denormalize_input(U)[..., 0]
        levels = np.empty(inputs.shape)
        jac = np.empty(inputs.shape + (4,)) if dual else None

        def step(h1, h2, u):
            if dual:  # tangents along (both levels, upper level only, input)
                seeds = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
                h1, h2, u = (np.column_stack([v, np.tile(d, (v.size, 1))]) for v, d in zip((h1, h2, u), seeds))
            return _total_step(h1, h2, u, self.params, dual)

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


@dataclass(frozen=True)
class BenchmarkConfig:
    """Two-tank benchmark settings (raw physical units for the plant side).

    ``d`` counts interpolation sites including the equilibrium sample,
    ``horizon`` is the controller horizon and ``steps`` the closed-loop
    length.  The output domain is the fixed level range ``[y_lo, y_hi]``
    and the admissible pump range is ``[u_lo, u_hi]``, which must start
    at a nonnegative flow and hold the equilibrium flow ``u_eq``; the
    measured level starts at the constant value ``h0``.  Dataset ``mode``
    is ``state_grid`` (quasi-uniform coverage of levels and inputs, the
    default) or ``trajectory`` (harvested simulation runs).  The lag
    depth ``nu`` is fixed at two: the depth at which the hidden level is
    recoverable, and the one the samplers draw regressors for.  Every
    float setting must be finite.
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
    mode: str = "state_grid"
    sigma: float = 1.0
    jitter: float = 0.0
    h0: float = 0.2
    nu: ClassVar[int] = 2
    u_eq: ClassVar[float] = 5.461e-6
    y_lo: ClassVar[float] = 0.0
    y_hi: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        for name in ("q_weight", "r_weight", "u_lo", "u_hi", "dt", "sigma", "jitter", "h0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.horizon < 1 or self.steps < 0:
            raise ValueError("horizon must be >= 1 and steps >= 0")
        if self.mode not in ("trajectory", "state_grid"):
            raise ValueError(
                f"unknown dataset mode {self.mode!r}; use 'trajectory' or 'state_grid'"
            )
        if self.u_lo < 0:
            raise ValueError(f"u_lo must be nonnegative (a pump flow), got {self.u_lo}")
        if not (self.u_lo < self.u_hi):
            raise ValueError("need u_lo < u_hi")
        if not (self.u_lo <= self.u_eq <= self.u_hi):
            raise ValueError("the equilibrium input must lie inside the input range")

    @property
    def params(self) -> TwoTankParams:
        return TwoTankParams(dt=self.dt)

    @property
    def dims(self) -> NarxDims:
        return NarxDims(p=1, m=1, nu=self.nu)

    @property
    def equilibrium(self) -> tuple[float, float]:
        """Exact steady-state levels for the equilibrium pump flow."""
        return equilibrium_levels(self.u_eq, self.params)

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

    def equilibrium_regressor(self) -> np.ndarray:
        """The equilibrium regressor in normalized coordinates (the origin)."""
        h1_eq, _ = self.equilibrium
        dims = self.dims
        raw = build_regressor(
            np.full((dims.nu, 1), h1_eq), np.full((dims.nu - 1, 1), self.u_eq), dims
        )
        return self.normalization().normalize_state(raw, dims)

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
        dims = self.dims
        raw = build_regressor(
            np.full((dims.nu, 1), self.h0), np.full((dims.nu - 1, 1), self.u_eq), dims
        )
        x0 = self.normalization().normalize_state(raw, dims)
        h2_0 = float(reconstruct_hidden_level(self.h0, self.h0, self.u_eq, self.params))
        return x0, (self.h0, h2_0)


def _default_separation(d: int) -> float:
    """Minimum normalized spacing enforced between harvested sites."""
    return max(0.01, 0.25 / np.sqrt(d))


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


#: Elements per temporary array of :meth:`ScrambledHalton.random` (64 KB):
#: arrays this small reuse freed heap memory instead of mapping new pages.
_HALTON_WORK = 8192


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
    scramble=True, seed=seed)`` bit for bit.  Consecutive :meth:`random`
    calls continue the sequence, so the points do not depend on how the
    draws are split, and the first ``k`` coordinates are the
    ``k``-dimensional sequence of the same seed.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        bases = _primes(d)
        counts = [math.ceil(54 / math.log2(b)) - 1 for b in bases]
        rows, width = max(counts), max(bases)
        # table[j, c, digit] = perm[j][digit] * b^-(j+1) of base c, and 0.0
        # (which changes no sum) past the base's last row.
        self._table = np.zeros((rows, d, width))
        for col, (base, count) in enumerate(zip(bases, counts)):
            perms = np.repeat(np.arange(base)[None], count, axis=0)
            for perm in perms:
                rng.shuffle(perm)
            scales = [1.0 / base]
            for _ in range(count - 1):
                scales.append(scales[-1] / base)
            self._table[:count, col, :base] = perms * np.array(scales)[:, None]
        self._base = np.array(bases, dtype=float)[:, None]
        # b^j by repeated products: exact up to 2^53, and above every index
        # beyond it.
        self._powers = np.cumprod(
            np.vstack([np.ones((1, d, 1)), np.repeat(self._base[None], rows, axis=0)]), axis=0
        )
        self._offsets = (width * np.arange(rows * d, dtype=float)).reshape(rows, d, 1)
        # In base 2 every term is 0 or 2^-(j+1), so every partial sum is
        # exact and the terms may be added in any grouping: the digits that
        # are 0 for a whole draw collapse into one suffix sum.
        self._base2_tail = np.append(np.cumsum(self._table[::-1, 0, 0])[::-1], 0.0)
        self._tail = self._table[:, :, :1].copy()
        self._tail[:, 0] = 0.0
        self._tail_rows = max(counts[1:], default=0)
        self._generated = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, as an (n, d) array."""
        start, stop = self._generated, self._generated + n
        self._generated = stop
        d = self._base.shape[0]
        index = np.arange(start, stop, dtype=float)
        # Digits j >= `varying` are 0 in every base for indices below 2^varying.
        varying = max(1, (stop - 1).bit_length())
        # Quotients floor(i / b^j) for several digits per pass; they are
        # exact for indices below 2^52.
        group = max(1, _HALTON_WORK // (d * max(n, 1)) - 1)
        points = np.zeros((d, n))
        for lo in range(0, varying, group):
            hi = min(varying, lo + group)
            q = np.divide(index, self._powers[lo : hi + 1])
            np.floor(q, out=q)
            digits = np.multiply(self._base, q[1:])
            np.subtract(q[:-1], digits, out=digits)
            digits += self._offsets[lo:hi]
            # Added row by row, in digit order, as scipy adds them.
            for term in self._table.take(digits.astype(np.intp)):
                points += term
        for term in self._tail[varying : self._tail_rows]:
            points += term
        points[0] += self._base2_tail[varying]
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
        y_cur, h2_cur = two_tank_step(h1, h2, u_prev, cfg.params)
        ok = np.isfinite(y_cur) & (y_cur >= cfg.y_lo) & (y_cur <= cfg.y_hi)
        yield np.stack([y_cur[ok], h1[ok], u_prev[ok]], axis=1), h2_cur[ok], u_now[ok]


#: Samples per trajectory-mode plant run.
_RUN_LENGTH = 40


def _trajectory_blocks(cfg: BenchmarkConfig):
    """Candidate blocks of ``trajectory`` mode, one seeded plant run each.

    A run starts a :class:`TwoTankPlant` at a random lower level with a
    random head above it and holds each random input for three samples,
    until it has taken :data:`_RUN_LENGTH` steps or a step fails or leaves
    the level domain.  Yields the raw lag-two regressors
    ``(y(k), y(k-1), u(k-1))`` for ``k >= 1``, the inputs ``u(k)`` and the
    next levels ``y(k+1)``, row for row.
    """
    rng = np.random.default_rng(cfg.seed)
    while True:
        h1 = rng.uniform(cfg.y_lo, cfg.y_hi)
        plant = TwoTankPlant(cfg, h1, h1 + rng.uniform(0.0, 0.3))
        levels, inputs = [h1], []
        u = rng.uniform(cfg.u_lo, cfg.u_hi)
        for t in range(_RUN_LENGTH):
            if t % 3 == 0:
                u = rng.uniform(cfg.u_lo, cfg.u_hi)
            try:
                h1 = plant.step(u)
            except DomainError:
                break
            if not (cfg.y_lo <= h1 <= cfg.y_hi):
                break
            levels.append(h1)
            inputs.append(u)
        y, u_seq = np.array(levels), np.array(inputs)
        yield np.column_stack([y[1:-1], y[:-2], u_seq[:-1]]), u_seq[1:], y[2:]


def _grid_blocks(cfg: BenchmarkConfig):
    """Candidate blocks of ``state_grid`` mode, one per block of
    :func:`_reachable_draws`: its regressors and inputs with the level one
    more step on, dropping rows where that step fails."""
    for raw_x, h2_cur, u_now in _reachable_draws(cfg, cfg.seed):
        y_cur = raw_x[:, 0]
        y_next, _ = two_tank_step(y_cur, np.maximum(h2_cur, y_cur), u_now, cfg.params)
        ok = np.isfinite(y_next)
        yield raw_x[ok], u_now[ok], y_next[ok]


#: Per dataset mode: the candidate blocks, the provenance key counting
#: what they drew, the count of one block, and the stall limit of that key.
_DATASET_MODES = {
    "trajectory": (_trajectory_blocks, "trajectories", 1, 100_000),
    "state_grid": (_grid_blocks, "halton_points", _HALTON_BLOCK, 4_000_000),
}


def generate_dataset(cfg: BenchmarkConfig) -> tuple[Dataset, dict]:
    """Generate an interpolation dataset from the two-tank plant.

    Modes
    -----
    ``trajectory``
        Seeded random restarts of a :class:`TwoTankPlant` with
        piecewise-constant inputs (:func:`_trajectory_blocks`); the
        regressor-input-target triples are harvested while the output
        stays inside the level domain.
    ``state_grid``
        Blocks of :func:`_reachable_draws` (:class:`ScrambledHalton`
        points over lower level, upper level, previous input and input,
        filtered to upper >= lower), with two one-step integrations
        producing the regressor and the target (:func:`_grid_blocks`).

    Both modes place the exact equilibrium sample first, enforce a
    minimum pairwise site separation with :func:`_accept_spaced` and
    return everything in normalized coordinates.  Returns the dataset
    plus a provenance dict; its ``min_pairwise_distance`` is the one
    that the :class:`~narxmpc.kernels.Dataset` validation computed.
    """
    sep = _default_separation(cfg.d)
    provenance = {"mode": cfg.mode, "seed": cfg.seed, "min_separation": sep}
    dims = cfg.dims
    norm = cfg.normalization()
    make_blocks, drawn_key, per_block, limit = _DATASET_MODES[cfg.mode]

    sites = np.empty((cfg.d, dims.n + dims.m))
    targets = np.empty((cfg.d, dims.p))
    sites[0, : dims.n] = cfg.equilibrium_regressor()
    sites[0, dims.n :] = norm.normalize_input(np.array([cfg.u_eq]))
    targets[0] = 0.0
    count, rejected, blocks = 1, 0, 0
    candidate_blocks = make_blocks(cfg)
    while count < cfg.d:
        blocks += 1
        if blocks * per_block > limit:
            raise RuntimeError(
                f"dataset generation stalled at {count} of {cfg.d} sites "
                f"spaced at least {sep:.3g} apart"
            )
        raw_x, u, y_next = next(candidate_blocks)
        candidates = np.hstack(
            [norm.normalize_state(raw_x, dims), norm.normalize_input(u[:, None])]
        )
        values = norm.normalize_output(y_next[:, None])
        count, skipped = _accept_spaced(sites, targets, count, candidates, values, sep)
        rejected += skipped
    provenance[drawn_key] = blocks * per_block
    provenance["rejected"] = rejected

    data = Dataset(
        sites=sites, targets=targets, dims=dims, normalization=norm, contains_origin=True
    )
    provenance["min_pairwise_distance"] = data.min_distance
    return data, provenance


#: Candidates per block of :func:`_accept_spaced`, which bounds its memory.
_ACCEPT_CHUNK = 512


def _accept_spaced(sites, targets, count, candidates, values, sep) -> tuple[int, int]:
    """Append candidate sites in order to the first ``count`` rows of the
    preallocated ``sites``/``targets`` until they are full, skipping each
    candidate closer than ``sep`` to an accepted site.  Returns the new
    count and the number skipped.

    The candidates are taken in blocks that fit the free rows.  Within a
    block, the longest prefix that lies at least ``sep`` from the
    accepted sites and from the earlier candidates of the prefix is
    accepted at once; the first candidate that fails is skipped, and the
    rest of the block is checked the same way.  The decisions are those
    of checking one candidate at a time.
    """
    skipped = 0
    start = 0
    while start < len(candidates) and count < sites.shape[0]:
        block = candidates[start : start + min(_ACCEPT_CHUNK, sites.shape[0] - count)]
        size = block.shape[0]
        far = cdist(block, sites[:count]).min(axis=1) >= sep
        close = cdist(block, block) < sep
        # Latest earlier candidate of the block within sep of each one (-1: none).
        latest = np.where(np.tril(close, -1), np.arange(size), -1).max(axis=1)
        pos = 0
        while pos < size:
            fails = np.flatnonzero(~far[pos:] | (latest[pos:] >= pos))
            end = pos + fails[0] if fails.size else size
            sites[count : count + end - pos] = block[pos:end]
            targets[count : count + end - pos] = values[start + pos : start + end]
            count += end - pos
            far[end:] &= ~close[end:, pos:end].any(axis=1)
            if end < size:
                skipped += 1
            pos = end + 1
        start += size
    return count, skipped


def _collect_states(cfg: BenchmarkConfig, count: int, min_norm: float, blocks) -> np.ndarray:
    """The first ``count`` normalized states whose norm exceeds
    ``min_norm``, from the raw regressor blocks that ``blocks`` yields
    with the number of points drawn for each.  Raises ``ValueError``
    when ``count`` is below one, and ``RuntimeError`` once more than a
    million points are drawn."""
    if count < 1:
        raise ValueError(f"need at least one state, got count={count}")
    norm = cfg.normalization()
    out: list[np.ndarray] = []
    drawn = 0
    while len(out) < count:
        raw, size = next(blocks)
        drawn += size
        if drawn > 1_000_000:
            raise RuntimeError("state sampling stalled; relax the filters")
        states = norm.normalize_state(raw, cfg.dims)
        out.extend(states[np.linalg.norm(states, axis=1) > min_norm])
    return np.asarray(out[:count])


def sample_consistent_states(
    cfg: BenchmarkConfig, count: int, seed: int, min_norm: float = 1e-3
) -> np.ndarray:
    """Physically reachable regressors, normalized, norm above ``min_norm``.

    The first ``count`` regressors of :func:`_reachable_draws` whose
    normalized norm exceeds ``min_norm``.  Used as the evaluation grid for
    growth-bound estimation and for error-constant sampling.  Raises
    ``ValueError`` when ``count`` is below one.
    """
    blocks = ((raw, _HALTON_BLOCK) for raw, _, _ in _reachable_draws(cfg, seed))
    return _collect_states(cfg, count, min_norm, blocks)


def sample_state_grid(
    cfg: BenchmarkConfig, count: int, seed: int, min_norm: float = 1e-3
) -> np.ndarray:
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

    return _collect_states(cfg, count, min_norm, blocks())
