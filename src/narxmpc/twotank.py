"""Cascaded two-tank benchmark plant and its NARX views.

A pump feeds the upper tank, the upper tank drains into the lower one
and the lower tank drains freely; the measured output is the lower
level.  With levels ``h1`` (lower), ``h2`` (upper) and pump flow ``u``:

    d h1 / dt = c12 * sqrt(h2 - h1) - c2 * sqrt(h1)
    d h2 / dt = u / A1 - c12 * sqrt(h2 - h1)

Sampling uses one classical Runge-Kutta step per sampling interval with
the input held constant; where a stage point leaves the domain the step
is redone with finer substeps (:func:`_total_step`), which the plant
simulator, the exact NARX view and the trajectory data generator all
share.  Because only ``h1`` is measured, the sampled
plant is second order with a hidden level; on regressors of lag depth
two or more the hidden level is recoverable from the newest measured
transition, which makes the plant an exact deterministic NARX map and is
how :class:`TwoTankNarxDynamics` evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import qmc

from .narx import (
    AffineNormalization,
    Box,
    NarxDims,
    NarxDynamics,
    build_regressor,
    rollout_arrays,
    shift_state,
)
from .kernels import Dataset, min_pairwise_distance


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
        if min(self.A1, self.c12, self.c2, self.dt) <= 0:
            raise ValueError("two-tank parameters must be strictly positive")


def two_tank_rhs(h1, h2, u, params: TwoTankParams):
    """Continuous-time level derivatives ``(dh1, dh2)``; all arguments broadcast.

    Outside the domain (lower level below zero, or upper level below the
    lower one, beyond rounding noise) the affected derivatives are NaN:
    ``dh1`` for a negative lower level, both for an inverted pair.  No
    floating-point warning is raised, so batched callers can mask rows.
    """
    h1 = np.asarray(h1, dtype=float)
    gap = np.asarray(h2, dtype=float) - h1
    q12 = params.c12 * np.sqrt(np.where(gap >= _ROUNDING_GUARD, np.clip(gap, 0.0, None), np.nan))
    q2 = params.c2 * np.sqrt(np.where(h1 >= _ROUNDING_GUARD, np.clip(h1, 0.0, None), np.nan))
    return q12 - q2, np.asarray(u, dtype=float) / params.A1 - q12


def rk4_step(rhs, state, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``d state / dt = rhs(state, u)``.

    ``state`` is an array whose last axis holds the state components; the
    input is held constant across the four stages.  A failing stage
    re-raises with the stage index attached.
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


def two_tank_step(h1, h2, u, params: TwoTankParams):
    """Advance the levels one sampling interval under a held input.

    Returns ``(h1_next, h2_next)``; all arguments broadcast.  This is
    :func:`rk4_step` on the stacked levels, written out per level: rows
    whose stage points leave the domain come out NaN.
    """
    h1, h2, u = np.broadcast_arrays(
        np.asarray(h1, dtype=float), np.asarray(h2, dtype=float), np.asarray(u, dtype=float)
    )
    dt = params.dt
    half = 0.5 * dt
    a1, a2 = two_tank_rhs(h1, h2, u, params)
    b1, b2 = two_tank_rhs(h1 + half * a1, h2 + half * a2, u, params)
    c1, c2 = two_tank_rhs(h1 + half * b1, h2 + half * b2, u, params)
    e1, e2 = two_tank_rhs(h1 + dt * c1, h2 + dt * c2, u, params)
    sixth = dt / 6.0
    return (
        h1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + e1),
        h2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + e2),
    )


def _total_step(h1, h2, u, params: TwoTankParams, max_levels: int = 6):
    """Sampled step made total on ``h2 >= h1 >= 0`` with ``u >= 0``.

    The exact flow never leaves that region (the level difference grows
    on its boundary), but single-step Runge-Kutta stage points can cross
    it when the levels are nearly equal and the pump flow is small.
    Rows where the full-interval step fails are re-integrated with
    progressively finer substeps, which reproduces the invariant flow;
    rows that stay invalid through the finest level raise.
    """
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    h2 = np.atleast_1d(np.asarray(h2, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h1, h2, u = np.broadcast_arrays(h1, h2, u)
    n1, n2 = two_tank_step(h1, h2, u, params)
    n1 = np.array(n1, dtype=float, copy=True)
    n2 = np.array(n2, dtype=float, copy=True)
    splits = 1
    for _ in range(max_levels):
        bad = ~(np.isfinite(n1) & np.isfinite(n2))
        if not np.any(bad):
            return n1, n2
        splits *= 2
        sub = replace(params, dt=params.dt / splits)
        c1, c2l, uu = h1[bad].copy(), h2[bad].copy(), u[bad]
        for _ in range(splits):
            c1 = np.maximum(c1, 0.0)
            c1, c2l = two_tank_step(c1, np.maximum(c2l, c1), uu, sub)
        n1[bad], n2[bad] = c1, c2l
    bad = ~(np.isfinite(n1) & np.isfinite(n2))
    if np.any(bad):
        raise DomainError(
            f"{int(np.sum(bad))} state(s) stayed invalid down to "
            f"{2 ** max_levels} substeps; levels outside h2 >= h1 >= 0"
        )
    return n1, n2


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


def reconstruct_hidden_level(y_prev, y_cur, u_prev, params: TwoTankParams, iters: int = 54):
    """Recover the current upper-tank level from the newest measured transition.

    Finds the previous upper level ``h2(k-1)`` in ``[y_prev,
    HIDDEN_LEVEL_MAX]`` such that one sampled step from ``(y_prev,
    h2(k-1))`` under ``u_prev`` reproduces ``y_cur``; the step's upper
    level is the reconstruction.  The map is strictly increasing in the
    upper level, so bisection converges; unreachable targets clamp to the
    nearest bracket end.  Exact (to solver tolerance) whenever the
    transition actually came from the plant.

    All arguments broadcast; returns the reconstructed ``h2(k)``.
    """
    y_prev, y_cur, u_prev = np.broadcast_arrays(
        np.asarray(y_prev, dtype=float),
        np.asarray(y_cur, dtype=float),
        np.asarray(u_prev, dtype=float),
    )
    lo = y_prev.astype(float).copy()
    hi = np.full_like(lo, HIDDEN_LEVEL_MAX)
    g_lo, _ = _total_step(y_prev, lo, u_prev, params)
    g_lo = g_lo.reshape(lo.shape)
    g_hi, _ = _total_step(y_prev, hi, u_prev, params)
    g_hi = g_hi.reshape(hi.shape)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g_mid, _ = two_tank_step(y_prev, mid, u_prev, params)
        # A failed single-step probe means near-equal levels, where the
        # step drains the lower tank; treat it as undershooting.
        go_down = g_mid > y_cur
        hi = np.where(go_down, mid, hi)
        lo = np.where(go_down, lo, mid)
    h2_before = 0.5 * (lo + hi)
    h2_before = np.where(g_lo >= y_cur, y_prev, h2_before)
    h2_before = np.where(g_hi <= y_cur, HIDDEN_LEVEL_MAX, h2_before)
    _, h2_now = _total_step(y_prev, h2_before, u_prev, params)
    h2_now = h2_now.reshape(h2_before.shape)
    return np.maximum(h2_now, y_cur)


class TwoTankPlant:
    """Stateful sampled simulator carrying both levels.

    This is the closed-loop stand-in for the physical rig: it hides the
    upper level and reports only the measured lower level.  Sequential
    use only.
    """

    def __init__(self, params: TwoTankParams, h1: float, h2: float):
        if not (0.0 <= h1 <= h2):
            raise DomainError(
                f"initial levels must satisfy 0 <= h1 <= h2, got ({h1}, {h2})"
            )
        self.params = params
        self.h1 = float(h1)
        self.h2 = float(h2)

    @property
    def levels(self) -> tuple[float, float]:
        return self.h1, self.h2

    def step(self, u: float) -> float:
        """Apply one held input, advance the levels, return the new output.

        Steps as :class:`TwoTankNarxDynamics` does, recovering a failed
        Runge-Kutta step by substeps; raises :class:`DomainError` when
        the levels stay invalid down to the finest substep.
        """
        h1, h2 = _total_step(self.h1, max(self.h2, self.h1), float(u), self.params)
        self.h1, self.h2 = float(h1[0]), float(h2[0])
        return self.h1

    def simulate(self, u_seq) -> np.ndarray:
        """Apply a sequence of held inputs; returns the measured outputs."""
        return np.array([self.step(u) for u in np.asarray(u_seq, dtype=float).ravel()])


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
        self._recon_cache: dict[bytes, np.ndarray] = {}

    def _raw_pieces(self, X: np.ndarray):
        """Raw newest transition; rejects negative measured levels."""
        raw_x = self.norm.denormalize_state(X, self.dims)
        y_cur = raw_x[..., 0]
        y_prev = raw_x[..., 1]
        if np.any(y_prev < 0) or np.any(y_cur < 0):
            raise DomainError("regressor encodes a negative measured level")
        return y_cur, y_prev, raw_x[..., self.dims.nu]

    def _reconstruct(self, y_prev, y_cur, u_prev):
        # Solvers evaluate many input sequences from one fixed regressor;
        # memoizing the bisection keeps those repeat calls cheap.  Entries
        # are only rebound downstream, never written through.
        key = np.ascontiguousarray(np.stack([y_prev, y_cur, u_prev])).tobytes()
        hit = self._recon_cache.get(key)
        if hit is None:
            hit = reconstruct_hidden_level(y_prev, y_cur, u_prev, self.params)
            if len(self._recon_cache) >= 8:
                self._recon_cache.pop(next(iter(self._recon_cache)))
            self._recon_cache[key] = hit
        return hit

    def output_batch(self, X, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return self.rollout_batch(X, U[:, None])[1][:, 0]

    def rollout_batch(self, X0, U_seq):
        """Batched rollout that reconstructs the hidden level only once.

        Along a rollout the regressors are self-consistent by
        construction, so after recovering the upper level at the initial
        regressor the remaining steps integrate both levels directly.
        Produces the same trajectories as the generic per-step path.
        """
        X0, U_seq = rollout_arrays(X0, U_seq, self.dims)
        b, horizon = U_seq.shape[0], U_seq.shape[1]
        y_cur, y_prev, u_prev = self._raw_pieces(X0)
        h2 = self._reconstruct(y_prev, y_cur, u_prev)
        h1 = y_cur.copy()
        states = np.empty((b, horizon + 1, self.dims.n))
        outputs = np.empty((b, horizon, self.dims.p))
        states[:, 0] = X0
        for k in range(horizon):
            u_raw = self.norm.denormalize_input(U_seq[:, k])[..., 0]
            h1, h2 = _total_step(h1, np.maximum(h2, h1), u_raw, self.params)
            y_next = self.norm.normalize_output(h1[:, None])
            outputs[:, k] = y_next
            states[:, k + 1] = shift_state(states[:, k], y_next, U_seq[:, k], self.dims)
        return states, outputs


class StatefulPlantDynamics(NarxDynamics):
    """Closed-loop adapter that advances a :class:`TwoTankPlant` internally.

    ``output`` ignores the regressor history and steps the carried plant
    with the denormalized input, exactly as a rig would respond.  Not a
    pure function of its arguments; sequential use only, so a batch may
    hold a single row.
    """

    def __init__(self, plant: TwoTankPlant, normalization: AffineNormalization, dims: NarxDims):
        self.plant = plant
        self.norm = normalization
        self.dims = dims

    def output(self, x, u):
        u_raw = float(self.norm.denormalize_input(np.atleast_1d(np.asarray(u, dtype=float)))[0])
        y = self.plant.step(u_raw)
        return self.norm.normalize_output(np.array([y]))

    def output_batch(self, X, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[0] != 1:
            raise ValueError("the stateful plant advances one input at a time")
        return self.output(None, U[0])[None]


@dataclass(frozen=True)
class BenchmarkConfig:
    """Two-tank benchmark settings (raw physical units for the plant side).

    ``d`` counts interpolation sites including the equilibrium sample,
    ``horizon`` is the controller horizon and ``steps`` the closed-loop
    length.  The output domain is the fixed level range ``[y_lo, y_hi]``
    and the admissible pump range is ``[u_lo, u_hi]``; the measured
    level starts at the constant value ``h0``.  Dataset ``mode`` is
    ``state_grid`` (quasi-uniform coverage of levels and inputs, the
    default) or ``trajectory`` (harvested simulation runs).
    """

    d: int = 101
    horizon: int = 20
    q_weight: float = 1.0
    r_weight: float = 0.1
    nu: int = 2
    steps: int = 100
    seed: int = 0
    u_lo: float = 3.16e-6
    u_hi: float = 4.76e-5
    dt: float = 10.0
    mode: str = "state_grid"
    sigma: float = 1.0
    jitter: float = 0.0
    h0: float = 0.2
    u_eq: float = 5.461e-6
    y_lo: float = 0.0
    y_hi: float = 0.5

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.horizon < 1 or self.steps < 0:
            raise ValueError("horizon must be >= 1 and steps >= 0")
        if self.mode not in ("trajectory", "state_grid"):
            raise ValueError(
                f"unknown dataset mode {self.mode!r}; use 'trajectory' or 'state_grid'"
            )
        if not (self.u_lo < self.u_hi):
            raise ValueError("need u_lo < u_hi")
        if not (self.u_lo <= self.u_eq <= self.u_hi):
            raise ValueError("the equilibrium input must lie inside the input range")
        if not (self.y_lo < self.y_hi):
            raise ValueError("need y_lo < y_hi")

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

    def state_box(self) -> Box:
        """Normalized box containing all admissible regressors."""
        norm = self.normalization()
        dims = self.dims
        lo_raw = np.concatenate(
            [np.full(dims.n_outputs_block, self.y_lo), np.full(dims.n - dims.n_outputs_block, self.u_lo)]
        )
        hi_raw = np.concatenate(
            [np.full(dims.n_outputs_block, self.y_hi), np.full(dims.n - dims.n_outputs_block, self.u_hi)]
        )
        return Box(
            lo=norm.normalize_state(lo_raw, dims),
            hi=norm.normalize_state(hi_raw, dims),
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


def generate_dataset(cfg: BenchmarkConfig) -> tuple[Dataset, dict]:
    """Generate an interpolation dataset from the two-tank plant.

    Modes
    -----
    ``trajectory``
        Seeded random restarts of a :class:`TwoTankPlant` with
        piecewise-constant inputs (held for three samples);
        regressor-input-target triples are harvested while the output
        stays inside the level domain.
    ``state_grid``
        Scrambled Halton points over (lower level, upper level, previous
        input, input), filtered to upper >= lower, with two one-step
        integrations producing the regressor and the target.

    Both modes place the exact equilibrium sample first, enforce a
    minimum pairwise site separation and return everything in normalized
    coordinates.  Returns the dataset plus a provenance dict.
    """
    sep = _default_separation(cfg.d)
    provenance = {"mode": cfg.mode, "seed": cfg.seed, "min_separation": sep}
    dims = cfg.dims
    norm = cfg.normalization()
    if cfg.mode == "state_grid" and cfg.nu != 2:
        raise ValueError("state_grid generation is defined for lag depth 2")

    origin_site = np.concatenate([cfg.equilibrium_regressor(), norm.normalize_input(np.array([cfg.u_eq]))])
    sites = [origin_site]
    targets = [np.zeros(1)]

    def try_accept(site: np.ndarray, target: np.ndarray) -> bool:
        stack = np.asarray(sites)
        if np.min(np.linalg.norm(stack - site, axis=1)) < sep:
            return False
        sites.append(site)
        targets.append(target)
        return True

    rejected = 0
    if cfg.mode == "trajectory":
        rng = np.random.default_rng(cfg.seed)
        trajectories = 0
        max_len = 40
        guard = 0
        while len(sites) < cfg.d:
            guard += 1
            if guard > 100000:
                raise RuntimeError(
                    f"dataset generation stalled at {len(sites)} of {cfg.d} sites "
                    f"spaced at least {sep:.3g} apart"
                )
            trajectories += 1
            h1 = rng.uniform(cfg.y_lo, cfg.y_hi)
            plant = TwoTankPlant(cfg.params, h1, h1 + rng.uniform(0.0, 0.3))
            y_hist = [h1]
            u_hist: list[float] = []
            u_cur = rng.uniform(cfg.u_lo, cfg.u_hi)
            for t in range(max_len):
                if t % 3 == 0:
                    u_cur = rng.uniform(cfg.u_lo, cfg.u_hi)
                try:
                    h1 = plant.step(u_cur)
                except DomainError:
                    break
                if not (cfg.y_lo <= h1 <= cfg.y_hi):
                    break
                y_hist.append(h1)
                u_hist.append(u_cur)
                k = len(u_hist) - 1
                if k >= dims.nu - 1:
                    y_block = np.array(y_hist[k - dims.nu + 1 : k + 1][::-1])
                    u_block = np.array(u_hist[k - dims.nu + 1 : k][::-1])
                    raw_x = build_regressor(y_block[:, None], u_block[:, None], dims)
                    site = np.concatenate(
                        [norm.normalize_state(raw_x, dims), norm.normalize_input(np.array([u_hist[k]]))]
                    )
                    target = norm.normalize_output(np.array([y_hist[k + 1]]))
                    if not try_accept(site, target):
                        rejected += 1
                if len(sites) >= cfg.d:
                    break
        provenance["trajectories"] = trajectories
    else:
        sampler = qmc.Halton(d=4, scramble=True, seed=cfg.seed)
        drawn = 0
        while len(sites) < cfg.d:
            block = sampler.random(2048)
            drawn += 2048
            if drawn > 4_000_000:
                raise RuntimeError(
                    f"dataset generation stalled at {len(sites)} of {cfg.d} sites "
                    f"spaced at least {sep:.3g} apart"
                )
            h1 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 0]
            h2 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 1]
            u_prev = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, 2]
            u_now = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, 3]
            keep = h2 >= h1
            h1, h2, u_prev, u_now = h1[keep], h2[keep], u_prev[keep], u_now[keep]
            y_cur, h2_cur = two_tank_step(h1, h2, u_prev, cfg.params)
            y_next, _ = two_tank_step(y_cur, np.maximum(h2_cur, y_cur), u_now, cfg.params)
            ok = (
                np.isfinite(y_next)
                & np.isfinite(y_cur)
                & (y_cur >= cfg.y_lo)
                & (y_cur <= cfg.y_hi)
            )
            for i in np.flatnonzero(ok):
                raw_x = np.array([y_cur[i], h1[i], u_prev[i]])
                site = np.concatenate(
                    [norm.normalize_state(raw_x, dims), norm.normalize_input(np.array([u_now[i]]))]
                )
                target = norm.normalize_output(np.array([y_next[i]]))
                if not try_accept(site, target):
                    rejected += 1
                if len(sites) >= cfg.d:
                    break
        provenance["halton_points"] = drawn
    provenance["rejected"] = rejected

    data = Dataset(
        sites=np.asarray(sites),
        targets=np.asarray(targets),
        dims=dims,
        normalization=norm,
        contains_origin=True,
    )
    provenance["min_pairwise_distance"] = min_pairwise_distance(data.sites)
    return data, provenance


def sample_consistent_states(
    cfg: BenchmarkConfig, count: int, seed: int, min_norm: float = 1e-3
) -> np.ndarray:
    """Physically reachable regressors, normalized, norm above ``min_norm``.

    Draws scrambled Halton points over (lower level, upper level,
    previous input), integrates one sampled step and keeps regressors
    whose output stays inside the level domain.  Used as the evaluation
    grid for growth-bound estimation and for error-constant sampling.
    """
    if cfg.nu != 2:
        raise ValueError("consistent-state sampling is defined for lag depth 2")
    dims = cfg.dims
    norm = cfg.normalization()
    sampler = qmc.Halton(d=3, scramble=True, seed=seed)
    out: list[np.ndarray] = []
    drawn = 0
    while len(out) < count:
        block = sampler.random(1024)
        drawn += 1024
        if drawn > 1_000_000:
            raise RuntimeError("state sampling stalled; relax the filters")
        h1 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 0]
        h2 = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, 1]
        u_prev = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, 2]
        keep = h2 >= h1
        h1, h2, u_prev = h1[keep], h2[keep], u_prev[keep]
        y_cur, _ = two_tank_step(h1, h2, u_prev, cfg.params)
        ok = np.isfinite(y_cur) & (y_cur >= cfg.y_lo) & (y_cur <= cfg.y_hi)
        raw = np.stack([y_cur[ok], h1[ok], u_prev[ok]], axis=1)
        states = norm.normalize_state(raw, dims)
        states = states[np.linalg.norm(states, axis=1) > min_norm]
        out.extend(states)
    return np.asarray(out[:count])


def sample_state_grid(
    cfg: BenchmarkConfig, count: int, seed: int, min_norm: float = 1e-3
) -> np.ndarray:
    """Quasi-uniform normalized regressors over the state box, origin excluded.

    Scrambled Halton points over the level and input-history ranges,
    keeping only states whose normalized norm exceeds ``min_norm``.
    This is the evaluation grid for growth-bound certification, which
    must cover the whole declared domain rather than just reachable
    states.
    """
    dims = cfg.dims
    norm = cfg.normalization()
    nb = dims.n_outputs_block
    sampler = qmc.Halton(d=dims.n, scramble=True, seed=seed)
    out: list[np.ndarray] = []
    drawn = 0
    while len(out) < count:
        block = sampler.random(max(256, count))
        drawn += block.shape[0]
        if drawn > 1_000_000:
            raise RuntimeError("state sampling stalled; relax the filters")
        raw = np.empty_like(block)
        raw[:, :nb] = cfg.y_lo + (cfg.y_hi - cfg.y_lo) * block[:, :nb]
        raw[:, nb:] = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * block[:, nb:]
        states = norm.normalize_state(raw, dims)
        out.extend(states[np.linalg.norm(states, axis=1) > min_norm])
    return np.asarray(out[:count])


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
