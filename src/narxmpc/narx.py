"""Regressor arithmetic for NARX models with a state-space lift.

A NARX model of lag depth ``nu`` predicts the next output from the last
``nu`` outputs and the last ``nu - 1`` applied inputs.  Stacking those
histories newest-first gives a regressor vector that doubles as the state
of an equivalent state-space system: one step shifts the history blocks
and inserts the freshly predicted output and the freshly applied input.

Everything in this module operates on plain float64 arrays.  Regressors
are 1-D arrays of length ``dims.n``; batched variants accept arrays whose
last axis is the regressor axis.

A :class:`NarxDynamics` is used in two ways, so it implements two
methods.  :meth:`~NarxDynamics.output_batch` gives one step's outputs,
the values that the error bound ``|f - f_eps| <= c_x ||x|| + c_u ||u||``
compares.  :meth:`~NarxDynamics.sweep` rolls out N steps and returns
the outputs together with every step's site Jacobian, the derivative
of the output with respect to the whole site ``[x; u]`` (regressor,
then input), which is all the controller asks of a model.  The kernel
surrogate sweeps in two passes: the values step by step, then every
step's site Jacobians in batched passes.  The exact two-tank view
carries its hidden level and its tangents along the rollout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """An array argument does not match the declared NARX dimensions."""


@dataclass(frozen=True)
class NarxDims:
    """Output dimension ``p``, input dimension ``m`` and lag depth ``nu``.

    The regressor length is ``n = nu * p + (nu - 1) * m``: ``nu`` stacked
    outputs followed by ``nu - 1`` stacked inputs, both newest-first.
    """

    p: int
    m: int
    nu: int

    def __post_init__(self) -> None:
        for name in ("p", "m", "nu"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise DimensionMismatchError(
                    f"{name} must be a positive integer, got {value!r}"
                )

    @property
    def n(self) -> int:
        return self.nu * self.p + (self.nu - 1) * self.m

    @property
    def n_outputs_block(self) -> int:
        """Length of the stacked-output block at the front of the regressor."""
        return self.nu * self.p


def build_regressor(y_hist: np.ndarray, u_hist: np.ndarray, dims: NarxDims) -> np.ndarray:
    """Stack output and input histories (newest first) into a regressor.

    Parameters
    ----------
    y_hist : array, shape (nu, p)
        Outputs ``y(k), y(k-1), ..., y(k-nu+1)``, newest first.
    u_hist : array, shape (nu - 1, m)
        Inputs ``u(k-1), ..., u(k-nu+1)``, newest first.  For ``nu = 1``
        this block is empty.
    """
    y_hist = np.atleast_2d(np.asarray(y_hist, dtype=float))
    u_hist = np.asarray(u_hist, dtype=float).reshape(-1, dims.m) if dims.nu > 1 else np.empty((0, dims.m))
    if y_hist.shape != (dims.nu, dims.p):
        raise DimensionMismatchError(
            f"y_hist has shape {y_hist.shape}, expected ({dims.nu}, {dims.p})"
        )
    if u_hist.shape != (dims.nu - 1, dims.m):
        raise DimensionMismatchError(
            f"u_hist has shape {u_hist.shape}, expected ({dims.nu - 1}, {dims.m})"
        )
    return np.concatenate([y_hist.ravel(), u_hist.ravel()])


def shift_state(x: np.ndarray, y_next: np.ndarray, u: np.ndarray, dims: NarxDims) -> np.ndarray:
    """Advance the regressor one step given the next output and applied input.

    The new regressor is ``[y_next; previous outputs except the oldest;
    u; previous inputs except the oldest]``.  History blocks are copied
    verbatim, so repeated shifting is exact.
    """
    x = np.array(x, dtype=float, copy=None, ndmin=1)
    y_next = np.array(y_next, dtype=float, copy=None, ndmin=1)
    u = np.array(u, dtype=float, copy=None, ndmin=1)
    if x.shape[-1] != dims.n:
        raise DimensionMismatchError(
            f"regressor has length {x.shape[-1]}, expected n={dims.n}"
        )
    if y_next.shape[-1] != dims.p:
        raise DimensionMismatchError(
            f"y_next has length {y_next.shape[-1]}, expected p={dims.p}"
        )
    if u.shape[-1] != dims.m:
        raise DimensionMismatchError(
            f"u has length {u.shape[-1]}, expected m={dims.m}"
        )
    nb = dims.n_outputs_block
    parts = [y_next, x[..., : nb - dims.p]]
    if dims.nu > 1:
        parts.append(u)
        parts.append(x[..., nb : dims.n - dims.m])
    return np.concatenate(parts, axis=-1)


@dataclass
class Sweep:
    """Forward sweep of B input sequences: the outputs (B, N, p) and the
    site Jacobians ``jac`` (B, N, p, n + m), each step's Jacobian with
    respect to its site ``[x; u]``, regressor columns first.  Indexing
    takes or overwrites rows of both arrays, which keep their memory
    layout, so a kept sweep gives the bits of a fresh one.
    """

    outputs: np.ndarray
    jac: np.ndarray

    def __getitem__(self, rows) -> "Sweep":
        return Sweep(self.outputs[rows], self.jac[rows])

    def __setitem__(self, rows, other: "Sweep") -> None:
        self.outputs[rows], self.jac[rows] = other.outputs, other.jac


class NarxDynamics(ABC):
    """A deterministic map from (regressor, input) to the next output.

    Subclasses set ``dims`` and implement the two evaluations:
    :meth:`output_batch`, one step of values, and :meth:`sweep`, N steps
    of values with their site Jacobians.  A single evaluation is a batch of
    one.
    """

    dims: NarxDims

    @abstractmethod
    def output_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Next outputs for rows of ``X`` (B, n) and ``U`` (B, m)."""

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next output for a single regressor ``x`` and input ``u``."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        U = np.asarray(u, dtype=float).reshape(1, -1)
        return self.output_batch(X, U)[0]

    @abstractmethod
    def sweep(self, X0: np.ndarray, U: np.ndarray) -> Sweep:
        """Roll out from the regressors ``X0`` (B, n) under the inputs ``U``
        (B, N, m): the outputs (B, N, p) of every step with their site
        Jacobians (B, N, p, n + m), with respect to that step's regressor
        and input in one row ``[x; u]``.

        Each step's outputs are the values of :meth:`output_batch` at
        that step's regressor and input (to rounding, for a model that
        carries hidden state along the rollout), and shifting them in
        with :func:`shift_state` gives the next regressor: the solver
        takes its costs from a sweep.  Raises
        :class:`DimensionMismatchError` unless ``X0`` and ``U`` have
        those shapes (:func:`rollout_arrays`).
        """


def rollout_arrays(
    X0: np.ndarray, U_seq: np.ndarray, dims: NarxDims
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and convert the arguments of a batched rollout.

    Raises :class:`DimensionMismatchError` unless ``X0`` is (B, n) and
    ``U_seq`` is (B, N, m).
    """
    X0 = np.array(X0, dtype=float, copy=None, ndmin=2)
    U_seq = np.asarray(U_seq, dtype=float)
    if U_seq.ndim != 3 or U_seq.shape[2] != dims.m:
        raise DimensionMismatchError(
            f"U_seq has shape {U_seq.shape}, expected (B, N, m={dims.m})"
        )
    if X0.shape != (U_seq.shape[0], dims.n):
        raise DimensionMismatchError(
            f"X0 has shape {X0.shape}, expected ({U_seq.shape[0]}, {dims.n})"
        )
    return X0, U_seq


@dataclass(frozen=True)
class AffineNormalization:
    """Shift-and-scale map between raw physical units and working coordinates.

    Outputs map as ``(y - y_ref) / y_scale`` and inputs as
    ``(u - u_ref) / u_scale``, componentwise.  The reference point, which
    is the controlled equilibrium in the benchmark, maps to the origin.
    Every entry must be finite and every scale strictly positive.
    """

    y_ref: np.ndarray
    y_scale: np.ndarray
    u_ref: np.ndarray
    u_scale: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y_ref", "y_scale", "u_ref", "u_scale"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"normalization {name} must be finite")
        if np.any(self.y_scale <= 0) or np.any(self.u_scale <= 0):
            raise ValueError("normalization scales must be strictly positive")

    def normalize_output(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_ref) / self.y_scale

    def denormalize_output(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) * self.y_scale + self.y_ref

    def normalize_input(self, u: np.ndarray) -> np.ndarray:
        return (np.asarray(u, dtype=float) - self.u_ref) / self.u_scale

    def denormalize_input(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) * self.u_scale + self.u_ref

    def _state_ref_scale(self, x: np.ndarray, dims: NarxDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The regressor ``x`` as floats with its blockwise reference and
        scale; raise unless its last axis has length ``n``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dims.n:
            raise DimensionMismatchError(
                f"regressor has length {x.shape[-1]}, expected n={dims.n}"
            )
        ref = np.concatenate(
            [np.tile(self.y_ref, dims.nu), np.tile(self.u_ref, dims.nu - 1)]
        )
        scale = np.concatenate(
            [np.tile(self.y_scale, dims.nu), np.tile(self.u_scale, dims.nu - 1)]
        )
        return x, ref, scale

    def normalize_state(self, x: np.ndarray, dims: NarxDims) -> np.ndarray:
        """Normalize a regressor blockwise (output lags, then input lags)."""
        x, ref, scale = self._state_ref_scale(x, dims)
        return (x - ref) / scale

    def denormalize_state(self, x: np.ndarray, dims: NarxDims) -> np.ndarray:
        x, ref, scale = self._state_ref_scale(x, dims)
        return x * scale + ref


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite bounds, used for input constraints and
    domain checks."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lo", "hi"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"box bound {name} must be finite")
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi in some component")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]
