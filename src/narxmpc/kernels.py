"""Kernel interpolation with native-space error certificates.

The default kernel is the compactly supported Wendland profile

    phi(r) = (1/30) * (1 - r)^5 * (5 r + 1)   for 0 <= r < 1,   0 otherwise,

applied to scaled Euclidean distances ``r = ||xi - xi'|| / sigma``.  It is
C^2 and positive definite up to dimension five, which covers every
regressor-input space used here.

An interpolant fitted to data ``(xi_i, y_i)`` reproduces each target
exactly and carries two computable certificates: the power function,
which bounds the pointwise error relative to the native-space norm of
the target function, and the native-space norm of the interpolant
itself.

A fitted model holds one D x D array.  LAPACK writes the Cholesky factor
of the Gram matrix into its upper triangle; the strictly lower triangle
keeps the Gram entries, and the diagonal of the Gram matrix is the
constant ``phi(0)``.  Each solve is one Cholesky solve against
that factor, and each product with the Gram matrix is one BLAS symm on
the lower triangle, so no second D x D array is ever allocated.

The fitted interpolant is also the surrogate NARX dynamics, with its two
evaluations: ``output_batch``, one step of values, and ``sweep``, N
steps of values with every step's site Jacobian, with respect to the
site ``[x; u]``.  Both come from two private routines on rows of sites:
a value pass and a Jacobian pass.
The value pass takes the profile's constants out of the row, since

    phi(r) = (1/30) (1 - r)^5 (5 r + 1) = (1/6) (1 - r)^5 (r + 1/5)

(Wendland, *Scattered Data Approximation*, CUP 2005, ch. 9): a row is
one distance pass, seven in-place passes that form ``(1 - r)^5 (r + 1/5)``
and keep ``f = (1 - r)^4`` of each site, and one product with the value
weights ``c / 6``, which the model forms once from its coefficients.
The Gram matrix, :func:`wendland_phi` and the power function keep the
exact profile, so the fit does not depend on the value pass, whose
values agree with ``sum_i c_i phi(r_i)`` to rounding.  Since
``phi'(r) / r = -(1 - r)^4 / sigma^2``, the Jacobian of
``F(xi) = sum_i c_i phi(||xi - s_i|| / sigma)`` expands to

    J(xi) = (1 / sigma^2) [ sum_i f_i c_i s_i^T - (sum_i f_i c_i) xi^T ],

so the Jacobian pass is one product of the kept ``f`` with the
coefficient-weighted sites ``[C * S | C]^T / sigma^2``, which the model
also forms once, and a rank-one correction; no site differences are
formed.  The sweep runs the value pass step by step, since each step's
output is the next step's site, and the Jacobian pass over the rows of
several steps at once; the pass differentiates by the whole site, so
its rows are the sweep's site Jacobians as they stand.  The value pass
works in blocks of ``_BLOCK`` rows, in three scratch arrays (radii,
profile and ``f``); a sweep keeps each step's ``f`` in its own array
and binds the other two, the sites, the weights and the scale once for
all its steps, so that a step pays for its passes and little else.

Every distance comes from scipy's compiled Euclidean kernel,
``scipy.spatial._distance_pybind.cdist_euclidean``: the function that
``scipy.spatial.distance.cdist(A, B)`` calls for its default metric,
here called without the public wrapper, whose metric lookup and checks
cost about 1 us of a D=101 row (the kernel checks shapes and the
``out`` array itself).  The name is private to scipy, so it is resolved
once, at import, and a property test checks that it gives the bits of
``cdist`` on the installed scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsymm
from scipy.spatial._distance_pybind import cdist_euclidean as _euclidean

from .narx import AffineNormalization, NarxDims, NarxDynamics, Sweep, rollout_arrays


class KernelFitError(RuntimeError):
    """Raised when the kernel matrix cannot be factorized."""


def _wendland_terms(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """``min(r, 1)``, written into ``r``, with ``1 - min(r, 1)`` and its
    fourth power, the factors that the profile and its slope share; new
    arrays, also for a 0-d ``r``."""
    # Clipping first makes ``1 - min(r, 1)`` the bits of ``max(1 - r, 0)``
    # for every r (+0 from 1 on, NaN for NaN) in one pass fewer, and the
    # profile's factor reuses the clipped radii.  Products are written in
    # place: numpy's ``pow`` costs several times a multiply, and each
    # temporary of a D x D Gram build is D^2 doubles.
    clipped = np.minimum(r, 1.0, out=r)
    one_minus = np.subtract(1.0, clipped, out=np.empty(r.shape))
    fourth = np.multiply(one_minus, one_minus, out=np.empty(r.shape))
    fourth *= fourth
    return clipped, one_minus, fourth


def _profile(clipped: np.ndarray, one_minus: np.ndarray, fourth: np.ndarray) -> np.ndarray:
    """The exact profile :func:`wendland_phi`, with its ``5 r + 1`` and
    ``/ 30``, from the terms of :func:`_wendland_terms`, written into
    ``one_minus``; ``clipped`` is overwritten as scratch.  The Gram
    matrix and every cross-kernel matrix take it; the value pass of
    :class:`KernelInterpolant` forms ``6 phi`` instead and folds the 6
    into its weights."""
    phi = np.multiply(fourth, one_minus, out=one_minus)
    # The factor 5 r + 1 uses min(r, 1), which leaves it unchanged where
    # the profile is nonzero and keeps it finite (so 0 * inf never arises).
    clipped *= 5.0
    clipped += 1.0
    phi *= clipped
    phi /= 30.0
    return phi


def wendland_phi(r: np.ndarray) -> np.ndarray:
    """Wendland radial profile, zero for ``r >= 1``.

    Raises ``ValueError`` for negative radii.
    """
    r = np.array(r, dtype=float)  # a copy: the terms overwrite it
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return _profile(*_wendland_terms(r))


@dataclass(frozen=True)
class KernelSpec:
    """Wendland kernel on a ``input_dim``-dimensional site space.

    ``family`` names the profile in saved model files; it is the only
    family implemented.
    """

    family: ClassVar[str] = "wendland_deg5"

    input_dim: int
    lengthscale: float = 1.0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if not 0 < self.lengthscale < np.inf:
            raise ValueError(f"lengthscale must be finite and strictly positive, got {self.lengthscale!r}")
        if self.input_dim > 5:
            raise ValueError(
                "the Wendland profile used here is positive definite only "
                f"up to dimension 5, got input_dim={self.input_dim}"
            )

    @property
    def diag_value(self) -> float:
        """Kernel value at zero distance, ``phi(0)``."""
        return float(wendland_phi(np.array(0.0)))


#: Rows per block of the Gram build, kernel rows and nearest-site
#: distances, and the rows a sweep keeps before its next Jacobian pass.
_BLOCK = 64

#: The value pass's constants as 0-d arrays, which a ufunc takes without
#: converting a Python float on every call (a third of a short row's pass).
_ONE, _FIFTH = np.array(1.0), np.array(0.2)


def _value_pass(Xi, out, fourth, sites, weights, scale, radii, profile, stacked) -> None:
    """Interpolant values at up to ``_BLOCK`` site rows ``Xi`` (M, n + m),
    written into ``out`` (any (M, 1, p) view, such as the output blocks of
    the next sites), with each row's ``(1 - r)^4`` written into ``fourth``.

    One distance pass against ``sites``, divided by ``scale`` unless it is
    None (a unit lengthscale, whose division changes no bit), seven
    in-place passes that form ``6 phi(r) = (1 - r)^5 (r + 1/5)`` (the
    passes of :func:`_wendland_terms`, then ``*= f``, ``+= 0.2`` and
    ``*=``) and one stacked product with ``weights``, the interpolant's
    ``c / 6``, so each row's value is its own product and equals its batch
    of one bit for bit.  The profile's ``/ 30`` and ``5 r + 1`` live in the
    weights, so these values agree with the exact profile of
    :func:`kernel_matrix` to rounding only.  ``radii`` and ``profile`` are
    scratch rows (M, D) and ``stacked`` is ``profile`` viewed as (M, 1, D),
    the product's operand.  A plain function whose arguments the caller
    binds once, since a sweep step pays for every call, lookup and view
    around its passes.
    """
    # ``out`` by position, after the weights (None): keywords cost the kernel about 0.3 us.
    r = _euclidean(Xi, sites, None, radii)
    if scale is not None:
        r /= scale
    np.minimum(r, _ONE, out=r)
    np.subtract(_ONE, r, out=profile)
    np.multiply(profile, profile, out=fourth)
    fourth *= fourth
    profile *= fourth
    r += _FIFTH
    profile *= r
    np.matmul(stacked, weights, out=out)


def _value_blocks(Xi, out, fourth, sites, weights, scale, radii, profile, stacked) -> None:
    """:func:`_value_pass` over any number of rows, in blocks of
    ``_BLOCK``, which bounds the scratch rows to one block; ``fourth``
    holds all M rows or, as one more scratch array, one block."""
    if Xi.shape[0] <= _BLOCK:
        _value_pass(Xi, out, fourth, sites, weights, scale, radii, profile, stacked)
        return
    for a in range(0, Xi.shape[0], _BLOCK):
        b = min(a + _BLOCK, Xi.shape[0])
        kept = fourth[a:b] if fourth.shape[0] == Xi.shape[0] else fourth[: b - a]
        _value_pass(Xi[a:b], out[a:b], kept, sites, weights, scale, radii[: b - a], profile[: b - a], stacked[: b - a])


def _kernel_terms(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_wendland_terms` of the scaled radii between the rows of
    ``A`` and ``B``, for the exact profile of every Gram and cross-kernel
    matrix; the value pass of :class:`KernelInterpolant` scales its radii
    the same way."""
    r = _euclidean(A, B)
    # Division is the costliest pass of a kernel row, and a division by 1
    # (the lengthscale in normalized coordinates) leaves every bit as it is.
    if spec.lengthscale != 1.0:
        r /= spec.lengthscale
    return _wendland_terms(r)


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Cross-kernel matrix between row-site arrays ``A`` (Da, d) and ``B`` (Db, d).

    Without ``B`` this is the Gram matrix of ``A``, filled in blocks of
    rows: each block is the cross-kernel matrix of its rows with the rows
    up to its end, mirrored into the upper triangle.  A distance and its
    mirror are the same bits, so the result equals
    ``kernel_matrix(spec, A, A)`` bit for bit, and no temporary is larger
    than one block of rows.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if B is not None:
        return _profile(*_kernel_terms(spec, A, np.atleast_2d(np.asarray(B, dtype=float))))
    gram = np.empty((len(A), len(A)))
    for a in range(0, len(A), _BLOCK):
        b = min(a + _BLOCK, len(A))
        gram[a:b, :b] = kernel_matrix(spec, A[a:b], A[:b])
        gram[:a, a:b] = gram[a:b, :a].T
    return gram


@dataclass(frozen=True)
class Dataset:
    """Interpolation data in normalized coordinates.

    ``sites`` stacks regressor-input pairs ``[x; u]`` row-wise, and
    ``targets`` holds the corresponding next outputs.  ``contains_origin``
    records whether the controlled equilibrium (the origin after
    normalization) is one of the sites.
    """

    sites: np.ndarray
    targets: np.ndarray
    dims: NarxDims
    normalization: AffineNormalization
    contains_origin: bool = False

    def __post_init__(self) -> None:
        # C-ordered copies with their own strides: a strided view (a column
        # block of a read table) would make reductions such as
        # ``KernelInterpolant.rkhs_norm`` sum in another order.
        sites = np.array(self.sites, dtype=float, order="C", ndmin=2)
        targets = np.array(self.targets, dtype=float, order="C", ndmin=2)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "targets", targets)
        if sites.shape[0] != targets.shape[0]:
            raise ValueError(
                f"{sites.shape[0]} sites but {targets.shape[0]} targets"
            )
        if sites.shape[1] != self.dims.n + self.dims.m:
            raise ValueError(
                f"sites have {sites.shape[1]} columns, expected "
                f"n + m = {self.dims.n + self.dims.m}"
            )
        if targets.shape[1] != self.dims.p:
            raise ValueError(
                f"targets have {targets.shape[1]} columns, expected p={self.dims.p}"
            )
        for name, values in (("sites", sites), ("targets", targets)):
            bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
            if bad.size:
                raise ValueError(
                    f"non-finite {name}: {bad.size} row(s) hold NaN or inf, "
                    f"first rows {bad[:5].tolist()}"
                )
        if self.min_distance <= 1e-10:
            raise ValueError(
                f"duplicate sites: minimum pairwise distance {self.min_distance:.3e} <= 1e-10"
            )
        if self.contains_origin:
            norms = np.linalg.norm(sites, axis=1)
            idx = int(np.argmin(norms))
            if norms[idx] >= 1e-10 or np.linalg.norm(targets[idx]) >= 1e-10:
                raise ValueError(
                    "contains_origin is set but no site/target pair sits at the "
                    "origin within 1e-10"
                )

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    @cached_property
    def min_distance(self) -> float:
        """Smallest distance between distinct sites (inf below two sites);
        computed once, by the validation."""
        return min_pairwise_distance(self.sites)


def _nearest_site_distances(
    points: np.ndarray, sites: np.ndarray, exclude_self: bool
) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``sites``.

    Computed in blocks of rows; every per-pair distance is the same in any
    block.  With ``exclude_self`` the points are the sites themselves and
    each row skips its own site.
    """
    nearest = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _BLOCK):
        dist = _euclidean(points[start : start + _BLOCK], sites)
        if exclude_self:
            rows = np.arange(dist.shape[0])
            dist[rows, start + rows] = np.inf
        nearest[start : start + dist.shape[0]] = dist.min(axis=1)
    return nearest


def min_pairwise_distance(sites: np.ndarray) -> float:
    """Smallest distance between distinct rows."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.shape[0] < 2:
        return np.inf
    return float(_nearest_site_distances(sites, sites, exclude_self=True).min())


def fill_distance(sites: np.ndarray, probes: np.ndarray) -> float:
    """Largest distance from any probe point to its nearest site."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[0] == 0:
        raise ValueError("fill distance needs at least one probe point")
    return float(_nearest_site_distances(probes, sites, exclude_self=False).max())


def _gram_product(store: np.ndarray, diagonal: float, X: np.ndarray) -> np.ndarray:
    """``G @ X`` for the Gram matrix ``G`` whose entries below the diagonal
    are the strictly lower triangle of ``store`` and whose diagonal is the
    constant ``diagonal``: BLAS symm on that lower triangle, whose diagonal
    holds the factor's, plus the difference to ``diagonal``.  Its sums are
    not those of a dense gemm, so it agrees with ``gram @ X`` to rounding.
    """
    out = dsymm(1.0, store.T, X, lower=0)
    out += (diagonal - np.diagonal(store))[:, None] * X
    return out


class KernelInterpolant(NarxDynamics):
    """Interpolant ``F(xi) = sum_i alpha_i phi(||xi - xi_i|| / sigma)``.

    The interpolant is the surrogate NARX dynamics itself: a site is a
    regressor-input pair ``xi = [x; u]``, so :meth:`output_batch`
    evaluates it on rows of ``x`` and ``u``.  Its :meth:`sweep` runs in
    two passes: a value pass per step, which keeps that step's
    ``(1 - r)^4`` and writes the next sites, and a Jacobian pass over
    every kept row whenever 64 or more rows are kept, and once at the
    end: one product with the coefficient-weighted sites
    :attr:`_weighted_sites` and a rank-one correction (see the module
    docstring).  Values and Jacobians both come from the same two
    private routines, :func:`_value_pass` and :meth:`_jacobians`.  The values
    weight ``6 phi`` by :attr:`_value_weights`, ``coefficients / 6``;
    both weight arrays are derived once from the fitted coefficients,
    which they leave as they are.

    Fitted by :func:`fit_interpolant`, which leaves the Gram matrix and
    its Cholesky factor in the one D x D array ``store``: the factor in
    the upper triangle, the Gram entries below the diagonal (see the
    module docstring).  The power function solves against that factor.
    """

    def __init__(
        self,
        spec: KernelSpec,
        data: Dataset,
        store: np.ndarray,
        coefficients: np.ndarray,
        site_residual: float,
    ):
        self.spec = spec
        self.data = data
        self._store = store
        self.coefficients = coefficients
        self.site_residual = site_residual

    @property
    def dims(self) -> NarxDims:
        return self.data.dims

    def _pass_args(self, rows: int) -> tuple:
        """The arguments of :func:`_value_pass` after its first three for
        up to ``rows`` site rows: the sites, :attr:`_value_weights`, the
        scale (None for a unit lengthscale) and new scratch rows for one
        block of at most ``_BLOCK`` rows."""
        scale = self.spec.lengthscale
        radii, profile = np.empty((2, min(rows, _BLOCK), self.data.sites.shape[0]))
        return (
            self.data.sites, self._value_weights, None if scale == 1.0 else scale,
            radii, profile, profile[:, None, :],
        )

    @cached_property
    def _value_weights(self) -> np.ndarray:
        """``coefficients / 6``, C-ordered (D, p): the weights of
        ``(1 - r)^5 (r + 1/5) = 6 phi(r)`` in the value pass."""
        return np.ascontiguousarray(self.coefficients / 6.0)

    @cached_property
    def _weighted_sites(self) -> np.ndarray:
        """``[C * S | C]^T / sigma^2``, C-ordered (p (n + m) + p, D): row
        ``j (n + m) + k`` holds ``c_ij s_ik / sigma^2`` over the sites
        ``i``, and row ``p (n + m) + j`` holds ``c_ij / sigma^2``."""
        sites, coefficients = self.data.sites, self.coefficients
        weighted = coefficients[:, :, None] * sites[:, None, :]
        stacked = np.concatenate([weighted.reshape(sites.shape[0], -1), coefficients], axis=1)
        return np.ascontiguousarray(stacked.T / self.spec.lengthscale**2)

    def _jacobians(self, Xi: np.ndarray, fourth: np.ndarray) -> np.ndarray:
        """Jacobians (M, p, n + m) at the site rows ``Xi`` (M, n + m) from
        the ``f = (1 - r)^4`` (M, D) that :func:`_value_pass` kept.

        Each row is ``A - b xi^T`` with ``[A | b] = [C * S | C]^T f / sigma^2``
        (the module docstring's expansion): one product of the weighted
        sites with ``f``, stacked over the rows so that each row is its
        own BLAS gemv and equals its batch of one bit for bit (one 2-D
        gemm over all rows would not promise that), then the rank-one
        correction in place.  Rows outside every site's support have
        ``f = 0`` and Jacobians exactly zero.  Each entry is within the
        dot-product forward-error bound ``gamma_{D+4} sum_i |c_i| f_i
        (|s_i| + |xi|) / sigma^2`` of the exact sum for these ``f``, with
        ``gamma_k = k u / (1 - k u)``: three roundings in each weight, D
        in the product, one each in the correction's product and
        difference.
        """
        p, width = self.coefficients.shape[1], Xi.shape[1]
        sums = np.matmul(self._weighted_sites, fourth[:, :, None])[..., 0]
        jac = sums[:, : p * width].reshape(-1, p, width)
        jac -= sums[:, p * width :, None] * Xi[:, None, :]
        return jac

    def output_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Interpolant values (B, p) at the sites ``[X, U]``; each row
        equals its batch of one bit for bit at any B."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        values = np.empty((X.shape[0], 1, self.dims.p))
        sites, weights, scale, radii, profile, stacked = self._pass_args(X.shape[0])
        # No Jacobian pass reads the (1 - r)^4 here: one more scratch block.
        fourth = np.empty_like(radii)
        _value_blocks(np.hstack([X, U]), values, fourth, sites, weights, scale, radii, profile, stacked)
        return values[:, 0]

    def sweep(self, X0: np.ndarray, U: np.ndarray) -> Sweep:
        """Outputs and site Jacobians of the rollouts of the inputs ``U``
        (B, N, m) from the regressors ``X0`` (B, n): one value pass per
        step and one Jacobian pass per ``_BLOCK`` rows or more.  Each step's outputs
        are those of :meth:`output_batch` at its sites, and each row
        equals its batch of one, its Jacobians too, since both passes
        take every row on its own.

        The sites (N + 1, B, n + m) are laid out step-major.  The
        regressor shift only copies history blocks (as
        :func:`~narxmpc.narx.shift_state` does), so every input block is
        known from ``X0`` and ``U`` and is filled in before the first
        step.  Each step is one value pass over its B sites, which writes
        their outputs into the next sites and shifts their older outputs
        along.  Each step's ``(1 - r)^4`` are kept until the steps since
        the last Jacobian pass hold ``_BLOCK`` rows or more, or the
        rollout ends; then one Jacobian pass takes all of their rows,
        and one copy stores them as those steps' site Jacobians.
        """
        X0, U = rollout_arrays(X0, U, self.dims)
        b, horizon = U.shape[0], U.shape[1]
        dims, size = self.dims, self.data.sites.shape[0]
        p, m, n, nb = dims.p, dims.m, dims.n, dims.n_outputs_block
        sweep = Sweep(np.empty((b, horizon, p)), np.empty((b, horizon, p, n + m)))
        # The input block of the last site is never read.
        sites = np.empty((horizon + 1, b, n + m))
        sites[0, :, :n] = X0
        sites[:horizon, :, n:] = U.transpose(1, 0, 2)
        # Slot i of site k + 1's input history holds u(k - i): the input of
        # site k for i = 0, its slot i - 1 after that, one copy per slot.
        for i in range(dims.nu - 1):
            source = nb + (i - 1) * m if i else n
            sites[1:, :, nb + i * m : nb + (i + 1) * m] = sites[:-1, :, source : source + m]
        chunk = min(horizon, -(-_BLOCK // max(b, 1)))
        fourth = np.empty((chunk, b, size))
        # Bound once for all steps; a step of up to _BLOCK rows is one pass.
        values = _value_pass if b <= _BLOCK else _value_blocks
        centers, weights, scale, radii, profile, stacked = self._pass_args(b)
        # Per-step views come from iterating over step-major arrays; the
        # steps of a chunk keep their (1 - r)^4 in its slots, and the
        # Jacobian pass after the chunk empties them.
        for first in range(0, horizon, chunk):
            last = min(first + chunk, horizon)
            steps, following = sites[first:last], sites[first + 1 : last + 1]
            views = zip(steps, following[:, :, None, :p], fourth, following[:, :, p:nb], steps[:, :, : nb - p])
            for site, out, kept, older, newer in views:
                values(site, out, kept, centers, weights, scale, radii, profile, stacked)
                older[...] = newer
            rows = (last - first) * b
            jac = self._jacobians(steps.reshape(rows, n + m), fourth.reshape(-1, size)[:rows])
            sweep.jac[:, first:last] = jac.reshape(last - first, b, p, n + m).transpose(1, 0, 2, 3)
        sweep.outputs[:] = sites[1:, :, :p].transpose(1, 0, 2)
        return sweep

    def power_function(self, Xi: np.ndarray) -> np.ndarray:
        """Pointwise error certificate ``P(xi)`` at rows of ``Xi``.

        ``P(xi)^2 = phi(0) - 2 k(xi)^T c + c^T K c`` with ``c`` the solve
        of ``K c = k(xi)``; this quadratic form stays nonnegative under
        inexact solves, unlike the textbook two-term expression.
        ``P(xi)^2`` is clamped at exactly zero, so a negative value from
        rounding gives ``P(xi) = 0``.  Raises
        ``ValueError`` for probes that are not finite.
        """
        if not np.all(np.isfinite(Xi)):
            raise ValueError("power-function probes must be finite")
        Kx = kernel_matrix(self.spec, self.data.sites, Xi)
        C = cho_solve((self._store.T, True), Kx, check_finite=False)
        KC = _gram_product(self._store, self.spec.diag_value, C)
        p2 = (
            self.spec.diag_value
            - 2.0 * np.einsum("ij,ij->j", Kx, C)
            + np.einsum("ij,ij->j", C, KC)
        )
        return np.sqrt(np.where(p2 > 0.0, p2, 0.0))

    def rkhs_norm(self) -> float:
        """Native-space norm of the interpolant.

        Computed per output component as ``sqrt(y^T K^{-1} y)`` and
        aggregated over components in the Euclidean sense.
        """
        quad = np.einsum("ij,ij->j", self.data.targets, self.coefficients)
        return float(np.sqrt(np.sum(np.clip(quad, 0.0, None))))

    def as_dynamics(self) -> "KernelInterpolant":
        """The model itself, which is the surrogate dynamics."""
        # Kept because perfbench/workloads.py calls it; nothing in src/ does.
        return self


def fit_interpolant(spec: KernelSpec, data: Dataset, jitter: float = 0.0) -> KernelInterpolant:
    """Fit a kernel interpolant to a dataset.

    Parameters
    ----------
    spec : KernelSpec
        Kernel family and lengthscale; ``spec.input_dim`` must equal the
        site dimension of ``data``.
    data : Dataset

    The Gram matrix is built once and factored in place: LAPACK writes
    the Cholesky factor into its upper triangle and leaves the Gram
    entries below the diagonal, from which the site residual takes its
    product.  The coefficients are one Cholesky solve against that
    factor; for a symmetric positive definite matrix this solve is
    backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10), so no refinement follows it.  The
    factor and the coefficients equal those of a dense fit (a separate
    factor array) bit for bit at one BLAS thread.  The dataset is finite
    by validation, so the factorization and the solve skip scipy's
    finiteness scan, which would allocate and read a D x D mask on every
    call.

    Raises
    ------
    KernelFitError
        If the kernel matrix is not numerically positive definite.
    """
    # perfbench/workloads.py:150 passes jitter=cfg.jitter; ROADMAP item 5 deletes this keyword.
    if jitter != 0.0:
        raise ValueError(f"jitter must be 0 (the fit is an interpolant), got {jitter}")
    if spec.input_dim != data.sites.shape[1]:
        raise ValueError(
            f"spec.input_dim={spec.input_dim} does not match site dimension "
            f"{data.sites.shape[1]}"
        )
    store = kernel_matrix(spec, data.sites)
    np.fill_diagonal(store, spec.diag_value)
    try:
        # store.T is F-contiguous, so LAPACK factors it in place; the
        # returned array is store.T itself (a copy would also hold the
        # factor below and the Gram entries above its diagonal).
        store = cho_factor(store.T, lower=True, overwrite_a=True, check_finite=False)[0].T
    except LinAlgError as exc:
        raise KernelFitError(
            "kernel matrix factorization failed (smallest site separation "
            f"{min_pairwise_distance(data.sites):.6e}); enlarge the site separation"
        ) from exc
    coefficients = cho_solve((store.T, True), data.targets, check_finite=False)
    site_residual = (
        float(np.max(np.abs(data.targets - _gram_product(store, spec.diag_value, coefficients))))
        if data.size
        else 0.0
    )
    return KernelInterpolant(spec, data, store, coefficients, site_residual)


@dataclass(frozen=True)
class ErrorConstants:
    """State-proportional model-error bound ``|F - F_eps| <= c_x ||x|| + c_u ||u||``.

    The constants cover every one of the ``sample_count`` estimation
    samples (up to rounding), which come from the same sampler as any
    fresh draw would.  They are checked where the certificate uses them,
    along a recorded closed loop: the benchmark's ``trace_bound_ratio``
    is the largest one-step model error of its trace over this bound
    (:func:`~narxmpc.bench.certify_trace`).
    """

    c_x: float
    c_u: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.c_x < 0 or self.c_u < 0:
            raise ValueError("error constants must be nonnegative")

    def bound(self, x_norms: np.ndarray, u_norms: np.ndarray) -> np.ndarray:
        return self.c_x * np.asarray(x_norms) + self.c_u * np.asarray(u_norms)


def estimate_error_constants(
    truth: NarxDynamics,
    model: NarxDynamics,
    X: np.ndarray,
    U: np.ndarray,
) -> ErrorConstants:
    """Estimate the smallest ``(c_x, c_u)`` covering all sampled residuals.

    For each candidate ``c_u`` on a log-spaced grid of 64 values
    (augmented with an exact zero), the induced ``c_x`` is the largest
    leftover residual ratio; the pair minimizing ``c_x + c_u`` wins.
    Samples at the origin must have residual below 1e-10, otherwise the
    surrogate misses the equilibrium and no proportional bound exists.

    Parameters
    ----------
    truth, model : NarxDynamics
        The reference map and the surrogate.
    X : array, shape (S, n)
    U : array, shape (S, m)
        Evaluation samples in normalized coordinates, S >= 100.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if X.shape[0] != U.shape[0]:
        raise ValueError("X and U must have the same number of rows")
    if X.shape[0] < 100:
        raise ValueError(f"need at least 100 samples, got {X.shape[0]}")
    residual = np.linalg.norm(truth.output_batch(X, U) - model.output_batch(X, U), axis=1)
    return _constants_from(residual, np.linalg.norm(X, axis=1), np.linalg.norm(U, axis=1))


def _constants_from(residual, x_norm, u_norm) -> ErrorConstants:
    """The constants of :func:`estimate_error_constants` from residual norms."""
    at_origin = (x_norm <= 1e-8) & (u_norm <= 1e-8)
    if np.any(residual[at_origin] > 1e-10):
        worst = float(np.max(residual[at_origin]))
        raise ValueError(
            f"equilibrium mismatch: residual {worst:.3e} at a zero sample; "
            "no proportional error bound exists"
        )
    live = ~at_origin
    residual_l, x_l, u_l = residual[live], x_norm[live], u_norm[live]

    # Candidate c_u values: zero plus a log grid spanning the residual scale.
    hi = max(float(np.max(residual_l / np.maximum(u_l, 1e-12))), 1e-12)
    candidates = np.concatenate([[0.0], np.geomspace(hi * 1e-8, hi, 64)])
    leftover = residual_l - candidates[:, None] * u_l
    moving = x_l > 1e-8
    c_x = np.max(leftover[:, moving] / x_l[moving], axis=1, initial=0.0)
    # Samples with a vanishing state must be covered by c_u alone.
    covering = np.flatnonzero(~np.any(leftover[:, ~moving] > 1e-10, axis=1))
    if covering.size == 0:
        raise ValueError(
            "no (c_x, c_u) pair covers the sampled residuals; samples with "
            "vanishing state have residuals exceeding every input bound"
        )
    # argmin keeps the first of equal sums, the smallest such c_u.
    best = covering[np.argmin(c_x[covering] + candidates[covering])]
    return ErrorConstants(
        c_x=float(c_x[best]), c_u=float(candidates[best]), sample_count=int(residual.shape[0])
    )
