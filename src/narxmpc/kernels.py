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
constant ``phi(0) + jitter``.  Products with the Gram matrix read only
that lower triangle, in row blocks rebuilt out of it (or through BLAS
symm for several columns), so no second D x D array is ever allocated.

The fitted interpolant is also the surrogate NARX dynamics, with its two
evaluations: ``output_batch``, one step of values, and ``sweep``, N
steps of values with every step's Jacobians.  Both come from two
private routines on rows of sites: a value pass (distances, Wendland
terms, profile and coefficient product, optionally keeping the
``(1 - r)^4`` that the slope weights ``phi'(r)/(r sigma^2)`` are made
of) and a Jacobian pass (slope weights, site differences and the
weighted product).  The sweep runs the value pass step by step, since
each step's output is the next step's site, and the Jacobian pass over
the rows of several steps at once.  The value pass works in blocks of
``_BLOCK`` rows; the Jacobian pass takes its rows in blocks of
``_JACOBIAN_BYTES`` of site differences, a few rows at D=2501, so that
they stay in cache until their product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsymm
from scipy.spatial.distance import cdist

from .narx import AffineNormalization, NarxDims, NarxDynamics, Sweep, rollout_arrays


class KernelFitError(RuntimeError):
    """Raised when the kernel matrix cannot be factorized."""


def _wendland_terms(r: np.ndarray, fourth: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """``min(r, 1)``, written into ``r``, with ``1 - min(r, 1)`` and its
    fourth power, the factors that the profile and its slope share; new
    arrays, also for a 0-d ``r``, except that the fourth power goes into
    ``fourth`` when it is given."""
    # Clipping first makes ``1 - min(r, 1)`` the bits of ``max(1 - r, 0)``
    # for every r (+0 from 1 on, NaN for NaN) in one pass fewer, and the
    # profile's factor reuses the clipped radii.  Products are written in
    # place: numpy's ``pow`` costs several times a multiply, and each
    # temporary of a D x D Gram build is D^2 doubles.
    clipped = np.minimum(r, 1.0, out=r)
    one_minus = np.subtract(1.0, clipped, out=np.empty(r.shape))
    fourth = np.multiply(one_minus, one_minus, out=np.empty(r.shape) if fourth is None else fourth)
    fourth *= fourth
    return clipped, one_minus, fourth


def _profile(clipped: np.ndarray, one_minus: np.ndarray, fourth: np.ndarray) -> np.ndarray:
    """:func:`wendland_phi` from the terms of :func:`_wendland_terms`,
    written into ``one_minus``; ``clipped`` is overwritten as scratch, and
    ``fourth`` is kept for the slope weights."""
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
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be strictly positive")
        if self.input_dim > 5:
            raise ValueError(
                "the Wendland profile used here is positive definite only "
                f"up to dimension 5, got input_dim={self.input_dim}"
            )

    @property
    def diag_value(self) -> float:
        """Kernel value at zero distance, ``phi(0)``."""
        return float(wendland_phi(np.array(0.0)))


#: Rows per block of the Gram build, the products with the stored Gram
#: matrix, kernel rows and nearest-site distances, and the most rows of a
#: block of Jacobian site differences.  A multiple of 64, so that with one
#: right-hand column BLAS gemv gives each block of a Gram product the bits
#: of the dense product.
_BLOCK = 64

#: Bytes of site differences per block of the Jacobian pass, which stays
#: in a core's L2 cache: ``8 D (n + m)`` bytes a row, so 3 rows at D=2501
#: and n + m = 4.  Each row is its own product, so its bits do not depend
#: on the block.
_JACOBIAN_BYTES = 1 << 18


def _kernel_terms(
    spec: KernelSpec, A: np.ndarray, B: np.ndarray, fourth: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """:func:`_wendland_terms` of the scaled radii between the rows of
    ``A`` and ``B``: the one distance routine of every kernel value."""
    r = cdist(A, B)
    # Division is the costliest pass of a kernel row, and a division by 1
    # (the lengthscale in normalized coordinates) leaves every bit as it is.
    if spec.lengthscale != 1.0:
        r /= spec.lengthscale
    return _wendland_terms(r, fourth)


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
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
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
        dist = cdist(points[start : start + _BLOCK], sites)
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
    constant ``diagonal``.

    With one column of ``X`` each block of rows of ``G`` is rebuilt from
    ``store[a:b, :a]``, the mirror of ``store[b:, a:b]`` and the mirrored
    diagonal block, then multiplied by one matmul call: BLAS gemv on
    blocks that start at multiples of 64, which equals the dense product
    bit for bit.  Several columns take BLAS symm on the lower triangle,
    whose diagonal holds the factor's, plus the difference to
    ``diagonal``; its sums are not those of a dense gemm, so these
    products agree with it to rounding only.
    """
    if X.shape[1] > 1:
        # A gemm per block of rows would pack all of X again for every
        # block, which makes the power function at D=2501 about 15% slower.
        out = dsymm(1.0, store.T, X, lower=0)
        out += (diagonal - np.diagonal(store))[:, None] * X
        return out
    size = store.shape[0]
    starts = list(range(0, size, _BLOCK))
    if size > 1 and size % _BLOCK == 1:
        # A lone last row joins the block before it: numpy multiplies one
        # row by one column with BLAS dot, whose sums differ from gemv's.
        starts.pop()
    out = np.empty((size, X.shape[1]))
    for a, b in zip(starts, starts[1:] + [size]):
        rows = np.empty((b - a, size))
        rows[:, :a] = store[a:b, :a]
        rows[:, b:] = store[b:, a:b].T
        lower = np.tril(store[a:b, a:b], -1)
        np.add(lower, lower.T, out=rows[:, a:b])
        np.fill_diagonal(rows[:, a:b], diagonal)
        np.matmul(rows, X, out=out[a:b])
    return out


def _refined_solve(store: np.ndarray, diagonal: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G x = rhs`` with two steps of iterative refinement.

    ``store`` holds the Cholesky factor of ``G`` in its upper triangle,
    read by LAPACK as the lower triangle of the F-ordered ``store.T``;
    the residuals take ``G`` from :func:`_gram_product`.
    """
    cho = (store.T, True)
    x = cho_solve(cho, rhs, check_finite=False)
    for _ in range(2):
        x = x + cho_solve(cho, rhs - _gram_product(store, diagonal, x), check_finite=False)
    return x


class KernelInterpolant(NarxDynamics):
    """Interpolant ``F(xi) = sum_i alpha_i phi(||xi - xi_i|| / sigma)``.

    The interpolant is the surrogate NARX dynamics itself: a site is a
    regressor-input pair ``xi = [x; u]``, so :meth:`output_batch`
    evaluates it on rows of ``x`` and ``u``.  Its :meth:`sweep` runs in
    two passes: a value pass per step, which keeps the factors of that
    step's slope weights and writes the next sites, and a Jacobian pass
    over every kept row whenever 64 or more rows are kept, and once at
    the end, in cache-sized blocks of rows.  Values and Jacobians both
    come from the same two private routines, :meth:`_values` and
    :meth:`_jacobians`.

    Fitted by :func:`fit_interpolant`, which leaves the Gram matrix and
    its Cholesky factor in the one D x D array ``store``: the factor in
    the upper triangle, the Gram entries below the diagonal (see the
    module docstring).  The power function solves against that factor.
    A strictly positive ``jitter`` makes the factorization more robust
    but turns the error certificates into approximations, flagged via
    :attr:`certificate_degraded`.
    """

    def __init__(
        self,
        spec: KernelSpec,
        data: Dataset,
        jitter: float,
        store: np.ndarray,
        coefficients: np.ndarray,
        site_residual: float,
    ):
        self.spec = spec
        self.data = data
        self.jitter = jitter
        self._store = store
        self.coefficients = coefficients
        self.site_residual = site_residual

    @property
    def dims(self) -> NarxDims:
        return self.data.dims

    @property
    def normalization(self) -> AffineNormalization:
        return self.data.normalization

    @property
    def certificate_degraded(self) -> bool:
        return self.jitter > 0.0

    def _values(
        self, Xi: np.ndarray, out: np.ndarray | None = None, fourth: np.ndarray | None = None
    ) -> np.ndarray:
        """Interpolant values (M, p) at the site rows ``Xi`` (M, n + m),
        which each block's product writes into ``out`` (any (M, p) view,
        such as the output block of the next sites) when it is given.

        The kernel rows are evaluated in ``_BLOCK``-row blocks, which
        bounds their memory, and each row's value is its own product of
        kernel row and coefficients, so it equals the single-row call bit
        for bit at any M.  Each row takes one distance pass and the
        profile's in-place passes (:func:`_wendland_terms`,
        :func:`_profile`).  With ``fourth`` (M, D), each row's
        ``(1 - r)^4`` is kept there for :meth:`_jacobians`.
        """
        values = np.empty((Xi.shape[0], self.coefficients.shape[1])) if out is None else out
        for a in range(0, Xi.shape[0], _BLOCK):
            kept = None if fourth is None else fourth[a : a + _BLOCK]
            phi = _profile(*_kernel_terms(self.spec, Xi[a : a + _BLOCK], self.data.sites, kept))
            np.matmul(phi[:, None, :], self.coefficients, out=values[a : a + _BLOCK, None, :])
            del phi  # before the next block's rows are built
        return values

    def _jacobians(self, Xi: np.ndarray, fourth: np.ndarray) -> np.ndarray:
        """Jacobians (M, p, n + m) at the site rows ``Xi`` (M, n + m) from
        the ``(1 - r)^4`` (M, D) that :meth:`_values` kept, which are
        overwritten by the slope weights.

        Each row is ``-(C * w)^T (sites - xi)`` with the slope weights
        ``w = phi'(r)/(r sigma^2) = -(1 - r)^4 / sigma^2``, so a Jacobian
        is exact (zero radial contribution) where ``xi`` coincides with a
        site.  The division by ``-(sigma^2)`` and the final negation are
        two steps, not one: folded, they would flip the sign of the zero
        Jacobians of rows outside every site's support.

        Rows go in blocks of ``_JACOBIAN_BYTES`` of site differences (3
        rows at D=2501 and ``_BLOCK`` at D=101 for n + m = 4), which stay
        in cache between their subtraction and their product.  The differences come from
        contiguous copies of each row: the broadcast
        ``sites - xi[:, None, :]`` loops over the n + m coordinates of one
        site at a time, the pass's largest single cost at D=2501.  The
        weights keep the (D, p) layout of ``C * w``, whose transpose the
        product reads: the (p, D) C-ordered layout would move a p=2
        product to another BLAS kernel and its last bits.  Each row is its
        own product, written in place, so it equals its batch of one at
        any block size.
        """
        sites = self.data.sites
        size, width = sites.shape
        slopes = np.divide(fourth, -(self.spec.lengthscale**2), out=fourth)
        jac = np.empty((Xi.shape[0], self.coefficients.shape[1], width))
        block = max(1, min(_BLOCK, _JACOBIAN_BYTES // (8 * size * width)))
        for a in range(0, Xi.shape[0], block):
            rows = Xi[a : a + block]
            diffs = rows.repeat(size, axis=0).reshape(rows.shape[0], size, width)
            np.subtract(sites, diffs, out=diffs)
            weighted = self.coefficients * slopes[a : a + block, :, None]
            np.matmul(weighted.transpose(0, 2, 1), diffs, out=jac[a : a + block])
            del diffs, weighted  # before the next block's are built
        return np.negative(jac, out=jac)

    def output_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Interpolant values (B, p) at the sites ``[X, U]``; each row
        equals its batch of one bit for bit at any B."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return self._values(np.hstack([X, U]))

    def sweep(self, X0: np.ndarray, U: np.ndarray) -> Sweep:
        """Outputs and Jacobians of the rollouts of the inputs ``U`` (B, N, m)
        from the regressors ``X0`` (B, n): one value pass per step and one
        Jacobian pass per ``_BLOCK`` rows or more.  Each step's outputs
        are those of :meth:`output_batch` at its sites, and each row
        equals its batch of one.

        The sites (N + 1, B, n + m) are laid out step-major.  The
        regressor shift only copies history blocks (as
        :func:`~narxmpc.narx.shift_state` does), so every input block is
        known from ``X0`` and ``U`` and is filled in before the first
        step.  Each step is one value pass over its B sites, which writes
        their outputs into the next sites and shifts their older outputs
        along.  Each step's ``(1 - r)^4`` are kept until the steps since
        the last Jacobian pass hold ``_BLOCK`` rows or more, or the
        rollout ends; then one Jacobian pass takes all of their rows.
        """
        X0, U = rollout_arrays(X0, U, self.dims)
        b, horizon = U.shape[0], U.shape[1]
        dims, size = self.dims, self.data.sites.shape[0]
        p, m, n, nb = dims.p, dims.m, dims.n, dims.n_outputs_block
        sweep = Sweep(*(np.empty((b, horizon, p, *tail)) for tail in ((), (n,), (m,))))
        # The input block of the last site is never read.
        sites = np.empty((horizon + 1, b, n + m))
        sites[0, :, :n] = X0
        sites[:horizon, :, n:] = U.transpose(1, 0, 2)
        # Slot i of a later site's input history holds u(k - 1 - i): the
        # inputs oldest first, X0's history before U, read in windows.
        inputs = np.concatenate([X0[:, nb:].reshape(b, dims.nu - 1, m)[:, ::-1], U], axis=1)
        for i in range(dims.nu - 1):
            window = inputs[:, dims.nu - 1 - i : dims.nu - 1 - i + horizon]
            sites[1:, :, nb + i * m : nb + (i + 1) * m] = window.transpose(1, 0, 2)
        chunk = min(horizon, -(-_BLOCK // max(b, 1)))
        fourth = np.empty((chunk, b, size))
        first = 0
        for k in range(horizon):
            site, following = sites[k], sites[k + 1]
            self._values(site, following[:, :p], fourth[k - first])
            following[:, p:nb] = site[:, : nb - p]
            if k + 1 - first == chunk or k + 1 == horizon:
                steps = k + 1 - first
                jac = self._jacobians(sites[first : k + 1].reshape(steps * b, -1), fourth[:steps].reshape(steps * b, -1))
                jac = jac.reshape(steps, b, p, n + m).transpose(1, 0, 2, 3)
                sweep.jac_x[:, first : k + 1], sweep.jac_u[:, first : k + 1] = jac[..., :n], jac[..., n:]
                first = k + 1
        sweep.outputs[:] = sites[1:, :, :p].transpose(1, 0, 2)
        return sweep

    def power_function(self, Xi: np.ndarray) -> np.ndarray:
        """Pointwise error certificate ``P(xi)`` at rows of ``Xi``.

        ``P(xi)^2 = phi(0) - 2 k(xi)^T c + c^T K c`` with ``c`` the solve
        of ``K c = k(xi)``; this quadratic form stays nonnegative under
        inexact solves, unlike the textbook two-term expression.  Values
        are clamped at zero (clamping tolerance 1e-14).  Raises
        ``ValueError`` for probes that are not finite.
        """
        if not np.all(np.isfinite(Xi)):
            raise ValueError("power-function probes must be finite")
        Kx = kernel_matrix(self.spec, self.data.sites, Xi)
        diagonal = self.spec.diag_value + self.jitter
        C = _refined_solve(self._store, diagonal, Kx)
        KC = _gram_product(self._store, diagonal, C)
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
    jitter : float
        Finite, nonnegative diagonal regularization added to the kernel
        matrix.  Zero keeps the error certificates exact.

    The Gram matrix is built once and factored in place: LAPACK writes
    the Cholesky factor into its upper triangle and leaves the Gram
    entries below the diagonal, from which the refinement and the site
    residual take their products.  The factor, the coefficients and the
    site residual equal those of a dense fit (a separate factor array and
    ``gram @ x`` products) bit for bit at one BLAS thread.  The dataset
    and the jitter are finite by validation, so the factorization and the
    solves skip scipy's finiteness scan, which would allocate and read a
    D x D mask on every call.

    Raises
    ------
    KernelFitError
        If the (jittered) kernel matrix is not numerically positive
        definite.
    """
    if not 0.0 <= jitter < np.inf:
        raise ValueError("jitter must be finite and nonnegative")
    if spec.input_dim != data.sites.shape[1]:
        raise ValueError(
            f"spec.input_dim={spec.input_dim} does not match site dimension "
            f"{data.sites.shape[1]}"
        )
    store = kernel_matrix(spec, data.sites)
    # The diagonal of gram + jitter * I; the profile gives phi(0) there.
    diagonal = spec.diag_value + jitter
    np.fill_diagonal(store, diagonal)
    try:
        # store.T is F-contiguous, so LAPACK factors it in place; the
        # returned array is store.T itself (a copy would also hold the
        # factor below and the Gram entries above its diagonal).
        store = cho_factor(store.T, lower=True, overwrite_a=True, check_finite=False)[0].T
    except LinAlgError as exc:
        raise KernelFitError(
            "kernel matrix factorization failed (smallest diagonal entry "
            f"{diagonal:.6e}); increase jitter or enlarge the site separation"
        ) from exc
    coefficients = _refined_solve(store, diagonal, data.targets)
    site_residual = (
        float(np.max(np.abs(data.targets - _gram_product(store, diagonal, coefficients))))
        if data.size
        else 0.0
    )
    return KernelInterpolant(spec, data, jitter, store, coefficients, site_residual)


@dataclass(frozen=True)
class ErrorConstants:
    """State-proportional model-error bound ``|F - F_eps| <= c_x ||x|| + c_u ||u||``.

    ``lipschitz`` optionally records an estimated Lipschitz constant of
    the surrogate itself; ``max_ratio`` is the largest observed quotient
    ``residual / (c_x ||x|| + c_u ||u||)`` over the estimation samples
    (at most 1 by construction, up to rounding).
    """

    c_x: float
    c_u: float
    sample_count: int
    max_ratio: float
    worst_index: int
    lipschitz: float | None = None

    def __post_init__(self) -> None:
        if self.c_x < 0 or self.c_u < 0:
            raise ValueError("error constants must be nonnegative")
        if self.lipschitz is not None and not self.lipschitz > 0:
            raise ValueError("lipschitz must be strictly positive when given")

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
    return _constants_from(*_residuals(truth, model, X, U))


def _residuals(truth, model, X, U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual norms of the surrogate against the reference map on the
    samples, with the norms of the states and the inputs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if X.shape[0] != U.shape[0]:
        raise ValueError("X and U must have the same number of rows")
    if X.shape[0] < 100:
        raise ValueError(f"need at least 100 samples, got {X.shape[0]}")
    residual = np.linalg.norm(
        truth.output_batch(X, U) - model.output_batch(X, U), axis=1
    )
    return residual, np.linalg.norm(X, axis=1), np.linalg.norm(U, axis=1)


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
    hi = max(float(np.max(residual_l / np.maximum(u_norm[live], 1e-12))), 1e-12)
    candidates = np.concatenate([[0.0], np.geomspace(hi * 1e-8, hi, 64)])
    best = None
    for cu in candidates:
        leftover = residual_l - cu * u_l
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(x_l > 1e-8, leftover / np.where(x_l > 1e-8, x_l, 1.0), np.inf)
        # Samples with a vanishing state must be covered by c_u alone.
        uncovered = (x_l <= 1e-8) & (leftover > 1e-10)
        if np.any(uncovered):
            continue
        cx = max(float(np.max(ratios[x_l > 1e-8], initial=0.0)), 0.0)
        if best is None or cx + cu < best[0] + best[1]:
            best = (cx, cu)
    if best is None:
        raise ValueError(
            "no (c_x, c_u) pair covers the sampled residuals; samples with "
            "vanishing state have residuals exceeding every input bound"
        )
    c_x, c_u = best
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = c_x * x_norm + c_u * u_norm
        all_ratios = np.where(denom > 0, residual / np.where(denom > 0, denom, 1.0), 0.0)
    worst_index = int(np.argmax(all_ratios))
    return ErrorConstants(
        c_x=c_x,
        c_u=c_u,
        sample_count=int(residual.shape[0]),
        max_ratio=float(all_ratios[worst_index]),
        worst_index=worst_index,
    )


def validate_error_constants(
    constants: ErrorConstants,
    truth: NarxDynamics,
    model: NarxDynamics,
    X: np.ndarray,
    U: np.ndarray,
) -> dict:
    """Check estimated constants on fresh samples.

    Returns a dict with the maximum residual ratio of the reported bound
    on the validation set, the constants re-estimated from the same
    samples, and their combined growth factor.  ``flagged`` is set when
    the fresh data shows the reported constants understate the residuals
    by more than a factor of two -- either through the direct ratio or
    through the re-estimated constants' combined size.  Conservative
    reported constants (fresh estimates smaller) are not flagged.
    """
    residual, x_norm, u_norm = _residuals(truth, model, X, U)
    re_est = _constants_from(residual, x_norm, u_norm)
    reported = constants.c_x + constants.c_u
    drift = (re_est.c_x + re_est.c_u) / max(reported, 1e-15)
    denom = constants.bound(x_norm, u_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 1e-15, residual / np.where(denom > 1e-15, denom, 1.0), 0.0)
    max_ratio = float(np.max(ratios, initial=0.0))
    return {
        "max_ratio": max_ratio,
        "re_estimated": re_est,
        "drift_factor": drift,
        "flagged": bool(drift > 2.0 or max_ratio > 2.0),
    }


def estimate_lipschitz(model: NarxDynamics, Xi_a: np.ndarray, Xi_b: np.ndarray) -> float:
    """Largest difference quotient of the surrogate over sampled site pairs
    ``[x; u]``, which split into regressor and input at ``model.dims.n``."""
    Xi_a = np.atleast_2d(np.asarray(Xi_a, dtype=float))
    Xi_b = np.atleast_2d(np.asarray(Xi_b, dtype=float))
    if Xi_a.shape != Xi_b.shape:
        raise ValueError("site pair arrays must have matching shapes")
    gaps = np.linalg.norm(Xi_a - Xi_b, axis=1)
    keep = gaps > 1e-12
    if not np.any(keep):
        return 0.0
    n = model.dims.n
    a, b = Xi_a[keep], Xi_b[keep]
    diffs = np.linalg.norm(
        model.output_batch(a[:, :n], a[:, n:]) - model.output_batch(b[:, :n], b[:, n:]), axis=1
    )
    return float(np.max(diffs / gaps[keep]))
