"""Kernel interpolation with native-space error certificates.

The default kernel is the compactly supported Wendland profile

    phi(r) = (1/30) * (1 - r)^5 * (5 r + 1)   for 0 <= r < 1,   0 otherwise,

applied to scaled Euclidean distances ``r = ||xi - xi'|| / sigma``.  It is
twice continuously differentiable and positive definite up to dimension
five, which covers every regressor-input space used here.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsymm
from scipy.spatial.distance import cdist

from .narx import AffineNormalization, NarxDims, NarxDynamics


class KernelFitError(RuntimeError):
    """Raised when the kernel matrix cannot be factorized."""


def _wendland_terms(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``max(1 - r, 0)`` and its fourth power, the factors that the profile
    and its slope share; new arrays, also for a 0-d ``r``."""
    # Products written in place: numpy's ``pow`` costs several times a
    # multiply, and each temporary of a D x D Gram build is D^2 doubles.
    one_minus = np.subtract(1.0, r, out=np.empty(r.shape))
    np.maximum(one_minus, 0.0, out=one_minus)
    fourth = np.multiply(one_minus, one_minus, out=np.empty(r.shape))
    fourth *= fourth
    return one_minus, fourth


def _profile(r: np.ndarray, one_minus: np.ndarray, fourth: np.ndarray) -> np.ndarray:
    """:func:`wendland_phi` from the terms of :func:`_wendland_terms`,
    written into ``fourth``; ``one_minus`` is overwritten as scratch."""
    phi = np.multiply(fourth, one_minus, out=fourth)
    # The factor uses min(r, 1), which leaves it unchanged where the
    # profile is nonzero and keeps it finite (so 0 * inf never arises).
    factor = np.minimum(r, 1.0, out=one_minus)
    factor *= 5.0
    factor += 1.0
    phi *= factor
    phi /= 30.0
    return phi


def wendland_phi(r: np.ndarray) -> np.ndarray:
    """Wendland radial profile, zero for ``r >= 1``.

    Raises ``ValueError`` for negative radii.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return _profile(r, *_wendland_terms(r))


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


#: Rows per block of every D-wide temporary: the Gram build, the products
#: with the stored Gram matrix, kernel rows and nearest-site distances.  A
#: multiple of 64, so that with one right-hand column BLAS gemv gives each
#: block of a Gram product the bits of the dense product.
_BLOCK = 64


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
        return wendland_phi(cdist(A, np.atleast_2d(np.asarray(B, dtype=float))) / spec.lengthscale)
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
    regressor-input pair ``xi = [x; u]``, so :meth:`output_batch` and
    :meth:`linearize` evaluate it on rows of ``x`` and ``u``.

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

    def predict_batch(self, Xi: np.ndarray) -> np.ndarray:
        """Interpolant values at rows of ``Xi`` (M, n + m).

        Each row is its own product of kernel row and coefficients, so it
        equals the single-row call bit for bit at any M.  The kernel rows
        are evaluated in blocks, which bounds their memory.
        """
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        values = np.empty((Xi.shape[0], self.coefficients.shape[1]))
        for a in range(0, Xi.shape[0], _BLOCK):
            Kx = kernel_matrix(self.spec, Xi[a : a + _BLOCK], self.data.sites)
            values[a : a + _BLOCK] = np.matmul(Kx[:, None, :], self.coefficients)[:, 0]
        return values

    def output_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Interpolant values at the sites ``[X, U]`` (:meth:`predict_batch`)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return self.predict_batch(np.hstack([X, U]))

    @property
    def differentiable(self) -> bool:
        return True

    def linearize(
        self, x: np.ndarray, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values (B, p) and Jacobians (B, p, n) and (B, p, m) at rows ``x``
        (B, n) and ``u`` (B, m).

        The radii come from the distance routine of :meth:`predict_batch`,
        so the values equal its values bit for bit, and each row equals
        its batch of one.  The Jacobian uses ``phi'(r)/r`` directly, so it
        is exact (zero radial contribution) when ``[x, u]`` coincides with
        a site.
        """
        xi = np.concatenate([np.asarray(x, dtype=float), np.asarray(u, dtype=float)], axis=-1)
        r = cdist(xi, self.data.sites) / self.spec.lengthscale
        one_minus, fourth = _wendland_terms(r)
        # phi'(r) / (r sigma^2) = -(1 - r)^4 / sigma^2, taken before the
        # profile overwrites the shared fourth power.
        w = fourth / -(self.spec.lengthscale**2)
        value = np.matmul(_profile(r, one_minus, fourth)[:, None, :], self.coefficients)[:, 0]
        diffs = self.data.sites - xi[:, None, :]
        jac = -np.matmul((self.coefficients * w[:, :, None]).transpose(0, 2, 1), diffs)
        n = self.dims.n
        return value, jac[..., :n], jac[..., n:]

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
