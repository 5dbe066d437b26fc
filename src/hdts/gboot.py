"""Gaussian multiplier bootstrap: PSD square roots, conditional quantiles
of the normalized Gaussian maximum, and simultaneous confidence intervals.

The bootstrap statistic is max_j |Z_j| / sqrt(sigma_jj) with Z drawn
conditionally as N(0, Sigma_tilde).  Draws are max_j |eta F_n|_j for
standard normal eta, where the factor F_n has F_n^T F_n equal to the
correlation matrix of Sigma_tilde; this makes the statistic exactly
invariant under coordinate-wise rescaling of the data.

Sigma_tilde = Yc^T Yc / (M w) with Yc the w centred block sums, so F_n is
Yc divided by its column norms (the multiplier bootstrap in factor form):
neither Sigma_tilde nor its square root is formed, and nothing is clipped.
When w > p the p x p triangular factor R of Yc = QR, which has the same
Gram matrix, replaces Yc so that draws stay p wide.

Draws are made in chunks of _DRAW_CHUNK rows, chunk k from its own stream.
Each call keeps one chunk-sized product buffer: every chunk's eta @ F is
written into it and its |.| and row maxima are taken in place, straight
into the draw vector.  The product is never tiled: row or column tiles of
a gemm may round differently from the whole product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, NumericalError, ValidationError
from .longrun import LongRunEstimate, plan_blocks, sigma_tilde
from .model import Panel
from .rng import RngContract

_DRAW_CHUNK = 1024  # fixed chunk size so draws do not depend on scheduling


def check_symmetric(matrix: np.ndarray, what: str) -> None:
    """Raise ValidationError unless max|A - A^T| <= 1e-10 * (1 + max|A|)."""
    scale = 1.0 + np.max(np.abs(matrix))
    if np.max(np.abs(matrix - matrix.T)) > 1e-10 * scale:
        raise ValidationError(f"{what} is not symmetric within 1e-10 relative tolerance")


def psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric eigendecomposition square root, clipping negative eigenvalues.

    Requires a symmetric matrix (within 1e-10 relative tolerance) with
    finite entries; returns S with S S^T equal to the clipped input.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("matrix contains non-finite entries")
    check_symmetric(sigma, "matrix")
    sym = 0.5 * (sigma + sigma.T)
    try:
        lam, V = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T


@dataclass
class BootstrapQuantile:
    """Conditional theta-quantile of the normalized Gaussian maximum."""

    chi: float
    chi_se: float
    draws: np.ndarray            # unsorted, in stream order


def _order_statistic(sorted_draws: np.ndarray, theta: float) -> float:
    k = math.ceil(theta * sorted_draws.shape[0])
    return float(sorted_draws[k - 1])


def _quantile_se(sorted_draws: np.ndarray, theta: float) -> float:
    """Distribution-free SE of the sample quantile from order-stat spacing."""
    B = sorted_draws.shape[0]
    half = B * math.sqrt(theta * (1.0 - theta) / B)
    k_lo = max(1, math.ceil(B * theta - half))
    k_hi = min(B, math.ceil(B * theta + half))
    return 0.5 * float(sorted_draws[k_hi - 1] - sorted_draws[k_lo - 1])


def _unit_factor(est: LongRunEstimate) -> np.ndarray:
    """Factor F_n with F_n^T F_n the correlation matrix of est.

    Fails when a coordinate is degenerate: a column of the block sums whose
    norm is within the rounding noise floor of its data.  The norms are
    finite: LongRunEstimate refuses a non-finite diagonal.
    """
    Y = est.block_sums
    norms = np.linalg.norm(Y, axis=0)
    flat = np.flatnonzero(norms <= est.noise_floor)
    if flat.size:
        raise AssumptionError(
            "degenerate coordinate in the long-run estimate: the requirement "
            f"min_j sigma_jj >= c fails for column(s) {(flat + 1).tolist()[:10]}, "
            "whose block sums are at rounding level")
    if Y.shape[0] > Y.shape[1]:
        # R with a nonnegative diagonal is the Cholesky factor of Y^T Y, so
        # the draws do not depend on the Householder sign convention, and for
        # weakly correlated data R is close to the symmetric root
        Y = np.linalg.qr(Y, mode="r")
        Y *= np.where(np.diag(Y) < 0.0, -1.0, 1.0)[:, None]
        norms = np.linalg.norm(Y, axis=0)
    return Y / norms


def bootstrap_quantile(est: LongRunEstimate, theta: float, B: int,
                       rng: RngContract) -> BootstrapQuantile:
    """Estimate the conditional theta-quantile of max_j |Z_j|/sqrt(sigma_jj).

    chi is the ceil(theta*B)-th order statistic of B multiplier draws.
    Fails when any coordinate is (numerically) degenerate, i.e. the
    minimum long-run variance requirement min_j sigma_jj >= c is violated.
    """
    if not 0.0 < theta < 1.0:
        raise ValidationError(f"coverage level theta must lie in (0,1), got {theta}")
    if B < 1000:
        raise ValidationError(f"need B >= 1000 bootstrap draws, got {B}")
    F = _unit_factor(est)

    # the buffer belongs to this call: calls may run on several threads at once
    draws = np.empty(B)
    buf = np.empty((min(B, _DRAW_CHUNK), F.shape[1]))
    for start in range(0, B, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, B)
        gen = rng.derive("gboot-draws", start // _DRAW_CHUNK).generator()
        eta = gen.standard_normal((stop - start, F.shape[0]))
        P = np.matmul(eta, F, out=buf[:stop - start])
        np.abs(P, out=P)
        np.max(P, axis=1, out=draws[start:stop])

    sorted_draws = np.sort(draws)
    chi = _order_statistic(sorted_draws, theta)
    se = _quantile_se(sorted_draws, theta)
    return BootstrapQuantile(chi=chi, chi_se=se, draws=draws)


@dataclass
class CiReport:
    """Simultaneous confidence intervals mu_hat_j +/- chi * sqrt(sigma_jj / n)."""

    mu_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sigma_diag: np.ndarray
    theta: float
    chi: float
    chi_se: float
    B: int
    M: int
    w: int
    n: int

    def covers(self, mu) -> bool:
        """Whether the vector mu lies inside every interval."""
        mu = np.asarray(mu, dtype=float)
        return bool(np.all((self.lo <= mu) & (mu <= self.hi)))

    def half_widths(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    def sidecar_dict(self) -> dict:
        return {"theta": self.theta, "chi": self.chi, "chi_se": self.chi_se,
                "B": self.B, "M": self.M, "w": self.w, "n": self.n}


def simultaneous_ci(panel: Panel, theta: float, M: int | None, B: int,
                    rng: RngContract) -> CiReport:
    """Simultaneous confidence intervals for the mean vector.

    Pipeline: mean-subtracted batched estimate -> multiplier bootstrap
    quantile -> intervals mu_hat_j +/- chi * sqrt(sigma_tilde_jj) / sqrt(n).
    The sqrt(n) divisor matches the CLT scaling of sqrt(n)(X_bar - mu).
    """
    plan = plan_blocks(panel.n, M)
    est = sigma_tilde(panel, plan)
    bq = bootstrap_quantile(est, theta, B, rng)
    mu_hat = panel.data.mean(axis=0)
    half = bq.chi * est.diag_scale / math.sqrt(panel.n)
    return CiReport(mu_hat=mu_hat, lo=mu_hat - half, hi=mu_hat + half,
                    sigma_diag=est.diag, theta=theta,
                    chi=bq.chi, chi_se=bq.chi_se, B=B, M=plan.M, w=plan.w,
                    n=panel.n)
