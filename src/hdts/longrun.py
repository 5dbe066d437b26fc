"""Batched-mean estimation of long-run covariance matrices and the
associated theoretical targets and convergence rates.

The sample is cut into w = floor(n/M) non-overlapping blocks of length M
(trailing observations are dropped and reported); the estimator averages
outer products of block sums.  One type, LongRunEstimate, holds the block
sums of one panel or of a run of same-shape panels (a leading run axis);
the centred estimate of either comes from LongRunEstimate.centred, which
sigma_tilde, the run path of gboot.simultaneous_cis and covinf's product
process share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, NumericalError, ValidationError
from .model import Panel, ProcessSpec


@dataclass(frozen=True)
class BlockPlan:
    """Partition of 1..n into w disjoint blocks of length M (1-based times)."""

    n: int
    M: int
    w: int

    @property
    def used(self) -> int:
        return self.w * self.M

    @property
    def unused(self) -> int:
        return self.n - self.used


def plan_blocks(n: int, M: int | None = None) -> BlockPlan:
    """Blocks of length M, or of the default length floor(n^(1/3)) when M is None.

    This is the one place the default block length is resolved.
    """
    if M is None:
        M = default_block_length(n)
    if M < 1 or M > n:
        raise ValidationError(f"block length M must satisfy 1 <= M <= n, got M={M}, n={n}")
    return BlockPlan(n=n, M=M, w=n // M)


def default_block_length(n: int) -> int:
    """Default M = floor(n^(1/3)); the epsilon guards cube-perfect n."""
    return max(1, int(math.floor(n ** (1.0 / 3.0) + 1e-9)))


class LongRunEstimate:
    """Symmetric PSD estimate of the long-run covariance matrix, kept as the
    block sums Y it is built from: (w, p) for one panel, or (S, w, p) for a
    run of S same-shape panels at one plan, whose block_sums[s] and
    abs_max[s] are bit for bit those of panel s alone.

    abs_max, (p,) or (S, p), bounds each column of the data summed.  The
    diagonal is computed on building, and sigma = Y^T Y / (M w) is formed
    only when read.  Nothing is checked on building: reading sigma, like
    the bootstrap's factor step, first checks that the diagonal is finite
    (check_finite); since each |sigma_jk| <= sqrt(sigma_jj sigma_kk), that
    bounds every entry of sigma and every column norm of Y.
    """

    def __init__(self, *, plan: BlockPlan, block_sums: np.ndarray, abs_max: np.ndarray):
        self.plan = plan
        self.block_sums = block_sums
        self.abs_max = abs_max
        self.diag = np.einsum("...ij,...ij->...j", block_sums, block_sums) / (plan.M * plan.w)
        self._sigma = None

    @classmethod
    def centred(cls, plan: BlockPlan, block_sums: np.ndarray,
                abs_max: np.ndarray) -> "LongRunEstimate":
        """Estimate from block sums centred at their mean over the w blocks,
        which for the block sums of data is M times the mean of the used
        observations.  Overflow here leaves a non-finite diagonal."""
        with np.errstate(over="ignore", invalid="ignore"):
            centred = block_sums - block_sums.mean(axis=-2, keepdims=True)
        return cls(plan=plan, block_sums=centred, abs_max=abs_max)

    def check_finite(self) -> None:
        """Raise NumericalError unless the diagonal of every panel is finite."""
        if not np.all(np.isfinite(self.diag)):
            raise NumericalError("the long-run estimate is not finite")

    @property
    def noise_floor(self) -> np.ndarray:
        """Per-column norm of the block sums that rounding alone can produce.

        A worst-case bound for naive summation: a block sum errs by at most
        M^2 u max|x| and M times the mean of the used observations by
        M * wM * u max|x| (u = eps/2), over w blocks.  The bound still
        holds when centring uses the mean of the block sums: that mean errs
        by at most (M-1)M u max|x| + wM u max|x|, so a centred block sum
        errs by at most 2(M-1)M u max|x| + wM u max|x| <= M(M + wM) u max|x|.
        It scales with the data, so a degeneracy check built on it is
        scale-invariant.
        """
        plan, u = self.plan, 0.5 * np.finfo(float).eps
        return u * plan.M * (plan.M + plan.used) * math.sqrt(plan.w) * self.abs_max

    @property
    def sigma(self) -> np.ndarray:
        if self._sigma is None:
            self.check_finite()
            Y = self.block_sums
            S = np.swapaxes(Y, -1, -2) @ Y / (self.plan.M * self.plan.w)
            self._sigma = 0.5 * (S + np.swapaxes(S, -1, -2))
        return self._sigma

    @property
    def diag_scale(self) -> np.ndarray:
        """sqrt of the diagonal (the normalization D used by the bootstrap)."""
        return np.sqrt(self.diag)


def _block_sums(data: np.ndarray, plan: BlockPlan) -> tuple[np.ndarray, np.ndarray]:
    """Block sums (..., w, p) and column bounds abs_max (..., p) of the used
    rows of a panel's data (n, p) or a run's (S, n, p), from one
    (..., w, M, p) reduction.  Each panel's sums are bit for bit those of
    the panel alone: the sum runs over M in order, whatever S is."""
    *lead, n, p = data.shape
    if plan.n != n:
        raise ValidationError(f"plan covers n={plan.n} but panel has n={n} observations")
    used = data[..., :plan.used, :]
    with np.errstate(over="ignore"):  # an overflow leaves a non-finite estimate
        sums = used.reshape(*lead, plan.w, plan.M, p).sum(axis=-2)
    return sums, np.max(np.abs(used), axis=-2)


def sigma_hat(panel: Panel, plan: BlockPlan) -> LongRunEstimate:
    """Batched-mean estimate (1/(Mw)) sum_b Y_b Y_b^T (mean assumed zero).

    PSD by construction (average of outer products); the caller is
    responsible for the zero-mean assumption.
    """
    sums, abs_max = _block_sums(panel.data, plan)
    return LongRunEstimate(plan=plan, block_sums=sums, abs_max=abs_max)


def sigma_tilde(panel: Panel, plan: BlockPlan) -> LongRunEstimate:
    """Mean-subtracted batched-mean estimate, valid with unknown mean.

    The block sums are centred at their mean, which is M times the sample
    mean xbar over the first w*M observations, so that
    sigma_hat - sigma_tilde = M * xbar xbar^T up to rounding.
    """
    return LongRunEstimate.centred(plan, *_block_sums(panel.data, plan))


# ---------------------------------------------------------------------------
# Closed-form targets (iid / linear families)
# ---------------------------------------------------------------------------

def _closed_form_guard(spec: ProcessSpec):
    if spec.family not in ("iid", "linear"):
        raise ValidationError(
            f"no closed-form long-run covariance for family {spec.family!r}; "
            "use a long-simulation estimate (experiments.mc_long_run_sigma)")


def autocovariance(spec: ProcessSpec, k: int) -> np.ndarray:
    """Gamma(k) = E X_0 X_k^T in closed form for iid/linear specs."""
    _closed_form_guard(spec)
    var = spec.innovation.variance
    c = spec.lag_weights()
    k = abs(k)
    g = float(np.dot(c[:c.shape[0] - k], c[k:])) if k < c.shape[0] else 0.0
    B = spec.cross_mixer()
    return var * g * (B @ B.T)


def true_sigma(spec: ProcessSpec) -> np.ndarray:
    """Long-run covariance Sigma = sum_k Gamma(k) in closed form.

    Sigma = var(eps) * (sum_k A_k)(sum_k A_k)^T, which is var(eps) * I for iid.
    """
    _closed_form_guard(spec)
    var = spec.innovation.variance
    c_sum = float(np.sum(spec.lag_weights()))
    B = spec.cross_mixer()
    return var * c_sum ** 2 * (B @ B.T)


def sigma_M_target(spec: ProcessSpec, M: int) -> np.ndarray:
    """Bartlett-weighted truncation sum_{|i|<M} (1-|i|/M) Gamma(i).

    Equals the exact expectation of sigma_hat when the mean is zero.
    """
    _closed_form_guard(spec)
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    out = autocovariance(spec, 0).copy()
    for i in range(1, M):
        w = 1.0 - i / M
        G = autocovariance(spec, i)
        out += w * (G + G.T)
    return out


# ---------------------------------------------------------------------------
# Theoretical rates
# ---------------------------------------------------------------------------

def v_of_M(alpha: float, M: float) -> float:
    """Bias factor: 1/M for alpha > 1, log(M)/M at alpha = 1, M^-alpha below."""
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if alpha > 1.0:
        return 1.0 / M
    if alpha == 1.0:
        return math.log(M) / M
    if alpha > 0.0:
        return M ** (-alpha)
    raise BoundaryError(f"bias factor undefined for alpha = {alpha}")


def _f_alpha_exponents(q: float, alpha: float) -> tuple[float, float]:
    """(a, b) with F_alpha = w^a M^b, the block-count factor of the
    polynomial tail bound, by dependence regime."""
    hi, lo = 1.0 - 2.0 / q, 0.5 - 2.0 / q
    if alpha in (hi, lo):
        raise BoundaryError(f"alpha = {alpha} sits on an F-factor regime boundary")
    if alpha > hi:
        return 1.0, 1.0
    b = q / 2.0 - alpha * q / 2.0
    return (1.0, b) if alpha > lo else (q / 4.0 - alpha * q / 2.0, b)


def f_alpha_factor(q: float, alpha: float, w: int, M: int) -> float:
    """F_alpha = w^a M^b in Python powers, which raise OverflowError beyond
    the float range (at large q and small alpha); log_f_alpha_factor holds
    there."""
    a, b = _f_alpha_exponents(q, alpha)
    return float(w ** a * M ** b)


def log_f_alpha_factor(q: float, alpha: float, w: int, M: int) -> float:
    """log F_alpha = a log w + b log M, finite for every q."""
    a, b = _f_alpha_exponents(q, alpha)
    return a * math.log(w) + b * math.log(M)


@dataclass
class RateInfo:
    r_n: float
    F_alpha: float | None        # inf where F_alpha lies beyond the float range
    n: int
    M: int
    w: int
    variance_term: float
    bias_term: float
    regime: str


def theoretical_rate(profile, n: int, M: int | None = None,
                     nu: float | None = None) -> RateInfo:
    """Convergence-rate bound r_n for |sigma_tilde - Sigma|_inf.

    Polynomial-moment case by default; with nu given (and finite Phi norms
    on the profile) the sub-exponential bound is used instead, with
    gamma = 1/(1+2*nu).
    """
    q, alpha, p = profile.q, profile.alpha, profile.p
    plan = plan_blocks(n, M)
    M, w = plan.M, plan.w
    aux = profile.aux
    if aux.psi_2_0 is None or aux.psi_2_a is None:
        raise ValidationError("profile lacks Psi_{2,0} / Psi_{2,alpha}")
    bias = aux.psi_2_0 * aux.psi_2_a * v_of_M(alpha, M)

    if nu is not None:
        if profile.Phi_0 is None:
            raise ValidationError("sub-exponential rate needs Phi_{psi_nu,0}")
        gamma = 1.0 / (1.0 + 2.0 * nu)
        var_term = math.sqrt(w) * M * profile.Phi_0 ** 2 * \
            math.log(p) ** (1.0 / gamma) / n
        return RateInfo(r_n=var_term + bias, F_alpha=None, n=n, M=M, w=w,
                        variance_term=var_term, bias_term=bias,
                        regime="sub-exponential")

    if aux.psi_4_a is None:
        raise ValidationError("profile lacks Psi_{4,alpha}")
    log_F = log_f_alpha_factor(q, alpha, w, M)
    with np.errstate(over="ignore"):
        F = float(np.exp(log_F))            # inf beyond the float range
    var_term = max(
        p ** (2.0 / q) * math.exp(2.0 / q * log_F) * profile.Upsilon ** 2,
        math.sqrt(w) * M * aux.psi_4_a ** 2 * math.sqrt(math.log(p)),
        math.sqrt(w) * M * profile.Psi ** 2,
    ) / n
    return RateInfo(r_n=var_term + bias, F_alpha=F, n=n, M=M, w=w,
                    variance_term=var_term, bias_term=bias, regime="polynomial")
