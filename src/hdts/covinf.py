"""Simultaneous inference for covariance entries via the centered product
process X_ij * X_ik - gamma_jk.

Pairs (j, k) with j <= k are laid out in upper-triangular order, giving
p(p+1)/2 columns; the duplicated lower triangle would add nothing to a
maximum statistic.  The product panel is centered at the sample covariance
(the population value being unknown in practice).  The test never builds
that n x p(p+1)/2 panel: its block sums are upper triangles of per-block
Gram matrices, and `build_cov_panel` is kept as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depmeasure import (AuxNorms, DependenceProfile, adjusted_norm, adjusted_norms,
                         _SE_RESAMPLES, _check_mc_order, _tail_sums)
from .errors import ValidationError
from .gboot import bootstrap_quantile, check_symmetric
from .longrun import BlockPlan, LongRunEstimate, _abs_max, plan_blocks
from .model import Panel, ProcessSpec, simulate_coupled
from .rng import RngContract

# cov_simultaneous_test refuses more coordinate pairs than this (p <= 99)
MAX_PAIRS = 5000


def n_pairs(p: int) -> int:
    return p * (p + 1) // 2


def pair_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, k) arrays of the upper-triangular layout, flat index order."""
    return np.triu_indices(p)


def pair_to_flat(j: int, k: int, p: int) -> int:
    """Flat index of the pair (j, k), 0-based, j <= k."""
    if not 0 <= j <= k < p:
        raise ValidationError(f"pair ({j},{k}) outside the upper triangle of p={p}")
    return j * p - j * (j - 1) // 2 + (k - j)


def flat_to_pair(a: int, p: int) -> tuple[int, int]:
    js, ks = pair_indices(p)
    if not 0 <= a < js.shape[0]:
        raise ValidationError(f"flat index {a} outside 0..{js.shape[0] - 1}")
    return int(js[a]), int(ks[a])


@dataclass(frozen=True)
class CovPanel:
    """Centered product panel: data[i, a] = X_ij X_ik - gamma_hat_a."""

    data: np.ndarray
    gamma_hat: np.ndarray
    p: int


def build_cov_panel(panel: Panel) -> CovPanel:
    """Upper-triangular product panel centered at the sample covariances."""
    if panel.n < 2:
        raise ValidationError(f"need n >= 2 observations, got {panel.n}")
    js, ks = pair_indices(panel.p)
    prods = panel.data[:, js] * panel.data[:, ks]
    gamma_hat = prods.mean(axis=0)
    return CovPanel(data=prods - gamma_hat, gamma_hat=gamma_hat, p=panel.p)


def product_block_sums(panel: Panel, plan: BlockPlan) -> tuple[np.ndarray, np.ndarray]:
    """Block sums of the centered product panel, and gamma_hat, from Gram matrices.

    Row b is the upper triangle of X_b^T X_b - M gamma_hat for block b of
    the plan; gamma_hat is the upper triangle of X^T X / n over all n rows.
    Equal, up to rounding, to the block sums of build_cov_panel(panel).
    """
    if panel.n < 2:
        raise ValidationError(f"need n >= 2 observations, got {panel.n}")
    if plan.n != panel.n:
        raise ValidationError(
            f"plan covers n={plan.n} but panel has n={panel.n} observations")
    js, ks = pair_indices(panel.p)
    X = panel.data
    gamma_hat = (X.T @ X)[js, ks] / panel.n
    blocks = X[:plan.used].reshape(plan.w, plan.M, panel.p)
    gram = np.matmul(blocks.transpose(0, 2, 1), blocks)
    return gram[:, js, ks] - plan.M * gamma_hat, gamma_hat


# ---------------------------------------------------------------------------
# Dependence-norm bounds for the product process
# ---------------------------------------------------------------------------

def cov_dep_norm_bound(profile: DependenceProfile) -> DependenceProfile:
    """Profile of the product process at (q/2, alpha) over the p(p+1)/2
    pairs, bounded by the base process's adjusted norms.

    Requires a base profile at moment order q >= 4 with per-coordinate
    norms at (q, 0) and (q, alpha); products then live at order q/2 >= 2.
    The result feeds the condition checker like any other profile.
    """
    q, alpha, p = profile.q, profile.alpha, profile.p
    if q < 4:
        raise ValidationError(f"product bounds need q >= 4, got q={q}")
    if profile.Delta is None or profile.coord_norms is None:
        raise ValidationError("base profile lacks per-coordinate tail sums")
    norms_a = np.asarray(profile.coord_norms, dtype=float)
    norms_0 = adjusted_norms(profile.Delta, 0.0)

    m = n_pairs(p)
    js, ks = pair_indices(p)
    per_pair = 2.0 * norms_0[js] * norms_a[ks] + 2.0 * norms_0[ks] * norms_a[js]
    uniform = 4.0 * float(np.max(norms_0)) * float(np.max(norms_a))
    q2 = q / 2.0
    overall = 4.0 * float(np.sum(norms_0 ** q2) ** (2.0 / q)) * \
        float(np.sum(norms_a ** q2) ** (2.0 / q))

    if profile.Omega is not None:
        linf_0 = adjusted_norm(profile.Omega, 0.0)
        linf_a = adjusted_norm(profile.Omega, alpha)
        sup_inf = 4.0 * linf_0 * linf_a
    else:
        sup_inf = float(uniform * m)  # crude fallback via the overall sum

    # uniform bounds at the auxiliary orders the condition checker needs:
    # the product process at order r inherits 4 Psi_{2r,0} Psi_{2r,.} from
    # the base process (the same pairing inequality at moment order 2r)
    base = profile.aux
    aux = AuxNorms()
    if base.psi_4_0 is not None:
        aux.psi_2_0 = 4.0 * base.psi_4_0 ** 2
        if base.psi_4_a is not None:
            aux.psi_2_a = 4.0 * base.psi_4_0 * base.psi_4_a
    if base.psi_6_0 is not None:
        aux.psi_3_0 = 4.0 * base.psi_6_0 ** 2
    if base.psi_8_0 is not None:
        aux.psi_4_0 = 4.0 * base.psi_8_0 ** 2
    return DependenceProfile(
        q=q2, alpha=alpha, p=m, Psi=uniform, Upsilon=overall, sup_norm=sup_inf,
        Theta=min(overall, sup_inf * math.log(m)), coord_norms=per_pair,
        aux=aux, source={"kind": "upper-bound"})


def mc_cov_norms(spec: ProcessSpec, q: float, alpha: float, R: int,
                 rng: RngContract, lags: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of ||prod_{.a}||_{q/2, alpha} for every pair.

    Returns (norms, bootstrap standard errors), truncated at the simulated
    lag horizon (truncation only lowers the estimate, so comparisons
    against upper bounds stay valid).
    """
    if R < 100:
        raise ValidationError(f"need R >= 100 replications, got {R}")
    _check_mc_order(spec, q)
    q2 = q / 2.0
    n = lags + 1
    js, ks = pair_indices(spec.p)
    m = js.shape[0]
    absdiff = np.empty((R, n, m))
    for r in range(R):
        x, xc = simulate_coupled(spec, n, rng.derive("mc-cov", r))
        prod = x.data[:, js] * x.data[:, ks]
        prod_c = xc.data[:, js] * xc.data[:, ks]
        absdiff[r] = np.abs(prod - prod_c)

    def norm_from_weights(w: np.ndarray) -> np.ndarray:
        mom = (w @ absdiff.reshape(R, -1) ** q2).reshape(-1, n, m)
        phi = np.clip(mom, 0.0, None) ** (1.0 / q2)
        return np.array([adjusted_norms(_tail_sums(phi_b), alpha) for phi_b in phi])

    norms = norm_from_weights(np.full((1, R), 1.0 / R))[0]
    bgen = rng.derive("mc-cov-boot").generator()
    weights = bgen.multinomial(R, np.full(R, 1.0 / R), size=_SE_RESAMPLES) / R
    boot = norm_from_weights(weights)
    return norms, boot.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Simultaneous covariance test
# ---------------------------------------------------------------------------

@dataclass
class CovTestResult:
    """Max-deviation test of the covariances against a null matrix."""

    statistic: float             # sqrt(n) max_a |gamma_hat_a - gamma0_a| / tau_a
    threshold: float             # bootstrap quantile chi
    theta: float
    gamma_hat: np.ndarray
    tau: np.ndarray
    pair_stats: np.ndarray
    flagged: np.ndarray          # (count, 2) array of flagged (j, k) pairs
    n: int
    M: int
    w: int
    B: int

    @property
    def reject(self) -> bool:
        return self.statistic > self.threshold


def cov_simultaneous_test(panel: Panel, theta: float, M: int | None, B: int,
                          rng: RngContract, null_gamma: np.ndarray | None = None
                          ) -> CovTestResult:
    """Simultaneous test of all covariance entries at level 1 - theta.

    Runs the mean-subtracted batched estimator and the multiplier bootstrap
    on the product panel, from its block sums (see product_block_sums);
    tau_a is taken from the diagonal of that estimate.  A given null_gamma
    is a symmetric p x p matrix (psd_sqrt's tolerance); the default null
    has zero off-diagonals and leaves the variances untested (diagonal
    entries set to their sample values).
    """
    p = panel.p
    if n_pairs(p) > MAX_PAIRS:
        raise ValidationError(
            f"p(p+1)/2 = {n_pairs(p)} exceeds the guard of {MAX_PAIRS} columns; "
            "test a coordinate subset")
    plan = plan_blocks(panel.n, M)
    Y, gamma_hat = product_block_sums(panel, plan)
    js, ks = pair_indices(p)
    if null_gamma is None:
        null_flat = np.zeros(n_pairs(p))
        null_flat[js == ks] = gamma_hat[js == ks]
    else:
        null_gamma = np.asarray(null_gamma, dtype=float)
        if not np.all(np.isfinite(null_gamma)):
            raise ValidationError("null gamma has non-finite entries")
        if null_gamma.shape != (p, p):
            raise ValidationError(f"null gamma must be ({p},{p}), got {null_gamma.shape}")
        check_symmetric(null_gamma, "null gamma")
        null_flat = null_gamma[js, ks]

    # |X_ij X_ik| <= max|X_j| max|X_k| bounds the product columns
    abs_max = _abs_max(panel, plan)
    est = LongRunEstimate(kind="tilde", plan=plan, block_sums=Y - Y.mean(axis=0),
                          abs_max=abs_max[js] * abs_max[ks])
    bq = bootstrap_quantile(est, theta, B, rng)
    tau = est.diag_scale
    pair_stats = math.sqrt(panel.n) * np.abs(gamma_hat - null_flat) / tau
    statistic = float(np.max(pair_stats))
    mask = pair_stats > bq.chi
    flagged = np.column_stack([js[mask], ks[mask]])
    return CovTestResult(statistic=statistic, threshold=bq.chi, theta=theta,
                         gamma_hat=gamma_hat, tau=tau, pair_stats=pair_stats,
                         flagged=flagged, n=panel.n, M=plan.M, w=plan.w, B=B)
