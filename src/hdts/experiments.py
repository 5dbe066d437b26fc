"""Monte Carlo harness: Gaussian-approximation quality, CI coverage,
estimator rates, m-dependence decay, and the heavy-tail failure regime.

Every experiment derives per-replication streams from its base seed, so
reports are bit-reproducible for a fixed configuration regardless of the
number of worker threads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .gboot import psd_sqrt, simultaneous_ci
from .longrun import plan_blocks, sigma_tilde, theoretical_rate, true_sigma
from .depmeasure import closed_form_profile
from .model import (InnovationLaw, ProcessSpec, _draw_innovations, _lag_sums, column_sums,
                    gaussian_abs_moment_root, lag_sum_weights, simulate)
from .rng import RngContract
from .util import fit_loglog_slope, run_indexed

TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def two_sample_ks(x, y) -> float:
    """sup_u |F_x(u) - F_y(u)| over the pooled sample points."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValidationError("KS distance needs non-empty samples")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_permutation_pvalue(x, y, n_perm: int, rng: RngContract) -> float:
    """Permutation p-value for the two-sample KS distance."""
    if n_perm < 1:
        raise ValidationError(f"need n_perm >= 1, got {n_perm}")
    obs = two_sample_ks(x, y)
    pooled = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    n1 = np.asarray(x).size
    gen = rng.derive("ks-perm").generator()
    exceed = 0
    for _ in range(n_perm):
        perm = gen.permutation(pooled)
        if two_sample_ks(perm[:n1], perm[n1:]) >= obs - 1e-15:
            exceed += 1
    return (exceed + 1) / (n_perm + 1)


# ---------------------------------------------------------------------------
# Gaussian-approximation distance
# ---------------------------------------------------------------------------

@dataclass
class GaDistanceResult:
    ks: float
    pvalue: float | None
    n: int
    p: int
    R: int
    sample_stats: np.ndarray     # |D0^{-1} S_n|_inf / sqrt(n) per replication
    gauss_stats: np.ndarray      # |D0^{-1} Z|_inf draws


def mc_long_run_sigma(spec: ProcessSpec, length: int = 10 ** 6,
                      rng: RngContract | None = None) -> np.ndarray:
    """Approximate long-run covariance from one long path (batched means,
    default block length).

    Fallback oracle for families without a closed form; the result is an
    estimate, not the exact matrix.
    """
    rng = rng if rng is not None else RngContract(0)
    panel = simulate(spec, length, rng.derive("long-path"))
    return sigma_tilde(panel, plan_blocks(length)).sigma


def ga_distance(spec: ProcessSpec, n: int, R: int, rng: RngContract,
                sigma: np.ndarray | None = None, n_perm: int = 200,
                threads: int = 1) -> GaDistanceResult:
    """Two-sample KS distance between the normalized max statistic and its
    Gaussian analogue.

    One sample holds R replications of |D0^{-1} S_n|_inf / sqrt(n), where
    S_n is the column-sum vector; the other holds R draws of
    |D0^{-1} Z|_inf with Z ~ N(0, Sigma).  For iid/linear specs S_n comes
    from the lag-sum weights applied to the innovations (model.column_sums),
    so no panel is built, and Sigma from the closed form; other families
    sum a simulated panel and must pass an (approximate) sigma, e.g. from
    mc_long_run_sigma.  n_perm = 0 skips the permutation test.
    """
    if n_perm < 0:
        raise ValidationError(f"n_perm must be >= 0, got {n_perm}")
    if sigma is None:
        sigma = true_sigma(spec)
    d0 = np.sqrt(np.diag(sigma))
    if np.min(d0) <= 0:
        raise ValidationError("Sigma has a degenerate diagonal")

    def one_rep(r: int) -> float:
        s = column_sums(spec, n, rng.derive("ga-panel", r))
        return float(np.max(np.abs(s) / d0) / math.sqrt(n))

    sample_stats = np.array(run_indexed(one_rep, R, threads))
    root = psd_sqrt(sigma)
    eta = rng.derive("ga-gauss").generator().standard_normal((R, sigma.shape[0]))
    gauss_stats = np.max(np.abs(eta @ root.T) / d0, axis=1)
    ks = two_sample_ks(sample_stats, gauss_stats)
    pval = ks_permutation_pvalue(sample_stats, gauss_stats, n_perm, rng) \
        if n_perm > 0 else None
    return GaDistanceResult(ks=ks, pvalue=pval, n=n, p=spec.p, R=R,
                            sample_stats=sample_stats, gauss_stats=gauss_stats)


# ---------------------------------------------------------------------------
# Experiment configuration / report plumbing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Grid of coverage cells, each run with R replications."""

    spec: ProcessSpec
    R: int = 200
    B: int = 2000
    base_seed: int = 0
    n_list: list[int] = field(default_factory=lambda: [500])
    p_list: list[int] | None = None
    M_list: list[int | None] = field(default_factory=lambda: [None])
    theta_list: list[float] = field(default_factory=lambda: [0.95])
    threads: int = 1

    def __post_init__(self):
        if self.R < 200:
            raise ValidationError(
                f"coverage runs need R >= 200 replications, got {self.R}")
        if not self.n_list or not self.M_list or not self.theta_list:
            raise ValidationError("experiment grid must be nonempty")

    def cells(self):
        p_list = self.p_list if self.p_list else [self.spec.p]
        for n in self.n_list:
            for p in p_list:
                for M in self.M_list:
                    for theta in self.theta_list:
                        yield n, p, M, theta


@dataclass
class ExperimentReport:
    rows: list[dict]
    runtimes: list[float]        # seconds per grid cell


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def coverage_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Empirical simultaneous coverage of the zero mean vector per grid cell."""
    rows = []
    runtimes = []
    base = RngContract(config.base_seed)
    for ci_idx, (n, p, M, theta) in enumerate(config.cells()):
        spec = replace(config.spec, p=p)
        t0 = time.perf_counter()

        def one_rep(r: int, _spec=spec, _n=n, _M=M, _theta=theta, _c=ci_idx):
            cell_rng = base.derive("coverage-cell", _c)
            panel = simulate(_spec, _n, cell_rng.derive("panel", r))
            report = simultaneous_ci(panel, _theta, _M, config.B,
                                     cell_rng.derive("boot", r))
            return report.covers(np.zeros(_spec.p)), float(np.median(report.half_widths()))

        out = run_indexed(one_rep, config.R, config.threads)
        covered = np.array([o[0] for o in out], dtype=float)
        widths = np.array([o[1] for o in out])
        cov = float(covered.mean())
        rows.append({
            "n": n, "p": p, "M": 0 if M is None else M, "theta": theta,
            "R": config.R, "B": config.B, "coverage": cov,
            "coverage_se": float(math.sqrt(cov * (1.0 - cov) / config.R)),
            "median_halfwidth": float(np.median(widths)),
        })
        runtimes.append(time.perf_counter() - t0)
    return ExperimentReport(rows=rows, runtimes=runtimes)


# ---------------------------------------------------------------------------
# Estimator rate
# ---------------------------------------------------------------------------

@dataclass
class RateResult:
    median_err: np.ndarray
    r_n: np.ndarray
    empirical_slope: float
    theoretical_slope: float
    rows: list[dict]


def rate_experiment(spec: ProcessSpec, n_grid, R: int, rng: RngContract,
                    q: float = 8.0, M_rule=None, threads: int = 1) -> RateResult:
    """Median |sigma_tilde - Sigma|_inf over an n-grid vs the rate bound.

    Fits log-log slopes of both curves on the same grid; M defaults to
    floor(n^(1/3)) unless M_rule(n) is supplied.
    """
    n_grid = list(n_grid)
    if len(n_grid) < 3:
        raise ValidationError(f"need an n-grid with >= 3 points, got {len(n_grid)}")
    if R < 1:
        raise ValidationError(f"rate_experiment needs R >= 1 replications, got {R}")
    sigma = true_sigma(spec)
    profile = closed_form_profile(spec, q, spec.alpha)
    med = np.empty(len(n_grid))
    rn = np.empty(len(n_grid))
    rows = []
    for gi, n in enumerate(n_grid):
        plan = plan_blocks(n, M_rule(n) if M_rule is not None else None)
        M = plan.M

        def one_rep(r: int, _n=n, _plan=plan, _cell=rng.derive("rate-cell", gi)):
            panel = simulate(spec, _n, _cell.derive("rate-panel", r))
            est = sigma_tilde(panel, _plan)
            return float(np.max(np.abs(est.sigma - sigma)))

        errs = np.array(run_indexed(one_rep, R, threads))
        med[gi] = float(np.median(errs))
        rn[gi] = theoretical_rate(profile, n, M).r_n
        rows.append({"n": n, "M": M, "median_err": med[gi], "r_n": rn[gi], "R": R})
    emp = fit_loglog_slope(n_grid, med)
    theo = fit_loglog_slope(n_grid, rn)
    return RateResult(median_err=med, r_n=rn,
                      empirical_slope=emp, theoretical_slope=theo, rows=rows)


# ---------------------------------------------------------------------------
# m-dependence decay
# ---------------------------------------------------------------------------

def mdep_oracle_norm(spec: ProcessSpec, n: int, m: int, q: float = 2.0) -> np.ndarray:
    """Exact ||S_n - S_{n,m}||_q per coordinate for the iid and linear families.

    The difference is sum_t D_t * (B eps_t)_j with the lag-sum weights
    D = lag_sum_weights(spec, n, m + 1), all zero for iid; for q = 2 only
    the innovation variance enters, for other q the innovations must be
    Gaussian.
    """
    if spec.family not in ("iid", "linear"):
        raise ValidationError("the closed-form oracle needs the iid or linear family")
    law = spec.innovation
    ssq = float(np.sum(lag_sum_weights(spec, n, m + 1) ** 2))
    # a sum with all-zero weights has every norm zero, whatever the law
    if q != 2.0 and law.kind != "standard-gaussian" and ssq > 0:
        raise ValidationError("q != 2 oracle requires Gaussian innovations")
    b_row = np.linalg.norm(spec.cross_mixer(), axis=1)
    scale = math.sqrt(law.variance * ssq) * b_row
    if q == 2.0:
        return scale
    return gaussian_abs_moment_root(q) * scale


@dataclass
class MdepResult:
    mc_norm: np.ndarray          # max_j MC ||S_n - S_{n,m}||_q / sqrt(n)
    oracle_norm: np.ndarray
    mc_se: np.ndarray
    slope: float
    target_slope: float
    rows: list[dict]


def mdep_rate_check(spec: ProcessSpec, q: float, alpha: float, m_grid,
                    R: int, rng: RngContract, n: int = 4096,
                    threads: int = 1) -> MdepResult:
    """Monte Carlo decay of ||S_n - S_{n,m}||_q / sqrt(n) against m^-alpha.

    Restricted to iid/linear families (mdep_oracle_norm rejects any other
    before a replication runs), where each S_n - S_{n,m} is the lag-sum
    weights applied to the innovations simulate would draw; for iid every
    difference is exactly zero and the fitted slope is NaN.
    """
    m_grid = list(m_grid)
    if len(m_grid) < 3:
        raise ValidationError(f"need an m-grid with >= 3 points, got {len(m_grid)}")
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    if min(m_grid) < 1:
        raise ValidationError(f"m must be >= 1 for the slope fit on log m, got {min(m_grid)}")
    if R < 2:
        raise ValidationError(f"mdep_rate_check needs R >= 2 replications, got {R}")
    oracle = np.array([np.max(mdep_oracle_norm(spec, n, m, q)) for m in m_grid]) \
        / math.sqrt(n)
    W = np.stack([lag_sum_weights(spec, n, m + 1) for m in m_grid])   # (|grid|, n+K)

    def one_rep(r: int) -> np.ndarray:
        eps = _draw_innovations(spec, n, rng.derive("mdep-panel", r)).values
        return _lag_sums(spec, eps, W, n)[0]

    diffs = np.stack(run_indexed(one_rep, R, threads))       # (R, |grid|, p)
    mom = np.mean(np.abs(diffs) ** q, axis=0)
    norms = mom ** (1.0 / q) / math.sqrt(n)
    # delta-method SE of the q-th root of the moment, per (m, j)
    mom_se = np.std(np.abs(diffs) ** q, axis=0, ddof=1) / math.sqrt(R)
    norm_se = np.zeros_like(mom)
    pos = mom > 0
    norm_se[pos] = mom[pos] ** (1.0 / q - 1.0) / q * mom_se[pos] / math.sqrt(n)

    j_star = np.argmax(norms, axis=1)
    mc = norms[np.arange(len(m_grid)), j_star]
    se = norm_se[np.arange(len(m_grid)), j_star]
    slope = fit_loglog_slope(m_grid, mc) if np.all(mc > 0) else float("nan")
    rows = [{"m": m, "mc_norm": float(mc[i]), "oracle_norm": float(oracle[i]),
             "mc_se": float(se[i])} for i, m in enumerate(m_grid)]
    return MdepResult(mc_norm=mc, oracle_norm=oracle, mc_se=se,
                      slope=slope, target_slope=-alpha, rows=rows)


# ---------------------------------------------------------------------------
# Heavy-tail failure regime
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleResult:
    rows: list[dict]
    samples: dict                # p -> (sample_stats, gauss_stats)


def counterexample_demo(tail_index: float, n: int, p_grid, R: int,
                        rng: RngContract, body: str = "shell",
                        threads: int = 1) -> CounterexampleResult:
    """KS trajectory of the max statistic under heavy-tailed iid panels.

    For each p, compares |S_n|_inf / sqrt(n) samples against |Z|_inf draws
    (Z standard normal in R^p; the innovation law has unit variance by
    construction), and reports the diagnostics p*P(|column sum| >= sqrt(n) u)
    and p*P(|Z_1| >= u) at u = sqrt(2 log p).

    The default body="shell" puts the free below-threshold mass right under
    u0; with the uniform body the excess over the Gaussian tail is far too
    small to move the maximum at desk-scale (n, p).
    """
    from scipy.stats import norm
    if tail_index <= 2:
        raise ValidationError(f"tail index must exceed 2, got {tail_index}")
    law = InnovationLaw.symmetric_pareto(tail_index, body=body)
    rows = []
    samples = {}
    for pi, p in enumerate(p_grid):
        spec = ProcessSpec("iid", p=p, innovation=law)
        u = math.sqrt(2.0 * math.log(p))

        def one_rep(r: int, _spec=spec, _cell=rng.derive("ctrex-cell", pi), _u=u):
            s = column_sums(_spec, n, _cell.derive("ctrex-panel", r))
            stats = np.abs(s) / math.sqrt(n)
            return float(np.max(stats)), int(np.sum(stats >= _u))

        out = run_indexed(one_rep, R, threads)
        sample_stats = np.array([o[0] for o in out])
        tail_hits = sum(o[1] for o in out)
        eta = rng.derive("ctrex-gauss", pi).generator().standard_normal((R, p))
        gauss_stats = np.max(np.abs(eta), axis=1)
        ks = two_sample_ks(sample_stats, gauss_stats)
        rows.append({
            "p": p, "n": n, "R": R, "tail_index": tail_index, "body": body,
            "ks": ks,
            "p_tail_emp": tail_hits / R,
            "p_tail_gauss": p * 2.0 * float(norm.sf(u)),
        })
        samples[p] = (sample_stats, gauss_stats)
    return CounterexampleResult(rows=rows, samples=samples)


def ecdf_dump_rows(sample, gauss) -> list[dict]:
    """Rows (u, ecdf_sample, ecdf_gauss) on the pooled sorted grid."""
    sample = np.sort(np.asarray(sample, dtype=float))
    gauss = np.sort(np.asarray(gauss, dtype=float))
    pooled = np.unique(np.concatenate([sample, gauss]))
    es = np.searchsorted(sample, pooled, side="right") / sample.size
    eg = np.searchsorted(gauss, pooled, side="right") / gauss.size
    return [{"u": u, "ecdf_sample": a, "ecdf_gauss": b}
            for u, a, b in zip(pooled, es, eg)]
